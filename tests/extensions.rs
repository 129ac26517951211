//! Integration tests for the extension features: WGAN training, the
//! trainer loop with momentum and dropout, LUT activations in a live
//! network, and the compiled bank program against the functional model.

use reram_suite::core::compiler::{CompiledNetwork, NetStage};
use reram_suite::crossbar::CrossbarConfig;
use reram_suite::datasets::Dataset;
use reram_suite::nn::activations::Activation;
use reram_suite::nn::layers::{ActivationLayer, Dropout, Flatten, Linear};
use reram_suite::nn::{models, Network, TrainConfig, Trainer};
use reram_suite::tensor::{init, Matrix, Shape4};

#[test]
fn wgan_critic_separates_synthetic_faces() {
    let ds = Dataset::celeba_like().with_resolution(16);
    let mut rng = init::seeded_rng(13);
    let mut gan = models::dcgan(16, 4, 3, 16, &mut rng);
    let mut critic_loss = 0.0f32;
    for _ in 0..25 {
        let real = ds.unlabeled_batch(8, &mut rng);
        critic_loss = gan.train_critic_wgan(&real, 0.05, 0.1, &mut rng);
        let _ = gan.train_generator_wgan(8, 0.02, &mut rng);
    }
    assert!(critic_loss.is_finite());
    // Critic prefers real over fake by the end (loss = fake - real < 0).
    assert!(critic_loss < 0.1, "WGAN critic loss {critic_loss}");
}

#[test]
fn trainer_with_momentum_dropout_and_lr_decay() {
    let ds = Dataset::cifar10_like().with_resolution(8);
    let mut rng = init::seeded_rng(17);
    let mut data_rng = init::seeded_rng(18);
    let mut net = Network::new("reg-mlp", Shape4::new(1, 3, 8, 8))
        .push(Flatten::new())
        .push(Linear::new(3 * 8 * 8, 32, &mut rng))
        .push(ActivationLayer::relu())
        .push(Dropout::new(0.8, 7))
        .push(Linear::new(32, 4, &mut rng));
    net.set_momentum(0.9);
    let mut trainer = Trainer::new(TrainConfig {
        lr: 0.02,
        lr_decay: 0.5,
        decay_every: 30,
    });
    trainer.run(&mut net, 60, |_| {
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let images = ds.batch_for_labels(&labels, &mut data_rng);
        (images, labels)
    });
    let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
    let eval = ds.batch_for_labels(&labels, &mut data_rng);
    let acc = trainer.evaluate(&mut net, &eval, &labels);
    assert!(
        acc >= 0.75,
        "regularized training accuracy {acc} (chance 0.25)"
    );
    // Loss trended downward.
    let h = trainer.history();
    assert!(h.final_loss() < h.losses[0]);
}

#[test]
fn lut_activation_network_still_learns() {
    // ReGAN's LUT peripheral: a classifier whose activations all run
    // through 64-entry tables still trains to high accuracy.
    let ds = Dataset::mnist_like().with_resolution(8);
    let mut rng = init::seeded_rng(19);
    let mut data_rng = init::seeded_rng(20);
    let mut net = Network::new("lut-mlp", Shape4::new(1, 1, 8, 8))
        .push(Flatten::new())
        .push(Linear::new(64, 24, &mut rng))
        .push(ActivationLayer::new(Activation::Sigmoid).with_lut(-8.0, 8.0, 64))
        .push(Linear::new(24, 4, &mut rng));
    let mut trainer = Trainer::new(TrainConfig::default());
    trainer.run(&mut net, 60, |_| {
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        (ds.batch_for_labels(&labels, &mut data_rng), labels)
    });
    let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
    let eval = ds.batch_for_labels(&labels, &mut data_rng);
    assert!(trainer.evaluate(&mut net, &eval, &labels) >= 0.75);
}

#[test]
fn compiled_bank_program_matches_functional_network() {
    // The same MLP evaluated (a) by reram-nn in floating point and (b) by
    // the compiled instruction stream on a PIM bank agree to within
    // quantization error.
    let mut rng = init::seeded_rng(21);
    let l1 = Linear::new(6, 10, &mut rng);
    let l2 = Linear::new(10, 3, &mut rng);
    let w1: Matrix = l1.weight().clone();
    let w2: Matrix = l2.weight().clone();
    let mut net = Network::new("mlp", Shape4::new(1, 6, 1, 1))
        .push(l1)
        .push(ActivationLayer::relu())
        .push(l2);

    let mut compiled = CompiledNetwork::compile(
        (6, 1, 1),
        vec![
            NetStage::Fc {
                weights: w1,
                activation: Some(Activation::Relu),
            },
            NetStage::Fc {
                weights: w2,
                activation: None,
            },
        ],
        &CrossbarConfig::default(),
    )
    .expect("layer stack compiles");

    let x: Vec<f32> = (0..6).map(|i| (i as f32) / 6.0 - 0.4).collect();
    let bank_out = compiled.forward(&x);
    let net_out = net.forward(
        &reram_suite::tensor::Tensor::from_vec(Shape4::new(1, 6, 1, 1), x.clone()),
        false,
    );
    assert_eq!(bank_out.len(), 3);
    for (a, b) in bank_out.iter().zip(net_out.data()) {
        assert!((a - b).abs() < 0.05, "bank {a} vs network {b}");
    }
}
