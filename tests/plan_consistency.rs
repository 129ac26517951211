//! Consistency of the `ExecutionPlan` lowering pass against its two ground
//! truths: the analytic MAC counts of `NetworkSpec`, and the functional
//! `reram-nn` forward pass for the generalized bank compiler.
#![expect(
    clippy::expect_used,
    reason = "shared setup helpers abort on a setup error, which fails the calling test"
)]

use proptest::prelude::*;
use reram_suite::core::{AcceleratorConfig, CompiledNetwork, ExecutionPlan, NetStage};
use reram_suite::crossbar::CrossbarConfig;
use reram_suite::nn::activations::Activation;
use reram_suite::nn::layers::{ActivationLayer, Conv2d, Flatten, Linear, Pool2d};
use reram_suite::nn::{models, LayerSpec, Network, NetworkSpec};
use reram_suite::tensor::{init, Matrix, Shape2, Shape4, Tensor};

fn assert_plan_macs_match(net: &NetworkSpec) {
    let cfg = AcceleratorConfig::default();
    let plan = ExecutionPlan::lower(net, &cfg).expect("plan lowers");
    // Whole-network totals reproduce the spec's analytic counts.
    assert_eq!(plan.forward_macs(), net.forward_macs(), "{}", net.name);
    assert_eq!(plan.training_macs(), net.training_macs(), "{}", net.name);
    // Per weighted layer, the MAC volume factors exactly into the mapped
    // crossbar geometry: MACs = MVMs x rows x cols.
    for l in &plan.layers {
        assert_eq!(
            l.work.forward_macs,
            l.forward_mvms * l.work.crossbar_rows * l.work.crossbar_cols,
            "{} layer {}",
            net.name,
            l.name
        );
    }
    // The weighted layers' MACs account for all crossbar work; the
    // remainder is unweighted routing (pool / activation / batch-norm).
    let weighted: u64 = plan.layers.iter().map(|l| l.work.forward_macs).sum();
    let unweighted: u64 = net
        .layers
        .iter()
        .filter(|l| !l.is_weighted())
        .map(LayerSpec::forward_macs)
        .sum();
    assert_eq!(weighted + unweighted, net.forward_macs(), "{}", net.name);
}

#[test]
fn plan_macs_match_specs_for_all_models() {
    for net in [
        models::lenet_spec(),
        models::mnist_deep_spec(),
        models::alexnet_spec(),
        models::vgg_a_spec(),
        models::googlenet_spec(),
        models::dcgan_generator_spec(100, 3, 64),
        models::dcgan_discriminator_spec(3, 64),
    ] {
        assert_plan_macs_match(&net);
    }
}

proptest! {
    /// The lowering pass conserves MAC totals for every DCGAN geometry.
    #[test]
    fn plan_macs_match_random_dcgan_geometries(
        latent in 8usize..256,
        channels in 1usize..5,
        hw_exp in 4u32..8,
    ) {
        let hw = 1usize << hw_exp;
        assert_plan_macs_match(&models::dcgan_generator_spec(latent, channels, hw));
        assert_plan_macs_match(&models::dcgan_discriminator_spec(channels, hw));
    }
}

#[test]
fn compiled_network_matches_functional_forward_on_small_cnn() {
    // The same CONV + POOL + FC stack evaluated (a) functionally by
    // reram-nn in floating point and (b) as a lowered instruction stream
    // on a PIM bank agree within crossbar quantization error.
    let mut rng = init::seeded_rng(33);
    let conv = Conv2d::new(2, 3, 3, 1, 0, &mut rng);
    let fc = Linear::new(3 * 2 * 2, 4, &mut rng);
    let conv_w: Tensor = conv.weight().clone();
    let fc_w: Matrix = fc.weight().clone();
    let mut net = Network::new("tiny-cnn", Shape4::new(1, 2, 6, 6))
        .push(conv)
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Flatten::new())
        .push(fc);

    // Kernel tensor (out_c, in_c, k, k) flattened row-major is exactly the
    // (out_c x in_c*k*k) matrix the compiler maps onto a crossbar.
    let conv_mat = Matrix::from_vec(Shape2::new(3, 2 * 3 * 3), conv_w.data().to_vec());
    let mut compiled = CompiledNetwork::compile(
        (2, 6, 6),
        vec![
            NetStage::Conv {
                weights: conv_mat,
                k: 3,
                stride: 1,
                pad: 0,
                activation: Some(Activation::Relu),
            },
            NetStage::MaxPool { k: 2, stride: 2 },
            NetStage::Fc {
                weights: fc_w,
                activation: None,
            },
        ],
        &CrossbarConfig::default(),
    )
    .expect("stack compiles");
    assert_eq!(compiled.output_len(), 4);

    for seed in 0..3 {
        let x: Vec<f32> = (0..72)
            .map(|i| (((i + seed * 11) % 9) as f32 - 4.0) / 9.0)
            .collect();
        let bank_out = compiled.forward(&x);
        let net_out = net.forward(&Tensor::from_vec(Shape4::new(1, 2, 6, 6), x.clone()), false);
        assert_eq!(bank_out.len(), net_out.data().len());
        for (a, b) in bank_out.iter().zip(net_out.data()) {
            assert!((a - b).abs() < 0.1, "bank {a} vs network {b}");
        }
    }
}
