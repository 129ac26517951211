//! ReGAN end-to-end demonstration: train a DCGAN on the synthetic MNIST
//! stand-in using the exact three-phase schedule of the paper's Fig. 8
//! (D on real, D on generated, G through fixed D), then evaluate the cycle
//! cost of that schedule at every ReGAN optimization level and compare
//! against the GPU baseline.
//!
//! ```text
//! cargo run --example gan_training_regan --release
//! ```

use reram_core::{AcceleratorConfig, ReGanAccelerator, ReganOpt, ReganPipeline};
use reram_datasets::Dataset;
use reram_gpu::GpuModel;
use reram_nn::models;
use reram_tensor::init;

fn main() {
    let mut rng = init::seeded_rng(11);
    let ds = Dataset::mnist_like().with_resolution(16);

    // Functional GAN, sized for seconds-scale training.
    let mut gan = models::dcgan(16, 8, 1, 16, &mut rng);
    println!(
        "DCGAN: G {} params / {} weighted layers, D {} params / {} weighted layers",
        gan.generator().param_count(),
        gan.generator().weighted_layer_count(),
        gan.discriminator().param_count(),
        gan.discriminator().weighted_layer_count()
    );

    let batch = 16usize;
    let iterations = 30usize;
    for it in 0..iterations {
        let real = ds.unlabeled_batch(batch, &mut rng);
        let stats = gan.train_step(&real, 0.02, &mut rng);
        if it % 6 == 0 || it == iterations - 1 {
            println!(
                "  iter {it:>3}: D(real) {:.2}, D(fake) {:.2}, losses D {:.3}/{:.3} G {:.3}",
                stats.d_score_real,
                stats.d_score_fake,
                stats.d_loss_real,
                stats.d_loss_fake,
                stats.g_loss
            );
        }
    }

    // The schedule this training used, in ReGAN pipeline cycles.
    let l_d = gan.discriminator().weighted_layer_count();
    let l_g = gan.generator().weighted_layer_count();
    let pipe = ReganPipeline::new(l_d, l_g, batch);
    println!("\nReGAN schedule for L_D={l_d}, L_G={l_g}, B={batch}:");
    for opt in ReganOpt::ALL {
        println!(
            "  {:<16} {:>6} cycles/iteration ({} D copies, {}x buffers)",
            opt.name(),
            pipe.iteration_cycles(opt),
            pipe.discriminator_copies(opt),
            pipe.buffer_multiplier(opt)
        );
    }

    // Paper-scale comparison: DCGAN at celebA resolution vs the GTX 1080.
    let g = models::dcgan_generator_spec(100, 3, 64);
    let d = models::dcgan_discriminator_spec(3, 64);
    let accel = ReGanAccelerator::new(AcceleratorConfig::default(), ReganOpt::PipelineSpCs);
    let report = accel.train_cost(&g, &d, 64, 100);
    let gpu = GpuModel::gtx1080()
        .gan_training_cost(&g, &d, 64)
        .times(100.0);
    println!(
        "\nDCGAN/celebA (100 iterations, batch 64): ReGAN {:.2} ms vs GPU {:.2} s -> {:.0}x speedup, {:.1}x energy saving",
        report.time_s.0 * 1e3,
        gpu.time_s,
        report.speedup_vs(&gpu),
        report.energy_saving_vs(&gpu)
    );
}
