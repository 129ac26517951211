//! PipeLayer end-to-end demonstration: train a CNN classifier on the
//! synthetic MNIST stand-in *through the ReRAM crossbar model* — forward
//! products quantized, bit-sliced and spike-coded, weights reprogrammed at
//! every batched update — then report what the training run costs on the
//! PipeLayer architecture versus the GPU baseline.
//!
//! ```text
//! cargo run --example train_mnist_pipelayer --release
//! ```

use reram_core::{AcceleratorConfig, PipeLayerAccelerator};
use reram_crossbar::CrossbarConfig;
use reram_datasets::Dataset;
use reram_gpu::GpuModel;
use reram_nn::backend::LinearEngine;
use reram_nn::layers::{ActivationLayer, Conv2d, Flatten, Linear, Pool2d};
use reram_nn::Network;
use reram_tensor::{init, Shape4};

fn main() {
    let mut rng = init::seeded_rng(7);
    let ds = Dataset::mnist_like().with_resolution(12);
    let classes = 4usize;

    // A compact CNN with crossbar-backed weighted layers.
    let crossbar = CrossbarConfig::default();
    let mut net = Network::new("mnist-crossbar-cnn", Shape4::new(1, 1, 12, 12))
        .push(
            Conv2d::new(1, 6, 3, 1, 1, &mut rng)
                .with_engine(LinearEngine::crossbar(crossbar.clone())),
        )
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Flatten::new())
        .push(
            Linear::new(6 * 6 * 6, classes, &mut rng).with_engine(LinearEngine::crossbar(crossbar)),
        );

    println!(
        "training {} ({} params) on synthetic MNIST through the crossbar model",
        net.name(),
        net.param_count()
    );

    let batch = 8usize;
    let steps = 40usize;
    let mut final_acc = 0.0;
    for step in 0..steps {
        let labels: Vec<usize> = (0..batch).map(|i| (step * batch + i) % classes).collect();
        let images = ds.batch_for_labels(&labels, &mut rng);
        let (loss, acc) = net.train_batch(&images, &labels, 0.05);
        final_acc = acc;
        if step % 8 == 0 || step == steps - 1 {
            println!("  step {step:>3}: loss {loss:.4}, batch accuracy {acc:.2}");
        }
    }
    println!(
        "final training-batch accuracy: {final_acc:.2} (chance = {:.2})",
        1.0 / classes as f32
    );

    // Architectural cost of this exact training run.
    let spec = net.spec();
    let n = (batch * steps) as u64;
    let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
    let report = accel.train_cost(&spec, batch, n);
    let gpu = GpuModel::gtx1080()
        .training_cost(&spec, batch)
        .times(steps as f64);
    println!(
        "this run on PipeLayer: {} cycles, {:.3} ms, {:.3} mJ ({} arrays, {:.2} mm2)",
        report.cycles,
        report.time_s.0 * 1e3,
        report.energy_j.0 * 1e3,
        report.arrays,
        report.area_mm2
    );
    println!(
        "same run on GTX 1080 model: {:.3} ms, {:.3} mJ -> {:.1}x speedup, {:.1}x energy saving",
        gpu.time_s * 1e3,
        gpu.energy_j * 1e3,
        report.speedup_vs(&gpu),
        report.energy_saving_vs(&gpu)
    );
}
