//! Quickstart: the three layers of the stack in one page.
//!
//! 1. Program a matrix onto ReRAM crossbars and run an in-memory
//!    matrix-vector multiplication (paper Fig. 3).
//! 2. Map a convolution layer onto arrays with the balanced scheme and a
//!    replication factor (paper Fig. 4).
//! 3. Evaluate training a network on the PipeLayer pipeline against the
//!    GPU baseline (paper Fig. 5 / Table I).
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use reram_core::{AcceleratorConfig, LayerMapping, MappingScheme, PipeLayerAccelerator};
use reram_crossbar::{CrossbarConfig, TiledMatrix};
use reram_gpu::GpuModel;
use reram_nn::{models, LayerSpec};
use reram_tensor::{Matrix, Shape2};

fn main() {
    // --- 1. A crossbar computes y = W x in memory. -----------------------
    let w = Matrix::from_fn(Shape2::new(200, 300), |r, c| {
        (((r * 31 + c * 17) % 21) as f32 - 10.0) / 10.0
    });
    let x: Vec<f32> = (0..300).map(|i| ((i % 13) as f32 - 6.0) / 6.0).collect();
    let mut crossbar = TiledMatrix::program(&w, &CrossbarConfig::default());
    let y = crossbar.matvec(&x);
    let exact = w.matvec(&x);
    let err: f32 = y
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs())
        .sum::<f32>()
        / y.len() as f32;
    println!(
        "crossbar MVM: 200x300 matrix on a {:?} grid of {} arrays, mean |err| = {err:.5}",
        crossbar.grid(),
        crossbar.array_count()
    );

    // --- 2. Map the paper's Fig. 4 example layer. -------------------------
    let layer = LayerSpec::Conv {
        in_c: 128,
        out_c: 256,
        k: 3,
        stride: 1,
        pad: 0,
        in_h: 114,
        in_w: 114,
    };
    let config = AcceleratorConfig::default();
    for x in [1usize, 256, 12544] {
        let m = LayerMapping::map(&layer, &config, MappingScheme::Balanced { replication: x });
        println!(
            "mapping X={x:>5}: {:>4} x {} grid, {:>7} arrays, {:>5} steps/input",
            m.row_tiles, m.col_tiles, m.arrays, m.steps_per_input
        );
    }

    // --- 3. Train AlexNet-scale work on PipeLayer vs the GTX 1080. --------
    let net = models::alexnet_spec();
    let accel = PipeLayerAccelerator::new(config);
    let report = accel.train_cost(&net, 32, 512);
    let gpu = GpuModel::gtx1080().training_cost(&net, 32).times(16.0);
    println!(
        "training {} (512 inputs, batch 32): PipeLayer {:.3} ms vs GPU {:.1} ms -> {:.1}x speedup, {:.1}x energy saving",
        net.name,
        report.time_s.0 * 1e3,
        gpu.time_s * 1e3,
        report.speedup_vs(&gpu),
        report.energy_saving_vs(&gpu)
    );
}
