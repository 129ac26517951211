//! Execution plan: one lowering, every backend.
//!
//! `ExecutionPlan::lower` turns a backend-neutral `NetworkSpec` into
//! per-layer crossbar mappings, MVM counts and cycle/energy closed forms.
//! The same plan object then answers for every consumer: the PipeLayer
//! pipeline (uniform macro-cycles *and* per-layer stage latencies), the
//! per-layer hardware report, and the GPU roofline baseline.
//!
//! ```text
//! cargo run --example execution_plan --release
//! ```
#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message on a setup error; that is its error path"
)]

use reram_core::{AcceleratorConfig, ExecutionPlan, PipeLayerAccelerator};
use reram_gpu::GpuModel;
use reram_nn::models;

fn main() {
    let net = models::alexnet_spec();
    let config = AcceleratorConfig::default();
    let plan = ExecutionPlan::lower(&net, &config).expect("AlexNet lowers onto the accelerator");

    // --- Per-layer lowering records. -------------------------------------
    println!(
        "{} lowered: {} weighted layers, {} arrays, {:.1} mm^2",
        plan.name,
        plan.weighted_layer_count(),
        plan.total_arrays,
        plan.area_mm2
    );
    println!(
        "{:<8} {:>7} {:>9} {:>12} {:>13} {:>12}",
        "layer", "arrays", "fwd MVMs", "stage (ns)", "fwd E (pJ)", "ADC convs"
    );
    for l in &plan.layers {
        println!(
            "{:<8} {:>7} {:>9} {:>12.0} {:>13.3e} {:>12}",
            l.name,
            l.mapping.arrays,
            l.forward_mvms,
            l.forward_latency_ns,
            l.forward_energy_pj.0,
            l.adc_conversions
        );
    }

    // --- Pipeline accounting: uniform padding vs per-layer stages. -------
    let n = 1024;
    let batch = 32;
    let accel = PipeLayerAccelerator::new(config);
    let uniform_s = accel.train_cost(&net, batch, n).time_s;
    let per_layer_s = plan.pipelined_training_time_s(n, batch);
    println!(
        "\ntraining {n} inputs at B={batch}: uniform macro-cycles {:.3} ms, \
         per-layer plan {:.3} ms ({:.2}x overstated)",
        uniform_s.0 * 1e3,
        per_layer_s.0 * 1e3,
        uniform_s / per_layer_s
    );

    // --- The identical plan object prices the GPU baseline. --------------
    let gpu = GpuModel::gtx1080();
    let gpu_train = plan.gpu_training_cost(&gpu, batch);
    println!(
        "{}: one batch of {batch} costs {:.3} ms / {:.3} J on the same plan",
        gpu.name,
        gpu_train.time_s * 1e3,
        gpu_train.energy_j
    );
}
