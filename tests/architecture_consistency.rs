//! Cross-crate consistency of the architectural models: the accelerator
//! reports must decompose into the pipeline cycle counts, the mapping
//! array totals, and the GPU baseline must interlock sensibly.

use reram_suite::core::accelerator::{PipeLayerAccelerator, ReGanAccelerator};
use reram_suite::core::mapping::{map_network, ReplicationPolicy};
use reram_suite::core::{AcceleratorConfig, ExecutionPlan, PipelineModel, ReganOpt, ReganPipeline};
use reram_suite::gpu::GpuModel;
use reram_suite::nn::models;

#[test]
fn accelerator_cycles_equal_pipeline_formula() {
    let net = models::alexnet_spec();
    let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
    let report = accel.train_cost(&net, 16, 256);
    let pipe = PipelineModel::new(net.weighted_layer_count(), 16);
    assert_eq!(report.cycles, pipe.training_cycles(256));
}

#[test]
fn accelerator_arrays_equal_mapping_totals() {
    let net = models::vgg_a_spec();
    let cfg = AcceleratorConfig::default();
    let report = PipeLayerAccelerator::new(cfg.clone()).train_cost(&net, 32, 64);
    let total: usize = map_network(&net, &cfg)
        .expect("maps")
        .iter()
        .map(|m| m.arrays)
        .sum();
    assert_eq!(report.arrays, total);
}

#[test]
fn live_network_and_static_spec_cost_the_same() {
    // A functional LeNet's extracted spec must produce the same accelerator
    // cost as the hand-written static spec.
    let mut rng = reram_suite::tensor::init::seeded_rng(1);
    let live = models::lenet(&mut rng).spec();
    let static_spec = models::lenet_spec();
    let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
    let a = accel.train_cost(&live, 32, 64);
    let b = accel.train_cost(&static_spec, 32, 64);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.arrays, b.arrays);
    assert!((a.time_s - b.time_s).abs().0 < 1e-12);
}

#[test]
fn regan_cycles_equal_schedule_model() {
    let g = models::dcgan_generator_spec(100, 3, 32);
    let d = models::dcgan_discriminator_spec(3, 32);
    for opt in ReganOpt::ALL {
        let accel = ReGanAccelerator::new(AcceleratorConfig::default(), opt);
        let report = accel.train_cost(&g, &d, 64, 7);
        let pipe = ReganPipeline::new(d.weighted_layer_count(), g.weighted_layer_count(), 64);
        assert_eq!(report.cycles, pipe.total_cycles(7, opt), "{}", opt.name());
    }
}

#[test]
fn timing_arrays_respect_budget_policy() {
    for budget in [32_768usize, 131_072] {
        let cfg =
            AcceleratorConfig::default().with_replication(ReplicationPolicy::ArrayBudget(budget));
        let t = ExecutionPlan::lower(&models::alexnet_spec(), &cfg).expect("lowers");
        // AlexNet's unreplicated floor is well under 32K arrays.
        assert!(
            t.total_arrays <= budget,
            "budget {budget} exceeded: {}",
            t.total_arrays
        );
    }
}

#[test]
fn speedup_consistent_with_reported_times() {
    let net = models::mnist_deep_spec();
    let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
    let report = accel.train_cost(&net, 32, 256);
    let gpu = GpuModel::gtx1080().training_cost(&net, 32).times(8.0);
    let speedup = report.speedup_vs(&gpu);
    assert!((speedup - gpu.time_s / report.time_s.0).abs() < 1e-9);
    let saving = report.energy_saving_vs(&gpu);
    assert!((saving - gpu.energy_j / report.energy_j.0).abs() < 1e-9);
}

#[test]
fn inference_pipeline_throughput_approaches_one_per_cycle() {
    let net = models::vgg_a_spec();
    let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
    let r1 = accel.inference_cost(&net, 1);
    let r1000 = accel.inference_cost(&net, 1000);
    // 1000 inputs cost far less than 1000x one input: the pipeline works.
    assert!(r1000.time_s < 150.0 * r1.time_s);
}

#[test]
fn gan_workload_heavier_than_discriminator_alone() {
    let g = models::dcgan_generator_spec(100, 3, 64);
    let d = models::dcgan_discriminator_spec(3, 64);
    let gpu = GpuModel::gtx1080();
    let gan = gpu.gan_training_cost(&g, &d, 64);
    let d_only = gpu.training_cost(&d, 64);
    let g_only = gpu.training_cost(&g, 64);
    assert!(gan.time_s > d_only.time_s);
    assert!(gan.time_s > g_only.time_s);
}

#[test]
fn larger_networks_never_cheaper_on_either_platform() {
    let small = models::lenet_spec();
    let big = models::vgg_a_spec();
    let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
    let gpu = GpuModel::gtx1080();
    assert!(accel.train_cost(&big, 32, 64).time_s > accel.train_cost(&small, 32, 64).time_s);
    assert!(gpu.training_cost(&big, 32).time_s > gpu.training_cost(&small, 32).time_s);
    assert!(accel.train_cost(&big, 32, 64).energy_j > accel.train_cost(&small, 32, 64).energy_j);
}
