//! End-to-end accelerator evaluation — the Table I comparisons.
//!
//! [`PipeLayerAccelerator`] composes the data mapping (Fig. 4), the
//! inter-layer pipeline (Fig. 5) and the circuit cost model into time and
//! energy for training/inference of a network; [`ReGanAccelerator`] does
//! the same for GAN training with the Fig. 8/9 schedule. Comparing either
//! against [`reram_gpu::GpuModel`] reproduces the speedup / energy-saving
//! rows of Table I.

use crate::pipeline::PipelineModel;
use crate::plan::{ExecutionPlan, PlanError};
use crate::regan::{ReganOpt, ReganPipeline};
use crate::AcceleratorConfig;
use reram_crossbar::units::{Joules, Mm2, Pj, Seconds, Watts};
use reram_gpu::GpuCost;
use reram_nn::NetworkSpec;
use reram_telemetry::Span;
use serde::{Deserialize, Serialize};

/// Evaluation result of a workload on an accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelReport {
    /// Workload label.
    pub name: String,
    /// Pipeline macro-cycles executed.
    pub cycles: u64,
    /// Wall-clock time, seconds.
    pub time_s: Seconds,
    /// Energy, joules.
    pub energy_j: Joules,
    /// Physical crossbar arrays provisioned.
    pub arrays: usize,
    /// Silicon area, mm².
    pub area_mm2: Mm2,
}

impl AccelReport {
    /// Average power drawn over the run, watts.
    pub fn average_power_w(&self) -> Watts {
        self.energy_j / self.time_s
    }

    /// Speedup of this accelerator run over a GPU run of the same workload.
    pub fn speedup_vs(&self, gpu: &GpuCost) -> f64 {
        gpu.time_s / self.time_s.0
    }

    /// Energy saving of this accelerator run over a GPU run.
    pub fn energy_saving_vs(&self, gpu: &GpuCost) -> f64 {
        gpu.energy_j / self.energy_j.0
    }
}

/// The PipeLayer accelerator (paper §III-A).
#[derive(Debug, Clone)]
pub struct PipeLayerAccelerator {
    config: AcceleratorConfig,
}

impl PipeLayerAccelerator {
    /// Creates an accelerator instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: AcceleratorConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented constructor contract — invalid configs abort"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid accelerator config: {e}"));
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Lowers `net` to the [`ExecutionPlan`] every cost method prices.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from [`ExecutionPlan::lower`].
    #[must_use = "the lowered plan is the result"]
    pub fn plan(&self, net: &NetworkSpec) -> Result<ExecutionPlan, PlanError> {
        ExecutionPlan::lower(net, &self.config)
    }

    #[expect(
        clippy::panic,
        reason = "documented contract — unliftable networks abort costing"
    )]
    fn plan_or_panic(&self, net: &NetworkSpec) -> ExecutionPlan {
        self.plan(net)
            .unwrap_or_else(|e| panic!("cannot plan {}: {e}", net.name))
    }

    /// Cost of pipelined training of `n` inputs at batch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of `batch`.
    pub fn train_cost(&self, net: &NetworkSpec, batch: usize, n: u64) -> AccelReport {
        let mut span = Span::enter("accel/train_cost");
        let plan = self.plan_or_panic(net);
        let pipe = PipelineModel::new(plan.weighted_layer_count(), batch);
        let cycles = pipe.training_cycles(n);
        span.add_cycles(cycles);
        let batches = n / batch as u64;
        let compute_cycles = cycles - batches;
        AccelReport {
            name: format!("pipelayer-train-{}", net.name),
            cycles,
            time_s: plan.cycles_to_seconds(compute_cycles, batches, true),
            energy_j: plan.training_energy_j(n, batches),
            arrays: plan.total_arrays,
            area_mm2: plan.area_mm2,
        }
    }

    /// Cost of *non-pipelined* training (the ablation baseline: same
    /// hardware, inputs strictly sequential).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of `batch`.
    pub fn train_cost_sequential(&self, net: &NetworkSpec, batch: usize, n: u64) -> AccelReport {
        let mut span = Span::enter("accel/train_cost_sequential");
        let plan = self.plan_or_panic(net);
        let pipe = PipelineModel::new(plan.weighted_layer_count(), batch);
        let cycles = pipe.sequential_training_cycles(n);
        span.add_cycles(cycles);
        let batches = n / batch as u64;
        let compute_cycles = cycles - batches;
        AccelReport {
            name: format!("pipelayer-train-seq-{}", net.name),
            cycles,
            time_s: plan.cycles_to_seconds(compute_cycles, batches, true),
            energy_j: plan.training_energy_j(n, batches),
            arrays: plan.total_arrays,
            area_mm2: plan.area_mm2,
        }
    }

    /// Cost of pipelined inference over `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn inference_cost(&self, net: &NetworkSpec, n: u64) -> AccelReport {
        let mut span = Span::enter("accel/inference_cost");
        let plan = self.plan_or_panic(net);
        let pipe = PipelineModel::new(plan.weighted_layer_count(), 1);
        let cycles = pipe.inference_cycles(n);
        span.add_cycles(cycles);
        AccelReport {
            name: format!("pipelayer-infer-{}", net.name),
            cycles,
            time_s: plan.cycles_to_seconds(cycles, 0, false),
            energy_j: plan.inference_energy_j(n),
            arrays: plan.total_arrays,
            area_mm2: plan.area_mm2,
        }
    }

    /// Pipelined training wall-clock with *per-layer* stage latencies from
    /// the execution plan, seconds — each stage runs at its own layer's
    /// speed instead of being padded to the slowest (the macro-cycle
    /// accounting of [`PipeLayerAccelerator::train_cost`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of `batch` or the network
    /// cannot be lowered.
    pub fn train_time_per_layer_s(&self, net: &NetworkSpec, batch: usize, n: u64) -> Seconds {
        self.plan_or_panic(net).pipelined_training_time_s(n, batch)
    }

    /// Pipelined inference wall-clock with per-layer stage latencies from
    /// the execution plan, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the network cannot be lowered.
    pub fn inference_time_per_layer_s(&self, net: &NetworkSpec, n: u64) -> Seconds {
        self.plan_or_panic(net).pipelined_inference_time_s(n)
    }
}

/// The ReGAN accelerator (paper §III-B).
#[derive(Debug, Clone)]
pub struct ReGanAccelerator {
    config: AcceleratorConfig,
    opt: ReganOpt,
}

impl ReGanAccelerator {
    /// Creates an accelerator instance at the given optimization level.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: AcceleratorConfig, opt: ReganOpt) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented constructor contract — invalid configs abort"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid accelerator config: {e}"));
        Self { config, opt }
    }

    /// The optimization level in use.
    pub fn opt(&self) -> ReganOpt {
        self.opt
    }

    /// Cost of `iterations` GAN training iterations at batch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` or `batch` is zero.
    pub fn train_cost(
        &self,
        generator: &NetworkSpec,
        discriminator: &NetworkSpec,
        batch: usize,
        iterations: u64,
    ) -> AccelReport {
        assert!(iterations > 0, "need at least one iteration");
        let mut span = Span::enter("accel/regan_train_cost");
        #[expect(
            clippy::panic,
            reason = "documented contract — unliftable networks abort costing"
        )]
        let g_plan = ExecutionPlan::lower(generator, &self.config)
            .unwrap_or_else(|e| panic!("cannot plan {}: {e}", generator.name));
        #[expect(
            clippy::panic,
            reason = "documented contract — unliftable networks abort costing"
        )]
        let d_plan = ExecutionPlan::lower(discriminator, &self.config)
            .unwrap_or_else(|e| panic!("cannot plan {}: {e}", discriminator.name));
        let pipe = ReganPipeline::new(
            d_plan.weighted_layer_count(),
            g_plan.weighted_layer_count(),
            batch,
        );
        let cycles = pipe.total_cycles(iterations, self.opt);
        span.add_cycles(cycles);
        // Two update cycles per iteration (D and G).
        let update_cycles = 2 * iterations;
        let compute_cycles = cycles.saturating_sub(update_cycles);
        let cycle_ns = g_plan.training_cycle_ns.max(d_plan.training_cycle_ns);
        let update_ns = g_plan.update_cycle_ns.max(d_plan.update_cycle_ns);
        let time_s =
            (compute_cycles as f64 * cycle_ns + update_cycles as f64 * update_ns).to_seconds();

        // Energy per iteration, in crossbar passes over B inputs each:
        // ① D fwd + D bwd, ② G fwd + D fwd + D bwd, ③ G fwd + D fwd +
        // D bwd + G bwd; CS shares ②/③'s G-fwd + D-fwd once.
        let b = batch as f64;
        let d_pass = d_plan.forward_energy_pj() + d_plan.backward_energy_pj();
        let g_fwd = g_plan.forward_energy_pj();
        let shared_saving = if self.opt == ReganOpt::PipelineSpCs {
            g_fwd + d_plan.forward_energy_pj()
        } else {
            Pj::ZERO
        };
        let per_input = (d_pass) // ①
            + (g_fwd + d_pass) // ②
            + (g_fwd + d_pass + g_plan.backward_energy_pj()) // ③
            - shared_saving
            + d_plan.buffer_energy_pj * pipe.buffer_multiplier(self.opt) as f64
            + g_plan.buffer_energy_pj;
        let d_copies = pipe.discriminator_copies(self.opt) as f64;
        let update = d_plan.update_energy_pj() * d_copies + g_plan.update_energy_pj();
        let energy_j = (iterations as f64 * (b * per_input + update)).to_joules();

        let arrays =
            d_plan.total_arrays * pipe.discriminator_copies(self.opt) + g_plan.total_arrays;
        AccelReport {
            name: format!(
                "regan-{}-{}+{}",
                self.opt.name(),
                generator.name,
                discriminator.name
            ),
            cycles,
            time_s,
            energy_j,
            arrays,
            area_mm2: self.config.cost.grid_area_um2(arrays).to_mm2(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_gpu::GpuModel;
    use reram_nn::models;

    fn accel() -> PipeLayerAccelerator {
        PipeLayerAccelerator::new(AcceleratorConfig::default())
    }

    #[test]
    fn train_report_is_consistent() {
        let net = models::lenet_spec();
        let r = accel().train_cost(&net, 32, 1024);
        assert_eq!(r.cycles, (1024 / 32) * (2 * 5 + 32 + 1));
        assert!(r.time_s > Seconds::ZERO && r.energy_j > Joules::ZERO);
        assert!(r.arrays > 0 && r.area_mm2 > Mm2::ZERO);
    }

    #[test]
    fn pipeline_beats_sequential_on_same_hardware() {
        let net = models::lenet_spec();
        let a = accel();
        let piped = a.train_cost(&net, 32, 1024);
        let seq = a.train_cost_sequential(&net, 32, 1024);
        assert!(seq.time_s > 2.0 * piped.time_s);
        // Same hardware, same arithmetic: equal energy.
        assert!((seq.energy_j - piped.energy_j).abs() / piped.energy_j < 1e-9);
    }

    #[test]
    fn pipelayer_beats_gpu_on_training() {
        // The Table I shape: order-of-magnitude speedup, smaller but
        // substantial energy saving.
        let gpu = GpuModel::gtx1080();
        for net in [
            models::lenet_spec(),
            models::alexnet_spec(),
            models::vgg_a_spec(),
        ] {
            let r = accel().train_cost(&net, 32, 128);
            let g = gpu.training_cost(&net, 32).times(128.0 / 32.0);
            let speedup = r.speedup_vs(&g);
            let saving = r.energy_saving_vs(&g);
            assert!(speedup > 3.0, "{}: speedup {speedup}", net.name);
            assert!(saving > 1.0, "{}: energy saving {saving}", net.name);
        }
    }

    #[test]
    fn average_power_is_plausible_for_pim() {
        // A 128K-array provisioning at full training throughput draws
        // hundreds of watts — the same power class as the GPU board, while
        // finishing two orders of magnitude faster (which is exactly where
        // the energy saving comes from). Small networks leave most arrays
        // idle and draw far less.
        let big = accel().train_cost(&models::vgg_a_spec(), 32, 128);
        assert!(
            (Watts(10.0)..Watts(2000.0)).contains(&big.average_power_w()),
            "{} W",
            big.average_power_w()
        );
        let small = accel().train_cost(&models::lenet_spec(), 32, 128);
        assert!(
            small.average_power_w() < big.average_power_w(),
            "LeNet {} W vs VGG {} W",
            small.average_power_w(),
            big.average_power_w()
        );
    }

    #[test]
    fn inference_cheaper_than_training() {
        let net = models::lenet_spec();
        let a = accel();
        let t = a.train_cost(&net, 32, 1024);
        let i = a.inference_cost(&net, 1024);
        assert!(i.time_s < t.time_s);
        assert!(i.energy_j < t.energy_j);
    }

    #[test]
    fn inference_energy_charges_two_buffer_touches_per_input() {
        let net = models::lenet_spec();
        let a = accel();
        let plan = a.plan(&net).expect("lowerable");
        let n = 1024;
        let want =
            (n as f64 * (plan.forward_energy_pj() + plan.inference_buffer_energy_pj())).to_joules();
        assert_eq!(a.inference_cost(&net, n).energy_j, want);
    }

    #[test]
    fn regan_optimizations_reduce_time() {
        let g = models::dcgan_generator_spec(100, 3, 32);
        let d = models::dcgan_discriminator_spec(3, 32);
        let cfg = AcceleratorConfig::default();
        let mut prev = Seconds(f64::INFINITY);
        for opt in ReganOpt::ALL {
            let r = ReGanAccelerator::new(cfg.clone(), opt).train_cost(&g, &d, 32, 100);
            assert!(
                r.time_s < prev,
                "{} did not improve: {}",
                opt.name(),
                r.time_s
            );
            prev = r.time_s;
        }
    }

    #[test]
    fn sp_costs_arrays_cs_saves_energy() {
        let g = models::dcgan_generator_spec(100, 3, 32);
        let d = models::dcgan_discriminator_spec(3, 32);
        let cfg = AcceleratorConfig::default();
        let base =
            ReGanAccelerator::new(cfg.clone(), ReganOpt::Pipeline).train_cost(&g, &d, 32, 10);
        let sp =
            ReGanAccelerator::new(cfg.clone(), ReganOpt::PipelineSp).train_cost(&g, &d, 32, 10);
        let cs = ReGanAccelerator::new(cfg, ReganOpt::PipelineSpCs).train_cost(&g, &d, 32, 10);
        assert!(sp.arrays > base.arrays, "SP must duplicate D's arrays");
        assert!(cs.energy_j < sp.energy_j, "CS must save shared-path energy");
    }

    #[test]
    fn regan_beats_gpu_more_than_pipelayer_shape() {
        // Table I shape: ReGAN's GAN benefit exceeds PipeLayer's CNN benefit.
        let gpu = GpuModel::gtx1080();
        let g = models::dcgan_generator_spec(100, 3, 64);
        let d = models::dcgan_discriminator_spec(3, 64);
        let regan = ReGanAccelerator::new(AcceleratorConfig::default(), ReganOpt::PipelineSpCs)
            .train_cost(&g, &d, 64, 100);
        let gpu_gan = gpu.gan_training_cost(&g, &d, 64).times(100.0);
        let gan_speedup = regan.speedup_vs(&gpu_gan);
        let net = models::lenet_spec();
        let pl = accel().train_cost(&net, 64, 6400);
        let gpu_cnn = gpu.training_cost(&net, 64).times(100.0);
        let cnn_speedup = pl.speedup_vs(&gpu_cnn);
        assert!(
            gan_speedup > cnn_speedup,
            "GAN speedup {gan_speedup} must exceed CNN speedup {cnn_speedup}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn regan_rejects_zero_iterations() {
        let g = models::dcgan_generator_spec(100, 3, 32);
        let d = models::dcgan_discriminator_spec(3, 32);
        let _ = ReGanAccelerator::new(AcceleratorConfig::default(), ReganOpt::Pipeline)
            .train_cost(&g, &d, 32, 0);
    }
}
