//! Backend-neutral execution plans — the lowering IR every cost model
//! consumes.
//!
//! [`ExecutionPlan::lower`] turns a [`NetworkSpec`] plus an
//! [`AcceleratorConfig`] into one per-layer record set ([`LayerPlan`]):
//! mapped crossbar tile geometry (via [`crate::mapping`]), MVM counts per
//! training pass (forward / error back-propagation / weight-gradient, paper
//! §II-A.2), buffer read/write traffic, and per-layer cycle and energy
//! closed forms. It is the one pricing model of this crate; every
//! downstream consumer derives from it:
//!
//! * the accelerator, chip and endurance models convert pipeline
//!   macro-cycles into seconds and joules through its aggregates
//!   ([`ExecutionPlan::cycles_to_seconds`],
//!   [`ExecutionPlan::training_energy_breakdown`],
//!   [`ExecutionPlan::inference_energy_j`]),
//! * [`crate::report`] renders its per-layer breakdown from the
//!   [`LayerPlan`]s,
//! * the GPU baseline costs the *same* plan through its backend-neutral
//!   [`reram_nn::LayerWork`] view ([`ExecutionPlan::gpu_forward_cost`]).

mod gpu;
mod layer;

pub use gpu::gpu_gan_training_cost;
pub use layer::{adc_conversions, cell_writes, LayerPlan, BYTES_PER_ELEM};

use crate::mapping::{map_network, MappingError};
use crate::AcceleratorConfig;
use reram_crossbar::units::{Joules, Mm2, Ns, Pj, Seconds};
use reram_nn::{LayerWork, NetworkSpec};
use serde::{Deserialize, Serialize};

/// Why a network could not be lowered to an execution plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// The accelerator configuration failed validation.
    InvalidConfig(String),
    /// The network has no weighted layers to map onto crossbars.
    NoWeightedLayers,
    /// A layer could not be mapped under the replication policy.
    Mapping(MappingError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidConfig(e) => write!(f, "invalid accelerator config: {e}"),
            PlanError::NoWeightedLayers => write!(f, "network has no weighted layers"),
            PlanError::Mapping(e) => write!(f, "cannot map layer: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<MappingError> for PlanError {
    fn from(e: MappingError) -> Self {
        PlanError::Mapping(e)
    }
}

/// Energy of a training run split by where it is spent.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Forward-pass crossbar MVMs, joules.
    pub forward_j: Joules,
    /// Backward-pass crossbar MVMs (error + weight-gradient), joules.
    pub backward_j: Joules,
    /// Memory/buffer subarray traffic, joules.
    pub buffer_j: Joules,
    /// Weight-array reprogramming, joules.
    pub update_j: Joules,
}

impl EnergyBreakdown {
    /// Total energy, joules.
    pub fn total_j(&self) -> Joules {
        self.forward_j + self.backward_j + self.buffer_j + self.update_j
    }
}

/// A lowered network: per-weighted-layer [`LayerPlan`]s plus the aggregate
/// cycle/energy closed forms shared by every backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Network name (from the spec).
    pub name: String,
    /// Backend-neutral work of *every* layer, weighted and auxiliary, in
    /// network order — what the GPU baseline costs.
    pub works: Vec<LayerWork>,
    /// Per-weighted-layer lowering records, in network order.
    pub layers: Vec<LayerPlan>,
    /// Duration of a forward-only pipeline macro-cycle, ns (slowest stage).
    pub forward_cycle_ns: Ns,
    /// Duration of a training pipeline macro-cycle, ns (backward stages
    /// dominate at twice the forward latency).
    pub training_cycle_ns: Ns,
    /// Duration of the weight-update cycle, ns.
    pub update_cycle_ns: Ns,
    /// Buffer/memory-subarray energy per input (training), pJ.
    pub buffer_energy_pj: Pj,
    /// Total physical arrays (including replication and differential pairs).
    pub total_arrays: usize,
    /// Total silicon area, mm².
    pub area_mm2: Mm2,
}

impl ExecutionPlan {
    /// Lowers `net` onto the accelerator described by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidConfig`] if the configuration fails
    /// validation, [`PlanError::Mapping`] if a layer cannot be mapped under
    /// the replication policy, and [`PlanError::NoWeightedLayers`] if the
    /// network holds no crossbar-mapped layers.
    #[must_use = "the lowered plan is the result"]
    pub fn lower(net: &NetworkSpec, config: &AcceleratorConfig) -> Result<Self, PlanError> {
        config.validate().map_err(PlanError::InvalidConfig)?;
        let mappings = map_network(net, config)?;
        if mappings.is_empty() {
            return Err(PlanError::NoWeightedLayers);
        }

        let layers: Vec<LayerPlan> = net
            .weighted_layers()
            .zip(mappings)
            .enumerate()
            .map(|(i, (spec, m))| LayerPlan::lower(i, spec.work(), m, config))
            .collect();

        let forward_cycle_ns = layers
            .iter()
            .map(|l| l.forward_latency_ns)
            .fold(Ns::ZERO, Ns::max);
        let (update_cycle_ns, _) = config.cost.program_cost(&config.crossbar);

        // Buffer traffic per input during training: every weighted layer's
        // output is written once, read by the next stage, and the stored
        // forward activation is re-read during backward (3 touches).
        let activation_elems: f64 = layers.iter().map(|l| l.work.output_elems as f64).sum();
        let buffer_energy_pj = config
            .cost
            .buffer_energy_pj((activation_elems * BYTES_PER_ELEM as f64 * 3.0) as u64);

        let total_arrays: usize = layers.iter().map(|l| l.mapping.arrays).sum();

        let plan = Self {
            name: net.name.clone(),
            works: net.work(),
            layers,
            forward_cycle_ns,
            training_cycle_ns: 2.0 * forward_cycle_ns,
            update_cycle_ns,
            buffer_energy_pj,
            total_arrays,
            area_mm2: config.cost.grid_area_um2(total_arrays).to_mm2(),
        };
        // Every lowering re-verifies its own output in debug builds; the
        // static checks are pure closed-form recomputation, cheap relative
        // to the mapping search itself.
        #[cfg(debug_assertions)]
        {
            let violations = crate::verify::verify_plan(&plan, config);
            debug_assert!(
                violations.is_empty(),
                "lowering of `{}` violated plan invariants: {violations:?}",
                plan.name
            );
        }
        Ok(plan)
    }

    /// Number of weighted (crossbar-mapped) layers.
    pub fn weighted_layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Crossbar energy of one input's forward pass, pJ (sum over layers).
    pub fn forward_energy_pj(&self) -> Pj {
        self.layers.iter().map(|l| l.forward_energy_pj).sum()
    }

    /// Crossbar energy of one input's backward pass, pJ.
    pub fn backward_energy_pj(&self) -> Pj {
        self.layers.iter().map(|l| l.backward_energy_pj).sum()
    }

    /// Energy to reprogram every weight array once, pJ.
    pub fn update_energy_pj(&self) -> Pj {
        self.layers.iter().map(|l| l.update_energy_pj).sum()
    }

    /// Multiply-accumulates of one input's forward pass, over all layers.
    pub fn forward_macs(&self) -> u64 {
        self.works.iter().map(|w| w.forward_macs).sum()
    }

    /// Multiply-accumulates of one input's full training pass.
    pub fn training_macs(&self) -> u64 {
        self.works.iter().map(LayerWork::training_macs).sum()
    }

    /// Wall-clock time of `compute_cycles` pipeline macro-cycles plus
    /// `update_cycles` weight-update cycles, seconds. A macro-cycle lasts
    /// the slowest forward stage, or the slowest backward stage when
    /// `training`.
    pub fn cycles_to_seconds(
        &self,
        compute_cycles: u64,
        update_cycles: u64,
        training: bool,
    ) -> Seconds {
        let cycle_ns = if training {
            self.training_cycle_ns
        } else {
            self.forward_cycle_ns
        };
        let compute_ns = compute_cycles as f64 * cycle_ns;
        let update_ns = update_cycles as f64 * self.update_cycle_ns;
        (compute_ns + update_ns).to_seconds()
    }

    /// Component-wise energy of training `n` inputs with `batches` weight
    /// updates.
    pub fn training_energy_breakdown(&self, n: u64, batches: u64) -> EnergyBreakdown {
        let n = n as f64;
        EnergyBreakdown {
            forward_j: (n * self.forward_energy_pj()).to_joules(),
            backward_j: (n * self.backward_energy_pj()).to_joules(),
            buffer_j: (n * self.buffer_energy_pj).to_joules(),
            update_j: (batches as f64 * self.update_energy_pj()).to_joules(),
        }
    }

    /// Crossbar + buffer energy of training `n` inputs with `batches`
    /// weight updates, joules.
    pub fn training_energy_j(&self, n: u64, batches: u64) -> Joules {
        self.training_energy_breakdown(n, batches).total_j()
    }

    /// Crossbar + buffer energy of `n` inference passes, joules: per input,
    /// the forward crossbar energy plus the two-touch inference buffer
    /// energy ([`ExecutionPlan::inference_buffer_energy_pj`]).
    pub fn inference_energy_j(&self, n: u64) -> Joules {
        (n as f64 * (self.forward_energy_pj() + self.inference_buffer_energy_pj())).to_joules()
    }

    /// Pipeline fill of one inference input: the sum of the forward stage
    /// latencies (`Σ fᵢ`), ns.
    pub fn inference_fill_ns(&self) -> Ns {
        self.layers.iter().map(|l| l.forward_latency_ns).sum()
    }

    /// Inference initiation interval: the slowest forward stage
    /// (`max fᵢ`), ns.
    pub fn inference_interval_ns(&self) -> Ns {
        self.layers
            .iter()
            .map(|l| l.forward_latency_ns)
            .fold(Ns::ZERO, Ns::max)
    }

    /// Wall-clock time of pipelined inference of `n` inputs with
    /// heterogeneous stages: fill (`Σ fᵢ`) plus one initiation interval
    /// (`max fᵢ`) per additional input, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn pipelined_inference_time_s(&self, n: u64) -> Seconds {
        assert!(n > 0, "need at least one input");
        (self.inference_fill_ns() + (n - 1) as f64 * self.inference_interval_ns()).to_seconds()
    }

    /// Wall-clock time of non-pipelined inference: each input walks every
    /// stage alone, seconds.
    pub fn sequential_inference_time_s(&self, n: u64) -> Seconds {
        (n as f64 * self.inference_fill_ns()).to_seconds()
    }

    /// Service latency of one dynamic batch of `batch` inference inputs,
    /// nanoseconds: the pipeline fill (`Σ fᵢ`) plus one initiation interval
    /// (`max fᵢ`) per additional input. This is the closed form the serving
    /// layer uses to price a batch's occupancy of a chip.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn batch_inference_latency_ns(&self, batch: usize) -> Ns {
        assert!(batch > 0, "need at least one input");
        self.pipelined_inference_time_s(batch as u64).to_ns()
    }

    /// Crossbar energy of serving `batch` inference inputs, pJ. Per-input
    /// forward energies add linearly; batching saves time (pipeline
    /// amortization), not crossbar switching energy.
    pub fn batch_forward_energy_pj(&self, batch: usize) -> Pj {
        batch as f64 * self.forward_energy_pj()
    }

    /// Buffer/memory-subarray energy of one input's *inference* pass, pJ:
    /// each weighted layer's output is written once and consumed once (2
    /// touches), versus 3 touches in training where the backward stage
    /// re-reads the stored forward activation. The buffer closed form is
    /// linear in bytes, so the inference share is exactly two thirds of the
    /// training figure.
    pub fn inference_buffer_energy_pj(&self) -> Pj {
        self.buffer_energy_pj * (2.0 / 3.0)
    }

    /// Per-input training stage latencies: forward stages, then backward
    /// stages (each twice its forward counterpart) in reverse order. The
    /// loss/error-computation stage is peripheral arithmetic, charged 0 ns
    /// in the wall-clock domain.
    fn training_stage_latencies_ns(&self) -> Vec<Ns> {
        let fwd = self.layers.iter().map(|l| l.forward_latency_ns);
        fwd.clone().chain(fwd.rev().map(|f| 2.0 * f)).collect()
    }

    /// Wall-clock time of pipelined training of `n` inputs in batches of
    /// `batch`, seconds: per batch, the training-stage fill plus one
    /// initiation interval (the slowest backward stage) per remaining
    /// input, plus the weight-update latency.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of `batch`.
    pub fn pipelined_training_time_s(&self, n: u64, batch: usize) -> Seconds {
        assert!(
            batch > 0 && n > 0 && n.is_multiple_of(batch as u64),
            "{n} inputs is not a positive multiple of batch {batch}"
        );
        let stages = self.training_stage_latencies_ns();
        let sum: Ns = stages.iter().sum();
        let max = stages.iter().fold(Ns::ZERO, |a, &b| a.max(b));
        let per_batch_ns = sum + (batch as u64 - 1) as f64 * max + self.update_cycle_ns;
        ((n / batch as u64) as f64 * per_batch_ns).to_seconds()
    }

    /// Wall-clock time of non-pipelined training: each input walks the full
    /// training stage sequence alone, one update per batch, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of `batch`.
    pub fn sequential_training_time_s(&self, n: u64, batch: usize) -> Seconds {
        assert!(
            batch > 0 && n > 0 && n.is_multiple_of(batch as u64),
            "{n} inputs is not a positive multiple of batch {batch}"
        );
        let per_input_ns: Ns = self.training_stage_latencies_ns().iter().sum();
        (n as f64 * per_input_ns + (n / batch as u64) as f64 * self.update_cycle_ns).to_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_nn::models;

    fn plan(net: &NetworkSpec) -> ExecutionPlan {
        ExecutionPlan::lower(net, &AcceleratorConfig::default()).expect("lowerable")
    }

    #[test]
    fn lowers_lenet() {
        let p = plan(&models::lenet_spec());
        assert_eq!(p.layers.len(), 5);
        assert_eq!(p.layers[0].name, "conv1");
        assert_eq!(p.layers[4].name, "fc5");
        assert!(p.forward_cycle_ns > Ns::ZERO);
        assert!(p.training_cycle_ns > p.forward_cycle_ns);
        assert!(p.total_arrays > 0);
        assert!(p.area_mm2 > Mm2::ZERO);
    }

    #[test]
    fn backward_cycle_is_twice_forward() {
        let p = plan(&models::lenet_spec());
        assert!((p.training_cycle_ns - 2.0 * p.forward_cycle_ns).abs() < Ns(1e-9));
        assert!((p.backward_energy_pj() - 2.0 * p.forward_energy_pj()).abs() < Pj(1e-6));
    }

    #[test]
    fn bigger_network_more_arrays_and_energy() {
        let small = plan(&models::lenet_spec());
        let big = plan(&models::vgg_a_spec());
        assert!(big.total_arrays > 10 * small.total_arrays);
        assert!(big.forward_energy_pj() > 100.0 * small.forward_energy_pj());
    }

    #[test]
    fn cycle_time_bounded_by_replication_policy() {
        // MaxStepsPerLayer(64) with 16 input bits and default frames:
        // stage <= 64 MVMs x (16 frames + merge) ns.
        let cfg = AcceleratorConfig::default()
            .with_replication(crate::mapping::ReplicationPolicy::MaxStepsPerLayer(64));
        let p = ExecutionPlan::lower(&models::vgg_a_spec(), &cfg).expect("lowerable");
        let per_mvm = 16.0 * cfg.cost.frame_latency_ns + 16.0 * cfg.cost.adder_latency_ns;
        assert!(
            p.forward_cycle_ns <= 64.0 * per_mvm,
            "cycle {} exceeds bound",
            p.forward_cycle_ns
        );
    }

    #[test]
    fn cycles_to_seconds_composition() {
        let p = plan(&models::lenet_spec());
        let s = p.cycles_to_seconds(100, 2, true);
        let want = (100.0 * p.training_cycle_ns + 2.0 * p.update_cycle_ns).to_seconds();
        assert!((s - want).abs() < Seconds(1e-15));
        let s = p.cycles_to_seconds(100, 0, false);
        assert!((s - (100.0 * p.forward_cycle_ns).to_seconds()).abs() < Seconds(1e-15));
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = plan(&models::alexnet_spec());
        let b = p.training_energy_breakdown(256, 8);
        assert!((b.total_j() - p.training_energy_j(256, 8)).abs() < Joules(1e-12));
        assert!(b.forward_j > Joules::ZERO && b.backward_j > Joules::ZERO);
        assert!(b.buffer_j > Joules::ZERO && b.update_j > Joules::ZERO);
        // Backward dominates forward 2:1 in the crossbar component.
        assert!((b.backward_j / b.forward_j - 2.0).abs() < 1e-9);
    }

    #[test]
    fn training_energy_scales_with_inputs() {
        let p = plan(&models::lenet_spec());
        let e1 = p.training_energy_j(100, 10);
        let e2 = p.training_energy_j(200, 20);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inference_energy_below_training_energy() {
        let p = plan(&models::lenet_spec());
        assert!(p.inference_energy_j(100) < p.training_energy_j(100, 10));
    }

    #[test]
    fn mvm_counts_follow_training_passes() {
        let p = plan(&models::lenet_spec());
        for l in &p.layers {
            assert_eq!(l.forward_mvms, l.mapping.mvms_per_input as u64);
            assert_eq!(l.error_mvms, l.forward_mvms);
            assert_eq!(l.gradient_mvms, l.forward_mvms);
            assert_eq!(l.training_mvms(), 3 * l.forward_mvms);
        }
    }

    #[test]
    fn buffer_traffic_is_three_touches_per_output() {
        let p = plan(&models::lenet_spec());
        for l in &p.layers {
            let out_bytes = l.work.output_elems as f64 * BYTES_PER_ELEM as f64;
            assert_eq!(l.buffer_write_bytes, out_bytes);
            assert_eq!(l.buffer_read_bytes, 2.0 * out_bytes);
        }
    }

    #[test]
    fn hetero_time_closed_forms() {
        let p = plan(&models::lenet_spec());
        let f: Vec<Ns> = p.layers.iter().map(|l| l.forward_latency_ns).collect();
        let sum: Ns = f.iter().sum();
        let max = f.iter().fold(Ns::ZERO, |a, &b| a.max(b));
        let got = p.pipelined_inference_time_s(100);
        let want = (sum + 99.0 * max).to_seconds();
        assert!((got - want).abs() < Seconds(1e-18));
        assert!(
            (p.sequential_inference_time_s(100) - (100.0 * sum).to_seconds()).abs()
                < Seconds(1e-18)
        );
        // Pipelined never slower than sequential; training dominated by the
        // doubled backward stages.
        assert!(p.pipelined_inference_time_s(100) <= p.sequential_inference_time_s(100));
        assert!(p.pipelined_training_time_s(128, 32) <= p.sequential_training_time_s(128, 32));
        assert!(p.pipelined_training_time_s(128, 32) > p.pipelined_inference_time_s(128));
    }

    #[test]
    fn serving_accessors_follow_closed_forms() {
        let p = plan(&models::lenet_spec());
        let f: Vec<Ns> = p.layers.iter().map(|l| l.forward_latency_ns).collect();
        let sum: Ns = f.iter().sum();
        let max = f.iter().fold(Ns::ZERO, |a, &b| a.max(b));
        assert!((p.batch_inference_latency_ns(8) - (sum + 7.0 * max)).abs() < Ns(1e-9));
        assert!((p.batch_inference_latency_ns(1) - sum).abs() < Ns(1e-9));
        assert_eq!(p.batch_forward_energy_pj(4), 4.0 * p.forward_energy_pj());
        assert!(
            (p.inference_buffer_energy_pj() - p.buffer_energy_pj * 2.0 / 3.0).abs() < Pj(1e-12)
        );
    }

    #[test]
    fn plan_rejects_unweighted_network() {
        let net = NetworkSpec::new(
            "empty",
            reram_tensor::Shape4::new(1, 1, 4, 4),
            vec![reram_nn::LayerSpec::Activation { elems: 16 }],
        );
        assert_eq!(
            ExecutionPlan::lower(&net, &AcceleratorConfig::default()),
            Err(PlanError::NoWeightedLayers)
        );
    }

    #[test]
    fn plan_rejects_invalid_config() {
        let cfg = AcceleratorConfig {
            activity: 7.0,
            ..AcceleratorConfig::default()
        };
        let err = ExecutionPlan::lower(&models::lenet_spec(), &cfg).unwrap_err();
        assert!(matches!(err, PlanError::InvalidConfig(_)));
        assert!(err.to_string().contains("invalid accelerator config"));
    }

    #[test]
    fn plan_surfaces_mapping_errors() {
        let cfg = AcceleratorConfig::default()
            .with_replication(crate::mapping::ReplicationPolicy::Fixed(0));
        let err = ExecutionPlan::lower(&models::lenet_spec(), &cfg).unwrap_err();
        assert!(matches!(err, PlanError::Mapping(_)));
    }

    #[test]
    fn serde_round_trip() {
        let p = plan(&models::lenet_spec());
        let json = serde::json::to_string(&p);
        let back: ExecutionPlan = serde::json::from_str(&json).expect("deserialize");
        assert_eq!(back, p);
    }
}
