//! Chip-level organization: banks, capacity and power provisioning.
//!
//! Fig. 6 / Fig. 10 describe one memory bank; a whole accelerator is many
//! such banks. [`ChipPlan`] turns a network mapping into a bank-level
//! floorplan and checks the constraint the inter-layer pipeline implies but
//! the paper leaves implicit: with `2L + 1` stages in flight, every layer's
//! forward activations must stay resident in memory subarrays until its
//! backward stage consumes them, so the memory region must hold roughly one
//! activation tensor per stage per in-flight input.

use crate::plan::{ExecutionPlan, PlanError, BYTES_PER_ELEM};
use crate::AcceleratorConfig;
use reram_crossbar::units::{Mm2, Watts};
use reram_nn::NetworkSpec;
use serde::{Deserialize, Serialize};

/// Why a chip could not be planned for a workload.
///
/// The typed counterpart of the asserts this module used to carry — chip
/// planning sits on user-facing paths (experiments, the serving simulator)
/// where a bad batch size or a degenerate bank shape should surface as a
/// recoverable error, matching `CompileError`/`PlanError`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChipPlanError {
    /// The requested training batch size was zero.
    ZeroBatch,
    /// The bank shape has no morphable or no memory subarrays, or its
    /// memory subarrays hold zero bytes.
    EmptyBank,
    /// The network could not be lowered to an execution plan (invalid
    /// configuration, no weighted layers, or unmappable under the
    /// replication policy).
    Plan(PlanError),
}

impl std::fmt::Display for ChipPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChipPlanError::ZeroBatch => write!(f, "batch size must be positive"),
            ChipPlanError::EmptyBank => write!(f, "bank must contain subarrays"),
            ChipPlanError::Plan(e) => write!(f, "cannot plan network: {e}"),
        }
    }
}

impl std::error::Error for ChipPlanError {}

impl From<PlanError> for ChipPlanError {
    fn from(e: PlanError) -> Self {
        ChipPlanError::Plan(e)
    }
}

/// Fixed shape of one memory bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankShape {
    /// Morphable (compute-capable) subarrays per bank.
    pub morphable_per_bank: usize,
    /// Memory subarrays per bank.
    pub memory_per_bank: usize,
    /// Capacity of one memory subarray, bytes.
    pub memory_subarray_bytes: u64,
}

impl Default for BankShape {
    fn default() -> Self {
        Self {
            // A bank the size of Fig. 6's sketch: mostly compute, with a
            // memory region sized like a DRAM mat.
            morphable_per_bank: 64,
            memory_per_bank: 32,
            memory_subarray_bytes: 64 * 1024,
        }
    }
}

/// A chip-level provisioning plan for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipPlan {
    /// Workload name.
    pub network: String,
    /// Bank geometry used.
    pub bank: BankShape,
    /// Crossbar arrays required by the mapping (all layers, with
    /// replication and differential pairs).
    pub compute_arrays: usize,
    /// Banks needed to host the compute arrays.
    pub banks: usize,
    /// Bytes of activation storage the training pipeline keeps resident.
    pub resident_activation_bytes: u64,
    /// Memory-subarray bytes available across the provisioned banks.
    pub memory_capacity_bytes: u64,
    /// Crossbar array area, mm².
    pub array_area_mm2: Mm2,
    /// Peak power while training at full throughput, watts.
    pub peak_power_w: Watts,
}

impl ChipPlan {
    /// Plans a chip for training `net` at batch size `batch`.
    ///
    /// # Errors
    ///
    /// Returns [`ChipPlanError::ZeroBatch`] when `batch == 0`,
    /// [`ChipPlanError::EmptyBank`] for a bank shape without subarrays or
    /// with zero-byte memory subarrays, and
    /// [`ChipPlanError::Plan`] when the network cannot be lowered to an
    /// [`ExecutionPlan`].
    #[must_use = "the bank placement is the result"]
    pub fn plan(
        net: &NetworkSpec,
        config: &AcceleratorConfig,
        bank: BankShape,
        batch: usize,
    ) -> Result<Self, ChipPlanError> {
        if batch == 0 {
            return Err(ChipPlanError::ZeroBatch);
        }
        if bank.morphable_per_bank == 0
            || bank.memory_per_bank == 0
            || bank.memory_subarray_bytes == 0
        {
            return Err(ChipPlanError::EmptyBank);
        }
        let plan = ExecutionPlan::lower(net, config)?;
        let compute_arrays = plan.total_arrays;
        let banks = compute_arrays.div_ceil(bank.morphable_per_bank);

        // In-flight residency: within one batch window the pipeline holds
        // up to min(B, 2L+1) inputs, and each weighted layer's forward
        // output stays buffered until the matching backward stage reads it.
        let l = plan.weighted_layer_count();
        let in_flight = batch.min(2 * l + 1) as u64;
        let act_elems: u64 = plan
            .layers
            .iter()
            .map(|layer| layer.work.output_elems)
            .sum();
        let resident = act_elems * BYTES_PER_ELEM * in_flight;

        // Peak power: every array active, amortized per MVM.
        let mvm = config.cost.mvm_cost(&config.crossbar, config.activity);
        let per_array_w = mvm.energy_pj().to_joules() / mvm.latency_ns.to_seconds();
        Ok(Self {
            network: net.name.clone(),
            bank,
            compute_arrays,
            banks,
            resident_activation_bytes: resident,
            memory_capacity_bytes: banks as u64
                * bank.memory_per_bank as u64
                * bank.memory_subarray_bytes,
            array_area_mm2: plan.area_mm2,
            peak_power_w: compute_arrays as f64 * per_array_w,
        })
    }

    /// Whether the provisioned memory subarrays can hold the pipeline's
    /// resident activations.
    pub fn memory_fits(&self) -> bool {
        self.resident_activation_bytes <= self.memory_capacity_bytes
    }

    /// Fraction of provisioned memory capacity the pipeline occupies.
    pub fn memory_utilization(&self) -> f64 {
        self.resident_activation_bytes as f64 / self.memory_capacity_bytes as f64
    }

    /// Additional banks (beyond the compute-driven count) needed to fit the
    /// resident activations, if any.
    pub fn extra_memory_banks(&self) -> usize {
        if self.memory_fits() {
            return 0;
        }
        let per_bank = self.bank.memory_per_bank as u64 * self.bank.memory_subarray_bytes;
        let deficit = self.resident_activation_bytes - self.memory_capacity_bytes;
        deficit.div_ceil(per_bank) as usize
    }

    /// Total banks including any extra memory-only banks.
    pub fn total_banks(&self) -> usize {
        self.banks + self.extra_memory_banks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_nn::models;

    fn plan(net: &NetworkSpec, batch: usize) -> ChipPlan {
        ChipPlan::plan(
            net,
            &AcceleratorConfig::default(),
            BankShape::default(),
            batch,
        )
        .expect("plannable")
    }

    #[test]
    fn lenet_fits_comfortably() {
        let p = plan(&models::lenet_spec(), 32);
        assert!(p.banks >= 1);
        assert!(p.memory_fits(), "LeNet activations must fit: {p:?}");
        assert_eq!(p.extra_memory_banks(), 0);
        assert_eq!(p.total_banks(), p.banks);
    }

    #[test]
    fn vgg_needs_many_banks() {
        let p = plan(&models::vgg_a_spec(), 32);
        assert!(p.banks > 100, "VGG banks {}", p.banks);
        assert!(p.compute_arrays > 100_000);
        assert!(p.peak_power_w > Watts(10.0));
    }

    #[test]
    fn residency_grows_with_batch_until_pipeline_depth() {
        let net = models::lenet_spec();
        let p1 = plan(&net, 1);
        let p8 = plan(&net, 8);
        let p64 = plan(&net, 64);
        let p128 = plan(&net, 128);
        assert!(p8.resident_activation_bytes > p1.resident_activation_bytes);
        // L = 5 -> pipeline holds at most 11 inputs; B beyond that adds
        // nothing.
        assert_eq!(
            p64.resident_activation_bytes,
            p128.resident_activation_bytes
        );
    }

    #[test]
    fn utilization_consistent_with_fits() {
        let p = plan(&models::alexnet_spec(), 32);
        if p.memory_fits() {
            assert!(p.memory_utilization() <= 1.0);
        } else {
            assert!(p.memory_utilization() > 1.0);
            assert!(p.extra_memory_banks() > 0);
        }
    }

    #[test]
    fn banks_cover_arrays() {
        let p = plan(&models::mnist_deep_spec(), 32);
        assert!(p.banks * p.bank.morphable_per_bank >= p.compute_arrays);
        assert!((p.banks - 1) * p.bank.morphable_per_bank < p.compute_arrays);
    }

    #[test]
    fn rejects_zero_batch() {
        let err = ChipPlan::plan(
            &models::lenet_spec(),
            &AcceleratorConfig::default(),
            BankShape::default(),
            0,
        )
        .unwrap_err();
        assert_eq!(err, ChipPlanError::ZeroBatch);
        assert_eq!(err.to_string(), "batch size must be positive");
    }

    #[test]
    fn rejects_empty_bank() {
        for bank in [
            BankShape {
                morphable_per_bank: 0,
                ..BankShape::default()
            },
            BankShape {
                memory_subarray_bytes: 0,
                ..BankShape::default()
            },
        ] {
            let err = ChipPlan::plan(
                &models::lenet_spec(),
                &AcceleratorConfig::default(),
                bank,
                8,
            )
            .unwrap_err();
            assert_eq!(err, ChipPlanError::EmptyBank, "{bank:?}");
        }
    }

    #[test]
    fn surfaces_mapping_errors() {
        let cfg = AcceleratorConfig::default()
            .with_replication(crate::mapping::ReplicationPolicy::Fixed(0));
        let err = ChipPlan::plan(&models::lenet_spec(), &cfg, BankShape::default(), 8).unwrap_err();
        assert!(matches!(err, ChipPlanError::Plan(PlanError::Mapping(_))));
    }

    #[test]
    fn unweighted_network_is_an_error_not_a_panic() {
        let net = NetworkSpec::new(
            "empty",
            reram_tensor::Shape4::new(1, 1, 4, 4),
            vec![reram_nn::LayerSpec::Activation { elems: 16 }],
        );
        let err = ChipPlan::plan(&net, &AcceleratorConfig::default(), BankShape::default(), 8)
            .unwrap_err();
        assert_eq!(err, ChipPlanError::Plan(PlanError::NoWeightedLayers));
    }
}
