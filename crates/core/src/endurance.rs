//! ReRAM endurance (write wear-out) analysis of training.
//!
//! Training is where processing-in-memory meets ReRAM's finite write
//! endurance: every weight update reprograms cells ("in weight update, [the
//! spike driver] serves as write driver to tune weights stored in the ReRAM
//! array", §III-A.3 (a)). This module converts a training schedule into
//! per-cell write counts and a device lifetime estimate — the analysis any
//! adopter of a PipeLayer-class design runs before committing to in-situ
//! training.

use crate::plan::ExecutionPlan;
use crate::AcceleratorConfig;
use reram_crossbar::units::Seconds;
use reram_nn::NetworkSpec;
use serde::{Deserialize, Serialize};

/// Published ReRAM endurance figures span wide ranges; these are the
/// commonly cited design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnduranceClass {
    /// Conservative multi-level-cell endurance: 1e6 writes.
    Conservative,
    /// Typical demonstrated endurance: 1e9 writes.
    Typical,
    /// Optimistic/engineering-sample endurance: 1e12 writes.
    Optimistic,
}

impl EnduranceClass {
    /// Tolerable program cycles per cell.
    pub fn write_limit(&self) -> u64 {
        match self {
            EnduranceClass::Conservative => 1_000_000,
            EnduranceClass::Typical => 1_000_000_000,
            EnduranceClass::Optimistic => 1_000_000_000_000,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            EnduranceClass::Conservative => "conservative (1e6)",
            EnduranceClass::Typical => "typical (1e9)",
            EnduranceClass::Optimistic => "optimistic (1e12)",
        }
    }
}

/// Endurance analysis of training one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnduranceReport {
    /// Cell writes per weight-update cycle (1: every weight cell
    /// reprograms once per batch).
    pub writes_per_batch: u64,
    /// Batches until the conservative/typical/optimistic limits.
    pub batches_to_wearout: [u64; 3],
    /// Wall-clock training time until wear-out at the *typical* limit,
    /// seconds (using the analyzed batch cadence).
    pub typical_lifetime_s: Seconds,
}

impl EnduranceReport {
    /// Analyzes training wear for a network at batch size `batch`.
    ///
    /// Model: every batch reprograms every weight cell once (the
    /// conservative bound — delta-encoded updates only reduce this), so a
    /// cell's writes equal the number of batches trained.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or the network cannot be lowered (invalid
    /// configuration, no weighted layers, or unmappable under the
    /// replication policy).
    pub fn analyze(net: &NetworkSpec, config: &AcceleratorConfig, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        #[expect(
            clippy::panic,
            reason = "documented contract — unliftable networks abort analysis"
        )]
        let plan = ExecutionPlan::lower(net, config)
            .unwrap_or_else(|e| panic!("cannot plan {}: {e}", net.name));
        let batch_cycles = (2 * plan.weighted_layer_count() + batch) as u64;
        let batch_time_s = plan.cycles_to_seconds(batch_cycles, 1, true);
        let limits = [
            EnduranceClass::Conservative.write_limit(),
            EnduranceClass::Typical.write_limit(),
            EnduranceClass::Optimistic.write_limit(),
        ];
        Self {
            writes_per_batch: 1,
            batches_to_wearout: limits,
            typical_lifetime_s: EnduranceClass::Typical.write_limit() as f64 * batch_time_s,
        }
    }

    /// Training time until wear-out for a given endurance class, seconds,
    /// assuming the analyzed batch cadence.
    pub fn lifetime_s(&self, class: EnduranceClass) -> Seconds {
        self.typical_lifetime_s * class.write_limit() as f64
            / EnduranceClass::Typical.write_limit() as f64
    }

    /// Number of full training runs (each `epochs_batches` batches) before
    /// wear-out at a given endurance class.
    pub fn training_runs(&self, class: EnduranceClass, epochs_batches: u64) -> u64 {
        assert!(epochs_batches > 0, "need at least one batch per run");
        class.write_limit() / epochs_batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_nn::models;

    fn report() -> EnduranceReport {
        EnduranceReport::analyze(&models::lenet_spec(), &AcceleratorConfig::default(), 32)
    }

    #[test]
    fn endurance_classes_ordered() {
        assert!(EnduranceClass::Conservative.write_limit() < EnduranceClass::Typical.write_limit());
        assert!(EnduranceClass::Typical.write_limit() < EnduranceClass::Optimistic.write_limit());
    }

    #[test]
    fn lifetime_scales_with_class() {
        let r = report();
        let cons = r.lifetime_s(EnduranceClass::Conservative);
        let typ = r.lifetime_s(EnduranceClass::Typical);
        let opt = r.lifetime_s(EnduranceClass::Optimistic);
        assert!((typ / cons - 1000.0).abs() < 1.0);
        assert!((opt / typ - 1000.0).abs() < 1.0);
    }

    #[test]
    fn continuous_training_wearout_is_hours_at_typical_endurance() {
        // The sharp edge of in-situ training: the accelerator updates
        // weights every ~40us, so 1e9-endurance cells survive only hours of
        // *back-to-back* training — real deployments train intermittently
        // or need optimistic-class cells, which survive months to years.
        let r = report();
        let hour = Seconds(3600.0);
        let typical = r.lifetime_s(EnduranceClass::Typical);
        assert!(
            (hour..100.0 * hour).contains(&typical),
            "typical lifetime {typical} s"
        );
        assert!(r.lifetime_s(EnduranceClass::Optimistic) > 100.0 * 24.0 * hour);
    }

    #[test]
    fn conservative_mlc_is_the_constraint() {
        // A full ImageNet-scale training schedule (~100K batches) wears a
        // conservative MLC device after ~10 runs — matching the known
        // concern about in-situ training on low-endurance cells.
        let r = report();
        let runs = r.training_runs(EnduranceClass::Conservative, 100_000);
        assert_eq!(runs, 10);
        assert!(r.training_runs(EnduranceClass::Typical, 100_000) >= 10_000);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn rejects_zero_batch() {
        let _ = EnduranceReport::analyze(&models::lenet_spec(), &AcceleratorConfig::default(), 0);
    }
}
