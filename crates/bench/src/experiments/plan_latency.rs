//! E9 — uniform macro-cycles vs per-layer execution-plan latency (AlexNet).
//!
//! The paper's pipeline accounting pads every stage to the slowest layer
//! (one macro-cycle per stage); the [`reram_core::ExecutionPlan`] lowering
//! keeps each layer's own latency, so faster stages only pay their real
//! cost while the initiation interval is still set by the slowest stage.
//! This table quantifies how much wall-clock the uniform padding overstates
//! for `alexnet_spec()`.

use crate::Table;
use reram_core::{AcceleratorConfig, PipeLayerAccelerator};
use reram_nn::models;

/// One measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanLatencyRow {
    /// Workload phase ("inference" or "training").
    pub mode: &'static str,
    /// Batch size (1 for inference).
    pub batch: usize,
    /// Inputs processed.
    pub inputs: u64,
    /// Wall-clock under uniform macro-cycle accounting, seconds.
    pub uniform_s: f64,
    /// Wall-clock under per-layer plan stage latencies, seconds.
    pub per_layer_s: f64,
}

impl PlanLatencyRow {
    /// How much the uniform padding overstates the latency.
    pub fn overstatement(&self) -> f64 {
        self.uniform_s / self.per_layer_s
    }
}

/// Swept `(batch, inputs)` training configurations.
pub const TRAIN_CONFIGS: [(usize, u64); 3] = [(16, 1024), (32, 1024), (64, 1024)];

/// Measures AlexNet under both accounting schemes.
pub fn measure() -> Vec<PlanLatencyRow> {
    let net = models::alexnet_spec();
    let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
    let mut rows = vec![PlanLatencyRow {
        mode: "inference",
        batch: 1,
        inputs: 1024,
        uniform_s: accel.inference_cost(&net, 1024).time_s.0,
        per_layer_s: accel.inference_time_per_layer_s(&net, 1024).0,
    }];
    for (batch, n) in TRAIN_CONFIGS {
        rows.push(PlanLatencyRow {
            mode: "training",
            batch,
            inputs: n,
            uniform_s: accel.train_cost(&net, batch, n).time_s.0,
            per_layer_s: accel.train_time_per_layer_s(&net, batch, n).0,
        });
    }
    rows
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new([
        "mode",
        "B",
        "inputs",
        "uniform macro-cycle",
        "per-layer plan",
        "overstatement",
    ]);
    for r in measure() {
        t.row([
            r.mode.to_string(),
            r.batch.to_string(),
            r.inputs.to_string(),
            crate::table::seconds(r.uniform_s),
            crate::table::seconds(r.per_layer_s),
            crate::table::ratio(r.overstatement()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_never_slower_than_uniform() {
        for r in measure() {
            assert!(r.uniform_s > 0.0 && r.per_layer_s > 0.0, "{}", r.mode);
            assert!(
                r.per_layer_s <= r.uniform_s,
                "{} B={}: per-layer {} > uniform {}",
                r.mode,
                r.batch,
                r.per_layer_s,
                r.uniform_s
            );
        }
    }

    #[test]
    fn alexnet_stages_are_heterogeneous_enough_to_matter() {
        // Steady-state inference is initiation-interval bound in both
        // schemes (only the pipeline fill differs), but training pads every
        // forward stage to the slowest *backward* stage, so AlexNet's
        // heterogeneous layers make the uniform accounting overstate
        // latency by a real margin there.
        for r in measure() {
            match r.mode {
                "inference" => assert!(
                    r.overstatement() >= 1.0,
                    "inference: overstatement {}",
                    r.overstatement()
                ),
                _ => assert!(
                    r.overstatement() > 1.1,
                    "{} B={}: overstatement {}",
                    r.mode,
                    r.batch,
                    r.overstatement()
                ),
            }
        }
    }

    #[test]
    fn run_covers_all_configs() {
        assert_eq!(run().len(), TRAIN_CONFIGS.len() + 1);
    }
}
