//! Serializable run-report types.
//!
//! A [`RunReport`] is the structured artifact a simulation run emits next to
//! its human-readable tables: workload identification, per-layer hardware
//! cost breakdown, per-stage timing, raw event totals, and scalar metric
//! samples. `repro --json <path>` writes one; tests round-trip them through
//! `serde::json`.

use serde::{Deserialize, Serialize};

/// Schema version stamped into every [`RunReport`]; bump on breaking shape
/// changes so downstream tooling can detect mismatches. Version 2 added the
/// serving-layer counters (`requests_enqueued`, `batches_formed`,
/// `requests_completed`); version 3 dropped `cell_reads`, which no
/// simulated path ever counted.
pub const REPORT_SCHEMA_VERSION: u32 = 3;

/// Snapshot of every event counter (field names match [`crate::Event::name`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    pub crossbar_mvms: u64,
    pub spike_frames: u64,
    pub dac_conversions: u64,
    pub adc_conversions: u64,
    pub cell_writes: u64,
    pub subarray_activations: u64,
    pub buffer_reads: u64,
    pub buffer_writes: u64,
    pub weight_updates: u64,
    pub train_steps: u64,
    pub requests_enqueued: u64,
    pub batches_formed: u64,
    pub requests_completed: u64,
}

impl EventCounts {
    /// Sum over every counter — handy for "did anything happen" checks.
    pub fn total(&self) -> u64 {
        self.crossbar_mvms
            + self.spike_frames
            + self.dac_conversions
            + self.adc_conversions
            + self.cell_writes
            + self.subarray_activations
            + self.buffer_reads
            + self.buffer_writes
            + self.weight_updates
            + self.train_steps
            + self.requests_enqueued
            + self.batches_formed
            + self.requests_completed
    }
}

/// Aggregated timing for one named stage (all entries of that stage).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Stage name ("forward", "backward", "weight_update", ...).
    pub name: String,
    /// How many spans completed under this name.
    pub calls: u64,
    /// Total host wall-clock time spent, nanoseconds.
    pub wall_ns: u64,
    /// Total simulated hardware cycles attributed to the stage.
    pub sim_cycles: u64,
}

/// Per-layer hardware cost breakdown for one mapped network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Layer name from the network description.
    pub name: String,
    /// Crossbar arrays consumed by the layer's weight mapping.
    pub arrays: u64,
    /// Analog MVM operations one input sample triggers in this layer.
    pub mvms_per_input: u64,
    /// Simulated cycles for one forward pass through this layer.
    pub cycles: u64,
    /// ADC/I&F conversions one forward pass performs in this layer.
    pub adc_conversions: u64,
    /// Cells reprogrammed when this layer's weights update once.
    pub cell_writes: u64,
    /// Forward-pass energy for one input, picojoules.
    pub energy_pj: f64,
}

/// One scalar metric sample (e.g. training loss at a given step).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name ("train/loss", "train/accuracy", ...).
    pub name: String,
    /// Sampled value.
    pub value: f64,
}

/// The structured result of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version ([`REPORT_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Which artifact/experiment produced this report ("fig3", "table1", ...).
    pub artifact: String,
    /// Workload identification, free-form ("lenet", "dcgan", ...).
    pub workload: String,
    /// Per-layer hardware cost breakdown (empty when no network was mapped).
    pub layers: Vec<LayerReport>,
    /// Per-stage timing, aggregated by stage name.
    pub stages: Vec<SpanReport>,
    /// Raw event-counter totals for the whole run.
    pub totals: EventCounts,
    /// Scalar metric samples in record order.
    pub metrics: Vec<MetricSample>,
}

impl RunReport {
    /// An empty report for the given artifact/workload pair.
    pub fn new(artifact: impl Into<String>, workload: impl Into<String>) -> Self {
        Self {
            schema_version: REPORT_SCHEMA_VERSION,
            artifact: artifact.into(),
            workload: workload.into(),
            layers: Vec::new(),
            stages: Vec::new(),
            totals: EventCounts::default(),
            metrics: Vec::new(),
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a report back from JSON.
    #[must_use = "the parsed report is the result"]
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            artifact: "fig3".into(),
            workload: "lenet".into(),
            layers: vec![LayerReport {
                name: "conv1".into(),
                arrays: 2,
                mvms_per_input: 4,
                cycles: 128,
                adc_conversions: 512,
                cell_writes: 1024,
                energy_pj: 33.5,
            }],
            stages: vec![SpanReport {
                name: "forward".into(),
                calls: 3,
                wall_ns: 42_000,
                sim_cycles: 384,
            }],
            totals: EventCounts {
                crossbar_mvms: 12,
                adc_conversions: 1536,
                ..EventCounts::default()
            },
            metrics: vec![MetricSample {
                name: "train/loss".into(),
                value: 0.25,
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let report = sample_report();
        let text = report.to_json();
        let parsed = RunReport::from_json(&text).expect("report JSON should parse");
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_contains_expected_fields() {
        let text = sample_report().to_json();
        for needle in [
            "\"schema_version\"",
            "\"artifact\"",
            "\"adc_conversions\"",
            "\"cell_writes\"",
            "\"sim_cycles\"",
            "\"train/loss\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(RunReport::from_json("{\"schema_version\": 1}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }
}
