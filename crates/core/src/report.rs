//! Assembly of structured run reports from accelerator analyses.
//!
//! Bridges the static analyses of this crate (the lowered
//! [`ExecutionPlan`] and its layer mappings of Fig. 4) and the dynamic
//! counters of `reram-telemetry` into one serializable [`RunReport`]:
//! per-layer hardware cost from the plan's closed forms, per-stage timing
//! and raw event totals from whatever recorder the run installed. The
//! closed forms are the reference the telemetry counters are validated
//! against — an instrumented simulation of a layer must observe exactly the
//! conversion and write counts the plan predicts
//! ([`crate::plan::adc_conversions`], [`crate::plan::cell_writes`]).

use crate::plan::{ExecutionPlan, LayerPlan};
use crate::AcceleratorConfig;
use reram_nn::NetworkSpec;
use reram_telemetry::{CounterRecorder, LayerReport, RunReport};

fn layer_report(l: &LayerPlan) -> LayerReport {
    LayerReport {
        name: l.name.clone(),
        arrays: l.mapping.arrays as u64,
        mvms_per_input: l.forward_mvms,
        cycles: l.stage_cycles,
        adc_conversions: l.adc_conversions,
        cell_writes: l.cell_writes,
        energy_pj: l.forward_energy_pj.0,
    }
}

/// Per-layer hardware cost breakdown of `net` under `config`, derived from
/// the network's [`ExecutionPlan`].
///
/// Layers are named by kind and 1-based position among the weighted layers
/// ("conv1", "fc4", ...), in network order.
///
/// # Panics
///
/// Panics if the network has no weighted layers or the configuration is
/// invalid.
pub fn layer_reports(net: &NetworkSpec, config: &AcceleratorConfig) -> Vec<LayerReport> {
    #[expect(
        clippy::panic,
        reason = "documented contract — unliftable networks abort reporting"
    )]
    let plan = ExecutionPlan::lower(net, config)
        .unwrap_or_else(|e| panic!("cannot plan {}: {e}", net.name));
    plan.layers.iter().map(layer_report).collect()
}

/// Builds a [`RunReport`] for one artifact: the per-layer closed-form
/// breakdown for `net` plus everything `counters` observed (event totals,
/// stage spans, metric samples).
///
/// # Panics
///
/// Panics if the network has no weighted layers or the configuration is
/// invalid.
pub fn build_run_report(
    artifact: &str,
    net: &NetworkSpec,
    config: &AcceleratorConfig,
    counters: &CounterRecorder,
) -> RunReport {
    let mut report = RunReport::new(artifact, net.name.clone());
    report.layers = layer_reports(net, config);
    report.stages = counters.span_reports();
    report.totals = counters.snapshot();
    report.metrics = counters.metric_samples();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_nn::models;
    use reram_telemetry::Recorder;

    #[test]
    fn layer_reports_cover_weighted_layers() {
        let net = models::lenet_spec();
        let cfg = AcceleratorConfig::default();
        let layers = layer_reports(&net, &cfg);
        assert_eq!(layers.len(), net.weighted_layer_count());
        assert_eq!(layers[0].name, "conv1");
        assert_eq!(layers[4].name, "fc5");
        assert!(layers.iter().all(|l| l.arrays > 0 && l.cycles > 0));
    }

    #[test]
    fn cell_writes_match_update_energy_model() {
        // plan::cell_writes is the count behind update_energy_pj: cells x
        // per-cell write energy must reproduce the plan's figure.
        let net = models::alexnet_spec();
        let cfg = AcceleratorConfig::default();
        let plan = ExecutionPlan::lower(&net, &cfg).expect("lowerable");
        let total_writes: u64 = layer_reports(&net, &cfg)
            .iter()
            .map(|l| l.cell_writes)
            .sum();
        let energy = total_writes as f64 * cfg.cost.cell_write_energy_pj;
        assert!(
            (energy - plan.update_energy_pj()).abs() / plan.update_energy_pj() < 1e-12,
            "{energy} vs {}",
            plan.update_energy_pj()
        );
    }

    #[test]
    fn adc_conversions_match_inf_energy_model() {
        // Conversions x per-conversion I&F energy must reproduce the cost
        // model's inf component for one forward input.
        let net = models::lenet_spec();
        let cfg = AcceleratorConfig::default();
        let plan = ExecutionPlan::lower(&net, &cfg).expect("lowerable");
        for (layer, l) in layer_reports(&net, &cfg).iter().zip(&plan.layers) {
            let m = &l.mapping;
            let grid =
                cfg.cost
                    .grid_mvm_cost(&cfg.crossbar, m.row_tiles, m.col_tiles, cfg.activity);
            let want = grid.energy.inf_pj * m.mvms_per_input as f64;
            let got = layer.adc_conversions as f64 * cfg.cost.inf_energy_pj;
            assert!(
                (got - want).abs() / want < 1e-12,
                "{}: {got} vs {want}",
                layer.name
            );
        }
    }

    #[test]
    fn run_report_assembles_and_round_trips() {
        let net = models::lenet_spec();
        let cfg = AcceleratorConfig::default();
        let counters = CounterRecorder::new();
        counters.record(reram_telemetry::Event::CrossbarMvm, 7);
        counters.span("forward", 1000, 64);
        counters.metric("train/loss", 1.5);
        let report = build_run_report("table1", &net, &cfg, &counters);
        assert_eq!(report.workload, "lenet-mnist");
        assert_eq!(report.totals.crossbar_mvms, 7);
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.metrics.len(), 1);
        let parsed = RunReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed, report);
    }
}
