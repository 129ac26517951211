//! E10 — multi-chip serving: scheduling-policy comparison under load.
//!
//! A four-chip cluster serves a heterogeneous model mix (70% LeNet, 30%
//! AlexNet — per-request service costs differ by an order of magnitude) at
//! three Poisson arrival rates. Each [`reram_serve::Policy`] runs the same
//! seeded workload, so rows differ only in scheduling decisions. The point
//! the table makes: once the cluster is loaded, plan-cost-aware dispatch
//! (which prices each candidate batch with the chip's lowered
//! [`reram_core::ExecutionPlan`]) beats both round-robin and queue-length
//! balancing on tail latency, because queue *length* is a poor proxy for
//! queue *time* when batches are this unequal.

use crate::Table;
use reram_core::AcceleratorConfig;
use reram_nn::{models, NetworkSpec};
use reram_serve::{simulate, Policy, ServeConfig, ServeReport, TrafficModel};

/// Chips in the simulated cluster.
pub const CHIPS: usize = 4;

/// Request mix over the catalog: 70% LeNet, 30% AlexNet.
pub const MODEL_MIX: [f64; 2] = [0.7, 0.3];

/// Swept Poisson arrival rates (requests/second): light, moderate, heavy.
/// The heavy point sits near the cluster's service capacity for this mix,
/// where scheduling quality dominates the tail.
pub const ARRIVAL_RATES_RPS: [f64; 3] = [250_000.0, 1_000_000.0, 2_500_000.0];

/// Simulated arrival horizon: 20 ms of traffic (then the queues drain).
pub const HORIZON_NS: u64 = 20_000_000;

/// Workload seed shared by every row so policies see identical arrivals.
pub const SEED: u64 = 42;

/// The served model catalog (index order matches [`MODEL_MIX`]).
pub fn catalog() -> [NetworkSpec; 2] {
    [models::lenet_spec(), models::alexnet_spec()]
}

/// Simulates one (policy, arrival-rate) cell of the sweep.
#[expect(
    clippy::expect_used,
    reason = "fixed zoo networks under the default config always plan"
)]
pub fn measure(policy: Policy, rate_rps: f64) -> ServeReport {
    let cfg = ServeConfig {
        chips: CHIPS,
        policy,
        traffic: TrafficModel::Poisson { rate_rps },
        mix: MODEL_MIX.to_vec(),
        horizon_ns: HORIZON_NS,
        seed: SEED,
        ..ServeConfig::default()
    };
    simulate(&cfg, &catalog(), &AcceleratorConfig::default()).expect("serving sweep simulates")
}

/// Runs the full 3 policies x 3 rates sweep, rate-major.
pub fn measure_all() -> Vec<ServeReport> {
    let mut reports = Vec::with_capacity(ARRIVAL_RATES_RPS.len() * Policy::ALL.len());
    for rate in ARRIVAL_RATES_RPS {
        for policy in Policy::ALL {
            reports.push(measure(policy, rate));
        }
    }
    reports
}

/// Renders the policy-comparison table.
pub fn run() -> Table {
    let mut t = Table::new([
        "policy",
        "arrival rate",
        "throughput",
        "mean batch",
        "p50",
        "p95",
        "p99",
        "utilization",
        "energy",
    ]);
    let mut reports = measure_all().into_iter();
    for rate in ARRIVAL_RATES_RPS {
        for _ in Policy::ALL {
            #[expect(
                clippy::expect_used,
                reason = "measure_all emits exactly rates x policies cells"
            )]
            let r = reports.next().expect("sweep covers every cell");
            t.row([
                r.policy.clone(),
                format!("{:.2} Mrps", rate / 1e6),
                format!("{:.2} Mrps", r.throughput_rps / 1e6),
                format!("{:.1}", r.mean_batch_size),
                percentile_cell(r.p50_latency_ns),
                percentile_cell(r.p95_latency_ns),
                percentile_cell(r.p99_latency_ns),
                format!("{:.0}%", r.mean_utilization() * 100.0),
                crate::table::joules(r.total_energy_uj * 1e-6),
            ]);
        }
    }
    t
}

/// Formats one latency percentile, or `-` for a zero-completion run (the
/// percentiles are `None` then — there is no tail to report).
fn percentile_cell(latency_ns: Option<u64>) -> String {
    match latency_ns {
        Some(ns) => crate::table::seconds(ns as f64 * 1e-9),
        None => "-".to_owned(),
    }
}

/// One `BENCH_serve.json` record: the headline numbers for a sweep cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeBenchRecord {
    /// Scheduling policy name.
    pub policy: String,
    /// Offered Poisson arrival rate, requests/second.
    pub arrival_rate_rps: f64,
    /// Achieved throughput over the makespan, requests/second.
    pub throughput_rps: f64,
    /// 99th-percentile request latency, simulated nanoseconds.
    pub p99_latency_ns: u64,
}

/// The machine-readable artifact behind `BENCH_serve.json`: p99 latency and
/// throughput for every sweep cell, in [`measure_all`] order.
pub fn bench_records() -> Vec<ServeBenchRecord> {
    let mut out = Vec::new();
    let mut reports = measure_all().into_iter();
    for rate in ARRIVAL_RATES_RPS {
        for _ in Policy::ALL {
            #[expect(
                clippy::expect_used,
                reason = "measure_all emits exactly rates x policies cells"
            )]
            let r = reports.next().expect("sweep covers every cell");
            #[expect(
                clippy::expect_used,
                reason = "every sweep cell admits and completes requests"
            )]
            out.push(ServeBenchRecord {
                policy: r.policy,
                arrival_rate_rps: rate,
                throughput_rps: r.throughput_rps,
                p99_latency_ns: r.p99_latency_ns.expect("sweep cells complete requests"),
            });
        }
    }
    out
}

/// Serializes [`bench_records`] as pretty-printed JSON.
pub fn bench_json() -> String {
    serde::json::to_string_pretty(&bench_records())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_aware_beats_round_robin_on_tail_latency_under_load() {
        let heavy = *ARRIVAL_RATES_RPS.last().expect("rates non-empty");
        let rr = measure(Policy::RoundRobin, heavy)
            .p99_latency_ns
            .expect("completions");
        let ca = measure(Policy::PlanCostAware, heavy)
            .p99_latency_ns
            .expect("completions");
        assert!(
            ca < rr,
            "plan-cost-aware p99 {ca} ns should undercut round-robin p99 {rr} ns"
        );
    }

    #[test]
    fn every_policy_serves_the_identical_workload() {
        let heavy = *ARRIVAL_RATES_RPS.last().expect("rates non-empty");
        let admitted: Vec<u64> = Policy::ALL
            .iter()
            .map(|&p| measure(p, heavy).requests_admitted)
            .collect();
        assert!(admitted[0] > 0);
        assert!(admitted.iter().all(|&n| n == admitted[0]));
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(bench_json(), bench_json());
    }

    #[test]
    fn run_covers_the_full_sweep() {
        assert_eq!(run().len(), ARRIVAL_RATES_RPS.len() * Policy::ALL.len());
        assert_eq!(
            bench_records().len(),
            ARRIVAL_RATES_RPS.len() * Policy::ALL.len()
        );
    }
}
