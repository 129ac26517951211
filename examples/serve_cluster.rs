//! Serving: a four-chip cluster under bursty traffic, three schedulers.
//!
//! `reram-serve` replays one seeded workload — a Markov-modulated Poisson
//! process over a heterogeneous model catalog (LeNet + AlexNet) — against
//! the same cluster under each scheduling policy, so the only thing that
//! differs between runs is dispatch. Requests batch dynamically (size or
//! linger trigger, whichever fires first) and every chip prices its work
//! with the lowered `ExecutionPlan`, which is what lets the cost-aware
//! policy predict completion times instead of counting queued requests.
//!
//! ```text
//! cargo run --example serve_cluster --release
//! ```
#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message on a setup error; that is its error path"
)]

use reram_core::AcceleratorConfig;
use reram_nn::models;
use reram_serve::{simulate, Policy, ServeConfig, TrafficModel};

fn main() {
    let catalog = [models::lenet_spec(), models::alexnet_spec()];
    let accel = AcceleratorConfig::default();
    let base = ServeConfig {
        chips: 4,
        // 0.5 Mrps baseline with 3 Mrps bursts: the bursts overrun the
        // cluster, so scheduling quality shows up in the tail.
        traffic: TrafficModel::Bursty {
            base_rps: 500_000.0,
            burst_rps: 3_000_000.0,
            mean_base_ns: 2_000_000.0,
            mean_burst_ns: 500_000.0,
        },
        mix: vec![0.7, 0.3],
        horizon_ns: 20_000_000,
        seed: 7,
        ..ServeConfig::default()
    };

    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>12} {:>6}",
        "policy", "batches", "p50 (us)", "p99 (us)", "thru (Mrps)", "util"
    );
    for policy in Policy::ALL {
        let report = simulate(
            &ServeConfig {
                policy,
                ..base.clone()
            },
            &catalog,
            &accel,
        )
        .expect("zoo networks plan under the default config");
        println!(
            "{:<16} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>5.0}%",
            report.policy,
            report.batches,
            report.p50_latency_ns.unwrap_or(0) as f64 / 1e3,
            report.p99_latency_ns.unwrap_or(0) as f64 / 1e3,
            report.throughput_rps / 1e6,
            report.mean_utilization() * 100.0
        );
    }

    // Per-chip view of the winning policy: cost-aware dispatch keeps the
    // chips' busy time balanced even though batch costs differ 10x.
    let report = simulate(&base, &catalog, &accel).expect("plannable");
    println!("\n{} per-chip breakdown:", report.policy);
    for chip in &report.chips {
        println!(
            "  chip {}: {} requests in {} batches, {:.0}% busy, {:.1} uJ",
            chip.chip,
            chip.completed_requests,
            chip.batches_served,
            chip.utilization * 100.0,
            chip.energy_uj
        );
    }
}
