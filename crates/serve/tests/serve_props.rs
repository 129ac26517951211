//! Scheduler correctness and replay properties of the serving simulator.
//!
//! Two guarantees every scheduling policy must uphold, pinned here rather
//! than per-policy:
//!
//! 1. **Request conservation** — every admitted request completes exactly
//!    once, never before it arrived, and per-chip completion tallies sum to
//!    the total (no request is lost, duplicated, or time-travels).
//! 2. **Determinism** — the same seed and configuration reproduce a
//!    byte-identical [`ServeReport`] JSON, which is what makes policy
//!    comparisons and the `repro -- serve` artifact replayable.

use proptest::prelude::*;
use reram_core::AcceleratorConfig;
use reram_nn::{models, NetworkSpec};
use reram_serve::{
    generate_requests, simulate, Cluster, ModelMix, Policy, ServeConfig, ServeSim, TrafficModel,
};

fn catalog() -> [NetworkSpec; 2] {
    [models::lenet_spec(), models::alexnet_spec()]
}

fn config(policy: Policy, rate_rps: f64, seed: u64) -> ServeConfig {
    ServeConfig {
        chips: 4,
        policy,
        traffic: TrafficModel::Poisson { rate_rps },
        mix: vec![0.7, 0.3],
        horizon_ns: 2_000_000,
        seed,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation holds for every policy across random loads, fleet
    /// sizes, and batcher knobs: completions equal admissions, chips
    /// account for every request, and no latency is negative (completion
    /// time ≥ arrival time by construction of `latency = done - arrival`,
    /// which would underflow and fail loudly if violated).
    #[test]
    fn requests_are_conserved_across_policies(
        seed in 0u64..1_000,
        chips in 1usize..6,
        max_batch in 1usize..24,
        rate_khz in 50u64..2_000,
    ) {
        for policy in Policy::ALL {
            let mut cfg = config(policy, rate_khz as f64 * 1e3, seed);
            cfg.chips = chips;
            cfg.batcher.max_batch = max_batch;
            let report = simulate(&cfg, &catalog(), &AcceleratorConfig::default())
                .expect("simulates");
            prop_assert_eq!(report.requests_completed, report.requests_admitted);
            prop_assert_eq!(
                report.chips.iter().map(|c| c.completed_requests).sum::<u64>(),
                report.requests_completed
            );
            prop_assert_eq!(report.chips.len(), chips);
            prop_assert!(report.batches > 0 || report.requests_admitted == 0);
            prop_assert!(report.p99_latency_ns.unwrap_or(0) <= report.max_latency_ns);
            // Every batch completes after the arrival horizon's first
            // request, so a drained run's makespan covers all latencies.
            prop_assert!(u128::from(report.max_latency_ns) <= u128::from(report.makespan_ns));
        }
    }
}

/// Driving the simulator directly (not through `simulate`) conserves each
/// request id exactly once — the id-level statement of conservation.
#[test]
fn each_admitted_id_completes_exactly_once() {
    let mix = ModelMix::new(&[0.5, 0.5]).expect("mix");
    let arrivals = generate_requests(
        &TrafficModel::Bursty {
            base_rps: 100_000.0,
            burst_rps: 1_500_000.0,
            mean_base_ns: 500_000.0,
            mean_burst_ns: 200_000.0,
        },
        &mix,
        3_000_000,
        17,
    )
    .expect("generable");
    let n = arrivals.len() as u64;
    assert!(n > 0);
    for policy in Policy::ALL {
        let cluster =
            Cluster::homogeneous(3, &catalog(), &AcceleratorConfig::default()).expect("cluster");
        let sim =
            ServeSim::new(cluster, Default::default(), policy.scheduler(), 17).expect("buildable");
        let report = sim.run(arrivals.clone());
        assert_eq!(report.requests_admitted, n, "{}", policy.name());
        assert_eq!(report.requests_completed, n, "{}", policy.name());
    }
}

/// Same seed + same config ⇒ byte-identical `ServeReport` JSON; different
/// seeds diverge (the generators actually consume the seed).
#[test]
fn same_seed_is_byte_identical() {
    for policy in Policy::ALL {
        let cfg = config(policy, 400_000.0, 23);
        let accel = AcceleratorConfig::default();
        let a = simulate(&cfg, &catalog(), &accel).expect("first run");
        let b = simulate(&cfg, &catalog(), &accel).expect("second run");
        assert_eq!(a.to_json(), b.to_json(), "{}", policy.name());

        let mut other = cfg.clone();
        other.seed = 24;
        let c = simulate(&other, &catalog(), &accel).expect("third run");
        assert_ne!(a.to_json(), c.to_json(), "{}", policy.name());
    }
}

/// `simulate` streams its arrivals straight into the loop; feeding the
/// loop the same requests collected up front must give the same bytes.
#[test]
fn streamed_simulate_equals_collected_run() {
    let accel = AcceleratorConfig::default();
    for traffic in [
        TrafficModel::Poisson {
            rate_rps: 900_000.0,
        },
        TrafficModel::Bursty {
            base_rps: 200_000.0,
            burst_rps: 2_000_000.0,
            mean_base_ns: 400_000.0,
            mean_burst_ns: 150_000.0,
        },
        TrafficModel::Trace {
            arrivals: (0..600u64)
                .map(|i| ((i % 200) * 5_000, (i % 3 == 0) as usize))
                .collect(),
        },
    ] {
        for policy in Policy::ALL {
            let cfg = ServeConfig {
                traffic: traffic.clone(),
                ..config(policy, 1.0, 31)
            };
            let streamed = simulate(&cfg, &catalog(), &accel).expect("simulates");
            let mix = ModelMix::new(&cfg.mix).expect("mix");
            let arrivals =
                generate_requests(&cfg.traffic, &mix, cfg.horizon_ns, cfg.seed).expect("generable");
            let cluster = Cluster::homogeneous(cfg.chips, &catalog(), &accel).expect("cluster");
            let collected = ServeSim::new(cluster, cfg.batcher, policy.scheduler(), cfg.seed)
                .expect("buildable")
                .run(arrivals);
            assert!(streamed.requests_completed > 0, "{traffic:?}");
            assert_eq!(
                streamed.to_json(),
                collected.to_json(),
                "{traffic:?} {}",
                policy.name()
            );
        }
    }
}
