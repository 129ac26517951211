//! `serve-fleet`: an open-loop sweep of the 32-chip serving simulator.
//!
//! Arrivals are generated in simulated time, so latency runs from each
//! request's due time and the generator can never fall behind. Every cell
//! of the sweep is one arrival sequence replayed under all three policies.

use std::sync::Arc;
use std::time::Duration;

use reram_core::AcceleratorConfig;
use reram_nn::{models, NetworkSpec};
use reram_serve::{
    generate_requests, BatcherConfig, Cluster, ModelMix, Policy, Request, ServeConfig, ServeReport,
    ServeSim, TrafficModel,
};
use reram_telemetry::{self as telemetry, CounterRecorder, Event};

use crate::util::{
    alternate_traced, derive_seed, median, now, overhead_pct, peak_rss_bytes, sample_for,
    secs_since, Metric, SplitMix, Stage, Tally,
};

/// Chips in the homogeneous fleet.
pub const CHIPS: usize = 32;
/// Traffic share of LeNet, AlexNet and MNIST-deep, in catalog order.
pub const MIX: [f64; 3] = [0.5, 0.2, 0.3];
/// Arrival horizon of every cell, simulated ns.
pub const HORIZON_NS: u64 = 3_000_000;
/// Frozen absolute Poisson ladder, requests per second. Chosen as 25, 50,
/// 75, 90 and 97 % of the fleet's plan-priced capacity at max batch
/// (38.64 Mrps for this catalog, mix and the default accelerator), then
/// fixed so that a cost-model change cannot move the offered load.
pub const LADDER_RPS: [f64; 5] = [9.6e6, 19.3e6, 29.0e6, 34.8e6, 37.5e6];
/// The bursty cell: a quiet base state where partial batches close on the
/// linger deadline, and bursts past the fleet's capacity.
pub const BURSTY: TrafficModel = TrafficModel::Bursty {
    base_rps: 2.0e6,
    burst_rps: 45.0e6,
    mean_base_ns: 200_000.0,
    mean_burst_ns: 50_000.0,
};
/// The policy whose tail defines the reference cell and the goodput.
pub const DEFAULT_POLICY: Policy = Policy::PlanCostAware;
/// Tail-latency objective on the default policy's p99, simulated ns.
pub const SLO_P99_NS: u64 = 100_000;
/// A cell counts as stable only if it drains this soon after the horizon.
pub const DRAIN_BOUND_NS: u64 = 200_000;

/// One arrival sequence of the sweep.
struct Cell {
    traffic: TrafficModel,
    seed: u64,
}

/// Reports of one sweep, indexed `[cell][policy]` in `Policy::ALL` order.
type SweepReports = Vec<[ServeReport; 3]>;

pub struct Fleet {
    catalog: Vec<NetworkSpec>,
    accel: AcceleratorConfig,
    cluster: Cluster,
    mix: ModelMix,
    cells: Vec<Cell>,
    /// The first timed sweep's reports and their JSON, which every later
    /// sweep must replay byte for byte.
    golden: Option<(SweepReports, Vec<String>)>,
    sweeps: usize,
}

fn policy_index(policy: Policy) -> usize {
    Policy::ALL
        .iter()
        .position(|&p| p == policy)
        .expect("policy is built in")
}

impl Fleet {
    /// Builds the fleet and the cell list, and statically verifies that
    /// the top rung is a stable load for the plan-priced cluster.
    pub fn setup(seed: u64, tally: &mut Tally) -> Result<Self, String> {
        let catalog = vec![
            models::lenet_spec(),
            models::alexnet_spec(),
            models::mnist_deep_spec(),
        ];
        let accel = AcceleratorConfig::default();
        let cluster = Cluster::homogeneous(CHIPS, &catalog, &accel).map_err(|e| e.to_string())?;
        let mix = ModelMix::new(&MIX).map_err(|e| e.to_string())?;
        let cells: Vec<Cell> = LADDER_RPS
            .iter()
            .map(|&rate_rps| TrafficModel::Poisson { rate_rps })
            .chain([BURSTY])
            .enumerate()
            .map(|(i, traffic)| Cell {
                traffic,
                seed: derive_seed(seed, 100 + i as u64),
            })
            .collect();
        let top = ServeConfig {
            chips: CHIPS,
            batcher: BatcherConfig::default(),
            policy: DEFAULT_POLICY,
            traffic: cells[LADDER_RPS.len() - 1].traffic.clone(),
            mix: MIX.to_vec(),
            horizon_ns: HORIZON_NS,
            seed,
        };
        let violations = top.verify(&catalog, &accel).map_err(|e| e.to_string())?;
        tally.check(violations.is_empty(), || {
            format!("top rung fails static serve verification: {violations:?}")
        });
        Ok(Self {
            catalog,
            accel,
            cluster,
            mix,
            cells,
            golden: None,
            sweeps: 0,
        })
    }

    fn arrivals(&self, cell: &Cell) -> Vec<Request> {
        generate_requests(&cell.traffic, &self.mix, HORIZON_NS, cell.seed)
            .expect("cell traffic is valid")
    }

    fn run_cell(&self, cell: &Cell, policy: Policy, arrivals: Vec<Request>) -> ServeReport {
        ServeSim::new(
            self.cluster.clone(),
            BatcherConfig::default(),
            policy.scheduler(),
            cell.seed,
        )
        .expect("default batcher is valid")
        .run(arrivals)
    }

    /// One pass over every cell under every policy, checking conservation.
    fn sweep(&self, tally: &mut Tally) -> SweepReports {
        let mut out = Vec::with_capacity(self.cells.len());
        for (c, cell) in self.cells.iter().enumerate() {
            let arrivals = self.arrivals(cell);
            let offered = arrivals.len() as u64;
            let reports = Policy::ALL.map(|policy| self.run_cell(cell, policy, arrivals.clone()));
            for r in &reports {
                let per_chip: u64 = r.chips.iter().map(|ch| ch.completed_requests).sum();
                tally.check(
                    r.requests_admitted == offered
                        && r.requests_completed == r.requests_admitted
                        && per_chip == r.requests_completed
                        && r.p99_latency_ns.is_some(),
                    || {
                        format!(
                            "cell {c} {}: offered {offered}, admitted {}, completed {}, per-chip {per_chip}",
                            r.policy, r.requests_admitted, r.requests_completed
                        )
                    },
                );
            }
            out.push(reports);
        }
        out
    }
}

impl Stage for Fleet {
    /// One whole sweep; returns the simulated requests it completed.
    fn unit(&mut self, tally: &mut Tally) -> (f64, f64) {
        let t = now();
        let reports = self.sweep(tally);
        let secs = secs_since(t);
        self.sweeps += 1;
        let completed: u64 = reports.iter().flatten().map(|r| r.requests_completed).sum();
        let json: Vec<String> = reports.iter().flatten().map(ServeReport::to_json).collect();
        match &self.golden {
            None => self.golden = Some((reports, json)),
            Some((_, first)) => tally.check(&json == first, || {
                "a repeated sweep did not replay the first byte for byte".to_owned()
            }),
        }
        (completed as f64, secs)
    }

    /// Host throughput over sweeps, and the simulated metrics of the first.
    fn finish(&mut self, rate: f64, tally: &mut Tally) -> Vec<Metric> {
        let (reports, json) = self.golden.take().expect("at least one sweep ran");
        let top = LADDER_RPS.len() - 1;
        let d = policy_index(DEFAULT_POLICY);
        if self.sweeps == 1 {
            let cell = &self.cells[top];
            let replay = self.run_cell(cell, DEFAULT_POLICY, self.arrivals(cell));
            tally.check(replay.to_json() == json[top * 3 + d], || {
                "same-seed replay of the reference cell differs".to_owned()
            });
        }
        let reference = &reports[top][d];
        let mut goodput_rps = 0.0;
        for (rung, &rate) in LADDER_RPS.iter().enumerate() {
            let r = &reports[rung][d];
            let drain = r.makespan_ns.saturating_sub(HORIZON_NS);
            let ok = r.p99_latency_ns.is_some_and(|p| p <= SLO_P99_NS)
                && r.requests_completed == r.requests_admitted
                && drain <= DRAIN_BOUND_NS;
            if !ok {
                break;
            }
            goodput_rps = rate;
        }
        tally.check(goodput_rps > 0.0, || {
            "the default policy misses the SLO at the lowest rung".to_owned()
        });
        eprintln!(
            "serve-fleet: {} sweeps; reference cell {} at {:.1} Mrps: {} completions, p50 {:?} ns, p99 {:?} ns",
            self.sweeps,
            reference.policy,
            LADDER_RPS[top] / 1e6,
            reference.requests_completed,
            reference.p50_latency_ns,
            reference.p99_latency_ns
        );
        let us = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e3;
        vec![
            Metric::new("sim_req_per_s", rate, "1/s"),
            Metric::new("sim_p50_us", us(reference.p50_latency_ns), "us"),
            Metric::new("sim_p99_us", us(reference.p99_latency_ns), "us"),
            Metric::new("slo_goodput_mrps", goodput_rps / 1e6, "Mrps"),
        ]
    }
}

impl Fleet {
    /// Peak-memory growth of generating and simulating the reference cell,
    /// per request. Meaningful only before anything larger has run in the
    /// process, so the traced run calls it first.
    pub fn rss_probe(&self) -> Metric {
        let before = peak_rss_bytes().unwrap_or(0);
        let cell = &self.cells[LADDER_RPS.len() - 1];
        let report = self.run_cell(cell, DEFAULT_POLICY, self.arrivals(cell));
        let after = peak_rss_bytes().unwrap_or(0);
        Metric::new(
            "serve.sim.rss_bytes_per_req",
            after.saturating_sub(before) as f64 / report.requests_admitted.max(1) as f64,
            "B",
        )
    }

    /// Per-layer timings and counts, measured with a counting recorder
    /// installed.
    pub fn trace(&self, budget: Duration, tally: &mut Tally) -> Vec<Metric> {
        let slice = budget / 8;
        let cell = &self.cells[LADDER_RPS.len() - 1];
        let counters = Arc::new(CounterRecorder::new());
        let (untraced, traced) = alternate_traced(2 * slice, &counters, || {
            std::hint::black_box(self.run_cell(cell, DEFAULT_POLICY, self.arrivals(cell)));
        });
        let _guard = telemetry::scoped_recorder(counters.clone());
        let requests = self.arrivals(cell).len() as f64;

        let build = sample_for(slice, 3, || {
            std::hint::black_box(
                Cluster::homogeneous(CHIPS, &self.catalog, &self.accel).expect("catalog lowers"),
            );
        });
        let gen = sample_for(slice, 3, || {
            std::hint::black_box(self.arrivals(cell));
        });
        let mut run = Vec::new();
        let start = now();
        while run.len() < 3 || start.elapsed() < slice {
            let arrivals = self.arrivals(cell);
            let sim = ServeSim::new(
                self.cluster.clone(),
                BatcherConfig::default(),
                DEFAULT_POLICY.scheduler(),
                cell.seed,
            )
            .expect("default batcher is valid");
            let t = now();
            std::hint::black_box(sim.run(arrivals));
            run.push(secs_since(t));
        }
        let gen_ns = median(&gen) * 1e9 / requests;
        let run_ns = median(&run) * 1e9 / requests;

        let mut metrics = vec![
            Metric::new("serve.cluster.build_ms", median(&build) * 1e3, "ms"),
            Metric::new("serve.workload.gen_ns_per_req", gen_ns, "ns"),
            Metric::new("serve.sim.run_ns_per_req", run_ns, "ns"),
        ];
        metrics.extend(self.pick_costs(slice));

        counters.reset();
        let reports = self.sweep(tally);
        let enqueued = counters.count(Event::RequestEnqueued) as f64;
        let batches = counters.count(Event::BatchFormed) as f64;
        let d = policy_index(DEFAULT_POLICY);
        let (served, formed) = reports.iter().fold((0u64, 0u64), |(s, b), cell| {
            (s + cell[d].requests_completed, b + cell[d].batches)
        });
        let reference = &reports[LADDER_RPS.len() - 1][d];
        let utils = reference.chips.iter().map(|c| c.utilization);
        let spread = utils.clone().fold(f64::MIN, f64::max) - utils.fold(f64::MAX, f64::min);
        metrics.extend([
            Metric::new(
                "serve.sim.batches_per_req",
                batches / enqueued.max(1.0),
                "ratio",
            ),
            Metric::new(
                "serve.batcher.mean_batch",
                served as f64 / formed.max(1) as f64,
                "req",
            ),
            Metric::new("serve.scheduler.util_spread", spread, "ratio"),
            overhead_pct("serve-fleet", &untraced, &traced),
            Metric::new(
                "telemetry.accounted_pct.serve-fleet",
                100.0 * (gen_ns + run_ns) / (median(&traced) * 1e9 / requests),
                "%",
            ),
        ]);
        metrics
    }

    /// Cost of one `Scheduler::pick` on the built fleet in a seeded busy
    /// state, per policy.
    fn pick_costs(&self, slice: Duration) -> Vec<Metric> {
        const PICKS: usize = 20_000;
        let mut rng = SplitMix::new(self.cells[0].seed);
        let mut cluster = self.cluster.clone();
        for chip in &mut cluster.chips {
            chip.busy_until_ns = rng.below(200_000) as u64;
            chip.queued_requests = rng.below(64);
        }
        let queries: Vec<(u64, usize)> = (0..PICKS)
            .map(|_| (rng.below(100_000) as u64, rng.below(MIX.len())))
            .collect();
        Policy::ALL
            .iter()
            .map(|policy| {
                let mut scheduler = policy.scheduler();
                let samples = sample_for(slice / 3, 3, || {
                    for &(now_ns, model) in &queries {
                        std::hint::black_box(scheduler.pick(&cluster, now_ns, model, 16));
                    }
                });
                Metric::new(
                    format!("serve.scheduler.pick_ns.{}", policy.name()),
                    median(&samples) * 1e9 / PICKS as f64,
                    "ns",
                )
            })
            .collect()
    }
}
