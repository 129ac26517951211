//! The deterministic discrete-event loop.
//!
//! [`ServeSim`] merges two time-ordered sources: the arrival stream, which
//! the caller supplies sorted, and a binary heap of the loop's own events
//! keyed on `(time, seq)` — simulated nanoseconds plus a monotone sequence
//! number, so simultaneous events replay in insertion order and two runs
//! of the same seed are byte-identical. An arrival is taken whenever it is
//! no later than the head of the heap, so arrivals win ties against
//! internal events. The heap holds only in-flight work (open linger
//! deadlines and dispatched batches), never the horizon's arrivals, so its
//! size is bounded by the cluster's occupancy, not by the request count.
//! Wall-clock types are lint-banned from this crate; the only clock is the
//! merged head.
//!
//! Arrivals and two internal event kinds close the loop:
//!
//! 1. an arrival — the request joins its model's batch queue
//!    ([`reram_telemetry::Event::RequestEnqueued`]); filling the batch
//!    dispatches it, opening one schedules a linger deadline.
//! 2. `BatchDeadline` — the oldest waiter lingered long enough; a partial
//!    batch dispatches unless the deadline went stale (generation
//!    mismatch).
//! 3. `BatchDone` — a chip finished a batch; every request in it completes
//!    ([`reram_telemetry::Event::RequestCompleted`]), its latency is
//!    recorded, and the batch buffer goes back to the batcher for reuse.
//!
//! Dispatch asks the [`Scheduler`] for a chip, charges the chip's FIFO
//! queue with its precomputed batch price, and emits
//! [`reram_telemetry::Event::BatchFormed`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use reram_core::plan::ExecutionPlan;
use reram_core::verify::{verify_serve, ServeShape, Violation};
use reram_core::AcceleratorConfig;
use reram_nn::NetworkSpec;
use reram_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::batcher::{BatchAction, Batcher, BatcherConfig};
use crate::cluster::Cluster;
use crate::report::{latency_summary, ChipReport, ServeReport};
use crate::scheduler::{Policy, Scheduler};
use crate::workload::{ModelMix, Request, RequestStream, TrafficModel};
use crate::ServeError;

/// What the loop itself scheduled for a simulated instant.
#[derive(Debug, Clone)]
enum EventKind {
    /// A dynamic batch's linger deadline fires.
    BatchDeadline { model: usize, generation: u64 },
    /// A chip finishes serving a batch.
    BatchDone { chip: usize, requests: Vec<Request> },
}

/// Heap entry ordered by `(at_ns, seq)` only; `seq` is unique per event, so
/// the ordering is total and consistent with this partial equality.
#[derive(Debug, Clone)]
struct HeapEvent {
    at_ns: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for HeapEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ns, self.seq) == (other.at_ns, other.seq)
    }
}

impl Eq for HeapEvent {}

impl PartialOrd for HeapEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the simulation needs the
        // earliest event first.
        (other.at_ns, other.seq).cmp(&(self.at_ns, self.seq))
    }
}

/// Everything a serving simulation needs besides the model catalog and the
/// chip configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Chips in the (homogeneous) cluster.
    pub chips: usize,
    /// Dynamic batching knobs.
    pub batcher: BatcherConfig,
    /// Batch placement policy.
    pub policy: Policy,
    /// Arrival process.
    pub traffic: TrafficModel,
    /// Relative traffic weight per catalog model (must match the catalog
    /// length; ignored for trace traffic).
    pub mix: Vec<f64>,
    /// Arrival horizon, simulated nanoseconds (arrivals stop here; the
    /// simulation runs on until every admitted request completes).
    pub horizon_ns: u64,
    /// Workload seed.
    pub seed: u64,
}

impl ServeConfig {
    /// Static feasibility check, no simulation: lowers one plan per catalog
    /// model and runs [`reram_core::verify::verify_serve`] over this
    /// config's shape — flagging a batcher linger that can never bind and
    /// an offered arrival rate at or beyond the cluster's plan-priced
    /// service capacity (queueing instability, `ρ = λ/μ ≥ 1`).
    ///
    /// # Errors
    ///
    /// Returns the [`ServeError`] [`simulate`] would return for this config
    /// and catalog — no chips, an empty catalog, a bad mix, degenerate
    /// traffic, a zero `max_batch`, or a catalog model that fails to
    /// lower: there is nothing to verify.
    #[must_use = "the returned violations are the verification result"]
    pub fn verify(
        &self,
        catalog: &[NetworkSpec],
        accel: &AcceleratorConfig,
    ) -> Result<Vec<Violation>, ServeError> {
        self.arrivals(catalog)?;
        let plans = catalog
            .iter()
            .map(|net| ExecutionPlan::lower(net, accel))
            .collect::<Result<Vec<_>, _>>()?;
        let shape = ServeShape {
            chips: self.chips,
            max_batch: self.batcher.max_batch,
            max_linger_ns: self.batcher.max_linger_ns,
            mean_arrival_rps: self.traffic.mean_rate_rps(self.horizon_ns),
            mix: self.mix.clone(),
        };
        Ok(verify_serve(&plans, &shape))
    }

    /// The setup checks [`simulate`] and [`ServeConfig::verify`] share,
    /// run before any catalog model is lowered. Returns the arrival stream.
    fn arrivals(&self, catalog: &[NetworkSpec]) -> Result<RequestStream, ServeError> {
        if self.chips == 0 {
            return Err(ServeError::NoChips);
        }
        if catalog.is_empty() {
            return Err(ServeError::NoModels);
        }
        let mix = ModelMix::new(&self.mix)?;
        if mix.models() != catalog.len() {
            return Err(ServeError::BadMix);
        }
        let arrivals = RequestStream::new(&self.traffic, &mix, self.horizon_ns, self.seed)?;
        if self.batcher.max_batch == 0 {
            return Err(ServeError::BadBatcher);
        }
        Ok(arrivals)
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            chips: 4,
            batcher: BatcherConfig::default(),
            policy: Policy::PlanCostAware,
            traffic: TrafficModel::Poisson {
                rate_rps: 100_000.0,
            },
            mix: vec![1.0, 1.0],
            horizon_ns: 10_000_000,
            seed: 42,
        }
    }
}

/// A runnable simulation: cluster + batcher + scheduler.
pub struct ServeSim {
    cluster: Cluster,
    batcher: Batcher,
    scheduler: Scheduler,
    seed: u64,
    queue: BinaryHeap<HeapEvent>,
    next_seq: u64,
    latencies_ns: Vec<u64>,
    admitted: u64,
    completed: u64,
    batches: u64,
}

impl ServeSim {
    /// Builds a simulation over an existing cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadBatcher`] when `batcher.max_batch` is zero.
    #[must_use = "the built simulation is the result"]
    pub fn new(
        cluster: Cluster,
        batcher: BatcherConfig,
        scheduler: Scheduler,
        seed: u64,
    ) -> Result<Self, ServeError> {
        if batcher.max_batch == 0 {
            return Err(ServeError::BadBatcher);
        }
        let models = cluster.models();
        Ok(Self {
            cluster,
            batcher: Batcher::new(models, batcher),
            scheduler,
            seed,
            queue: BinaryHeap::new(),
            next_seq: 0,
            latencies_ns: Vec::new(),
            admitted: 0,
            completed: 0,
            batches: 0,
        })
    }

    fn push_event(&mut self, at_ns: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(HeapEvent { at_ns, seq, kind });
    }

    /// Closes a batch: pick a chip, charge its FIFO queue with the
    /// plan-priced service latency, and schedule the completion.
    fn dispatch(&mut self, now_ns: u64, requests: Vec<Request>) {
        debug_assert!(!requests.is_empty(), "batches are never empty");
        let model = requests[0].model;
        let batch = requests.len();
        let id = self.scheduler.pick(&self.cluster, now_ns, model, batch);
        let chip = &mut self.cluster.chips[id];
        let service_ns = chip.batch_service_ns(model, batch);
        let start_ns = chip.busy_until_ns.max(now_ns);
        let done_ns = start_ns + service_ns;
        chip.busy_until_ns = done_ns;
        chip.busy_ns += service_ns;
        chip.queued_requests += batch;
        chip.batches_served += 1;
        chip.energy_pj += chip.batch_energy_pj(model, batch);
        self.batches += 1;
        telemetry::record(telemetry::Event::BatchFormed, 1);
        self.push_event(done_ns, EventKind::BatchDone { chip: id, requests });
    }

    /// Admits one request into its model's batch queue.
    fn arrive(&mut self, request: Request) {
        let now_ns = request.arrival_ns;
        self.admitted += 1;
        telemetry::record(telemetry::Event::RequestEnqueued, 1);
        match self.batcher.push(request, now_ns) {
            BatchAction::Dispatch(batch) => self.dispatch(now_ns, batch),
            BatchAction::Deadline {
                model,
                generation,
                deadline_ns,
            } => self.push_event(deadline_ns, EventKind::BatchDeadline { model, generation }),
            BatchAction::Wait => {}
        }
    }

    /// Runs the simulation over a sorted arrival sequence until every
    /// admitted request completes, then reports.
    ///
    /// Arrivals are pulled lazily, one at a time, so `arrivals` may be a
    /// [`RequestStream`] of any length.
    ///
    /// # Panics
    ///
    /// Panics if an arrival is earlier than the one before it: the arrival
    /// sequence must be sorted by `arrival_ns`, as
    /// [`crate::generate_requests`] and [`RequestStream`] produce it.
    pub fn run(mut self, arrivals: impl IntoIterator<Item = Request>) -> ServeReport {
        let mut arrivals = arrivals.into_iter().peekable();
        let mut last_arrival_ns = 0u64;
        let mut makespan_ns = 0u64;
        loop {
            // Arrivals win ties, so a request arriving exactly at a linger
            // deadline still joins the batch that deadline closes.
            let next_internal_ns = self.queue.peek().map(|e| e.at_ns);
            if let Some(request) =
                arrivals.next_if(|r| next_internal_ns.is_none_or(|at| r.arrival_ns <= at))
            {
                assert!(
                    request.arrival_ns >= last_arrival_ns,
                    "arrivals must be sorted: {} ns after {last_arrival_ns} ns",
                    request.arrival_ns
                );
                last_arrival_ns = request.arrival_ns;
                self.arrive(request);
                continue;
            }
            let Some(event) = self.queue.pop() else {
                break;
            };
            let now_ns = event.at_ns;
            match event.kind {
                EventKind::BatchDeadline { model, generation } => {
                    if let Some(batch) = self.batcher.flush_deadline(model, generation) {
                        self.dispatch(now_ns, batch);
                    }
                }
                EventKind::BatchDone { chip, requests } => {
                    let chip = &mut self.cluster.chips[chip];
                    chip.queued_requests -= requests.len();
                    chip.completed_requests += requests.len() as u64;
                    telemetry::record(telemetry::Event::RequestCompleted, requests.len() as u64);
                    makespan_ns = makespan_ns.max(now_ns);
                    self.completed += requests.len() as u64;
                    self.latencies_ns
                        .extend(requests.iter().map(|r| now_ns - r.arrival_ns));
                    self.batcher.recycle(requests);
                }
            }
        }
        debug_assert_eq!(self.batcher.pending(), 0, "every open batch must flush");
        self.report(makespan_ns)
    }

    fn report(mut self, makespan_ns: u64) -> ServeReport {
        let n = self.latencies_ns.len();
        let mean_latency_ns = if n == 0 {
            0.0
        } else {
            // Exact; equal to a running f64 sum while the total stays
            // below 2^53 ns.
            let total_ns: u128 = self.latencies_ns.iter().map(|&l| u128::from(l)).sum();
            total_ns as f64 / n as f64
        };
        let summary = latency_summary(&mut self.latencies_ns);
        let chips: Vec<ChipReport> = self
            .cluster
            .chips
            .iter()
            .map(|c| ChipReport {
                chip: c.id,
                completed_requests: c.completed_requests,
                batches_served: c.batches_served,
                utilization: if makespan_ns == 0 {
                    0.0
                } else {
                    c.busy_ns as f64 / makespan_ns as f64
                },
                energy_uj: c.energy_pj.0 * 1e-6,
            })
            .collect();
        ServeReport {
            policy: self.scheduler.name().to_owned(),
            seed: self.seed,
            requests_admitted: self.admitted,
            requests_completed: self.completed,
            batches: self.batches,
            mean_batch_size: if self.batches == 0 {
                0.0
            } else {
                self.completed as f64 / self.batches as f64
            },
            makespan_ns,
            throughput_rps: if makespan_ns == 0 {
                0.0
            } else {
                self.completed as f64 / (makespan_ns as f64 * 1e-9)
            },
            mean_latency_ns,
            p50_latency_ns: summary.map(|s| s.p50_ns),
            p95_latency_ns: summary.map(|s| s.p95_ns),
            p99_latency_ns: summary.map(|s| s.p99_ns),
            max_latency_ns: summary.map_or(0, |s| s.max_ns),
            total_energy_uj: chips.iter().map(|c| c.energy_uj).sum(),
            chips,
        }
    }
}

/// One-call entry point: build a homogeneous cluster over `catalog`, and
/// stream the seeded workload through it under the configured policy.
///
/// # Errors
///
/// Propagates every setup error: empty cluster/catalog, bad mix or traffic
/// parameters, a zero `max_batch`, or a model that fails to lower.
#[must_use = "the serving report is the result"]
pub fn simulate(
    config: &ServeConfig,
    catalog: &[NetworkSpec],
    accel: &AcceleratorConfig,
) -> Result<ServeReport, ServeError> {
    let arrivals = config.arrivals(catalog)?;
    let cluster = Cluster::homogeneous(config.chips, catalog, accel)?;
    let sim = ServeSim::new(
        cluster,
        config.batcher,
        config.policy.scheduler(),
        config.seed,
    )?;
    Ok(sim.run(arrivals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_nn::models;

    fn catalog() -> [NetworkSpec; 2] {
        [models::lenet_spec(), models::alexnet_spec()]
    }

    fn config() -> ServeConfig {
        ServeConfig {
            chips: 4,
            traffic: TrafficModel::Poisson {
                rate_rps: 200_000.0,
            },
            mix: vec![0.7, 0.3],
            horizon_ns: 5_000_000,
            seed: 11,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn every_request_completes() {
        let report =
            simulate(&config(), &catalog(), &AcceleratorConfig::default()).expect("simulates");
        assert!(report.requests_admitted > 0);
        assert_eq!(report.requests_completed, report.requests_admitted);
        assert_eq!(
            report
                .chips
                .iter()
                .map(|c| c.completed_requests)
                .sum::<u64>(),
            report.requests_completed
        );
        let (p50, p95, p99) = (
            report.p50_latency_ns.expect("completions"),
            report.p95_latency_ns.expect("completions"),
            report.p99_latency_ns.expect("completions"),
        );
        assert!(p50 <= p95);
        assert!(p95 <= p99);
        assert!(p99 <= report.max_latency_ns);
        assert!(report.throughput_rps > 0.0);
        assert!(report.total_energy_uj > 0.0);
        assert!(report.mean_batch_size >= 1.0);
    }

    #[test]
    fn batching_amortizes_under_load() {
        // At a high arrival rate the size trigger dominates and batches
        // grow well beyond singletons.
        let mut cfg = config();
        cfg.traffic = TrafficModel::Poisson {
            rate_rps: 2_000_000.0,
        };
        let report = simulate(&cfg, &catalog(), &AcceleratorConfig::default()).expect("simulates");
        assert!(
            report.mean_batch_size > 4.0,
            "mean batch {}",
            report.mean_batch_size
        );
    }

    #[test]
    fn utilization_is_a_fraction_and_energy_adds_up() {
        let report =
            simulate(&config(), &catalog(), &AcceleratorConfig::default()).expect("simulates");
        for chip in &report.chips {
            assert!((0.0..=1.0).contains(&chip.utilization), "{chip:?}");
        }
        let sum: f64 = report.chips.iter().map(|c| c.energy_uj).sum();
        assert!((sum - report.total_energy_uj).abs() < 1e-9);
    }

    #[test]
    fn zero_max_batch_is_rejected() {
        let mut cfg = config();
        cfg.batcher.max_batch = 0;
        assert_eq!(
            simulate(&cfg, &catalog(), &AcceleratorConfig::default()).unwrap_err(),
            ServeError::BadBatcher
        );
    }

    #[test]
    fn zero_completions_report_no_percentiles() {
        // An empty trace admits nothing: the batcher never fires, no batch
        // ever completes, and the percentile fields must be absent rather
        // than a bogus 0 ns tail.
        let mut cfg = config();
        cfg.traffic = TrafficModel::Trace { arrivals: vec![] };
        let report = simulate(&cfg, &catalog(), &AcceleratorConfig::default()).expect("simulates");
        assert_eq!(report.requests_completed, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.p50_latency_ns, None);
        assert_eq!(report.p95_latency_ns, None);
        assert_eq!(report.p99_latency_ns, None);
        let json = report.to_json();
        assert!(!json.contains("p95_latency_ns"), "{json}");
        assert_eq!(ServeReport::from_json(&json).expect("parse"), report);
    }

    #[test]
    fn default_config_verifies_feasible() {
        let violations = config()
            .verify(&catalog(), &AcceleratorConfig::default())
            .expect("verifiable");
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn overload_config_is_flagged_with_rho() {
        let mut cfg = config();
        cfg.chips = 1;
        cfg.traffic = TrafficModel::Poisson {
            rate_rps: 5_000_000_000.0,
        };
        let violations = cfg
            .verify(&catalog(), &AcceleratorConfig::default())
            .expect("verifiable");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::Overload { rho, .. } if *rho >= 1.0)),
            "expected an Overload violation, got {violations:?}"
        );
    }

    #[test]
    #[should_panic(expected = "arrivals must be sorted")]
    fn out_of_order_arrivals_panic() {
        let cluster =
            Cluster::homogeneous(1, &catalog(), &AcceleratorConfig::default()).expect("buildable");
        let sim = ServeSim::new(
            cluster,
            BatcherConfig::default(),
            Policy::RoundRobin.scheduler(),
            0,
        )
        .expect("buildable");
        let request = |id, arrival_ns| Request {
            id,
            model: 0,
            arrival_ns,
        };
        let _ = sim.run([request(0, 500), request(1, 100)]);
    }

    #[test]
    fn verify_rejects_what_simulate_rejects() {
        let accel = AcceleratorConfig::default();
        let mut cases: Vec<(ServeConfig, ServeError)> = [f64::INFINITY, -5.0, f64::NAN, 0.0]
            .into_iter()
            .map(|rate_rps| {
                let mut cfg = config();
                cfg.traffic = TrafficModel::Poisson { rate_rps };
                (cfg, ServeError::BadTraffic)
            })
            .collect();
        let mut cfg = config();
        cfg.chips = 0;
        cases.push((cfg, ServeError::NoChips));
        for mix in [vec![1.0], vec![1e308, 1e308]] {
            let mut cfg = config();
            cfg.mix = mix;
            cases.push((cfg, ServeError::BadMix));
        }
        let mut cfg = config();
        cfg.batcher.max_batch = 0;
        cases.push((cfg, ServeError::BadBatcher));
        for (cfg, want) in &cases {
            let simulated = simulate(cfg, &catalog(), &accel).unwrap_err();
            assert_eq!(&simulated, want, "{cfg:?}");
            assert_eq!(cfg.verify(&catalog(), &accel).unwrap_err(), simulated);
        }
        let empty = config().verify(&[], &accel).unwrap_err();
        assert_eq!(empty, ServeError::NoModels);
        assert_eq!(simulate(&config(), &[], &accel).unwrap_err(), empty);
    }

    #[test]
    fn mix_must_match_catalog() {
        let mut cfg = config();
        cfg.mix = vec![1.0];
        assert_eq!(
            simulate(&cfg, &catalog(), &AcceleratorConfig::default()).unwrap_err(),
            ServeError::BadMix
        );
    }
}
