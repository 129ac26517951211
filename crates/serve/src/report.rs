//! The serializable outcome of one serving simulation.

use serde::{Deserialize, Error, Serialize, Value};

/// Per-chip serving statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipReport {
    /// Chip id within the cluster.
    pub chip: usize,
    /// Requests this chip completed.
    pub completed_requests: u64,
    /// Batches this chip served.
    pub batches_served: u64,
    /// Fraction of the makespan the chip spent serving, `0..=1`.
    pub utilization: f64,
    /// Crossbar + buffer energy this chip spent, microjoules.
    pub energy_uj: f64,
}

/// Aggregate result of one serving simulation run.
///
/// Produced by [`crate::ServeSim::run`]; fully deterministic for a given
/// seed and configuration, including its [`ServeReport::to_json`] bytes.
///
/// The latency percentiles are `None` when the run completed zero requests
/// — a percentile of an empty sample has no value, and reporting `0` would
/// read as an impossibly fast tail. `None` percentiles are omitted from
/// the JSON encoding entirely (and parse back as `None` when absent), so
/// reports from completed runs keep their previous byte layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scheduling policy that produced the run.
    pub policy: String,
    /// Workload seed.
    pub seed: u64,
    /// Requests admitted into the simulation.
    pub requests_admitted: u64,
    /// Requests completed (equals admitted when the run drains).
    pub requests_completed: u64,
    /// Dynamic batches dispatched.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Simulated time of the last completion, nanoseconds.
    pub makespan_ns: u64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Mean request latency (completion − arrival), nanoseconds.
    pub mean_latency_ns: f64,
    /// Median request latency, nanoseconds (`None` with zero completions).
    pub p50_latency_ns: Option<u64>,
    /// 95th-percentile request latency, nanoseconds (`None` with zero
    /// completions).
    pub p95_latency_ns: Option<u64>,
    /// 99th-percentile request latency, nanoseconds (`None` with zero
    /// completions).
    pub p99_latency_ns: Option<u64>,
    /// Worst request latency, nanoseconds.
    pub max_latency_ns: u64,
    /// Total energy across chips, microjoules.
    pub total_energy_uj: f64,
    /// Per-chip breakdown, indexed by chip id.
    pub chips: Vec<ChipReport>,
}

// Hand-written (de)serialization: the derive stand-in has no field
// attributes, and the percentile fields must be *skipped* when `None`
// rather than encoded as `null` to keep completed-run reports byte-stable.
impl Serialize for ServeReport {
    fn serialize(&self) -> Value {
        let mut entries = vec![
            ("policy".to_owned(), self.policy.serialize()),
            ("seed".to_owned(), self.seed.serialize()),
            (
                "requests_admitted".to_owned(),
                self.requests_admitted.serialize(),
            ),
            (
                "requests_completed".to_owned(),
                self.requests_completed.serialize(),
            ),
            ("batches".to_owned(), self.batches.serialize()),
            (
                "mean_batch_size".to_owned(),
                self.mean_batch_size.serialize(),
            ),
            ("makespan_ns".to_owned(), self.makespan_ns.serialize()),
            ("throughput_rps".to_owned(), self.throughput_rps.serialize()),
            (
                "mean_latency_ns".to_owned(),
                self.mean_latency_ns.serialize(),
            ),
        ];
        for (name, value) in [
            ("p50_latency_ns", self.p50_latency_ns),
            ("p95_latency_ns", self.p95_latency_ns),
            ("p99_latency_ns", self.p99_latency_ns),
        ] {
            if let Some(ns) = value {
                entries.push((name.to_owned(), ns.serialize()));
            }
        }
        entries.push(("max_latency_ns".to_owned(), self.max_latency_ns.serialize()));
        entries.push((
            "total_energy_uj".to_owned(),
            self.total_energy_uj.serialize(),
        ));
        entries.push(("chips".to_owned(), self.chips.serialize()));
        Value::Map(entries)
    }
}

impl Deserialize for ServeReport {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        fn req<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
            let field = value
                .field(name)
                .ok_or_else(|| Error::new(format!("missing field `{name}` in ServeReport")))?;
            T::deserialize(field)
        }
        // Absent percentile fields mean a zero-completion run.
        fn opt(value: &Value, name: &str) -> Result<Option<u64>, Error> {
            match value.field(name) {
                None | Some(Value::Null) => Ok(None),
                Some(field) => u64::deserialize(field).map(Some),
            }
        }
        value.as_map("struct ServeReport")?;
        Ok(Self {
            policy: req(value, "policy")?,
            seed: req(value, "seed")?,
            requests_admitted: req(value, "requests_admitted")?,
            requests_completed: req(value, "requests_completed")?,
            batches: req(value, "batches")?,
            mean_batch_size: req(value, "mean_batch_size")?,
            makespan_ns: req(value, "makespan_ns")?,
            throughput_rps: req(value, "throughput_rps")?,
            mean_latency_ns: req(value, "mean_latency_ns")?,
            p50_latency_ns: opt(value, "p50_latency_ns")?,
            p95_latency_ns: opt(value, "p95_latency_ns")?,
            p99_latency_ns: opt(value, "p99_latency_ns")?,
            max_latency_ns: req(value, "max_latency_ns")?,
            total_energy_uj: req(value, "total_energy_uj")?,
            chips: req(value, "chips")?,
        })
    }
}

impl ServeReport {
    /// Serializes to pretty-printed JSON (byte-stable per seed + config).
    #[must_use = "the rendered JSON is the result"]
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error on malformed input.
    #[must_use = "the parsed report is the result"]
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(text)
    }

    /// Mean per-chip utilization, `0..=1`.
    #[must_use = "the computed utilization is the result"]
    pub fn mean_utilization(&self) -> f64 {
        if self.chips.is_empty() {
            return 0.0;
        }
        self.chips.iter().map(|c| c.utilization).sum::<f64>() / self.chips.len() as f64
    }
}

/// Nearest-rank latency statistics of one run, nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LatencySummary {
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// The quantiles a [`LatencySummary`] reports, ascending.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Zero-based index of the nearest-rank `q`-quantile (`ceil(q·n)`-th
/// smallest; `q` in `(0, 1]`) of `n > 0` samples.
fn nearest_rank_index(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// p50, p95, p99 and max of `latencies_ns` by nearest rank, in O(n): one
/// `select_nth_unstable` per quantile, each on the slice above the
/// previous one. Reorders `latencies_ns`. `None` for an empty sample — an
/// empty run has no percentile, not a zero-nanosecond one.
pub(crate) fn latency_summary(latencies_ns: &mut [u64]) -> Option<LatencySummary> {
    let n = latencies_ns.len();
    if n == 0 {
        return None;
    }
    let mut picked = [0u64; QUANTILES.len()];
    // Everything before `lo` is at most everything from `lo` on.
    let mut lo = 0;
    for (slot, q) in picked.iter_mut().zip(QUANTILES) {
        let at = nearest_rank_index(n, q);
        let (_, nth, _) = latencies_ns[lo..].select_nth_unstable(at - lo);
        *slot = *nth;
        lo = at;
    }
    let max_ns = latencies_ns[lo..].iter().copied().fold(picked[2], u64::max);
    let [p50_ns, p95_ns, p99_ns] = picked;
    Some(LatencySummary {
        p50_ns,
        p95_ns,
        p99_ns,
        max_ns,
    })
}

/// The `q`-quantile of sorted latencies via the nearest-rank method — the
/// sorting oracle [`latency_summary`] is tested against.
#[cfg(test)]
fn percentile_ns(sorted_latencies_ns: &[u64], q: f64) -> Option<u64> {
    if sorted_latencies_ns.is_empty() {
        return None;
    }
    Some(sorted_latencies_ns[nearest_rank_index(sorted_latencies_ns.len(), q)])
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The sort-based statistics [`latency_summary`] must reproduce.
    fn sorted_oracle(latencies_ns: &[u64]) -> Option<LatencySummary> {
        let mut sorted = latencies_ns.to_vec();
        sorted.sort_unstable();
        Some(LatencySummary {
            p50_ns: percentile_ns(&sorted, 0.50)?,
            p95_ns: percentile_ns(&sorted, 0.95)?,
            p99_ns: percentile_ns(&sorted, 0.99)?,
            max_ns: *sorted.last()?,
        })
    }

    proptest! {
        /// Small value ranges force duplicates, including runs of equal
        /// values straddling the selected ranks.
        #[test]
        fn selection_matches_the_sorted_oracle(
            n in 1usize..300,
            distinct in 1u64..40,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let latencies: Vec<u64> = (0..n).map(|_| rng.gen_range(0..distinct)).collect();
            let mut scratch = latencies.clone();
            prop_assert_eq!(latency_summary(&mut scratch), sorted_oracle(&latencies));
        }
    }

    #[test]
    fn selection_handles_tiny_and_empty_samples() {
        assert_eq!(latency_summary(&mut []), None);
        let one = LatencySummary {
            p50_ns: 7,
            p95_ns: 7,
            p99_ns: 7,
            max_ns: 7,
        };
        assert_eq!(latency_summary(&mut [7]), Some(one));
        for pair in [[3, 9], [9, 3], [5, 5]] {
            let mut scratch = pair;
            assert_eq!(latency_summary(&mut scratch), sorted_oracle(&pair));
        }
        // Nearest rank over two samples: the median is the smaller one.
        let mut two = [9, 3];
        let s = latency_summary(&mut two).expect("non-empty");
        assert_eq!((s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns), (3, 9, 9, 9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&lat, 0.50), Some(50));
        assert_eq!(percentile_ns(&lat, 0.95), Some(95));
        assert_eq!(percentile_ns(&lat, 0.99), Some(99));
        assert_eq!(percentile_ns(&lat, 1.0), Some(100));
        assert_eq!(percentile_ns(&[42], 0.99), Some(42));
        assert_eq!(percentile_ns(&[], 0.5), None);
    }

    fn sample() -> ServeReport {
        ServeReport {
            policy: "plan-cost-aware".into(),
            seed: 7,
            requests_admitted: 10,
            requests_completed: 10,
            batches: 3,
            mean_batch_size: 10.0 / 3.0,
            makespan_ns: 123_456,
            throughput_rps: 81_000.5,
            mean_latency_ns: 1_500.25,
            p50_latency_ns: Some(1_200),
            p95_latency_ns: Some(3_000),
            p99_latency_ns: Some(4_500),
            max_latency_ns: 5_000,
            total_energy_uj: 12.75,
            chips: vec![ChipReport {
                chip: 0,
                completed_requests: 10,
                batches_served: 3,
                utilization: 0.625,
                energy_uj: 12.75,
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let report = sample();
        let back = ServeReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);
        assert!((report.mean_utilization() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn none_percentiles_are_skipped_and_round_trip() {
        let report = ServeReport {
            requests_admitted: 0,
            requests_completed: 0,
            batches: 0,
            mean_batch_size: 0.0,
            makespan_ns: 0,
            throughput_rps: 0.0,
            mean_latency_ns: 0.0,
            p50_latency_ns: None,
            p95_latency_ns: None,
            p99_latency_ns: None,
            max_latency_ns: 0,
            ..sample()
        };
        let json = report.to_json();
        assert!(!json.contains("p50_latency_ns"), "{json}");
        assert!(!json.contains("p99_latency_ns"), "{json}");
        let back = ServeReport::from_json(&json).expect("parse");
        assert_eq!(back, report);
    }
}
