//! Shared plumbing: the wall clock, seeds, medians, the outcome tally and
//! the metric record every stage returns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use reram_telemetry::{self as telemetry, CounterRecorder};

/// Reads the host clock. The benchmark is the one place in the tree that
/// measures host time, so every read goes through here.
pub fn now() -> Instant {
    Instant::now() // lint:allow(determinism) host timing is what the benchmark measures
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Derives an independent stream seed from the run seed (SplitMix64
/// finaliser), so one `--seed` drives every generator without two streams
/// sharing a state.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: the benchmark's own input generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        derive_seed(self.0, 0)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Approximately standard normal (Irwin–Hall sum of twelve uniforms).
    pub fn normal(&mut self) -> f32 {
        (0..12).map(|_| self.unit()).sum::<f32>() - 6.0
    }
}

/// Median of the samples (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Runs `unit` until `budget` has passed and at least `min_reps` samples
/// exist, returning each call's duration in seconds.
pub fn sample_for(budget: Duration, min_reps: usize, mut unit: impl FnMut()) -> Vec<f64> {
    let start = now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed() < budget {
        let t = now();
        unit();
        samples.push(secs_since(t));
    }
    samples
}

/// A stage measured in interleaved units of identical work.
pub trait Stage {
    /// Runs one unit; returns the work it did, in the stage's own items,
    /// and the host seconds it took (checks excluded).
    fn unit(&mut self, tally: &mut Tally) -> (f64, f64);

    /// The stage's end-to-end metrics, given its throughput over the run
    /// in items per host second.
    fn finish(&mut self, rate: f64, tally: &mut Tally) -> Vec<Metric>;
}

/// Times `unit` without and with `counters` installed as the telemetry
/// recorder, in pairs whose order flips every pair (untraced first, then
/// traced first), until `budget` has passed and each side has at least four
/// samples. Pairing cancels the host's speed drift out of the comparison,
/// and flipping cancels the advantage of running second on warm data.
/// Returns `(untraced, traced)` durations in seconds.
pub fn alternate_traced(
    budget: Duration,
    counters: &Arc<CounterRecorder>,
    mut unit: impl FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    let start = now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < 4 || start.elapsed() < budget {
        for with_recorder in [traced.len() % 2 == 1, traced.len() % 2 == 0] {
            let _guard = with_recorder.then(|| telemetry::scoped_recorder(counters.clone()));
            let t = now();
            unit();
            let secs = secs_since(t);
            if with_recorder {
                traced.push(secs);
            } else {
                untraced.push(secs);
            }
        }
    }
    (untraced, traced)
}

/// Operations attempted and failed, plus a note per failure for stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one checked operation; a failed check keeps its note.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Traced against untraced cost of the same unit of work, percent.
pub fn overhead_pct(workload: &str, untraced: &[f64], traced: &[f64]) -> Metric {
    Metric::new(
        format!("telemetry.overhead_pct.{workload}"),
        100.0 * (median(traced) / median(untraced) - 1.0),
        "%",
    )
}

/// Peak resident set of this process so far, bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:").map(|kb| kb * 1024)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}
