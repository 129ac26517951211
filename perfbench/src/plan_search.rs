//! `plan-search`: a seeded random walk over the execution-plan candidate
//! space, lowering and statically verifying every step the way an
//! annealing auto-tuner would.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use reram_core::verify::{model_zoo, verify_plan};
use reram_core::{AcceleratorConfig, ExecutionPlan, ReplicationPolicy};
use reram_nn::NetworkSpec;
use reram_telemetry::{self as telemetry, CounterRecorder};

use crate::util::{
    alternate_traced, median, now, overhead_pct, secs_since, Metric, SplitMix, Stage, Tally,
};

/// Steps of one walk. Every timed unit replays the same seeded walk, so
/// units are identical work.
const WALK: usize = 4096;

const REPLICATION: [ReplicationPolicy; 10] = [
    ReplicationPolicy::None,
    ReplicationPolicy::Fixed(2),
    ReplicationPolicy::Fixed(4),
    ReplicationPolicy::Fixed(8),
    ReplicationPolicy::MaxStepsPerLayer(16),
    ReplicationPolicy::MaxStepsPerLayer(64),
    ReplicationPolicy::MaxStepsPerLayer(256),
    ReplicationPolicy::ArrayBudget(8_192),
    ReplicationPolicy::ArrayBudget(32_768),
    ReplicationPolicy::ArrayBudget(131_072),
];

/// Crossbar array geometries `(rows, cols)`.
const GEOMETRY: [(usize, usize); 3] = [(64, 64), (128, 128), (256, 256)];

/// Sizes of the walk's three coordinates: zoo network, replication
/// policy and geometry.
const DIMS: [usize; 3] = [7, REPLICATION.len(), GEOMETRY.len()];

pub struct PlanSearch {
    zoo: Vec<NetworkSpec>,
    seed: u64,
}

/// Position of one walk: the candidate and its move generator.
struct Walk {
    rng: SplitMix,
    /// Current candidate: `[network, replication, geometry]` indices.
    at: [usize; 3],
}

fn config(at: [usize; 3]) -> AcceleratorConfig {
    let mut config = AcceleratorConfig::default().with_replication(REPLICATION[at[1]]);
    let (rows, cols) = GEOMETRY[at[2]];
    config.crossbar = config.crossbar.with_array_size(rows, cols);
    config
}

impl Walk {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let at = [rng.below(DIMS[0]), rng.below(DIMS[1]), rng.below(DIMS[2])];
        Self { rng, at }
    }

    /// Moves one coordinate to a different value.
    fn advance(&mut self) -> [usize; 3] {
        let d = self.rng.below(3);
        self.at[d] = (self.at[d] + 1 + self.rng.below(DIMS[d] - 1)) % DIMS[d];
        self.at
    }
}

impl PlanSearch {
    pub fn setup(seed: u64) -> Self {
        let zoo = model_zoo();
        assert_eq!(zoo.len(), DIMS[0], "zoo size matches the walk space");
        Self { zoo, seed }
    }

    /// Lowers and verifies one candidate.
    fn evaluate(&self, at: [usize; 3], tally: &mut Tally) {
        let net = &self.zoo[at[0]];
        let config = config(at);
        match ExecutionPlan::lower(net, &config) {
            Ok(plan) => {
                let violations = verify_plan(&plan, &config);
                tally.check(violations.is_empty(), || {
                    format!("{} at {at:?}: {violations:?}", net.name)
                });
            }
            Err(e) => tally.check(false, || format!("{} at {at:?}: {e}", net.name)),
        }
    }

    fn walk(&self, tally: &mut Tally) {
        let mut walk = Walk::new(self.seed);
        for _ in 0..WALK {
            let at = walk.advance();
            self.evaluate(at, tally);
        }
    }
}

impl Stage for PlanSearch {
    /// One replay of the seeded walk.
    fn unit(&mut self, tally: &mut Tally) -> (f64, f64) {
        let t = now();
        self.walk(tally);
        (WALK as f64, secs_since(t))
    }

    fn finish(&mut self, rate: f64, _tally: &mut Tally) -> Vec<Metric> {
        vec![Metric::new("plans_per_s", rate, "1/s")]
    }
}

impl PlanSearch {
    pub fn trace(&mut self, budget: Duration, tally: &mut Tally) -> Vec<Metric> {
        let slice = budget / 3;
        let counters = Arc::new(CounterRecorder::new());
        let (untraced, traced) = alternate_traced(2 * slice, &counters, || self.walk(tally));
        let _guard = telemetry::scoped_recorder(counters);

        let (mut lower_us, mut verify_us, mut layers) = (Vec::new(), Vec::new(), 0usize);
        let start = now();
        while lower_us.len() < WALK || start.elapsed() < slice {
            let mut walk = Walk::new(self.seed);
            for _ in 0..WALK {
                let at = walk.advance();
                let config = config(at);
                let net = &self.zoo[at[0]];
                let t = now();
                let lowered = ExecutionPlan::lower(net, &config);
                lower_us.push(secs_since(t) * 1e6);
                let Ok(plan) = lowered else {
                    tally.check(false, || format!("{} at {at:?} failed to lower", net.name));
                    continue;
                };
                let t = now();
                let violations = verify_plan(&plan, &config);
                verify_us.push(secs_since(t) * 1e6);
                tally.check(violations.is_empty(), || {
                    format!("{} at {at:?}: {violations:?}", net.name)
                });
                layers += plan.layers.len();
            }
        }
        let mut walk = Walk::new(self.seed);
        let mut seen = BTreeSet::new();
        let revisits = (0..WALK).filter(|_| !seen.insert(walk.advance())).count();
        // Means, not medians: the zoo's networks differ in cost by orders
        // of magnitude, and throughput is set by the mean.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let lower = mean(&lower_us);
        let verify = mean(&verify_us);
        vec![
            Metric::new("core.plan.lower_us", lower, "us"),
            Metric::new("core.verify.verify_us", verify, "us"),
            Metric::new(
                "core.plan.layers_per_plan",
                layers as f64 / verify_us.len() as f64,
                "count",
            ),
            Metric::new(
                "core.plan.revisit_share",
                revisits as f64 / WALK as f64,
                "ratio",
            ),
            overhead_pct("plan-search", &untraced, &traced),
            Metric::new(
                "telemetry.accounted_pct.plan-search",
                100.0 * (lower + verify) / (median(&traced) * 1e6 / WALK as f64),
                "%",
            ),
        ]
    }
}
