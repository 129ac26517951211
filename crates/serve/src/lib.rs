//! Discrete-event multi-chip serving simulator.
//!
//! The paper models one chip pipelined over one stream of inputs; this
//! crate models what sits *above* one chip when the accelerator serves
//! real traffic: request arrival, queueing, dynamic batching, and placement
//! across a pod of chips. Everything is priced analytically through the
//! [`reram_core::ExecutionPlan`] closed forms — a scheduling decision costs
//! exactly what the lowered plan says a batch occupies a chip for, so
//! policies can be compared without Monte-Carlo noise in the service model.
//!
//! The moving parts:
//!
//! * [`workload`] — seeded request generators (stationary Poisson, bursty
//!   two-state MMPP, replayable traces) over a model catalog: a lazy
//!   [`RequestStream`] of [`Request`]s tagged with a model index.
//! * [`cluster`] — a [`Cluster`] of [`Chip`]s, each carrying the batch
//!   prices of one lowered [`reram_core::ExecutionPlan`] per catalog model
//!   (computed once when the cluster is built) and exposing busy-until /
//!   queue-depth state.
//! * [`batcher`] — a dynamic batcher ([`BatcherConfig`]): close a batch at
//!   `max_batch` requests or when the oldest waiter has lingered
//!   `max_linger_ns`, whichever comes first.
//! * [`scheduler`] — the [`Scheduler`] for each placement [`Policy`]:
//!   round-robin, least-loaded, and plan-cost-aware.
//! * [`sim`] — the deterministic event loop ([`ServeSim`]): the sorted
//!   arrival stream merged with a binary heap of in-flight events (linger
//!   deadlines and batch completions) over simulated nanoseconds (no wall
//!   clock anywhere), and the [`simulate`] convenience entry point.
//! * [`report`] — the serializable [`ServeReport`]: throughput, latency
//!   percentiles (selected in linear time, not sorted), per-chip
//!   utilization and energy.
//!
//! Simulated time is `u64` nanoseconds throughout. Same seed + same config
//! ⇒ byte-identical [`ServeReport`] JSON; the test suite pins that.
//!
//! ```
//! use reram_core::AcceleratorConfig;
//! use reram_nn::models;
//! use reram_serve::{simulate, Policy, ServeConfig, TrafficModel};
//!
//! let catalog = [models::lenet_spec(), models::alexnet_spec()];
//! let cfg = ServeConfig {
//!     policy: Policy::PlanCostAware,
//!     traffic: TrafficModel::Poisson { rate_rps: 200_000.0 },
//!     ..ServeConfig::default()
//! };
//! let report = simulate(&cfg, &catalog, &AcceleratorConfig::default()).unwrap();
//! assert_eq!(report.requests_completed, report.requests_admitted);
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod cluster;
pub mod report;
pub mod scheduler;
pub mod sim;
pub mod workload;

pub use batcher::BatcherConfig;
pub use cluster::{Chip, Cluster};
pub use report::{ChipReport, ServeReport};
pub use scheduler::{Policy, Scheduler};
pub use sim::{simulate, ServeConfig, ServeSim};
pub use workload::{generate_requests, ModelMix, Request, RequestStream, TrafficModel};

use reram_core::PlanError;

/// Why a serving simulation could not be set up.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The cluster would have no chips.
    NoChips,
    /// The model catalog is empty.
    NoModels,
    /// Mix weights do not match the catalog or sum to zero.
    BadMix,
    /// An arrival rate or dwell time is not positive and finite.
    BadTraffic,
    /// The batcher would never close a batch (`max_batch == 0`).
    BadBatcher,
    /// A catalog model could not be lowered onto the chip configuration.
    Plan(PlanError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoChips => write!(f, "cluster needs at least one chip"),
            ServeError::NoModels => write!(f, "model catalog is empty"),
            ServeError::BadMix => write!(
                f,
                "traffic mix must give one non-negative weight per catalog \
                 model, with a positive sum"
            ),
            ServeError::BadTraffic => {
                write!(
                    f,
                    "arrival rates and dwell times must be positive and finite"
                )
            }
            ServeError::BadBatcher => write!(f, "batcher max_batch must be positive"),
            ServeError::Plan(e) => write!(f, "cannot lower catalog model: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}
