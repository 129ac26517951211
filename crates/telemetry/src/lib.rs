//! Workspace-wide hardware telemetry.
//!
//! Simulation code in the crossbar/core/nn crates emits *events* (how many
//! crossbar MVMs ran, how many ADC conversions they needed, how many cells
//! were reprogrammed), *spans* (scoped stage timers attributing wall-clock
//! and simulated cycles to pipeline stages), and *metrics* (scalar samples
//! such as per-step training loss). All three flow to a process-global
//! [`Recorder`] which defaults to "off":
//!
//! - When no recorder is installed, every instrumentation call is a single
//!   relaxed atomic load — cheap enough to leave in hot MVM loops.
//! - Tests and the `repro` binary install a [`CounterRecorder`] (or any
//!   custom [`Recorder`]) for the duration of a scope via
//!   [`scoped_recorder`], then snapshot counters into a serializable
//!   [`RunReport`].
//!
//! The design mirrors the `log` crate's facade pattern: instrumented crates
//! depend only on this tiny crate, never on a concrete sink.
//!
//! ```
//! use reram_telemetry as telemetry;
//! use telemetry::{CounterRecorder, Event};
//! use std::sync::Arc;
//!
//! let counters = Arc::new(CounterRecorder::new());
//! {
//!     let _guard = telemetry::scoped_recorder(counters.clone());
//!     telemetry::record(Event::AdcConversion, 128);
//!     let mut span = telemetry::Span::enter("forward");
//!     span.add_cycles(42);
//! }
//! assert_eq!(counters.count(Event::AdcConversion), 128);
//! ```

mod counters;
mod event;
mod recorder;
mod report;
mod span;

pub use counters::CounterRecorder;
pub use event::{Event, EVENT_COUNT};
pub use recorder::{
    clear_recorder, enabled, metric, record, scoped_recorder, set_recorder, with_recorder,
    Recorder, ScopedRecorder,
};
pub use report::{
    EventCounts, LayerReport, MetricSample, RunReport, SpanReport, REPORT_SCHEMA_VERSION,
};
pub use span::Span;
