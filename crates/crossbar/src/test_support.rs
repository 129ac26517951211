//! Helpers shared by the crate's unit tests.

use reram_telemetry::{self as telemetry, CounterRecorder, Event, Recorder, EVENT_COUNT};
use std::sync::Arc;
use std::thread::ThreadId;

/// A counter that keeps only the installing thread's events, so the
/// unscoped products of tests running alongside cannot leak in.
struct ThreadCounter {
    owner: ThreadId,
    counts: CounterRecorder,
}

impl Recorder for ThreadCounter {
    fn record(&self, event: Event, count: u64) {
        if std::thread::current().id() == self.owner {
            self.counts.record(event, count);
        }
    }
}

/// Runs `f` under a scoped counter; returns its result and every tally.
pub(crate) fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; EVENT_COUNT]) {
    let counter = Arc::new(ThreadCounter {
        owner: std::thread::current().id(),
        counts: CounterRecorder::new(),
    });
    let out = {
        let _guard = telemetry::scoped_recorder(counter.clone());
        f()
    };
    (out, Event::ALL.map(|e| counter.counts.count(e)))
}
