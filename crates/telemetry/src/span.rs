//! Scoped stage timers.

use crate::recorder::{enabled, with_recorder};

/// An RAII stage timer.
///
/// Created with [`Span::enter`]; on drop it reports the elapsed wall-clock
/// time plus any simulated cycles attributed via [`Span::add_cycles`] to the
/// installed recorder. When telemetry is disabled at entry the span holds no
/// timestamp and drop is free — safe to use in per-batch loops.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    #[expect(
        clippy::disallowed_types,
        reason = "the one sanctioned wall-clock site: host time per stage is what a span reports, and it never feeds simulated results"
    )]
    start: Option<std::time::Instant>,
    sim_cycles: u64,
}

impl Span {
    /// Starts timing a stage. `name` groups repeated entries of the same
    /// stage in reports ("forward", "backward", "weight_update", ...).
    #[expect(
        clippy::disallowed_types,
        reason = "the one sanctioned wall-clock site: host time per stage is what a span reports, and it never feeds simulated results"
    )]
    pub fn enter(name: &'static str) -> Self {
        Self {
            name,
            start: enabled().then(std::time::Instant::now),
            sim_cycles: 0,
        }
    }

    /// Attributes simulated hardware cycles to this span. Callers add the
    /// model-derived cycle count so reports can show both host wall-clock
    /// and simulated time per stage.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.sim_cycles += cycles;
    }

    /// The stage name this span reports under.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let wall_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let cycles = self.sim_cycles;
            with_recorder(|r| r.span(self.name, wall_ns, cycles));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scoped_recorder, CounterRecorder};
    use std::sync::Arc;

    #[test]
    fn span_reports_on_drop_with_cycles() {
        let counters = Arc::new(CounterRecorder::new());
        {
            let _guard = scoped_recorder(counters.clone());
            let mut span = Span::enter("forward");
            span.add_cycles(10);
            span.add_cycles(32);
        }
        let spans = counters.span_reports();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "forward");
        assert_eq!(spans[0].calls, 1);
        assert_eq!(spans[0].sim_cycles, 42);
    }

    #[test]
    fn disabled_span_reports_nothing() {
        let counters = Arc::new(CounterRecorder::new());
        {
            let span = Span::enter("orphan"); // telemetry disabled at entry
            let _guard = scoped_recorder(counters.clone());
            drop(span);
        }
        assert!(counters.span_reports().is_empty());
    }
}
