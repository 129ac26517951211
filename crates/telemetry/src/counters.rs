//! The standard counting sink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::report::{EventCounts, MetricSample, SpanReport};
use crate::{Event, Recorder, EVENT_COUNT};

/// A [`Recorder`] that tallies events in lock-free atomic counters and
/// aggregates spans/metrics under a mutex (span ends and metric samples are
/// orders of magnitude rarer than event records).
#[derive(Debug, Default)]
pub struct CounterRecorder {
    counts: [AtomicU64; EVENT_COUNT],
    spans: Mutex<Vec<SpanReport>>,
    metrics: Mutex<Vec<MetricSample>>,
}

impl CounterRecorder {
    /// A recorder with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tally for one event kind.
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of all counters as a serializable struct.
    pub fn snapshot(&self) -> EventCounts {
        EventCounts {
            crossbar_mvms: self.count(Event::CrossbarMvm),
            spike_frames: self.count(Event::SpikeFrame),
            dac_conversions: self.count(Event::DacConversion),
            adc_conversions: self.count(Event::AdcConversion),
            cell_writes: self.count(Event::CellWrite),
            subarray_activations: self.count(Event::SubarrayActivation),
            buffer_reads: self.count(Event::BufferRead),
            buffer_writes: self.count(Event::BufferWrite),
            weight_updates: self.count(Event::WeightUpdate),
            train_steps: self.count(Event::TrainStep),
            requests_enqueued: self.count(Event::RequestEnqueued),
            batches_formed: self.count(Event::BatchFormed),
            requests_completed: self.count(Event::RequestCompleted),
        }
    }

    /// Completed spans aggregated by stage name, in first-seen order.
    pub fn span_reports(&self) -> Vec<SpanReport> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// All recorded metric samples, in record order.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    /// All recorded metric samples as serializable structs.
    pub fn metric_samples(&self) -> Vec<MetricSample> {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Zeroes every counter and clears spans/metrics.
    pub fn reset(&self) {
        for counter in &self.counts {
            counter.store(0, Ordering::Relaxed);
        }
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

impl Recorder for CounterRecorder {
    fn record(&self, event: Event, count: u64) {
        self.counts[event.index()].fetch_add(count, Ordering::Relaxed);
    }

    fn span(&self, name: &str, wall_ns: u64, sim_cycles: u64) {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(existing) = spans.iter_mut().find(|s| s.name == name) {
            existing.calls += 1;
            existing.wall_ns += wall_ns;
            existing.sim_cycles += sim_cycles;
        } else {
            spans.push(SpanReport {
                name: name.to_owned(),
                calls: 1,
                wall_ns,
                sim_cycles,
            });
        }
    }

    fn metric(&self, name: &str, value: f64) {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(MetricSample {
                name: name.to_owned(),
                value,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_event() {
        let rec = CounterRecorder::new();
        rec.record(Event::AdcConversion, 16);
        rec.record(Event::AdcConversion, 16);
        rec.record(Event::CellWrite, 256);
        assert_eq!(rec.count(Event::AdcConversion), 32);
        assert_eq!(rec.count(Event::CellWrite), 256);
        assert_eq!(rec.count(Event::CrossbarMvm), 0);

        let snap = rec.snapshot();
        assert_eq!(snap.adc_conversions, 32);
        assert_eq!(snap.cell_writes, 256);
        assert_eq!(snap.total(), 288);
    }

    #[test]
    fn spans_aggregate_by_name() {
        let rec = CounterRecorder::new();
        rec.span("forward", 100, 8);
        rec.span("backward", 50, 4);
        rec.span("forward", 300, 2);
        let spans = rec.span_reports();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "forward");
        assert_eq!(spans[0].calls, 2);
        assert_eq!(spans[0].wall_ns, 400);
        assert_eq!(spans[0].sim_cycles, 10);
        assert_eq!(spans[1].name, "backward");
    }

    #[test]
    fn reset_clears_everything() {
        let rec = CounterRecorder::new();
        rec.record(Event::TrainStep, 5);
        rec.span("s", 1, 1);
        rec.metric("loss", 1.0);
        rec.reset();
        assert_eq!(rec.snapshot().total(), 0);
        assert!(rec.span_reports().is_empty());
        assert!(rec.metrics().is_empty());
    }
}
