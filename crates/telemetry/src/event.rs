//! The hardware event vocabulary.

/// Number of distinct [`Event`] kinds (array dimension for counter sinks).
pub const EVENT_COUNT: usize = 13;

/// A countable hardware event in the simulated accelerator.
///
/// The vocabulary follows the paper's cost model: spike-coded crossbar MVMs
/// broken down into per-frame DAC drives and per-column ADC (or
/// integrate-and-fire) conversions, cell-level programming traffic that
/// feeds the endurance model, and the buffer/subarray activity that the
/// pipeline schedule generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Event {
    /// One analog matrix-vector multiply on one crossbar array.
    CrossbarMvm = 0,
    /// One bit-serial spike frame applied to an array's word lines.
    SpikeFrame = 1,
    /// One digital-to-analog conversion driving an input row.
    DacConversion = 2,
    /// One analog-to-digital (or integrate-and-fire) output conversion.
    AdcConversion = 3,
    /// One ReRAM cell programmed (SET/RESET pulse train).
    CellWrite = 4,
    /// One subarray switched from idle to active duty.
    SubarrayActivation = 5,
    /// One value read from an inter-stage eDRAM/SRAM buffer.
    BufferRead = 6,
    /// One value written to an inter-stage eDRAM/SRAM buffer.
    BufferWrite = 7,
    /// One layer's weights updated (one reprogramming campaign).
    WeightUpdate = 8,
    /// One optimizer step over a minibatch.
    TrainStep = 9,
    /// One inference/training request admitted into a serving queue.
    RequestEnqueued = 10,
    /// One dynamic batch closed and dispatched to a chip.
    BatchFormed = 11,
    /// One serving request completed (response ready).
    RequestCompleted = 12,
}

impl Event {
    /// Every event kind, in counter-index order.
    pub const ALL: [Event; EVENT_COUNT] = [
        Event::CrossbarMvm,
        Event::SpikeFrame,
        Event::DacConversion,
        Event::AdcConversion,
        Event::CellWrite,
        Event::SubarrayActivation,
        Event::BufferRead,
        Event::BufferWrite,
        Event::WeightUpdate,
        Event::TrainStep,
        Event::RequestEnqueued,
        Event::BatchFormed,
        Event::RequestCompleted,
    ];

    /// Stable dense index of this event, `0..EVENT_COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Event::CrossbarMvm => "crossbar_mvms",
            Event::SpikeFrame => "spike_frames",
            Event::DacConversion => "dac_conversions",
            Event::AdcConversion => "adc_conversions",
            Event::CellWrite => "cell_writes",
            Event::SubarrayActivation => "subarray_activations",
            Event::BufferRead => "buffer_reads",
            Event::BufferWrite => "buffer_writes",
            Event::WeightUpdate => "weight_updates",
            Event::TrainStep => "train_steps",
            Event::RequestEnqueued => "requests_enqueued",
            Event::BatchFormed => "batches_formed",
            Event::RequestCompleted => "requests_completed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, event) in Event::ALL.iter().enumerate() {
            assert_eq!(event.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Event::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EVENT_COUNT);
    }
}
