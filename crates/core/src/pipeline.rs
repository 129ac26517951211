//! The PipeLayer inter-layer pipeline — paper §III-A.2 and Fig. 5.
//!
//! Training a network of `L` (weighted) layers on batches of `B` inputs:
//! the forward pass occupies `L` pipeline stages and the backward pass
//! `L + 1` stages (error computation plus per-layer propagation). Inside a
//! batch "a new input could enter every cycle"; across batches the pipeline
//! drains because the weight update at the end of a batch must complete
//! before the next batch's inputs may use the weights.
//!
//! Closed forms from the paper:
//!
//! * pipelined training of `N` inputs: `(N/B) · (2L + B + 1)` cycles,
//! * non-pipelined (one input at a time): `(2L + 1) · N + N/B` cycles.
//!
//! [`PipelineModel::simulate_training`] is a cycle-stepped simulator of the
//! Fig. 5(b) schedule — stage occupancy, structural-hazard checking, buffer
//! traffic — whose total is asserted (in tests and by `debug_assert`)
//! to equal the closed form.

use reram_telemetry::{self as telemetry, Event, Span};
use serde::{Deserialize, Serialize};

/// Cycle-level model of the PipeLayer training/inference pipeline.
///
/// The paper's closed forms count *macro-cycles*: every pipeline stage is
/// stretched to the latency of the slowest layer, so each stage costs
/// exactly one cycle and the model needs only the layer count and batch
/// size. Per-layer wall-clock forms, where each stage runs at its own
/// layer's speed, live on [`crate::plan::ExecutionPlan`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineModel {
    layers: usize,
    batch: usize,
}

/// Result of a cycle-stepped pipeline simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineTrace {
    /// Total cycles from first input entering to last weight update.
    pub total_cycles: u64,
    /// Busy cycles per forward stage (layer).
    pub forward_busy: Vec<u64>,
    /// Busy cycles per backward stage (`L + 1` of them).
    pub backward_busy: Vec<u64>,
    /// Number of weight-update cycles performed.
    pub weight_updates: u64,
    /// Peak number of inputs in flight in any single cycle.
    pub max_in_flight: usize,
    /// Intermediate-result tensors written to memory subarrays (one per
    /// input per stage transition — the circles of Fig. 5(a)).
    pub buffer_writes: u64,
    /// Intermediate-result tensors read back from memory subarrays: every
    /// stage after the first consumes its predecessor's buffered output,
    /// and each per-layer backward stage additionally re-reads the stored
    /// forward activation for the weight-gradient computation.
    pub buffer_reads: u64,
}

impl PipelineModel {
    /// Creates a pipeline model for `layers` weighted layers and batch size
    /// `batch`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(layers: usize, batch: usize) -> Self {
        assert!(layers > 0, "pipeline needs at least one layer");
        assert!(batch > 0, "batch size must be positive");
        Self { layers, batch }
    }

    /// Weighted layer count `L`.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Batch size `B`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Cycles to train one batch: `2L + B + 1`.
    ///
    /// "The first weight update is generated after (2L+1) cycles. Then there
    /// will be (B − 1) cycles until the end of batch. Finally, one cycle is
    /// needed to update all weights within the batch."
    pub fn training_cycles_per_batch(&self) -> u64 {
        (2 * self.layers + self.batch + 1) as u64
    }

    /// Pipelined training cycles for `n` inputs: `(N/B)(2L + B + 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of the batch size.
    pub fn training_cycles(&self, n: u64) -> u64 {
        assert!(
            n > 0 && n.is_multiple_of(self.batch as u64),
            "{n} inputs is not a positive multiple of batch {}",
            self.batch
        );
        (n / self.batch as u64) * self.training_cycles_per_batch()
    }

    /// Non-pipelined training cycles for `n` inputs: `(2L + 1)N + N/B`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of the batch size.
    pub fn sequential_training_cycles(&self, n: u64) -> u64 {
        assert!(
            n > 0 && n.is_multiple_of(self.batch as u64),
            "{n} inputs is not a positive multiple of batch {}",
            self.batch
        );
        (2 * self.layers as u64 + 1) * n + n / self.batch as u64
    }

    /// Pipelined inference (testing) cycles for `n` inputs: `N + L − 1`
    /// (one new input per cycle, `L` stages to drain).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn inference_cycles(&self, n: u64) -> u64 {
        assert!(n > 0, "need at least one input");
        n + self.layers as u64 - 1
    }

    /// Non-pipelined inference cycles: `N · L`.
    pub fn sequential_inference_cycles(&self, n: u64) -> u64 {
        n * self.layers as u64
    }

    /// Training speedup of the pipeline over sequential execution.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of the batch size.
    pub fn training_speedup(&self, n: u64) -> f64 {
        self.sequential_training_cycles(n) as f64 / self.training_cycles(n) as f64
    }

    /// Cycle-stepped simulation of pipelined training of `n` inputs.
    ///
    /// Every input is a job walking `2L + 1` stages (forward `0..L`,
    /// backward `L..2L+1`), entering one cycle apart within its batch; the
    /// next batch enters only after the weight-update cycle. The simulator
    /// verifies the structural constraint that no stage serves two jobs in
    /// the same cycle and tallies occupancy and buffer traffic.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of the batch size, or —
    /// indicating a scheduler bug — on a structural hazard.
    pub fn simulate_training(&self, n: u64) -> PipelineTrace {
        assert!(
            n > 0 && n.is_multiple_of(self.batch as u64),
            "{n} inputs is not a positive multiple of batch {}",
            self.batch
        );
        let mut span = Span::enter("pipeline/train");
        let l = self.layers;
        let b = self.batch as u64;
        let stages = 2 * l + 1;
        let batches = n / b;

        let mut forward_busy = vec![0u64; l];
        let mut backward_busy = vec![0u64; l + 1];
        let mut weight_updates = 0u64;
        let mut buffer_writes = 0u64;
        let mut buffer_reads = 0u64;
        let mut max_in_flight = 0usize;
        let mut clock: u64 = 0;

        for _batch in 0..batches {
            let start = clock + 1; // first input enters this cycle
            let last_done = start + (b - 1) + stages as u64 - 1;
            for t in start..=last_done {
                let mut stage_taken = vec![false; stages];
                let mut in_flight = 0usize;
                for i in 0..b {
                    let entry = start + i;
                    if t < entry {
                        continue;
                    }
                    let stage = (t - entry) as usize;
                    if stage >= stages {
                        continue;
                    }
                    assert!(
                        !stage_taken[stage],
                        "structural hazard: two inputs in stage {stage} at cycle {t}"
                    );
                    stage_taken[stage] = true;
                    in_flight += 1;
                    if stage < l {
                        forward_busy[stage] += 1;
                    } else {
                        backward_busy[stage - l] += 1;
                    }
                    // Every stage hands its result to a memory subarray for
                    // the next stage (and forward results are also kept for
                    // the weight-gradient computation).
                    buffer_writes += 1;
                    // Every stage after the first reads its predecessor's
                    // buffered tensor ...
                    if stage > 0 {
                        buffer_reads += 1;
                    }
                    // ... and each per-layer backward stage re-reads the
                    // stored forward activation of its mirror layer.
                    if stage > l {
                        buffer_reads += 1;
                    }
                }
                max_in_flight = max_in_flight.max(in_flight);
            }
            // One cycle to apply all accumulated weight updates.
            weight_updates += 1;
            clock = last_done + 1;
        }

        let trace = PipelineTrace {
            total_cycles: clock,
            forward_busy,
            backward_busy,
            weight_updates,
            max_in_flight,
            buffer_writes,
            buffer_reads,
        };
        debug_assert_eq!(
            trace.total_cycles,
            self.training_cycles(n),
            "simulator disagrees with the closed form"
        );
        span.add_cycles(trace.total_cycles);
        telemetry::with_recorder(|t| {
            t.record(Event::BufferWrite, trace.buffer_writes);
            t.record(Event::BufferRead, trace.buffer_reads);
            t.record(Event::WeightUpdate, trace.weight_updates);
        });
        trace
    }

    /// Cycle-stepped simulation of pipelined inference of `n` inputs: one
    /// new input enters every cycle (no batch barrier — testing has no
    /// weight updates), each walking the `L` forward stages.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or — indicating a scheduler bug — on a structural
    /// hazard.
    pub fn simulate_inference(&self, n: u64) -> PipelineTrace {
        assert!(n > 0, "need at least one input");
        let mut span = Span::enter("pipeline/inference");
        let l = self.layers;
        let mut forward_busy = vec![0u64; l];
        let mut buffer_writes = 0u64;
        let mut buffer_reads = 0u64;
        let mut max_in_flight = 0usize;
        let last_done = n + l as u64 - 1;
        for t in 1..=last_done {
            let mut stage_taken = vec![false; l];
            let mut in_flight = 0usize;
            for i in 0..n {
                let entry = 1 + i;
                if t < entry {
                    continue;
                }
                let stage = (t - entry) as usize;
                if stage >= l {
                    continue;
                }
                assert!(
                    !stage_taken[stage],
                    "structural hazard: two inputs in stage {stage} at cycle {t}"
                );
                stage_taken[stage] = true;
                in_flight += 1;
                forward_busy[stage] += 1;
                buffer_writes += 1;
                if stage > 0 {
                    buffer_reads += 1;
                }
            }
            max_in_flight = max_in_flight.max(in_flight);
        }
        let trace = PipelineTrace {
            total_cycles: last_done,
            forward_busy,
            backward_busy: Vec::new(),
            weight_updates: 0,
            max_in_flight,
            buffer_writes,
            buffer_reads,
        };
        debug_assert_eq!(trace.total_cycles, self.inference_cycles(n));
        span.add_cycles(trace.total_cycles);
        telemetry::record(Event::BufferWrite, trace.buffer_writes);
        telemetry::record(Event::BufferRead, trace.buffer_reads);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_batch_formula() {
        // L = 3, B = 4: 2*3 + 4 + 1 = 11.
        assert_eq!(PipelineModel::new(3, 4).training_cycles_per_batch(), 11);
    }

    #[test]
    fn training_cycles_formula() {
        let p = PipelineModel::new(5, 8);
        assert_eq!(p.training_cycles(64), 8 * (10 + 8 + 1));
    }

    #[test]
    fn sequential_formula() {
        let p = PipelineModel::new(5, 8);
        assert_eq!(p.sequential_training_cycles(64), 11 * 64 + 8);
    }

    #[test]
    fn simulator_matches_closed_form_across_sweep() {
        for l in [1usize, 2, 3, 5, 8, 16] {
            for b in [1usize, 2, 4, 16, 64] {
                let p = PipelineModel::new(l, b);
                let n = (4 * b) as u64;
                let trace = p.simulate_training(n);
                assert_eq!(trace.total_cycles, p.training_cycles(n), "L={l} B={b}");
            }
        }
    }

    #[test]
    fn simulator_stage_busy_counts() {
        let p = PipelineModel::new(3, 4);
        let trace = p.simulate_training(8);
        // Every input visits every stage exactly once: 8 visits per stage.
        assert!(trace.forward_busy.iter().all(|&c| c == 8));
        assert!(trace.backward_busy.iter().all(|&c| c == 8));
        assert_eq!(trace.backward_busy.len(), 4); // L + 1 backward stages
        assert_eq!(trace.weight_updates, 2);
    }

    #[test]
    fn pipeline_overlaps_inputs() {
        let p = PipelineModel::new(4, 8);
        let trace = p.simulate_training(8);
        // With B = 8 > 1, multiple inputs are in flight simultaneously.
        assert!(trace.max_in_flight > 1);
        assert!(trace.max_in_flight <= 8);
    }

    #[test]
    fn batch_one_degenerates_to_sequential() {
        // With B = 1 the pipeline formula equals the sequential formula:
        // (N/1)(2L + 2) = (2L+1)N + N.
        let p = PipelineModel::new(6, 1);
        assert_eq!(p.training_cycles(16), p.sequential_training_cycles(16));
        assert!((p.training_speedup(16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_grows_with_batch() {
        let n = 1024;
        let mut prev = 0.0;
        for b in [1usize, 4, 16, 64, 256] {
            let s = PipelineModel::new(8, b).training_speedup(n as u64);
            assert!(s >= prev, "speedup must grow with B: {s} after {prev}");
            prev = s;
        }
        // Asymptote: B >> L gives speedup -> 2L + 1 + 1/B ~ 17.
        assert!(prev > 10.0);
    }

    #[test]
    fn inference_formulas() {
        let p = PipelineModel::new(5, 4);
        assert_eq!(p.inference_cycles(100), 104);
        assert_eq!(p.sequential_inference_cycles(100), 500);
    }

    #[test]
    fn inference_simulation_matches_formula() {
        for l in [1usize, 4, 11] {
            for n in [1u64, 10, 100] {
                let p = PipelineModel::new(l, 1);
                let trace = p.simulate_inference(n);
                assert_eq!(trace.total_cycles, p.inference_cycles(n), "L={l} N={n}");
                // Every input visits every stage once.
                assert!(trace.forward_busy.iter().all(|&c| c == n));
                assert!(trace.backward_busy.is_empty());
                assert_eq!(trace.weight_updates, 0);
            }
        }
    }

    #[test]
    fn inference_saturates_all_stages() {
        let p = PipelineModel::new(6, 1);
        let trace = p.simulate_inference(50);
        // With a long stream, at some cycle all L stages are busy at once.
        assert_eq!(trace.max_in_flight, 6);
    }

    #[test]
    fn buffer_traffic_counts_stage_transitions() {
        let p = PipelineModel::new(3, 2);
        let trace = p.simulate_training(4);
        // 4 inputs x (2L+1 = 7) stages = 28 tensor writes.
        assert_eq!(trace.buffer_writes, 28);
        // Per input: 2L predecessor reads (every stage but the first) plus
        // L forward-activation re-reads in backward = 3L = 9; 4 inputs = 36.
        assert_eq!(trace.buffer_reads, 36);
    }

    #[test]
    fn inference_buffer_reads_skip_first_stage() {
        let p = PipelineModel::new(5, 1);
        let trace = p.simulate_inference(10);
        // Each input reads L - 1 buffered predecessors.
        assert_eq!(trace.buffer_reads, 10 * 4);
        assert_eq!(trace.buffer_writes, 10 * 5);
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn rejects_partial_batches() {
        let _ = PipelineModel::new(3, 4).training_cycles(6);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_zero_layers() {
        let _ = PipelineModel::new(0, 4);
    }

    #[test]
    fn paper_example_total() {
        // Section III-A.2: "The total number of cycles to process N inputs
        // with L layers is (N/B)(2L + B + 1)."
        let (l, b, n) = (4usize, 16usize, 256u64);
        let p = PipelineModel::new(l, b);
        assert_eq!(
            p.training_cycles(n),
            (n / b as u64) * (2 * l as u64 + b as u64 + 1)
        );
        let trace = p.simulate_training(n);
        assert_eq!(trace.total_cycles, p.training_cycles(n));
    }
}
