//! Dynamic batching: amortize crossbar MVM passes across waiting requests.
//!
//! One logical queue per catalog model accumulates requests. A batch closes
//! and is handed to the scheduler when either trigger fires:
//!
//! * **size** — `max_batch` requests are waiting (closed immediately on the
//!   arrival that fills it), or
//! * **linger** — the *oldest* waiter has been queued `max_linger_ns`
//!   simulated nanoseconds (closed by a deadline event).
//!
//! Batching trades the fill of one pipeline pass for per-input initiation
//! intervals (see [`reram_core::ExecutionPlan::batch_inference_latency_ns`]),
//! mirroring the in-flight residency model of `core::chip`: a batch of `B`
//! occupies a chip once instead of `B` times.
//!
//! Deadline staleness is handled with per-queue generation counters: each
//! generation (the lifetime of one accumulating batch) schedules exactly
//! one deadline event when its first request arrives, and a deadline whose
//! generation no longer matches (the batch already closed on size) is
//! ignored by the event loop.
//!
//! Batch buffers are recycled: the event loop hands each completed batch's
//! vector back through [`Batcher::recycle`], and the next batch to open
//! reuses it, so a steady-state run allocates no batch storage.

use serde::{Deserialize, Serialize};

use crate::workload::Request;

/// Dynamic batcher policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatcherConfig {
    /// Close a batch as soon as this many requests wait (per model).
    pub max_batch: usize,
    /// Close a (partial) batch once its oldest request has waited this many
    /// simulated nanoseconds.
    pub max_linger_ns: u64,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_linger_ns: 20_000,
        }
    }
}

/// What the batcher wants done after admitting one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchAction {
    /// The size trigger fired: dispatch this batch now.
    Dispatch(Vec<Request>),
    /// The request opened a fresh batch: schedule its linger deadline.
    Deadline {
        /// Catalog model whose queue opened.
        model: usize,
        /// Generation the deadline belongs to (for staleness checks).
        generation: u64,
        /// Absolute simulated time the deadline fires, nanoseconds.
        deadline_ns: u64,
    },
    /// The request joined an already-open batch: nothing to schedule.
    Wait,
}

#[derive(Debug, Clone, Default)]
struct ModelQueue {
    pending: Vec<Request>,
    generation: u64,
}

/// Per-model dynamic batching state.
#[derive(Debug, Clone)]
pub struct Batcher {
    config: BatcherConfig,
    queues: Vec<ModelQueue>,
    /// Emptied batch buffers waiting to back the next batch that closes.
    spare: Vec<Vec<Request>>,
}

impl Batcher {
    /// A batcher with one queue per catalog model.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` is zero (validated upstream by
    /// [`crate::sim::ServeSim`]).
    pub fn new(models: usize, config: BatcherConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        Self {
            config,
            queues: (0..models).map(|_| ModelQueue::default()).collect(),
            spare: Vec::new(),
        }
    }

    /// Returns a dispatched batch's buffer once its requests completed; a
    /// later batch reuses its allocation.
    pub fn recycle(&mut self, mut buffer: Vec<Request>) {
        buffer.clear();
        self.spare.push(buffer);
    }

    /// Closes `model`'s open batch: hands out its requests and backs the
    /// queue with a recycled buffer.
    fn close(&mut self, model: usize) -> Vec<Request> {
        let queue = &mut self.queues[model];
        queue.generation += 1;
        let fresh = self.spare.pop().unwrap_or_default();
        std::mem::replace(&mut queue.pending, fresh)
    }

    /// Admits one request at its arrival time.
    pub fn push(&mut self, request: Request, now_ns: u64) -> BatchAction {
        let model = request.model;
        let queue = &mut self.queues[model];
        queue.pending.push(request);
        if queue.pending.len() >= self.config.max_batch {
            return BatchAction::Dispatch(self.close(model));
        }
        if queue.pending.len() == 1 {
            return BatchAction::Deadline {
                model,
                generation: queue.generation,
                // Saturate: an effectively-infinite linger must clamp to
                // the end of simulated time, not wrap past `now_ns`.
                deadline_ns: now_ns.saturating_add(self.config.max_linger_ns),
            };
        }
        BatchAction::Wait
    }

    /// Handles a linger deadline: returns the partial batch to dispatch, or
    /// `None` when the deadline is stale (its batch already closed on the
    /// size trigger).
    pub fn flush_deadline(&mut self, model: usize, generation: u64) -> Option<Vec<Request>> {
        let queue = &self.queues[model];
        if queue.generation != generation || queue.pending.is_empty() {
            return None;
        }
        Some(self.close(model))
    }

    /// Requests currently waiting in an open batch, summed over models.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.pending.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, model: usize, arrival_ns: u64) -> Request {
        Request {
            id,
            model,
            arrival_ns,
        }
    }

    #[test]
    fn size_trigger_closes_exactly_at_max_batch() {
        let mut b = Batcher::new(
            1,
            BatcherConfig {
                max_batch: 3,
                max_linger_ns: 100,
            },
        );
        assert!(matches!(
            b.push(req(0, 0, 10), 10),
            BatchAction::Deadline {
                model: 0,
                generation: 0,
                deadline_ns: 110,
            }
        ));
        assert_eq!(b.push(req(1, 0, 11), 11), BatchAction::Wait);
        match b.push(req(2, 0, 12), 12) {
            BatchAction::Dispatch(batch) => {
                assert_eq!(
                    batch.iter().map(|r| r.id).collect::<Vec<_>>(),
                    vec![0, 1, 2]
                );
            }
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert_eq!(b.pending(), 0);
        // The stale deadline for generation 0 must now be a no-op.
        assert_eq!(b.flush_deadline(0, 0), None);
    }

    #[test]
    fn linger_trigger_flushes_partial_batches() {
        let mut b = Batcher::new(2, BatcherConfig::default());
        b.push(req(0, 1, 5), 5);
        b.push(req(1, 1, 9), 9);
        assert_eq!(b.pending(), 2);
        let batch = b.flush_deadline(1, 0).expect("open batch flushes");
        assert_eq!(batch.len(), 2);
        // Double-flush of the same generation is stale.
        assert_eq!(b.flush_deadline(1, 0), None);
        // A new generation restarts cleanly with its own deadline.
        assert!(matches!(
            b.push(req(2, 1, 50), 50),
            BatchAction::Deadline { generation: 1, .. }
        ));
    }

    #[test]
    fn huge_linger_saturates_instead_of_wrapping() {
        let mut b = Batcher::new(
            1,
            BatcherConfig {
                max_batch: 4,
                max_linger_ns: u64::MAX,
            },
        );
        match b.push(req(0, 0, 1_000), 1_000) {
            BatchAction::Deadline { deadline_ns, .. } => {
                assert_eq!(deadline_ns, u64::MAX, "deadline wrapped past now");
            }
            other => panic!("expected deadline, got {other:?}"),
        }
    }

    #[test]
    fn recycled_buffers_back_the_next_batch() {
        let mut b = Batcher::new(
            1,
            BatcherConfig {
                max_batch: 2,
                max_linger_ns: 100,
            },
        );
        b.push(req(0, 0, 1), 1);
        let BatchAction::Dispatch(first) = b.push(req(1, 0, 2), 2) else {
            panic!("expected dispatch");
        };
        let ptr = first.as_ptr();
        b.recycle(first);
        // The queue behind the first batch was backed by a fresh buffer;
        // the recycled one backs the batch after it.
        b.push(req(2, 0, 3), 3);
        let BatchAction::Dispatch(second) = b.push(req(3, 0, 4), 4) else {
            panic!("expected dispatch");
        };
        b.recycle(second);
        b.push(req(4, 0, 5), 5);
        let third = b.flush_deadline(0, 2).expect("open batch flushes");
        assert_eq!(third.as_ptr(), ptr);
        assert_eq!(third.iter().map(|r| r.id).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn queues_are_per_model() {
        let mut b = Batcher::new(
            2,
            BatcherConfig {
                max_batch: 2,
                max_linger_ns: 100,
            },
        );
        b.push(req(0, 0, 1), 1);
        b.push(req(1, 1, 2), 2);
        assert_eq!(b.pending(), 2);
        // Filling model 0 must not flush model 1.
        match b.push(req(2, 0, 3), 3) {
            BatchAction::Dispatch(batch) => assert!(batch.iter().all(|r| r.model == 0)),
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert_eq!(b.pending(), 1);
    }
}
