//! Supervised training loop with the paper's batched-update semantics.
//!
//! A thin orchestration layer over [`Network::train_batch`]: epochs, a
//! step-decay learning-rate schedule, and per-step metric history — the
//! loop every PipeLayer workload runs, packaged so examples and tests don't
//! re-implement it.

use crate::losses::accuracy;
use crate::Network;
use rand::Rng;
use reram_telemetry::{self as telemetry, Event, Span};
use reram_tensor::Tensor;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Initial learning rate.
    pub lr: f32,
    /// Multiplicative LR decay applied every `decay_every` steps.
    pub lr_decay: f32,
    /// Steps between LR decays (0 disables decay).
    pub decay_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            lr_decay: 0.5,
            decay_every: 0,
        }
    }
}

impl TrainConfig {
    /// Learning rate in effect at `step`.
    pub fn lr_at(&self, step: usize) -> f32 {
        match step.checked_div(self.decay_every) {
            Some(decays) => self.lr * self.lr_decay.powi(decays as i32),
            None => self.lr, // decay disabled
        }
    }
}

/// Per-step metrics of a training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainHistory {
    /// Loss after each step.
    pub losses: Vec<f32>,
    /// Batch accuracy after each step.
    pub accuracies: Vec<f32>,
}

impl TrainHistory {
    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.losses.len()
    }

    /// Whether no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.losses.is_empty()
    }

    /// Loss of the final step.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty.
    #[expect(
        clippy::expect_used,
        reason = "documented accessor contract — history must be non-empty"
    )]
    pub fn final_loss(&self) -> f32 {
        *self.losses.last().expect("non-empty history")
    }

    /// Mean accuracy of the last `n` steps (clamped to history length).
    pub fn recent_accuracy(&self, n: usize) -> f32 {
        let k = n.min(self.accuracies.len()).max(1);
        let tail = &self.accuracies[self.accuracies.len() - k..];
        tail.iter().sum::<f32>() / k as f32
    }
}

/// Drives supervised training of a [`Network`] from a batch source.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    step: usize,
    history: TrainHistory,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            step: 0,
            history: TrainHistory::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Recorded metrics.
    pub fn history(&self) -> &TrainHistory {
        &self.history
    }

    /// One training step on an explicit batch.
    pub fn step(&mut self, net: &mut Network, images: &Tensor, labels: &[usize]) -> (f32, f32) {
        let _span = Span::enter("train/step");
        let lr = self.config.lr_at(self.step);
        let (loss, acc) = net.train_batch(images, labels, lr);
        self.history.losses.push(loss);
        self.history.accuracies.push(acc);
        self.step += 1;
        telemetry::with_recorder(|t| {
            t.record(Event::TrainStep, 1);
            t.metric("train/loss", f64::from(loss));
            t.metric("train/accuracy", f64::from(acc));
        });
        (loss, acc)
    }

    /// Runs `steps` training steps drawing batches from `next_batch`.
    pub fn run(
        &mut self,
        net: &mut Network,
        steps: usize,
        mut next_batch: impl FnMut(&mut Self) -> (Tensor, Vec<usize>),
    ) {
        for _ in 0..steps {
            let (images, labels) = next_batch(self);
            self.step(net, &images, &labels);
        }
    }

    /// Held-out accuracy on an evaluation batch.
    pub fn evaluate(&self, net: &mut Network, images: &Tensor, labels: &[usize]) -> f32 {
        accuracy(&net.forward(images, false), labels)
    }
}

/// Convenience: train `net` on batches from a dataset-like closure and
/// return the history.
pub fn train_supervised(
    net: &mut Network,
    config: TrainConfig,
    steps: usize,
    batch: usize,
    classes: usize,
    mut sample: impl FnMut(&[usize], &mut rand::rngs::StdRng) -> Tensor,
    rng: &mut rand::rngs::StdRng,
) -> TrainHistory {
    let mut trainer = Trainer::new(config);
    for step in 0..steps {
        let labels: Vec<usize> = (0..batch)
            .map(|i| {
                // Balanced labels with a dash of randomness.
                if rng.gen::<f32>() < 0.5 {
                    (step * batch + i) % classes
                } else {
                    rng.gen_range(0..classes)
                }
            })
            .collect();
        let images = sample(&labels, rng);
        trainer.step(net, &images, &labels);
    }
    trainer.history.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use reram_tensor::{init, Shape4};

    /// Installs a throwaway recorder for the caller's scope. Steps record
    /// into the process-wide recorder, so a test that steps outside a scope
    /// would add to `steps_emit_telemetry`'s tallies when both run at once.
    fn own_recorder() -> telemetry::ScopedRecorder {
        telemetry::scoped_recorder(std::sync::Arc::new(reram_telemetry::CounterRecorder::new()))
    }

    #[test]
    fn lr_schedule() {
        let c = TrainConfig {
            lr: 1.0,
            lr_decay: 0.1,
            decay_every: 10,
        };
        assert_eq!(c.lr_at(0), 1.0);
        assert_eq!(c.lr_at(9), 1.0);
        assert!((c.lr_at(10) - 0.1).abs() < 1e-7);
        assert!((c.lr_at(25) - 0.01).abs() < 1e-8);
        let no_decay = TrainConfig::default();
        assert_eq!(no_decay.lr_at(1000), no_decay.lr);
    }

    #[test]
    fn trainer_records_history() {
        let _recorder = own_recorder();
        let mut rng = init::seeded_rng(1);
        let mut net = models::mlp(8, &[16], 3, &mut rng);
        let mut trainer = Trainer::new(TrainConfig::default());
        let x = init::uniform(Shape4::new(6, 8, 1, 1), -1.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2];
        for _ in 0..5 {
            trainer.step(&mut net, &x, &labels);
        }
        assert_eq!(trainer.steps(), 5);
        assert_eq!(trainer.history().len(), 5);
        assert!(trainer.history().final_loss().is_finite());
    }

    #[test]
    fn training_descends_on_fixed_batch() {
        let _recorder = own_recorder();
        let mut rng = init::seeded_rng(2);
        let mut net = models::mlp(8, &[16], 3, &mut rng);
        let x = init::uniform(Shape4::new(6, 8, 1, 1), -1.0, 1.0, &mut rng);
        let labels = vec![0usize, 1, 2, 0, 1, 2];
        let mut trainer = Trainer::new(TrainConfig::default());
        trainer.run(&mut net, 80, |_| (x.clone(), labels.clone()));
        let h = trainer.history();
        assert!(
            h.final_loss() < h.losses[0] * 0.5,
            "loss {} -> {}",
            h.losses[0],
            h.final_loss()
        );
        assert!(h.recent_accuracy(5) > 0.8);
    }

    #[test]
    fn evaluate_uses_inference_mode() {
        let mut rng = init::seeded_rng(3);
        let mut net = models::mlp(4, &[8], 2, &mut rng);
        let trainer = Trainer::new(TrainConfig::default());
        let x = init::uniform(Shape4::new(4, 4, 1, 1), -1.0, 1.0, &mut rng);
        let acc = trainer.evaluate(&mut net, &x, &[0, 1, 0, 1]);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn steps_emit_telemetry() {
        let counters = std::sync::Arc::new(reram_telemetry::CounterRecorder::new());
        let _guard = telemetry::scoped_recorder(counters.clone());
        let mut rng = init::seeded_rng(4);
        let mut net = models::mlp(4, &[8], 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig::default());
        let x = init::uniform(Shape4::new(4, 4, 1, 1), -1.0, 1.0, &mut rng);
        for _ in 0..3 {
            trainer.step(&mut net, &x, &[0, 1, 0, 1]);
        }
        assert_eq!(counters.count(Event::TrainStep), 3);
        let metrics = counters.metrics();
        assert_eq!(metrics.iter().filter(|(n, _)| n == "train/loss").count(), 3);
        assert_eq!(
            metrics
                .iter()
                .filter(|(n, _)| n == "train/accuracy")
                .count(),
            3
        );
        let spans = counters.span_reports();
        assert!(spans.iter().any(|s| s.name == "train/step" && s.calls == 3));
    }

    #[test]
    fn recent_accuracy_clamps() {
        let h = TrainHistory {
            losses: vec![1.0, 0.5],
            accuracies: vec![0.0, 1.0],
        };
        assert_eq!(h.recent_accuracy(1), 1.0);
        assert_eq!(h.recent_accuracy(10), 0.5);
    }
}
