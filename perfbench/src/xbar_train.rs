//! `xbar-train`: closed-loop minibatch training of a CNN whose forward and
//! error products both run on noisy, faulty crossbars, so every step
//! rewrites cells as well as reading them.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use reram_crossbar::{CrossbarConfig, TiledMatrix};
use reram_datasets::Dataset;
use reram_nn::backend::LinearEngine;
use reram_nn::layers::{ActivationLayer, Conv2d, Flatten, Linear, Pool2d};
use reram_nn::losses::accuracy;
use reram_nn::Network;
use reram_telemetry::{self as telemetry, CounterRecorder, Event};
use reram_tensor::{init, Matrix, Shape2, Shape4, Tensor};

use crate::util::{
    alternate_traced, derive_seed, median, now, overhead_pct, sample_for, secs_since, Metric,
    SplitMix, Stage, Tally,
};

/// Image side of the synthetic MNIST-like data.
pub const HW: usize = 12;
/// Classes drawn (labels cycle through `0..CLASSES`).
pub const CLASSES: usize = 4;
/// Minibatch size.
pub const BATCH: usize = 8;
/// Learning rate.
pub const LR: f32 = 0.1;
/// Steps of one training episode. Every timed episode starts from the
/// same seeded network, so episodes are identical work, and held-out
/// accuracy is taken at the end of the first.
pub const EPISODE_STEPS: usize = 12;
/// Seeds the class prototypes and the initial weights, which stay fixed
/// (one dataset, one starting model); the run seed draws the samples and
/// the device's noise and faults.
const FIXED_SEED: u64 = 7;
/// Held-out batch size.
pub const HELDOUT: usize = 32;

/// The device both training grids run on: programming variation, read
/// noise and stuck-at faults, all seeded, on 32×32 arrays sized to the
/// network's small layers.
pub fn noisy_config(seed: u64) -> CrossbarConfig {
    CrossbarConfig::default()
        .with_faults(0.002, 0.002, seed)
        .with_noise(0.05, 0.02, seed)
        .with_array_size(32, 32)
}

pub struct Train {
    seed: u64,
    config: CrossbarConfig,
    data: Dataset,
    heldout: (Tensor, Vec<usize>),
    run: Episode,
    /// Held-out accuracy at the end of the first episode.
    accuracy: Option<f64>,
}

/// A network being trained and the stream its batches come from.
struct Episode {
    net: Network,
    rng: StdRng,
    steps: usize,
}

impl Train {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let config = noisy_config(derive_seed(seed, 1));
        let data = Dataset::mnist_like()
            .with_resolution(HW)
            .with_seed(FIXED_SEED);
        let mut rng = init::seeded_rng(derive_seed(seed, 4));
        let labels: Vec<usize> = (0..HELDOUT).map(|i| i % CLASSES).collect();
        let images = data.batch_for_labels(&labels, &mut rng);
        let run = episode(seed, &config, &images);
        Ok(Self {
            seed,
            config,
            data,
            heldout: (images, labels),
            run,
            accuracy: None,
        })
    }

    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    fn labels(&self) -> Vec<usize> {
        (0..BATCH)
            .map(|i| (self.run.steps * BATCH + i) % CLASSES)
            .collect()
    }

    /// One training step on a fresh batch; checks the loss stays finite.
    fn step(&mut self, tally: &mut Tally) {
        let labels = self.labels();
        let x = self.data.batch_for_labels(&labels, &mut self.run.rng);
        let (loss, _) = self.run.net.train_batch(&x, &labels, LR);
        tally.check(loss.is_finite(), || {
            format!("step {}: loss {loss}", self.run.steps)
        });
        self.run.steps += 1;
    }

    fn heldout_accuracy(&mut self) -> f64 {
        let logits = self.run.net.forward(&self.heldout.0, false);
        f64::from(accuracy(&logits, &self.heldout.1))
    }
}

impl Stage for Train {
    /// One step. Steps cost the same across an episode, and episodes
    /// restart from the same seeded network, so every run times the same
    /// sequence of steps.
    fn unit(&mut self, tally: &mut Tally) -> (f64, f64) {
        if self.run.steps == EPISODE_STEPS {
            if self.accuracy.is_none() {
                let a = self.heldout_accuracy();
                tally.check(a > 0.0, || "held-out accuracy is zero".to_owned());
                self.accuracy = Some(a);
            }
            self.run = episode(self.seed, &self.config, &self.heldout.0);
        }
        let t = now();
        self.step(tally);
        (1.0, secs_since(t))
    }

    fn finish(&mut self, rate: f64, tally: &mut Tally) -> Vec<Metric> {
        while self.accuracy.is_none() {
            self.unit(tally);
        }
        vec![
            Metric::new("train_steps_per_s", rate, "1/s"),
            Metric::new("heldout_acc", self.accuracy.expect("evaluated"), "ratio"),
        ]
    }
}

impl Train {
    pub fn trace(&mut self, budget: Duration, tally: &mut Tally) -> Vec<Metric> {
        let slice = budget / 4;
        let counters = Arc::new(CounterRecorder::new());
        let (untraced, traced) = alternate_traced(2 * slice, &counters, || self.step(tally));
        let steps = traced.len() as f64;
        let writes = counters.count(Event::CellWrite) as f64 / steps;
        let updates = counters.count(Event::WeightUpdate) as f64 / steps;
        let _guard = telemetry::scoped_recorder(counters);

        let (mut batch_us, mut train_ms) = (Vec::new(), Vec::new());
        let start = now();
        while train_ms.len() < 3 || start.elapsed() < slice {
            let labels = self.labels();
            let t = now();
            let x = self.data.batch_for_labels(&labels, &mut self.run.rng);
            batch_us.push(secs_since(t) * 1e6);
            let t = now();
            let (loss, _) = self.run.net.train_batch(&x, &labels, LR);
            train_ms.push(secs_since(t) * 1e3);
            tally.check(loss.is_finite(), || {
                format!("step {}: loss {loss}", self.run.steps)
            });
            self.run.steps += 1;
        }

        // A weight update on the FC grid's shape: program, then rewrite
        // with every weight nudged as an SGD step would.
        let mut rng = SplitMix::new(self.config.noise_seed);
        let rows = CLASSES;
        let cols = 6 * (HW / 2) * (HW / 2);
        let w = Matrix::from_fn(Shape2::new(rows, cols), |_, _| 0.1 * rng.normal());
        let nudged: Vec<Matrix> = (0..2)
            .map(|_| {
                Matrix::from_fn(Shape2::new(rows, cols), |r, c| {
                    w.at(r, c) + 0.002 * rng.normal()
                })
            })
            .collect();
        let mut tile = TiledMatrix::program(&w, &self.config);
        let mut k = 0;
        let reprogram = sample_for(slice / 2, 3, || {
            std::hint::black_box(tile.reprogram_delta(&nudged[k % 2]));
            k += 1;
        });

        let batch = median(&batch_us);
        let train = median(&train_ms);
        vec![
            Metric::new("nn.train_batch_ms", train, "ms"),
            Metric::new("datasets.batch_us", batch, "us"),
            Metric::new(
                "crossbar.tile.reprogram_delta_us",
                median(&reprogram) * 1e6,
                "us",
            ),
            Metric::new("crossbar.cell_writes_per_step", writes, "count"),
            Metric::new("crossbar.weight_updates_per_step", updates, "count"),
            overhead_pct("xbar-train", &untraced, &traced),
            Metric::new(
                "telemetry.accounted_pct.xbar-train",
                100.0 * (batch + train * 1e3) / (median(&traced) * 1e6),
                "%",
            ),
        ]
    }
}

/// A fresh network on `config`, seeded, with its forward grids programmed
/// (which they otherwise do lazily on the first step).
fn episode(seed: u64, config: &CrossbarConfig, heldout: &Tensor) -> Episode {
    let mut init_rng = init::seeded_rng(FIXED_SEED);
    let mut net = Network::new("xbar-train", Shape4::new(1, 1, HW, HW))
        .push(
            Conv2d::new(1, 6, 3, 1, 1, &mut init_rng)
                .with_engine(LinearEngine::crossbar_full(config.clone())),
        )
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Flatten::new())
        .push(
            Linear::new(6 * (HW / 2) * (HW / 2), CLASSES, &mut init_rng)
                .with_engine(LinearEngine::crossbar_full(config.clone())),
        );
    let first = Tensor::from_vec(
        Shape4::new(1, 1, HW, HW),
        heldout.data()[..HW * HW].to_vec(),
    );
    std::hint::black_box(net.forward(&first, false));
    Episode {
        net,
        rng: init::seeded_rng(derive_seed(seed, 5)),
        steps: 0,
    }
}
