//! `xbar-infer`: one closed-loop caller pushing images through a compiled
//! CNN on the bank ISA, with every weighted product on ideal crossbars.

use std::sync::Arc;
use std::time::Duration;

use reram_core::{CompiledNetwork, NetStage};
use reram_crossbar::{CrossbarConfig, TiledMatrix};
use reram_nn::activations::Activation;
use reram_telemetry::{self as telemetry, CounterRecorder, Event};
use reram_tensor::{ops, Matrix, Shape2, Shape4, Tensor};

use crate::util::{
    alternate_traced, median, now, overhead_pct, sample_for, secs_since, Metric, SplitMix, Stage,
    Tally,
};

/// Input feature map `(C, H, W)`.
pub const INPUT: (usize, usize, usize) = (3, 16, 16);
/// Distinct seeded input images, cycled through by the caller.
pub const IMAGES: usize = 16;
/// A crossbar output may differ from the float reference by at most this
/// share of the reference output's largest magnitude.
pub const TOLERANCE: f32 = 0.05;

/// The network is one fixed model, as a deployed one would be; the run
/// seed draws the images it serves.
const MODEL_SEED: u64 = 0x5eed_cafe;

/// Weighted layers: name, output channels, input channels, kernel size
/// (0 marks the FC layer over the flattened 16×4×4 map).
const LAYERS: [(&str, usize, usize, usize); 3] = [
    ("conv1", 8, 3, 3),
    ("conv2", 16, 8, 3),
    ("fc", 10, 16 * 4 * 4, 0),
];

pub struct Infer {
    stages: Vec<NetStage>,
    net: CompiledNetwork,
    inputs: Vec<Vec<f32>>,
    exact: Vec<Vec<f32>>,
    /// Squared error and squared reference norm of the first pass.
    first_pass: Option<(f64, f64)>,
}

/// He-normal weights, seeded.
fn weights(rows: usize, cols: usize, rng: &mut SplitMix) -> Matrix {
    let std = (2.0 / cols as f32).sqrt();
    Matrix::from_fn(Shape2::new(rows, cols), |_, _| std * rng.normal())
}

fn stages(rng: &mut SplitMix) -> Vec<NetStage> {
    let mut out = Vec::new();
    for &(_, out_c, in_c, k) in &LAYERS {
        if k == 0 {
            out.push(NetStage::Fc {
                weights: weights(out_c, in_c, rng),
                activation: None,
            });
        } else {
            out.push(NetStage::Conv {
                weights: weights(out_c, in_c * k * k, rng),
                k,
                stride: 1,
                pad: 1,
                activation: Some(Activation::Relu),
            });
            out.push(NetStage::MaxPool { k: 2, stride: 2 });
        }
    }
    out
}

fn compile_and_program(stages: &[NetStage], first: &[f32]) -> Result<CompiledNetwork, String> {
    let mut net = CompiledNetwork::compile(INPUT, stages.to_vec(), &CrossbarConfig::default())
        .map_err(|e| e.to_string())?;
    // The bank programs its arrays lazily on the first input; do it here so
    // the timed forwards see no cell writes.
    std::hint::black_box(net.forward(first));
    Ok(net)
}

impl Infer {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let stages = stages(&mut SplitMix::new(MODEL_SEED));
        let mut rng = SplitMix::new(seed);
        let len = INPUT.0 * INPUT.1 * INPUT.2;
        let inputs: Vec<Vec<f32>> = (0..IMAGES)
            .map(|_| (0..len).map(|_| rng.unit()).collect())
            .collect();
        let net = compile_and_program(&stages, &inputs[0])?;
        let exact = inputs.iter().map(|x| net.forward_exact(x)).collect();
        Ok(Self {
            stages,
            net,
            inputs,
            exact,
            first_pass: None,
        })
    }

    /// Checks the crossbar output `y` of image `i` against the float
    /// reference; returns the squared error and squared reference norm.
    fn check(&self, i: usize, y: &[f32], tally: &mut Tally) -> (f64, f64) {
        let e = &self.exact[i];
        let scale = e.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
        let worst = y
            .iter()
            .zip(e)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
        tally.check(
            y.len() == e.len() && y.iter().all(|v| v.is_finite()) && worst <= TOLERANCE * scale,
            || format!("image {i}: crossbar output off by {worst} (reference scale {scale})"),
        );
        y.iter().zip(e).fold((0.0, 0.0), |(se, sr), (a, b)| {
            (se + f64::from(a - b).powi(2), sr + f64::from(*b).powi(2))
        })
    }
}

impl Stage for Infer {
    /// One pass over the image set, so every unit is the same work.
    fn unit(&mut self, tally: &mut Tally) -> (f64, f64) {
        let (mut err, mut norm, mut secs) = (0.0, 0.0, 0.0);
        for i in 0..IMAGES {
            let t = now();
            let y = self.net.forward(&self.inputs[i]);
            secs += secs_since(t);
            let (se, sr) = self.check(i, &y, tally);
            err += se;
            norm += sr;
        }
        self.first_pass.get_or_insert((err, norm));
        (IMAGES as f64, secs)
    }

    fn finish(&mut self, rate: f64, _tally: &mut Tally) -> Vec<Metric> {
        let (err, norm) = self.first_pass.expect("at least one pass ran");
        vec![
            Metric::new("infer_img_per_s", rate, "1/s"),
            Metric::new("infer_nrmse", (err / norm).sqrt(), "ratio"),
        ]
    }
}

impl Infer {
    /// Feature map entering stage `stage`, computed in float.
    fn feature_map(&self, stage: usize, image: usize) -> Vec<f32> {
        if stage == 0 {
            return self.inputs[image].clone();
        }
        CompiledNetwork::compile(
            INPUT,
            self.stages[..stage].to_vec(),
            &CrossbarConfig::default(),
        )
        .expect("a prefix of a compiled stack compiles")
        .forward_exact(&self.inputs[image])
    }

    pub fn trace(
        &mut self,
        budget: Duration,
        noisy: &CrossbarConfig,
        tally: &mut Tally,
    ) -> Vec<Metric> {
        let slice = budget / 6;
        let counters = Arc::new(CounterRecorder::new());
        let before = self.net.stats();
        // Each image runs once untraced and once traced.
        let mut calls = 0;
        let (untraced, traced) = alternate_traced(2 * slice, &counters, || {
            let image = calls / 2 % IMAGES;
            let y = self.net.forward(&self.inputs[image]);
            self.check(image, &y, tally);
            calls += 1;
        });
        let after = self.net.stats();
        let images = calls as f64;
        let per_img = |e: Event| counters.count(e) as f64 / traced.len() as f64;
        let _guard = telemetry::scoped_recorder(counters.clone());
        let forward_us = median(&traced) * 1e6;

        let setup = sample_for(slice, 3, || {
            std::hint::black_box(
                compile_and_program(&self.stages, &self.inputs[0]).expect("compiles"),
            );
        });
        let mut metrics = vec![
            Metric::new("core.compiler.setup_ms", median(&setup) * 1e3, "ms"),
            Metric::new("core.compiler.forward_us", forward_us, "us"),
            Metric::new(
                "core.subarray.instr_per_img",
                (after.instructions - before.instructions) as f64 / images,
                "count",
            ),
            Metric::new(
                "core.subarray.mem_words_per_img",
                (after.mem_traffic - before.mem_traffic) as f64 / images,
                "count",
            ),
            Metric::new(
                "crossbar.mvms_per_img",
                per_img(Event::CrossbarMvm),
                "count",
            ),
            Metric::new(
                "crossbar.spike_frames_per_img",
                per_img(Event::SpikeFrame),
                "count",
            ),
            Metric::new(
                "crossbar.adc_per_img",
                per_img(Event::AdcConversion),
                "count",
            ),
        ];

        // Per weighted layer: the crossbar product on the layer's own
        // weights and inputs, and the im2col unrolling feeding it.
        let mut accounted_us = 0.0;
        let mut stage = 0;
        for &(name, _, in_c, k) in &LAYERS {
            while !matches!(
                self.stages[stage],
                NetStage::Conv { .. } | NetStage::Fc { .. }
            ) {
                stage += 1;
            }
            let (NetStage::Conv { weights, .. } | NetStage::Fc { weights, .. }) =
                &self.stages[stage]
            else {
                unreachable!("loop stops on a weighted stage");
            };
            let map = self.feature_map(stage, 0);
            let rows: Vec<Vec<f32>> = if k == 0 {
                vec![map]
            } else {
                let hw = ((map.len() / in_c) as f64).sqrt() as usize;
                let t = Tensor::from_vec(Shape4::new(1, in_c, hw, hw), map);
                let im2col = sample_for(slice / 8, 3, || {
                    std::hint::black_box(ops::im2col(&t, 0, k, k, 1, 1));
                });
                let im2col_us = median(&im2col) * 1e6;
                accounted_us += im2col_us;
                metrics.push(Metric::new(
                    format!("tensor.im2col_us.{name}"),
                    im2col_us,
                    "us",
                ));
                let patches = ops::im2col(&t, 0, k, k, 1, 1);
                (0..patches.rows())
                    .map(|r| patches.row(r).to_vec())
                    .collect()
            };
            for (label, config) in [
                ("ideal", CrossbarConfig::default()),
                ("noisy", noisy.clone()),
            ] {
                let mut tile = TiledMatrix::program(weights, &config);
                let mut r = 0;
                let samples = sample_for(slice / 8, 3, || {
                    std::hint::black_box(tile.matvec(&rows[r % rows.len()]));
                    r += 1;
                });
                let us = median(&samples) * 1e6;
                if label == "ideal" {
                    accounted_us += us * rows.len() as f64;
                }
                metrics.push(Metric::new(
                    format!("crossbar.tile.matvec_us.{name}.{label}"),
                    us,
                    "us",
                ));
            }
            stage += 1;
        }
        metrics.push(overhead_pct("xbar-infer", &untraced, &traced));
        metrics.push(Metric::new(
            "telemetry.accounted_pct.xbar-infer",
            100.0 * accounted_us / forward_us,
            "%",
        ));
        metrics
    }
}
