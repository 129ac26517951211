//! Golden weight-to-cell results.
//!
//! Every case drives one path from weights to ReRAM cells — tile
//! programming and reprogramming, in-place delta updates (in range and
//! past the full-scale fallback), the compiled bank program and in-situ
//! training — and compares the outputs bit for bit (`f32::to_bits`), the
//! pulse and write counts, and the telemetry tallies against pinned
//! literals. The noisy cases add programming variation and read noise,
//! each sample keyed by the cell write or bitline read it belongs to, and
//! stuck-at faults from a per-array seeded RNG, so they also pin the
//! device noise model.

use std::sync::Arc;

use reram_suite::core::subarray::BankStats;
use reram_suite::core::{CompiledNetwork, NetStage};
use reram_suite::crossbar::{CrossbarConfig, TiledMatrix};
use reram_suite::nn::activations::Activation;
use reram_suite::nn::backend::LinearEngine;
use reram_suite::nn::layers::{ActivationLayer, Conv2d, Flatten, Linear};
use reram_suite::nn::Network;
use reram_suite::tensor::{init, Matrix, Shape2, Shape4, Tensor};
use reram_telemetry::{self as telemetry, CounterRecorder, Event, EVENT_COUNT};

fn pattern(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(Shape2::new(rows, cols), |r, c| {
        (((r * 31 + c * 17 + salt * 7) % 23) as f32 - 11.0) / 12.0
    })
}

fn pattern_vec(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((i * 13 + salt) % 19) as f32 - 9.0) / 9.0)
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` under a fresh counter recorder and returns every event tally.
/// The recorder is process-wide, so every case here runs under one: the
/// scope lock keeps a case's tallies free of its neighbours' events.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; EVENT_COUNT]) {
    let counters = Arc::new(CounterRecorder::new());
    let out = {
        let _guard = telemetry::scoped_recorder(counters.clone());
        f()
    };
    (out, Event::ALL.map(|e| counters.count(e)))
}

/// What one program → reprogram → in-range delta → fallback delta
/// sequence produces on a grid.
#[derive(Debug, PartialEq, Eq)]
struct TileRun {
    /// `matvec` output bits after each of the four writes.
    outputs: [Vec<u32>; 4],
    /// Pulses returned by the in-range and the fallback `reprogram_delta`.
    pulses: [u64; 2],
    total_writes: u64,
    reprogram_count: u64,
    /// Telemetry tallies of the whole sequence, in `Event::ALL` order.
    counts: [u64; EVENT_COUNT],
}

fn tile_run(out_dim: usize, in_dim: usize, config: &CrossbarConfig) -> TileRun {
    let (run, counts) = counted(|| tile_sequence(out_dim, in_dim, config));
    TileRun { counts, ..run }
}

fn tile_sequence(out_dim: usize, in_dim: usize, config: &CrossbarConfig) -> TileRun {
    let x = pattern_vec(in_dim, 3);
    let w1 = pattern(out_dim, in_dim, 1);
    let mut t = TiledMatrix::program(&w1, config);
    let y1 = t.matvec(&x);

    let w2 = pattern(out_dim, in_dim, 2);
    t.reprogram(&w2);
    let y2 = t.matvec(&x);

    // Nudge a strided subset of weights, staying inside the full scale.
    let mut w3 = w2.clone();
    for (i, v) in w3.data_mut().iter_mut().enumerate() {
        if i % 7 == 0 {
            *v *= 0.5;
        } else if i % 11 == 0 {
            *v = -*v;
        }
    }
    let in_range = t.reprogram_delta(&w3);
    let y3 = t.matvec(&x);

    // One weight far past the full scale forces the full refit.
    let mut w4 = w3.clone();
    w4.set(out_dim - 1, in_dim / 2, 4.0);
    let fallback = t.reprogram_delta(&w4);
    let y4 = t.matvec(&x);

    TileRun {
        outputs: [bits(&y1), bits(&y2), bits(&y3), bits(&y4)],
        pulses: [in_range, fallback],
        total_writes: t.total_writes(),
        reprogram_count: t.reprogram_count(),
        counts: [0; EVENT_COUNT],
    }
}

#[test]
fn ideal_single_array_tile_is_pinned() {
    let got = tile_run(6, 10, &CrossbarConfig::default());
    assert_eq!(got.outputs[0].len(), 6);
    let want = TileRun {
        outputs: [
            vec![
                0xbfd68404, 0x3efb3fe3, 0x3fe71c55, 0xbf6d08d0, 0x3f1a1013, 0x3e5a15d9,
            ],
            vec![
                0x3ec26009, 0x3ed5511c, 0xbfd68404, 0x3efb3fe3, 0x3fe71c55, 0xbf6d08d0,
            ],
            vec![
                0x3e2f68f6, 0xbf1a13be, 0xbfb2f646, 0x3fad08ab, 0x3e6d09da, 0xbeda0edf,
            ],
            vec![
                0x3e2f4aaa, 0xbf1a0fd5, 0xbfb2f4ab, 0x3fad0955, 0x3e6d0439, 0x3e8e44d5,
            ],
        ],
        pulses: [72, 32768],
        total_writes: 131144,
        reprogram_count: 3,
        counts: [16, 256, 2048, 32768, 131144, 0, 0, 0, 3, 0, 0, 0, 0],
    };
    assert_eq!(got, want);
}

#[test]
fn noisy_faulty_multi_tile_grid_is_pinned() {
    // 40 outputs × 300 inputs on 64×64 arrays with 4 slices per weight:
    // a 5 × 3 grid whose last row and column tiles are partial.
    let config = CrossbarConfig::default()
        .with_array_size(64, 64)
        .with_noise(0.03, 0.02, 11)
        .with_faults(0.01, 0.005, 11);
    let got = tile_run(40, 300, &config);
    let want = TileRun {
        outputs: [
            vec![
                0x4060ce91, 0xbfcd9d0c, 0xc095cf8f, 0x40b5d5d8, 0xc096744b, 0xc02f38da, 0x40e8a878,
                0xc02d664e, 0x3ff3ac00, 0x4071147e, 0xc0b635ee, 0x4015e7ea, 0xbea82c84, 0xc0d30209,
                0x40c27d97, 0x4039dda7, 0xc0eb6e03, 0x40f11de6, 0x40c1979a, 0xc0cdd250, 0x4096cac6,
                0x3f4ddd5f, 0xc0aa4ec6, 0x4037fed5, 0xc04c9037, 0xbfcae5d0, 0x40f3ad51, 0xc0580772,
                0xbfd800f1, 0x40a46c67, 0xbf0b42b9, 0xc050846b, 0x402ae25f, 0xc09c1f1f, 0x3ff4c651,
                0x40a8359f, 0xc12208cc, 0x40638669, 0x400c3cff, 0xc0d3eb4b,
            ],
            vec![
                0x402629f1, 0xc087fd50, 0x3fa75985, 0xbfd520c7, 0xbf8aeed2, 0x40bfce88, 0xbff24b5f,
                0xbff6c567, 0x40f8d71e, 0xc05e44a4, 0xc00fdacb, 0x40006841, 0xc0f9e00b, 0x40800906,
                0x4076f81a, 0xc0bfd1ef, 0x40844101, 0x40c9b2d4, 0xc0b79136, 0x40830e1c, 0x40a291ea,
                0xc0e4eb84, 0x402097cb, 0x405b5990, 0xc0b3eefb, 0x405532ba, 0xbea4e3f9, 0xc03041c4,
                0x40baac18, 0xc01da8aa, 0x3f45966d, 0x4022a3c5, 0xc09cbc2c, 0xbf70d4ef, 0x401852ef,
                0xc00dbcfe, 0x3e99807f, 0x3f83c1e1, 0xc0dd3748, 0x40a76e51,
            ],
            vec![
                0x4082888c, 0xc0aaa55b, 0xbf015429, 0xc0c3691d, 0xbf121b26, 0x408c04b6, 0xbfd55ca4,
                0xbfc0fb85, 0x40fe189a, 0xc02872d7, 0xc0c48c22, 0x4037f4d8, 0xc0f92244, 0x408b9707,
                0x402339a1, 0xc0b0b96f, 0x4003160b, 0x40923679, 0xbfc99ab6, 0x409ec1d0, 0x40c51781,
                0xc0566bda, 0x3dd586f0, 0x40a727c8, 0xc0ca4d3d, 0x40d03ef7, 0xbf6bef80, 0xbe5bd755,
                0x40fc8e93, 0xc06a27f5, 0x3f9c8971, 0xc0465bc0, 0xc075a82e, 0xbfc1e605, 0x3f5a23b1,
                0xbdd02e7c, 0xbff975ab, 0x406c5000, 0xc0dfc730, 0x40b81929,
            ],
            vec![
                0x411144d0, 0xc0c08c82, 0xc0c7fec7, 0xc05faa2f, 0xc0fa06ac, 0x4015928a, 0x40865e3c,
                0x3fbabc03, 0x416b0860, 0xc00a11a1, 0xc1803a72, 0xbf4c48f8, 0xc1a0c7aa, 0x4083a2df,
                0x41085eca, 0xc02ddf56, 0xbf4a28b6, 0x41aa6bde, 0x40e61c11, 0x40a2c4a9, 0x412a5800,
                0xc0c91749, 0xc0937f98, 0x41109ad5, 0xc14f5565, 0x40c58543, 0x40b4a1cb, 0x3fe70eb8,
                0x410832d7, 0x3f565fc6, 0x416789c9, 0xc1582c8f, 0xc139eafe, 0xc0a77079, 0xc0a291b3,
                0x40baec35, 0xc16efd81, 0xbf358de4, 0xc0df16e6, 0x4144be3b,
            ],
        ],
        pulses: [14082, 122880],
        total_writes: 505602,
        reprogram_count: 3,
        counts: [240, 3840, 15360, 245760, 505602, 0, 0, 0, 3, 0, 0, 0, 0],
    };
    assert_eq!(got, want);
}

#[test]
fn noisy_compiled_network_is_pinned() {
    // 2ch 6x6 -> conv(3 kernels 3x3, pad 1, relu) -> pool 2/2 -> tanh -> fc 4,
    // on 16×16 arrays so the conv grid spans two row tiles.
    let config = CrossbarConfig::default()
        .with_array_size(16, 16)
        .with_noise(0.03, 0.02, 5)
        .with_faults(0.01, 0.01, 5);
    let stages = vec![
        NetStage::Conv {
            weights: pattern(3, 2 * 3 * 3, 4),
            k: 3,
            stride: 1,
            pad: 1,
            activation: Some(Activation::Relu),
        },
        NetStage::MaxPool { k: 2, stride: 2 },
        NetStage::Act(Activation::Tanh),
        NetStage::Fc {
            weights: pattern(4, 3 * 3 * 3, 5),
            activation: None,
        },
    ];
    let (outputs, counts) = counted(|| {
        let mut net = CompiledNetwork::compile((2, 6, 6), stages, &config).expect("compiles");
        let outputs: Vec<Vec<u32>> = (0..2)
            .map(|salt| bits(&net.forward(&pattern_vec(72, salt))))
            .collect();
        let exact = bits(&net.forward_exact(&pattern_vec(72, 0)));
        (outputs, exact, net.stats())
    });
    let want_outputs: Vec<Vec<u32>> = vec![
        vec![0x3f01487d, 0xbd6457d0, 0x3e9e0d7b, 0x3f18efda],
        vec![0xbedf9be8, 0x3e1c2290, 0xbea5f89d, 0xbed0a90e],
    ];
    let want_exact: Vec<u32> = vec![0x3dc210bc, 0x3e16e3fc, 0x3f400049, 0x3cb8be20];
    let want_stats = BankStats {
        instructions: 236,
        mvms: 74,
        mem_traffic: 3976,
        buffer_traffic: 0,
        programs: 2,
    };
    assert_eq!(outputs, (want_outputs, want_exact, want_stats));
    assert_eq!(
        counts,
        [470, 7520, 7520, 120320, 4096, 2, 0, 0, 0, 0, 0, 0, 0]
    );
}

#[test]
fn crossbar_full_training_steps_are_pinned() {
    // Conv and FC both train on noisy, faulty 16×16 arrays with their
    // error products on the transposed grids.
    let config = CrossbarConfig::default()
        .with_array_size(16, 16)
        .with_noise(0.03, 0.02, 9)
        .with_faults(0.005, 0.005, 9);
    let mut rng = init::seeded_rng(21);
    let mut net = Network::new("golden", Shape4::new(1, 1, 6, 6))
        .push(
            Conv2d::new(1, 2, 3, 1, 1, &mut rng)
                .with_engine(LinearEngine::crossbar_full(config.clone())),
        )
        .push(ActivationLayer::relu())
        .push(Flatten::new())
        .push(Linear::new(2 * 6 * 6, 3, &mut rng).with_engine(LinearEngine::crossbar_full(config)));
    let x = Tensor::from_vec(Shape4::new(4, 1, 6, 6), pattern_vec(4 * 36, 1));
    let labels = [0, 1, 2, 1];
    let (losses, counts) = counted(|| {
        (0..3)
            .map(|_| net.train_batch(&x, &labels, 0.5).0.to_bits())
            .collect::<Vec<u32>>()
    });
    assert_eq!(losses, vec![0x3f891260, 0x3f168b22, 0x3e52f781]);
    assert_eq!(
        counts,
        [2688, 43008, 43008, 688128, 49152, 0, 0, 0, 6, 0, 0, 0, 0]
    );
}

#[test]
fn ideal_faulty_multi_tile_grid_is_pinned() {
    // The noisy grid's geometry and faults without device noise: 40 outputs
    // × 300 inputs on 64×64 arrays, a 5 × 3 grid with partial last tiles,
    // and stuck cells both in mapped cells and in the padding.
    let config = CrossbarConfig::default()
        .with_array_size(64, 64)
        .with_faults(0.01, 0.005, 11);
    let got = tile_run(40, 300, &config);
    let want = TileRun {
        outputs: [
            vec![
                0x4060ce91, 0xbfcd9d0c, 0xc095cf8f, 0x40b5d5d8, 0xc096744b, 0xc02f38da, 0x40e8a878,
                0xc02d664e, 0x3ff3ac00, 0x4071147e, 0xc0b635ee, 0x4015e7ea, 0xbea82c84, 0xc0d30209,
                0x40c27d97, 0x4039dda7, 0xc0eb6e03, 0x40f11de6, 0x40c1979a, 0xc0cdd250, 0x4096cac6,
                0x3f4ddd5f, 0xc0aa4ec6, 0x4037fed5, 0xc04c9037, 0xbfcae5d0, 0x40f3ad51, 0xc0580772,
                0xbfd800f1, 0x40a46c67, 0xbf0b42b9, 0xc050846b, 0x402ae25f, 0xc09c1f1f, 0x3ff4c651,
                0x40a8359f, 0xc12208cc, 0x40638669, 0x400c3cff, 0xc0d3eb4b,
            ],
            vec![
                0x402629f1, 0xc087fd50, 0x3fa75985, 0xbfd520c7, 0xbf8aeed2, 0x40bfcd99, 0xbff24b5f,
                0xbff6c567, 0x40f8d717, 0xc05e44a4, 0xc00fdacb, 0x40006841, 0xc0f9e00b, 0x40800906,
                0x4076f81a, 0xc0bfd1ef, 0x40844101, 0x40c9b2d4, 0xc0b79136, 0x40830e1c, 0x40a291ea,
                0xc0e4eb84, 0x402097cb, 0x405b5b6d, 0xc0b3eefb, 0x405532ba, 0xbea4e3f9, 0xc03041c4,
                0x40baac18, 0xc01da8aa, 0x3f45966d, 0x4022a3c5, 0xc09cbc2c, 0xbf70d4ef, 0x401852ef,
                0xc00dbcfe, 0x3e99807f, 0x3f83c1e1, 0xc0dd3748, 0x40a76e51,
            ],
            vec![
                0x4082888c, 0xc0aaa55b, 0xbf015438, 0xc0c3691d, 0xbf121b26, 0x408c04a7, 0xbfd55ca4,
                0xbfc0fb85, 0x40fe189a, 0xc02872d7, 0xc0c48c22, 0x4037f4d8, 0xc0f92244, 0x408b9707,
                0x402339a1, 0xc0b0b96f, 0x4003160b, 0x40923679, 0xbfc99ab6, 0x409ec1d0, 0x40c51781,
                0xc0566bda, 0x3dd586f0, 0x40a727c8, 0xc0ca4d3d, 0x40d03ef7, 0xbf6bef80, 0xbe5bd755,
                0x40fc8e93, 0xc06a27f5, 0x3f9c8971, 0xc0465bc0, 0xc075a82e, 0xbfc1e605, 0x3f5a23b1,
                0xbdd02e7c, 0xbff975ab, 0x406c5000, 0xc0dfc730, 0x40b81929,
            ],
            vec![
                0x411144d0, 0xc0c08c82, 0xc0c7fec7, 0xc04f68ee, 0xc0fa06ac, 0x4015928a, 0x40865e3c,
                0x3fbabc03, 0x416b0860, 0xc00a11a1, 0xc1803a72, 0xbf4c48f8, 0xc1a0c7aa, 0x4083a2df,
                0x41085eca, 0xc02ddf46, 0xbf4a28b6, 0x41aa6bde, 0x40e20c01, 0x40a2c4a9, 0x412a5800,
                0xc0c91749, 0xc0937f98, 0x41109ad5, 0xc14f5565, 0x40c58543, 0x40b4a1cb, 0x3fe70eb8,
                0x410832d7, 0x3f565fc6, 0x416789c9, 0xc1582c8f, 0xc139eafe, 0xc0a77879, 0xc0a291b3,
                0x40baec35, 0xc16efd81, 0xbf358de4, 0xc0df16e6, 0x4144be3b,
            ],
        ],
        pulses: [14082, 122880],
        total_writes: 505602,
        reprogram_count: 3,
        counts: [240, 3840, 15360, 245760, 505602, 0, 0, 0, 3, 0, 0, 0, 0],
    };
    assert_eq!(got, want);
}

#[test]
fn ideal_compiled_network_is_pinned() {
    // The noisy network's conv → pool → tanh → fc stack on ideal 16×16
    // arrays: the conv grid spans two row tiles.
    let config = CrossbarConfig::default().with_array_size(16, 16);
    let stages = vec![
        NetStage::Conv {
            weights: pattern(3, 2 * 3 * 3, 4),
            k: 3,
            stride: 1,
            pad: 1,
            activation: Some(Activation::Relu),
        },
        NetStage::MaxPool { k: 2, stride: 2 },
        NetStage::Act(Activation::Tanh),
        NetStage::Fc {
            weights: pattern(4, 3 * 3 * 3, 5),
            activation: None,
        },
    ];
    let (got, counts) = counted(|| {
        let mut net = CompiledNetwork::compile((2, 6, 6), stages, &config).expect("compiles");
        let outputs: Vec<Vec<u32>> = (0..2)
            .map(|salt| bits(&net.forward(&pattern_vec(72, salt))))
            .collect();
        (outputs, net.stats())
    });
    let want_outputs: Vec<Vec<u32>> = vec![
        vec![0x3dc22de1, 0x3e16e56f, 0x3f3ffe8c, 0x3cb9a356],
        vec![0xbf2d332d, 0x3e9559ba, 0xbe5f87af, 0xbf1bb24d],
    ];
    let want_stats = BankStats {
        instructions: 236,
        mvms: 74,
        mem_traffic: 3976,
        buffer_traffic: 0,
        programs: 2,
    };
    assert_eq!(got, (want_outputs, want_stats));
    assert_eq!(
        counts,
        [470, 7520, 7520, 120320, 4096, 2, 0, 0, 0, 0, 0, 0, 0]
    );
}

/// What 20 bank-level SGD steps on the 4 → 6 (ReLU) → 2 MLP produce.
#[derive(Debug, PartialEq, Eq)]
struct BankTrainRun {
    /// Loss bits before each step's update.
    losses: Vec<u32>,
    /// Bank `forward` output bits after the last step.
    output: Vec<u32>,
    stats: BankStats,
    /// Telemetry tallies of the whole run, in `Event::ALL` order.
    counts: [u64; EVENT_COUNT],
}

#[expect(
    clippy::expect_used,
    reason = "a golden helper aborts on a compile error; the calling test reports it"
)]
fn bank_train_run(config: &CrossbarConfig) -> BankTrainRun {
    let w0 = Matrix::from_fn(Shape2::new(6, 4), |r, c| {
        (((r * 7 + c * 5) % 11) as f32 - 5.0) / 10.0
    });
    let w1 = Matrix::from_fn(Shape2::new(2, 6), |r, c| {
        (((r * 3 + c * 7 + 1) % 11) as f32 - 5.0) / 10.0
    });
    let x = [0.4f32, -0.2, 0.1, 0.3];
    let target = [0.5f32, -0.25];
    let stages = vec![
        NetStage::Fc {
            weights: w0,
            activation: Some(Activation::Relu),
        },
        NetStage::Fc {
            weights: w1,
            activation: None,
        },
    ];
    let ((losses, output, stats), counts) = counted(|| {
        let mut net = CompiledNetwork::compile((4, 1, 1), stages, config).expect("compiles");
        let losses: Vec<u32> = (0..20)
            .map(|_| {
                let loss = net.train_step(&x, &target, 0.2).expect("trainable");
                loss.to_bits()
            })
            .collect();
        let output = bits(&net.forward(&x));
        (losses, output, net.stats())
    });
    BankTrainRun {
        losses,
        output,
        stats,
        counts,
    }
}

#[test]
fn bank_training_steps_are_pinned() {
    // 20 steps of MSE regression on the bank, ideal 128×128 arrays: the
    // forward and the transposed grid of each layer fit one array.
    let got = bank_train_run(&CrossbarConfig::default());
    let want = BankTrainRun {
        losses: vec![
            0x3e5008f8, 0x3e3ce199, 0x3e2c3839, 0x3e1d6443, 0x3e0feec2, 0x3e038726, 0x3defe9c5,
            0x3dda20fd, 0x3dc58922, 0x3db20238, 0x3d9f846a, 0x3d8e0bce, 0x3d7b3f42, 0x3d5c988e,
            0x3d4032b0, 0x3d261e24, 0x3d0e6fc6, 0x3cf2454e, 0x3ccc565d, 0x3cab00f8,
        ],
        output: vec![0x3eaffcc3, 0xbe185c54],
        stats: BankStats {
            instructions: 268,
            mvms: 62,
            mem_traffic: 1184,
            buffer_traffic: 0,
            programs: 84,
        },
        counts: [206, 3296, 26368, 421888, 2883584, 2, 0, 0, 80, 0, 0, 0, 0],
    };
    assert_eq!(got, want);

    // The same run on noisy, faulty 8×8 arrays: every ProgramTraining
    // rewrite draws fresh write variation on both grids.
    let noisy = CrossbarConfig::default()
        .with_array_size(8, 8)
        .with_noise(0.03, 0.02, 13)
        .with_faults(0.01, 0.01, 13);
    let got = bank_train_run(&noisy);
    let want = BankTrainRun {
        losses: vec![
            0x3e4f3c4c, 0x3e3c66fc, 0x3e2be269, 0x3e1d4d4a, 0x3e0e3a61, 0x3e020033, 0x3ded2ccc,
            0x3dd7e294, 0x3dc38868, 0x3db03e50, 0x3d9df6b4, 0x3d8c8237, 0x3d78a134, 0x3d5a0ba2,
            0x3d3dbf92, 0x3d2429cc, 0x3d0c975d, 0x3ceedab6, 0x3cc9e06f, 0x3ca8c0f1,
        ],
        output: vec![0x3eb080b6, 0xbe194853],
        stats: BankStats {
            instructions: 268,
            mvms: 62,
            mem_traffic: 1184,
            buffer_traffic: 0,
            programs: 84,
        },
        counts: [534, 8544, 4272, 68352, 25344, 2, 0, 0, 80, 0, 0, 0, 0],
    };
    assert_eq!(got, want);
}
