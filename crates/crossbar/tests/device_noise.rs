//! Statistics of the device model as an array senses it.
//!
//! Every case drives a whole `CrossbarArray` through `program` and
//! `mvm_codes`, so it measures what the spike-coded readout sees: the
//! write variation frozen into the cells, the read noise added to each
//! frame's bitline current, and the stuck-at fault pattern. A single
//! frame (`input_bits = 1`) with every wordline driven keeps the
//! integrate-and-fire count at `round(current)`, far from its clamp at
//! zero, so the count's spread is the noise's spread plus the rounding's
//! `1/12`.

use reram_crossbar::array::CrossbarArray;
use reram_crossbar::CrossbarConfig;

/// Variance `round` adds to a continuous value (Sheppard's correction).
const ROUNDING_VAR: f64 = 1.0 / 12.0;

fn config(rows: usize, cols: usize) -> CrossbarConfig {
    CrossbarConfig {
        rows,
        cols,
        cell_bits: 4,
        weight_bits: 4,
        input_bits: 4,
        ..CrossbarConfig::default()
    }
}

/// Mean and (population) variance.
fn moments(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var)
}

/// `calls` single-frame reads of a 4 × 8 array programmed to level 15
/// under read noise `sigma`: per bitline, each count minus the noiseless
/// current 60.
fn read_errors(sigma: f64, seed: u64, calls: usize) -> Vec<Vec<f64>> {
    let cfg = config(4, 8).with_noise(0.0, sigma, seed);
    let mut array = CrossbarArray::new(&cfg);
    array.program(&[15; 32]);
    let mut errors: Vec<Vec<f64>> = (0..8).map(|_| Vec::with_capacity(calls)).collect();
    for _ in 0..calls {
        let y = array.mvm_codes(&[1; 4], 1);
        for (e, &count) in errors.iter_mut().zip(&y) {
            e.push(count as f64 - 60.0);
        }
    }
    errors
}

#[test]
fn read_noise_variance_is_the_same_on_every_bitline() {
    // Read noise of σ = 2 level steps. A zero-mean Gaussian gives each
    // bitline a variance of σ²; a draw rectified at the sense amplifier
    // keeps σ²·(1/2 − 1/(2π)) of it. Either way, no bitline is quieter
    // or louder than its neighbours.
    let sigma = 2.0f64;
    let errors = read_errors(sigma, 3, 20_000);
    let vars: Vec<f64> = errors.iter().map(|e| moments(e).1).collect();
    let pooled = vars.iter().sum::<f64>() / vars.len() as f64;
    let rectified = sigma * sigma * (0.5 - 1.0 / (2.0 * std::f64::consts::PI));
    for (c, &var) in vars.iter().enumerate() {
        assert!(
            var > rectified * 0.9 && var < (sigma * sigma + ROUNDING_VAR) * 1.1,
            "bitline {c}: variance {var}"
        );
        assert!(
            (var - pooled).abs() < 0.1 * pooled,
            "bitline {c}: variance {var} vs pooled {pooled}"
        );
    }
}

#[test]
fn read_noise_is_zero_mean() {
    // 2^20 keyed draws: 8 bitlines × 131,072 single-frame calls. A sense
    // step rectified at zero would shift the mean by σ/√(2π) ≈ 0.8.
    let sigma = 2.0f64;
    let errors: Vec<f64> = read_errors(sigma, 5, 1 << 17).concat();
    assert!(errors.len() >= 1_000_000);
    let (mean, var) = moments(&errors);
    let stderr = (var / errors.len() as f64).sqrt();
    assert!(mean.abs() < 4.0 * stderr, "mean {mean} (stderr {stderr})");
    let want = sigma * sigma + ROUNDING_VAR;
    assert!((var - want).abs() < 0.02 * want, "variance {var} vs {want}");
}

#[test]
fn write_variation_sigma_matches_config() {
    // 16 cells at level 8 per bitline, reprogrammed 4,000 times: every
    // program draws fresh variation, so each count is
    // round(128 + Σ of 16 independent N(0, σ²)).
    let sigma = 0.25f64;
    let cfg = config(16, 8).with_noise(sigma, 0.0, 7);
    let mut array = CrossbarArray::new(&cfg);
    let mut errors = Vec::new();
    for _ in 0..4_000 {
        array.program(&[8; 16 * 8]);
        let y = array.mvm_codes(&[1; 16], 1);
        errors.extend(y.iter().map(|&count| count as f64 - 128.0));
    }
    let (mean, var) = moments(&errors);
    let got = ((var - ROUNDING_VAR) / 16.0).sqrt();
    assert!(mean.abs() < 0.05, "mean {mean}");
    assert!((got - sigma).abs() < 0.05 * sigma, "sigma {got} vs {sigma}");
}

#[test]
fn stuck_cell_rates_match_config() {
    // Sixteen 64 × 64 arrays programmed to mid-level 7: a cell reading 0
    // is stuck off, one reading 15 is stuck on.
    let (off_rate, on_rate) = (0.03, 0.02);
    let (mut off, mut on, mut cells) = (0usize, 0usize, 0usize);
    for seed in 0..16 {
        let cfg = config(64, 64).with_faults(off_rate, on_rate, seed);
        let mut array = CrossbarArray::new(&cfg);
        array.program(&[7; 64 * 64]);
        for r in 0..64 {
            for c in 0..64 {
                match array.level_at(r, c) {
                    0 => off += 1,
                    15 => on += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(
            array.fault_count(),
            (0..64 * 64)
                .filter(|i| array.level_at(i / 64, i % 64) != 7)
                .count()
        );
        cells += 64 * 64;
    }
    for (count, p) in [(off, off_rate), (on, on_rate)] {
        let rate = count as f64 / cells as f64;
        let stderr = (p * (1.0 - p) / cells as f64).sqrt();
        assert!((rate - p).abs() < 4.0 * stderr, "rate {rate} vs {p}");
    }
}
