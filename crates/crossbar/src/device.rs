//! ReRAM device (cell) model — paper §II-B.
//!
//! "Resistive random access memory (ReRAM) is a type of non-volatile memory
//! that stores information as device resistance states." We model a cell as
//! a discrete conductance level in `0..2^cell_bits`, with optional Gaussian
//! programming variation frozen at write time (non-volatile state) and
//! zero-mean Gaussian noise added to every bitline read.
//!
//! Every noise sample is a pure function of the event it belongs to, never
//! of how many samples came before it: a write's variation is keyed by
//! (device seed, cell, that cell's pulse count), a read's noise by (device
//! seed, MVM call, spike frame, bitline). A SplitMix64 finaliser chain
//! mixes the key into a counter, and a 256-layer ziggurat (Marsaglia &
//! Tsang, "The Ziggurat Method for Generating Random Variables", J. Stat.
//! Softw. 5(8), 2000) turns the counter's output words into an exact
//! N(0, 1) sample. Deriving each sample from a counter follows Salmon et
//! al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11). So draws can
//! be skipped, reordered or split across workers without changing any
//! other draw.

use reram_telemetry::{self as telemetry, Event};
use std::sync::LazyLock;

/// One ReRAM cell: a target conductance level plus the actually-programmed
/// (variation-affected) analog conductance.
///
/// The default cell is one that has never been programmed: level 0,
/// conductance 0 and no pulse taken.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReramCell {
    level: u32,
    /// Programming pulses taken so far; keys the next write's variation.
    /// It sits in what would otherwise be padding, so a cell stays 16 bytes.
    pulses: u32,
    conductance: f64,
}

impl ReramCell {
    /// The digital level the cell was programmed to.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The analog conductance realized after programming variation, in units
    /// of one level step.
    pub fn conductance(&self) -> f64 {
        self.conductance
    }
}

/// Device model shared by all cells of one array.
///
/// Holds the array's noise seed: programming the same matrix twice with the
/// same seed yields identical devices (reproducible experiments), while two
/// arrays with different seeds draw independent variations.
#[derive(Debug, Clone)]
pub struct ReramDeviceModel {
    levels: u32,
    write_sigma: f64,
    read_sigma: f64,
    seed: u64,
    writes: u64,
}

impl ReramDeviceModel {
    /// Creates a device model.
    ///
    /// `cell_bits` gives `2^cell_bits` conductance levels; `write_sigma` and
    /// `read_sigma` are expressed as a fraction of one level step.
    ///
    /// # Panics
    ///
    /// Panics if `cell_bits` is 0 or greater than 8.
    pub fn new(cell_bits: u32, write_sigma: f64, read_sigma: f64, seed: u64) -> Self {
        assert!(
            (1..=8).contains(&cell_bits),
            "cell_bits {cell_bits} outside 1..=8"
        );
        Self {
            levels: 1 << cell_bits,
            write_sigma,
            read_sigma,
            seed,
            writes: 0,
        }
    }

    /// Number of programmable conductance levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Highest programmable level value.
    pub fn max_level(&self) -> u32 {
        self.levels - 1
    }

    /// Programs `cell`, the array's cell number `index`, to `level` with one
    /// pulse, applying write variation.
    ///
    /// The variation is `write_sigma · N(0, 1)` keyed by (seed, `index`, the
    /// cell's pulse count before this write), and it is frozen into the cell
    /// — ReRAM is non-volatile, so the error persists across every
    /// subsequent read until the cell is reprogrammed (a weight update in
    /// PipeLayer's terms, §III-A.3(a)).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the device's level range.
    pub fn program(&mut self, cell: &mut ReramCell, index: usize, level: u32) {
        assert!(
            level < self.levels,
            "level {level} exceeds device range {}",
            self.levels
        );
        self.writes += 1;
        telemetry::record(Event::CellWrite, 1);
        let noise = if self.write_sigma > 0.0 {
            let key = mix(mix(self.seed ^ WRITE_DOMAIN) ^ index as u64) ^ u64::from(cell.pulses);
            self.write_sigma * keyed_normal(key)
        } else {
            0.0
        };
        *cell = ReramCell {
            level,
            pulses: cell.pulses.wrapping_add(1),
            conductance: (level as f64 + noise).max(0.0),
        };
    }

    /// Adds the read noise of spike frame `frame` of the array's MVM call
    /// number `call` to its bitline currents: `currents[c]` gets
    /// `read_sigma · N(0, 1)` keyed by (seed, `call`, `frame`, `c`), and
    /// nothing when `read_sigma` is 0. The noise is zero-mean; the I&F
    /// readout's own clamp at zero is the only rectification. A read counts
    /// no write and records no telemetry.
    pub fn add_read_noise(&self, call: u64, frame: u32, currents: &mut [f64]) {
        if self.read_sigma == 0.0 {
            return;
        }
        let key = self.frame_key(call, frame);
        for (c, cur) in currents.iter_mut().enumerate() {
            *cur += self.read_sigma * keyed_normal(key ^ c as u64);
        }
    }

    /// The key prefix of one frame's read draws; bitline `c` draws from
    /// `frame_key ^ c`.
    fn frame_key(&self, call: u64, frame: u32) -> u64 {
        mix(mix(mix(self.seed ^ READ_DOMAIN) ^ call) ^ u64::from(frame))
    }

    /// Total program operations issued (for endurance accounting).
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

/// Domain tags mixed into the seed, so a read draw and a write draw never
/// share a key.
const READ_DOMAIN: u64 = 0x52_45_41_44_5f_4e_4f_49; // "READ_NOI"
const WRITE_DOMAIN: u64 = 0x57_52_49_54_45_5f_56_41; // "WRITE_VA"

/// SplitMix64's increment (2^64 / golden ratio, odd).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output finaliser: a bijection of `u64` whose every output
/// bit depends on every input bit.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 53 high bits of `word` as a uniform in `[0, 1)`.
#[inline]
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `v` with its sign flipped when bit 8 of `word` is set (branch-free: a
/// coin-flip branch would mispredict every other draw).
#[inline]
fn signed(v: f64, word: u64) -> f64 {
    f64::from_bits(v.to_bits() ^ ((word & 0x100) << 55))
}

/// Layer count of the ziggurat.
const ZIG_LAYERS: usize = 256;
/// Right edge of the base layer for 256 layers (Marsaglia & Tsang 2000).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every layer, the base layer's tail included:
/// `R·f(R) + ∫_R^∞ f`, to double precision. Marsaglia & Tsang print
/// 0.00492867323399, which leaves the top layer 1e-9 off its area.
const ZIG_V: f64 = 4.928_673_233_974_658e-3;

/// The ziggurat's layer edges under `f(x) = exp(−x²/2)`.
struct Ziggurat {
    /// `x[0] = V / f(R)` (the base layer as a rectangle of area `V`),
    /// `x[1] = R`, `x[i + 1]` from `x[i]` so each layer has area `V`, and
    /// `x[256] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// `x[i + 1] / x[i]`: a point of layer `i` left of it lies under the
    /// curve without evaluating `f`.
    ratio: [f64; ZIG_LAYERS],
}

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let f = |x: f64| (-0.5 * x * x).exp();
    let mut x = [0.0; ZIG_LAYERS + 1];
    x[0] = ZIG_V / f(ZIG_R);
    x[1] = ZIG_R;
    for i in 1..ZIG_LAYERS - 1 {
        x[i + 1] = (-2.0 * (ZIG_V / x[i] + f(x[i])).ln()).sqrt();
    }
    let mut ratio = [0.0; ZIG_LAYERS];
    for i in 0..ZIG_LAYERS {
        ratio[i] = x[i + 1] / x[i];
    }
    Ziggurat { x, ratio }
});

/// An exact N(0, 1) sample determined by `key` alone.
///
/// The sample consumes SplitMix64's output words `mix(key + k·GAMMA)`,
/// `k = 1, 2, …`: bits 0–7 of a word pick a layer, bit 8 the sign and bits
/// 11–63 the position in the layer. The first word's point lies inside
/// its layer's rectangle in ~98.5% of cases; this inlined test returns
/// it, and [`ziggurat_rejection`] takes the rest.
#[inline]
fn keyed_normal(key: u64) -> f64 {
    let zig = &*ZIGGURAT;
    let counter = key.wrapping_add(GAMMA);
    let word = mix(counter);
    let layer = (word & 0xff) as usize;
    let u = unit(word);
    if u < zig.ratio[layer] {
        return signed(u * zig.x[layer], word);
    }
    ziggurat_rejection(zig, counter, word)
}

/// The ziggurat's slow path from a word whose point fell outside its
/// layer's rectangle: the tail beyond R for the base layer (Marsaglia
/// 1964), the wedge test for the others, and a fresh word after a
/// rejected wedge point.
#[cold]
#[inline(never)]
fn ziggurat_rejection(zig: &Ziggurat, mut counter: u64, mut word: u64) -> f64 {
    let mut next = || {
        counter = counter.wrapping_add(GAMMA);
        mix(counter)
    };
    loop {
        let layer = (word & 0xff) as usize;
        let u = unit(word);
        if u < zig.ratio[layer] {
            return signed(u * zig.x[layer], word);
        }
        if layer == 0 {
            loop {
                let a = -(1.0 - unit(next())).ln() / ZIG_R;
                let b = -(1.0 - unit(next())).ln();
                if b + b > a * a {
                    return signed(ZIG_R + a, word);
                }
            }
        }
        // Accept when a uniform height between f(x[layer]) and
        // f(x[layer + 1]) falls under f(x); both sides are divided by f(x).
        let x = u * zig.x[layer];
        let inner = (-0.5 * (zig.x[layer] * zig.x[layer] - x * x)).exp();
        let outer = (-0.5 * (zig.x[layer + 1] * zig.x[layer + 1] - x * x)).exp();
        if inner + unit(next()) * (outer - inner) < 1.0 {
            return signed(x, word);
        }
        word = next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::counted;
    use reram_telemetry::EVENT_COUNT;

    /// A fresh cell programmed once to `level` as cell `index`.
    fn programmed(dev: &mut ReramDeviceModel, index: usize, level: u32) -> ReramCell {
        let mut cell = ReramCell::default();
        dev.program(&mut cell, index, level);
        cell
    }

    /// Mean, variance and kurtosis.
    fn moments(xs: &[f64]) -> (f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        (mean, var, m4 / (var * var))
    }

    #[test]
    fn ideal_program_read_round_trips() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.0, 0);
        for level in 0..16 {
            let cell = programmed(&mut dev, level as usize, level);
            assert_eq!(cell.level(), level);
            assert_eq!(cell.conductance(), level as f64);
        }
        let mut currents = [0.0, 3.0, 15.0];
        dev.add_read_noise(3, 1, &mut currents);
        assert_eq!(currents, [0.0, 3.0, 15.0]);
    }

    #[test]
    fn levels_follow_cell_bits() {
        assert_eq!(ReramDeviceModel::new(1, 0.0, 0.0, 0).levels(), 2);
        assert_eq!(ReramDeviceModel::new(4, 0.0, 0.0, 0).levels(), 16);
        assert_eq!(ReramDeviceModel::new(8, 0.0, 0.0, 0).max_level(), 255);
    }

    #[test]
    #[should_panic(expected = "exceeds device range")]
    fn program_rejects_out_of_range_level() {
        let mut dev = ReramDeviceModel::new(2, 0.0, 0.0, 0);
        let _ = programmed(&mut dev, 0, 4);
    }

    #[test]
    fn write_variation_is_keyed_by_cell_and_pulse() {
        let mut dev = ReramDeviceModel::new(4, 0.1, 0.0, 7);
        let mut cell = ReramCell::default();
        dev.program(&mut cell, 5, 8);
        let first = cell.conductance();
        assert_ne!(first, 8.0);
        assert_eq!(cell.pulses, 1);
        // Non-volatility: reads add no noise of their own when read noise
        // is off, so the frozen conductance is what every read senses.
        for call in 0..10 {
            let mut current = [first];
            dev.add_read_noise(call, 0, &mut current);
            assert_eq!(current, [first]);
        }
        // The next pulse draws afresh; a fresh cell at the same index, or a
        // twin device, redraws the first pulse's variation exactly.
        dev.program(&mut cell, 5, 8);
        assert_ne!(cell.conductance(), first);
        assert_eq!(programmed(&mut dev, 5, 8).conductance(), first);
        let mut twin = ReramDeviceModel::new(4, 0.1, 0.0, 7);
        assert_eq!(programmed(&mut twin, 5, 8).conductance(), first);
        assert_ne!(programmed(&mut twin, 6, 8).conductance(), first);
        assert_eq!(dev.write_count(), 3);
    }

    #[test]
    fn read_noise_varies_per_bitline() {
        let dev = ReramDeviceModel::new(4, 0.0, 0.1, 7);
        let mut currents = [8.0; 2];
        dev.add_read_noise(0, 0, &mut currents);
        assert_ne!(currents[0], currents[1]);
        // Both reads stay near the summed conductance.
        assert!(currents.iter().all(|c| (c - 8.0).abs() < 1.0));
    }

    #[test]
    fn variation_statistics_match_sigma() {
        let mut dev = ReramDeviceModel::new(8, 0.05, 0.0, 11);
        let errs: Vec<f64> = (0..2000)
            .map(|i| programmed(&mut dev, i, 100).conductance() - 100.0)
            .collect();
        let (mean, var, _) = moments(&errs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.01, "sigma {}", var.sqrt());
    }

    #[test]
    fn conductance_never_negative() {
        let mut dev = ReramDeviceModel::new(1, 0.5, 0.5, 13);
        for i in 0..500 {
            assert!(programmed(&mut dev, i, 0).conductance() >= 0.0);
        }
    }

    #[test]
    fn read_noise_counts_no_write() {
        let mut dev = ReramDeviceModel::new(4, 0.1, 0.1, 0);
        let _ = programmed(&mut dev, 0, 3);
        let ((), counts) = counted(|| dev.add_read_noise(0, 0, &mut [0.0; 4]));
        assert_eq!(dev.write_count(), 1);
        assert_eq!(counts, [0; EVENT_COUNT], "no CellWrite or other event");
    }

    /// One frame's read noise on 32 bitlines.
    fn frame_noise(dev: &ReramDeviceModel, call: u64, frame: u32) -> [f64; 32] {
        let mut currents = [0.0; 32];
        dev.add_read_noise(call, frame, &mut currents);
        currents
    }

    #[test]
    fn read_noise_is_a_pure_function_of_its_key() {
        let dev = ReramDeviceModel::new(4, 0.1, 0.1, 42);
        let full = frame_noise(&dev, 9, 3);
        // A twin device, a prefix of the bitlines, or each bitline drawn
        // on its own in reverse order: the same values.
        assert_eq!(
            frame_noise(&ReramDeviceModel::new(4, 0.1, 0.1, 42), 9, 3),
            full
        );
        let mut prefix = [0.0; 11];
        dev.add_read_noise(9, 3, &mut prefix);
        assert_eq!(prefix, full[..11]);
        let key = dev.frame_key(9, 3);
        for c in (0..32).rev() {
            assert_eq!(0.1 * keyed_normal(key ^ c as u64), full[c]);
        }
        // Every key field moves the draw, and no bitline repeats another.
        for other in [
            frame_noise(&dev, 10, 3),
            frame_noise(&dev, 9, 4),
            frame_noise(&ReramDeviceModel::new(4, 0.1, 0.1, 43), 9, 3),
        ] {
            assert!(other.iter().zip(&full).all(|(a, b)| a != b));
        }
        let mut sorted = full;
        sorted.sort_by(f64::total_cmp);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        // Writes draw from their own domain: cell `c`'s first pulse is not
        // call 0, frame 0, bitline `c`'s read.
        let mut writer = ReramDeviceModel::new(4, 0.1, 0.1, 42);
        let read = frame_noise(&dev, 0, 0);
        for (c, &r) in read.iter().enumerate() {
            assert_ne!(programmed(&mut writer, c, 8).conductance() - 8.0, r);
        }
    }

    #[test]
    fn keyed_draws_are_standard_normal() {
        // 2^20 read draws at σ = 1 over consecutive calls, frames and
        // bitlines: mean within 4 standard errors of 0, unit variance,
        // Gaussian kurtosis and tail masses, including the ziggurat's own
        // tail beyond R.
        let dev = &ReramDeviceModel::new(4, 0.0, 1.0, 1);
        let draws: Vec<f64> = (0..1u64 << 12)
            .flat_map(|call| (0..8).flat_map(move |frame| frame_noise(dev, call, frame)))
            .collect();
        let n = draws.len() as f64;
        let (mean, var, kurtosis) = moments(&draws);
        assert!(mean.abs() < 4.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 4.0 * (2.0 / n).sqrt(), "variance {var}");
        assert!((kurtosis - 3.0).abs() < 0.05, "kurtosis {kurtosis}");
        // Two-sided tail masses of N(0, 1).
        for (edge, mass) in [
            (1.0, 0.317_310_507_862_9),
            (3.0, 2.699_796_063_3e-3),
            (ZIG_R, 2.580_324_876_5e-4),
        ] {
            let got = draws.iter().filter(|x| x.abs() > edge).count() as f64 / n;
            let stderr = (mass * (1.0 - mass) / n).sqrt();
            assert!(
                (got - mass).abs() < 4.0 * stderr,
                "P(|x| > {edge}) = {got} vs {mass}"
            );
        }
    }

    #[test]
    fn ziggurat_layers_close_on_the_peak() {
        let zig = &*ZIGGURAT;
        assert_eq!(zig.x[1], ZIG_R);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]));
        // The top layer, from x[255] up to the peak f(0) = 1, also has area V.
        let top = zig.x[255] * (1.0 - (-0.5 * zig.x[255] * zig.x[255]).exp());
        assert!((top - ZIG_V).abs() < 1e-10 * ZIG_V, "top layer area {top}");
    }

    #[test]
    fn cell_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<ReramCell>(), 16);
    }

    #[test]
    fn same_seed_reproduces_variation() {
        let mut a = ReramDeviceModel::new(4, 0.1, 0.0, 99);
        let mut b = ReramDeviceModel::new(4, 0.1, 0.0, 99);
        for (i, level) in [0, 5, 15, 3].into_iter().enumerate() {
            assert_eq!(
                programmed(&mut a, i, level).conductance(),
                programmed(&mut b, i, level).conductance()
            );
        }
    }
}
