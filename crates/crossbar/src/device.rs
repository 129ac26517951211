//! ReRAM device (cell) model — paper §II-B.
//!
//! "Resistive random access memory (ReRAM) is a type of non-volatile memory
//! that stores information as device resistance states." We model a cell as
//! a discrete conductance level in `0..2^cell_bits`, with optional Gaussian
//! programming variation frozen at write time (non-volatile state) and
//! Gaussian noise added per read.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reram_telemetry::{self as telemetry, Event};

/// One ReRAM cell: a target conductance level plus the actually-programmed
/// (variation-affected) analog conductance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReramCell {
    level: u32,
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

/// Stateful device model shared by all cells of a subsystem.
///
/// Owns the variation RNG so that programming the same matrix twice with the
/// same seed yields identical devices (reproducible experiments), while two
/// different arrays draw independent variations.
#[derive(Debug, Clone)]
pub struct ReramDeviceModel {
    levels: u32,
    write_sigma: f64,
    read_sigma: f64,
    rng: StdRng,
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
            rng: StdRng::seed_from_u64(seed),
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

    /// Programs a cell to `level`, applying write variation.
    ///
    /// The variation is frozen into the returned cell — ReRAM is
    /// non-volatile, so the error persists across every subsequent read
    /// until the cell is reprogrammed (a weight update in PipeLayer's
    /// terms, §III-A.3(a)).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the device's level range.
    pub fn program(&mut self, level: u32) -> ReramCell {
        assert!(
            level < self.levels,
            "level {level} exceeds device range {}",
            self.levels
        );
        self.writes += 1;
        telemetry::record(Event::CellWrite, 1);
        let noise = if self.write_sigma > 0.0 {
            self.write_sigma * self.gaussian()
        } else {
            0.0
        };
        ReramCell {
            level,
            conductance: (level as f64 + noise).max(0.0),
        }
    }

    /// Programs an *uncounted* dummy level-0 cell for read-noise sampling.
    ///
    /// Draws from the same RNG stream as [`program`](Self::program) but
    /// counts as neither a write nor a telemetry event: the dummy cell is a
    /// measurement artifact of the readout circuit, not endurance traffic.
    pub fn noise_dummy(&mut self) -> ReramCell {
        let noise = if self.write_sigma > 0.0 {
            self.write_sigma * self.gaussian()
        } else {
            0.0
        };
        ReramCell {
            level: 0,
            conductance: noise.max(0.0),
        }
    }

    /// Additive read-noise sample for `cell`: the sensed conductance,
    /// clamped at zero, minus the programmed one. Zero on a noiseless read.
    pub fn read_noise(&mut self, cell: &ReramCell) -> f64 {
        if self.read_sigma > 0.0 {
            (cell.conductance + self.read_sigma * self.gaussian()).max(0.0) - cell.conductance
        } else {
            0.0
        }
    }

    /// Total program operations issued (for endurance accounting).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Whether the model adds any non-ideality.
    pub fn is_ideal(&self) -> bool {
        self.write_sigma == 0.0 && self.read_sigma == 0.0
    }

    fn gaussian(&mut self) -> f64 {
        // Box–Muller; cheap and dependency-free.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_program_read_round_trips() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.0, 0);
        for level in 0..16 {
            let cell = dev.program(level);
            assert_eq!(cell.level(), level);
            assert_eq!(cell.conductance(), level as f64);
            assert_eq!(dev.read_noise(&cell), 0.0);
        }
        assert!(dev.is_ideal());
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
        let _ = dev.program(4);
    }

    #[test]
    fn write_variation_is_frozen_per_cell() {
        let mut dev = ReramDeviceModel::new(4, 0.1, 0.0, 7);
        let cell = dev.program(8);
        let first = cell.conductance();
        assert_ne!(first, 8.0);
        // Non-volatility: every read of the same cell senses the same
        // (variation-shifted) conductance when read noise is off.
        for _ in 0..10 {
            assert_eq!(first + dev.read_noise(&cell), first);
        }
    }

    #[test]
    fn read_noise_varies_per_read() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.1, 7);
        let cell = dev.program(8);
        let a = dev.read_noise(&cell);
        let b = dev.read_noise(&cell);
        assert_ne!(a, b);
        // Both reads stay near the programmed level.
        assert!(a.abs() < 1.0 && b.abs() < 1.0);
    }

    #[test]
    fn variation_statistics_match_sigma() {
        let mut dev = ReramDeviceModel::new(8, 0.05, 0.0, 11);
        let errs: Vec<f64> = (0..2000)
            .map(|_| dev.program(100).conductance() - 100.0)
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let var = errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / errs.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.01, "sigma {}", var.sqrt());
    }

    #[test]
    fn conductance_never_negative() {
        let mut dev = ReramDeviceModel::new(1, 0.5, 0.5, 13);
        for _ in 0..500 {
            let cell = dev.program(0);
            assert!(cell.conductance() >= 0.0);
            assert!(cell.conductance() + dev.read_noise(&cell) >= 0.0);
        }
    }

    #[test]
    fn write_count_tracks_programs_only() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.1, 0);
        let c = dev.program(3);
        let _ = dev.read_noise(&c);
        let _ = dev.noise_dummy();
        assert_eq!(dev.write_count(), 1);
    }

    #[test]
    fn noise_dummy_matches_counted_program() {
        // noise_dummy must draw the same RNG stream as program(0),
        // differing only in that it counts no write.
        let mut counted = ReramDeviceModel::new(4, 0.1, 0.1, 42);
        let mut free = ReramDeviceModel::new(4, 0.1, 0.1, 42);
        let dummy_c = counted.program(0);
        let dummy_f = free.noise_dummy();
        assert_eq!(dummy_c.conductance(), dummy_f.conductance());
        for _ in 0..5 {
            assert_eq!(counted.read_noise(&dummy_c), free.read_noise(&dummy_f));
        }
        assert_eq!(counted.write_count(), 1);
        assert_eq!(free.write_count(), 0);
    }

    #[test]
    fn same_seed_reproduces_variation() {
        let mut a = ReramDeviceModel::new(4, 0.1, 0.0, 99);
        let mut b = ReramDeviceModel::new(4, 0.1, 0.0, 99);
        for level in [0, 5, 15, 3] {
            assert_eq!(
                a.program(level).conductance(),
                b.program(level).conductance()
            );
        }
    }
}
