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

    /// Adds one spike frame's read noise to its bitline `currents`.
    ///
    /// The readout senses each bitline against a dummy level-0 cell: one
    /// programming-variation draw for the dummy (when `write_sigma > 0`),
    /// then one read-noise draw per bitline (when `read_sigma > 0`), each
    /// adding the sensed dummy conductance, clamped at zero, minus the
    /// programmed one. The dummy is a readout artifact, not endurance
    /// traffic: it counts no write and records no telemetry.
    pub fn add_read_noise(&mut self, currents: &mut [f64]) {
        let dummy = if self.write_sigma > 0.0 {
            (self.write_sigma * self.gaussian()).max(0.0)
        } else {
            0.0
        };
        if self.read_sigma > 0.0 {
            for cur in currents {
                *cur += (dummy + self.read_sigma * self.gaussian()).max(0.0) - dummy;
            }
        }
    }

    /// Total program operations issued (for endurance accounting).
    pub fn write_count(&self) -> u64 {
        self.writes
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
    use crate::test_support::counted;
    use reram_telemetry::EVENT_COUNT;

    #[test]
    fn ideal_program_read_round_trips() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.0, 0);
        for level in 0..16 {
            let cell = dev.program(level);
            assert_eq!(cell.level(), level);
            assert_eq!(cell.conductance(), level as f64);
        }
        let mut currents = [0.0, 3.0, 15.0];
        dev.add_read_noise(&mut currents);
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
            let mut current = [first];
            dev.add_read_noise(&mut current);
            assert_eq!(current, [first]);
        }
    }

    #[test]
    fn read_noise_varies_per_read() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.1, 7);
        let mut currents = [8.0; 2];
        dev.add_read_noise(&mut currents);
        assert_ne!(currents[0], currents[1]);
        // Both reads stay near the summed conductance.
        assert!(currents.iter().all(|c| (c - 8.0).abs() < 1.0));
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
            assert!(dev.program(0).conductance() >= 0.0);
        }
    }

    #[test]
    fn read_noise_counts_no_write() {
        let mut dev = ReramDeviceModel::new(4, 0.1, 0.1, 0);
        let _ = dev.program(3);
        let ((), counts) = counted(|| dev.add_read_noise(&mut [0.0; 4]));
        assert_eq!(dev.write_count(), 1);
        assert_eq!(counts, [0; EVENT_COUNT], "no CellWrite or other event");
    }

    #[test]
    fn read_noise_draws_a_dummy_then_one_read_per_bitline() {
        // The stream a counted `program(0)` dummy and one clamped read per
        // bitline would draw, with each draw skipped when its sigma is 0.
        for (ws, rs) in [(0.1, 0.1), (0.1, 0.0), (0.0, 0.1), (0.0, 0.0)] {
            let mut dev = ReramDeviceModel::new(4, ws, rs, 42);
            let mut twin = ReramDeviceModel::new(4, ws, rs, 42);
            let before = [0.0, 1.0, 2.5, 7.0];
            let mut currents = before;
            dev.add_read_noise(&mut currents);
            let dummy = twin.program(0).conductance();
            for (&got, b) in currents.iter().zip(before) {
                let noise = if rs > 0.0 {
                    (dummy + rs * twin.gaussian()).max(0.0) - dummy
                } else {
                    0.0
                };
                assert_eq!(got, b + noise);
            }
            assert_eq!(dev.gaussian(), twin.gaussian(), "same RNG position");
            assert_eq!(dev.write_count(), 0);
        }
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
