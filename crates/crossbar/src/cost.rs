//! Latency, energy and area accounting for crossbar operations.
//!
//! The paper's evaluations (Table I) are produced by exactly this style of
//! component-budget model: each circuit block — spike driver, cell array,
//! integrate-and-fire converter, write driver — contributes a per-operation
//! latency/energy, and an experiment sums the contributions of every
//! operation its schedule performs. Default parameters follow the published
//! ISAAC/PipeLayer component budgets in spirit; absolute values are
//! configurable because the comparison shape, not the absolute numbers, is
//! the reproduction target (see `EXPERIMENTS.md`).

use serde::{Deserialize, Serialize};

use crate::units::{Ns, Pj, Um2};
use crate::CrossbarConfig;

/// Per-component circuit parameters of the crossbar cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarCostModel {
    /// Latency of one 1-bit spike frame through an array, ns.
    pub frame_latency_ns: Ns,
    /// Spike driver energy per wordline spike, pJ.
    pub spike_driver_energy_pj: Pj,
    /// Cell read energy per active cell per frame, pJ.
    pub cell_read_energy_pj: Pj,
    /// Integrate-and-fire + counter energy per bitline per frame, pJ.
    pub inf_energy_pj: Pj,
    /// Cell programming energy, pJ per cell.
    pub cell_write_energy_pj: Pj,
    /// Programming latency per array row (rows write in parallel across
    /// bitlines), ns.
    pub row_write_latency_ns: Ns,
    /// Partial-sum adder latency per merge level, ns.
    pub adder_latency_ns: Ns,
    /// Buffer subarray read+write energy per byte moved, pJ.
    pub buffer_energy_pj_per_byte: Pj,
    /// Silicon area per array including periphery, µm².
    pub array_area_um2: Um2,
}

impl Default for CrossbarCostModel {
    fn default() -> Self {
        Self {
            frame_latency_ns: Ns(20.0),
            spike_driver_energy_pj: Pj(1.0),
            cell_read_energy_pj: Pj(0.1),
            inf_energy_pj: Pj(2.0),
            cell_write_energy_pj: Pj(20.0),
            row_write_latency_ns: Ns(100.0),
            adder_latency_ns: Ns(1.0),
            buffer_energy_pj_per_byte: Pj(1.0),
            array_area_um2: Um2(2500.0),
        }
    }
}

/// Energy breakdown of an MVM by circuit component, pJ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ComponentEnergy {
    /// Spike drivers (input application).
    pub driver_pj: Pj,
    /// Cell array reads.
    pub cells_pj: Pj,
    /// Integrate-and-fire converters and counters.
    pub inf_pj: Pj,
}

impl ComponentEnergy {
    /// Total energy across components, pJ.
    pub fn total_pj(&self) -> Pj {
        self.driver_pj + self.cells_pj + self.inf_pj
    }

    /// Component-wise sum.
    pub fn accumulate(&mut self, other: &ComponentEnergy) {
        self.driver_pj += other.driver_pj;
        self.cells_pj += other.cells_pj;
        self.inf_pj += other.inf_pj;
    }
}

/// Cost of one (possibly grid-wide) matrix-vector multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MvmCost {
    /// End-to-end latency, ns.
    pub latency_ns: Ns,
    /// Energy breakdown, pJ.
    pub energy: ComponentEnergy,
    /// Spike frames driven (equals configured input bits).
    pub frames: u32,
    /// Physical arrays engaged.
    pub arrays: usize,
}

impl MvmCost {
    /// Total energy, pJ.
    pub fn energy_pj(&self) -> Pj {
        self.energy.total_pj()
    }
}

impl CrossbarCostModel {
    /// Cost of a full bit-serial MVM through a single array.
    ///
    /// `activity` is the fraction of wordline spikes actually firing
    /// (average input bit density); it scales driver and cell energy but not
    /// latency — the schedule always walks all `input_bits` frames.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]`.
    pub fn mvm_cost(&self, config: &CrossbarConfig, activity: f64) -> MvmCost {
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity {activity} outside [0, 1]"
        );
        let frames = config.input_bits as f64;
        let active_rows = config.rows as f64 * activity;
        MvmCost {
            latency_ns: frames * self.frame_latency_ns,
            energy: ComponentEnergy {
                driver_pj: frames * active_rows * self.spike_driver_energy_pj,
                cells_pj: frames * active_rows * config.cols as f64 * self.cell_read_energy_pj,
                inf_pj: frames * config.cols as f64 * self.inf_energy_pj,
            },
            frames: config.input_bits,
            arrays: 1,
        }
    }

    /// Cost of an MVM across a `row_tiles × col_tiles` differential grid.
    ///
    /// All arrays operate in parallel, so latency is one array MVM plus a
    /// logarithmic partial-sum merge tree over the row tiles; energy is the
    /// sum over all `2 · row_tiles · col_tiles` arrays.
    ///
    /// # Panics
    ///
    /// Panics if either tile count is zero or `activity` is out of range.
    pub fn grid_mvm_cost(
        &self,
        config: &CrossbarConfig,
        row_tiles: usize,
        col_tiles: usize,
        activity: f64,
    ) -> MvmCost {
        assert!(row_tiles > 0 && col_tiles > 0, "empty grid");
        let one = self.mvm_cost(config, activity);
        let arrays = 2 * row_tiles * col_tiles;
        let merge_levels = usize::BITS - (row_tiles - 1).leading_zeros();
        let mut energy = ComponentEnergy::default();
        for _ in 0..arrays {
            energy.accumulate(&one.energy);
        }
        MvmCost {
            latency_ns: one.latency_ns + merge_levels as f64 * self.adder_latency_ns,
            energy,
            frames: one.frames,
            arrays,
        }
    }

    /// Cost of programming (weight-updating) one full array:
    /// `(latency_ns, energy_pj)`.
    pub fn program_cost(&self, config: &CrossbarConfig) -> (Ns, Pj) {
        let cells = (config.rows * config.cols) as f64;
        (
            config.rows as f64 * self.row_write_latency_ns,
            cells * self.cell_write_energy_pj,
        )
    }

    /// Buffer traffic energy for moving `bytes` through a buffer subarray, pJ.
    pub fn buffer_energy_pj(&self, bytes: u64) -> Pj {
        bytes as f64 * self.buffer_energy_pj_per_byte
    }

    /// Silicon area of an array grid, µm².
    pub fn grid_area_um2(&self, arrays: usize) -> Um2 {
        arrays as f64 * self.array_area_um2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CrossbarConfig {
        CrossbarConfig::default()
    }

    #[test]
    fn mvm_latency_scales_with_input_bits() {
        let m = CrossbarCostModel::default();
        let c16 = m.mvm_cost(&cfg(), 0.5);
        let mut cfg8 = cfg();
        cfg8.input_bits = 8;
        let c8 = m.mvm_cost(&cfg8, 0.5);
        assert!((c16.latency_ns / c8.latency_ns - 2.0).abs() < 1e-9);
        assert_eq!(c16.frames, 16);
        assert_eq!(c8.frames, 8);
    }

    #[test]
    fn mvm_energy_scales_with_activity() {
        let m = CrossbarCostModel::default();
        let quiet = m.mvm_cost(&cfg(), 0.0);
        let busy = m.mvm_cost(&cfg(), 1.0);
        assert_eq!(quiet.energy.driver_pj, Pj::ZERO);
        assert_eq!(quiet.energy.cells_pj, Pj::ZERO);
        // I&F runs regardless of input activity.
        assert!(quiet.energy.inf_pj > Pj::ZERO);
        assert!(busy.energy_pj() > quiet.energy_pj());
    }

    #[test]
    fn grid_latency_is_one_array_plus_merge() {
        let m = CrossbarCostModel::default();
        let one = m.mvm_cost(&cfg(), 0.5);
        let grid = m.grid_mvm_cost(&cfg(), 9, 2, 0.5);
        assert_eq!(grid.arrays, 36);
        // ceil(log2(9)) = 4 merge levels.
        assert!((grid.latency_ns - (one.latency_ns + 4.0 * m.adder_latency_ns)).abs() < Ns(1e-9));
    }

    #[test]
    fn grid_energy_sums_arrays() {
        let m = CrossbarCostModel::default();
        let one = m.mvm_cost(&cfg(), 0.5);
        let grid = m.grid_mvm_cost(&cfg(), 3, 4, 0.5);
        assert!((grid.energy_pj() - 24.0 * one.energy_pj()).abs() < Pj(1e-6));
    }

    #[test]
    fn single_row_tile_has_zero_merge() {
        let m = CrossbarCostModel::default();
        let one = m.mvm_cost(&cfg(), 0.5);
        let grid = m.grid_mvm_cost(&cfg(), 1, 1, 0.5);
        assert_eq!(grid.latency_ns, one.latency_ns);
    }

    #[test]
    fn program_cost_scales_with_geometry() {
        let m = CrossbarCostModel::default();
        let (lat, en) = m.program_cost(&cfg());
        assert_eq!(lat, 128.0 * m.row_write_latency_ns);
        assert_eq!(en, (128.0 * 128.0) * m.cell_write_energy_pj);
    }

    #[test]
    fn component_energy_breakdown_sums() {
        let e = ComponentEnergy {
            driver_pj: Pj(1.0),
            cells_pj: Pj(2.0),
            inf_pj: Pj(3.0),
        };
        assert_eq!(e.total_pj(), Pj(6.0));
        let mut acc = ComponentEnergy::default();
        acc.accumulate(&e);
        acc.accumulate(&e);
        assert_eq!(acc.total_pj(), Pj(12.0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_activity() {
        let _ = CrossbarCostModel::default().mvm_cost(&cfg(), 1.5);
    }

    #[test]
    fn buffer_and_area_helpers() {
        let m = CrossbarCostModel::default();
        assert_eq!(m.buffer_energy_pj(1000), Pj(1000.0));
        assert_eq!(m.grid_area_um2(4), Um2(10_000.0));
    }
}
