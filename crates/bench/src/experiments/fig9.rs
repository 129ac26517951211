//! E5 — Fig. 9: the SP and CS pipeline optimizations, ablated.
//!
//! For DCGAN at the four ReGAN dataset resolutions, reports iteration
//! cycles, crossbar time and energy at each optimization level —
//! no-pipeline → pipeline → +SP → +SP+CS — along with the array cost of
//! SP's duplicated discriminator and CS's doubled buffers.

use crate::Table;
use reram_core::{AcceleratorConfig, ReGanAccelerator, ReganOpt, ReganPipeline};
use reram_nn::models;

/// The ReGAN evaluation datasets as `(name, channels, image hw)`.
pub const DATASETS: [(&str, usize, usize); 4] = [
    ("MNIST", 1, 32),
    ("cifar-10", 3, 32),
    ("celebA", 3, 64),
    ("LSUN", 3, 64),
];

/// Iteration cycles at every optimization level for one dataset shape.
pub fn cycles_by_level(channels: usize, hw: usize, batch: usize) -> Vec<(ReganOpt, u64)> {
    let g = models::dcgan_generator_spec(100, channels, hw);
    let d = models::dcgan_discriminator_spec(channels, hw);
    let p = ReganPipeline::new(d.weighted_layer_count(), g.weighted_layer_count(), batch);
    ReganOpt::ALL
        .iter()
        .map(|&o| (o, p.iteration_cycles(o)))
        .collect()
}

/// Accelerator time/energy at every optimization level for one dataset.
pub fn reports_by_level(
    channels: usize,
    hw: usize,
    batch: usize,
    iterations: u64,
) -> Vec<(ReganOpt, reram_core::AccelReport)> {
    let g = models::dcgan_generator_spec(100, channels, hw);
    let d = models::dcgan_discriminator_spec(channels, hw);
    ReganOpt::ALL
        .iter()
        .map(|&o| {
            (
                o,
                ReGanAccelerator::new(AcceleratorConfig::default(), o)
                    .train_cost(&g, &d, batch, iterations),
            )
        })
        .collect()
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new([
        "dataset",
        "level",
        "iter cycles",
        "time",
        "energy",
        "arrays",
        "vs no-pipeline",
    ]);
    for (name, c, hw) in DATASETS {
        let reports = reports_by_level(c, hw, 64, 100);
        let base_time = reports[0].1.time_s;
        for (opt, r) in &reports {
            t.row([
                name.to_string(),
                opt.name().to_string(),
                (r.cycles / 100).to_string(),
                crate::table::seconds(r.time_s.0),
                crate::table::joules(r.energy_j.0),
                r.arrays.to_string(),
                crate::table::ratio(base_time / r.time_s),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_level_strictly_faster() {
        for (_, c, hw) in DATASETS {
            let cycles = cycles_by_level(c, hw, 64);
            for w in cycles.windows(2) {
                assert!(w[0].1 > w[1].1, "{:?} !> {:?} at {c}ch {hw}px", w[0], w[1]);
            }
        }
    }

    #[test]
    fn sp_duplicates_discriminator_arrays() {
        let reports = reports_by_level(3, 32, 64, 10);
        let pipeline = &reports[1].1;
        let sp = &reports[2].1;
        assert!(sp.arrays > pipeline.arrays);
    }

    #[test]
    fn cs_reduces_energy_per_iteration() {
        let reports = reports_by_level(3, 64, 64, 10);
        let sp = &reports[2].1;
        let cs = &reports[3].1;
        assert!(cs.energy_j < sp.energy_j);
    }

    #[test]
    fn run_covers_datasets_times_levels() {
        assert_eq!(run().len(), DATASETS.len() * ReganOpt::ALL.len());
    }
}
