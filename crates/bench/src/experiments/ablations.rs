//! Ablation benches for the design choices DESIGN.md calls out:
//! spike-code input precision, crossbar array size, batch size, and the
//! replication budget.

use crate::Table;
use reram_core::{
    AcceleratorConfig, BankShape, ChipPlan, EnduranceClass, EnduranceReport, ExecutionPlan,
    PipeLayerAccelerator, PipelineModel, ReplicationPolicy,
};
use reram_crossbar::units::Joules;
use reram_crossbar::{CrossbarConfig, TiledMatrix};
use reram_nn::models;
use reram_tensor::{Matrix, Shape2};

/// Spike-code precision ablation: MVM accuracy and latency factor vs.
/// `input_bits` (the weighted spike coding of \[9\] walks one frame per bit).
pub fn spike_precision() -> Table {
    let w = Matrix::from_fn(Shape2::new(96, 96), |r, c| {
        (((r * 7 + c * 5) % 31) as f32 - 15.0) / 15.0
    });
    let x: Vec<f32> = (0..96).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect();
    let exact = w.matvec(&x);
    let ref_mean = exact.iter().map(|v| v.abs() as f64).sum::<f64>() / exact.len() as f64;
    let mut t = Table::new(["input bits", "frames/MVM", "mean rel err"]);
    for bits in [2u32, 4, 6, 8, 12, 16] {
        let cfg = CrossbarConfig {
            input_bits: bits,
            ..CrossbarConfig::default()
        };
        let mut tiled = TiledMatrix::program(&w, &cfg);
        let got = tiled.matvec(&x);
        let err = got
            .iter()
            .zip(&exact)
            .map(|(a, b)| (a - b).abs() as f64)
            .sum::<f64>()
            / exact.len() as f64;
        t.row([
            bits.to_string(),
            bits.to_string(),
            format!("{:.4}%", 100.0 * err / ref_mean),
        ]);
    }
    t
}

/// Mean relative error of the crossbar MVM at a given input precision
/// (used by tests and benches).
pub fn spike_precision_error(bits: u32) -> f64 {
    let w = Matrix::from_fn(Shape2::new(96, 96), |r, c| {
        (((r * 7 + c * 5) % 31) as f32 - 15.0) / 15.0
    });
    let x: Vec<f32> = (0..96).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect();
    let exact = w.matvec(&x);
    let cfg = CrossbarConfig {
        input_bits: bits,
        ..CrossbarConfig::default()
    };
    let mut tiled = TiledMatrix::program(&w, &cfg);
    let got = tiled.matvec(&x);
    let err = got
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs() as f64)
        .sum::<f64>()
        / exact.len() as f64;
    let ref_mean = exact.iter().map(|v| v.abs() as f64).sum::<f64>() / exact.len() as f64;
    err / ref_mean
}

/// Array-size ablation: arrays needed and training time for AlexNet as the
/// crossbar geometry sweeps 64..512.
pub fn array_size() -> Table {
    let net = models::alexnet_spec();
    let mut t = Table::new(["array", "arrays used", "area", "train time (512 in)"]);
    for size in [64usize, 128, 256, 512] {
        let mut cfg = AcceleratorConfig::default();
        cfg.crossbar = cfg.crossbar.with_array_size(size, size);
        let r = PipeLayerAccelerator::new(cfg).train_cost(&net, 32, 512);
        t.row([
            format!("{size}x{size}"),
            r.arrays.to_string(),
            format!("{:.1} mm2", r.area_mm2),
            crate::table::seconds(r.time_s.0),
        ]);
    }
    t
}

/// Batch-size ablation: pipeline fill/drain overhead vs. throughput
/// (cycles per input for varying B at fixed L).
pub fn batch_size() -> Table {
    let mut t = Table::new(["B", "cycles/batch", "cycles/input", "speedup vs seq"]);
    let l = 11; // VGG-A depth
    for b in [1usize, 4, 16, 64, 256] {
        let p = PipelineModel::new(l, b);
        let n = 1024u64.div_ceil(b as u64) * b as u64;
        t.row([
            b.to_string(),
            p.training_cycles_per_batch().to_string(),
            format!("{:.2}", p.training_cycles(n) as f64 / n as f64),
            crate::table::ratio(p.training_speedup(n)),
        ]);
    }
    t
}

/// Replication-budget ablation: VGG-A training time vs. the chip's array
/// budget.
pub fn replication_budget() -> Table {
    let net = models::vgg_a_spec();
    let mut t = Table::new(["array budget", "arrays used", "train time (512 in)", "area"]);
    for budget in [16_384usize, 65_536, 131_072, 524_288] {
        let cfg =
            AcceleratorConfig::default().with_replication(ReplicationPolicy::ArrayBudget(budget));
        let r = PipeLayerAccelerator::new(cfg).train_cost(&net, 32, 512);
        t.row([
            budget.to_string(),
            r.arrays.to_string(),
            crate::table::seconds(r.time_s.0),
            format!("{:.1} mm2", r.area_mm2),
        ]);
    }
    t
}

/// Endurance study: continuous-training lifetime of the weight cells per
/// endurance class (in-situ training's wear-out constraint).
pub fn endurance() -> Table {
    let mut t = Table::new(["network", "endurance class", "continuous-training lifetime"]);
    for net in [models::lenet_spec(), models::vgg_a_spec()] {
        let r = EnduranceReport::analyze(&net, &AcceleratorConfig::default(), 32);
        for class in [
            EnduranceClass::Conservative,
            EnduranceClass::Typical,
            EnduranceClass::Optimistic,
        ] {
            let s = r.lifetime_s(class).0;
            let human = if s < 3600.0 {
                format!("{:.1} min", s / 60.0)
            } else if s < 48.0 * 3600.0 {
                format!("{:.1} h", s / 3600.0)
            } else {
                format!("{:.1} days", s / 86400.0)
            };
            t.row([net.name.clone(), class.name().to_string(), human]);
        }
    }
    t
}

/// Readout-scheme ablation: spike I&F vs. shared SAR ADCs per array —
/// the §III-A.3 claim that spike coding "further reduce\[s\] the area and
/// energy overhead" of conventional readout.
pub fn readout_schemes() -> Table {
    use reram_crossbar::{ReadoutKind, ReadoutModel};
    let cfg = CrossbarConfig::default();
    let model = ReadoutModel::default();
    let mut t = Table::new(["readout", "periphery area", "energy/MVM", "frame stretch"]);
    let schemes = [
        ("spike I&F / bitline", ReadoutKind::SpikeIf),
        (
            "8b ADC, share 128",
            ReadoutKind::Adc {
                bits: 8,
                share: 128,
            },
        ),
        ("8b ADC, share 16", ReadoutKind::Adc { bits: 8, share: 16 }),
        ("8b ADC / bitline", ReadoutKind::Adc { bits: 8, share: 1 }),
        (
            "10b ADC, share 128",
            ReadoutKind::Adc {
                bits: 10,
                share: 128,
            },
        ),
    ];
    for (name, kind) in schemes {
        let c = model.mvm_cost(kind, &cfg);
        t.row([
            name.to_string(),
            format!("{:.0} um2", c.area_um2),
            format!("{:.1} nJ", c.energy_pj / 1e3),
            format!("{:.0} ns", c.frame_latency_ns),
        ]);
    }
    t
}

/// Training-energy breakdown by component (where a training joule goes).
pub fn energy_breakdown() -> Table {
    let mut t = Table::new([
        "network",
        "forward",
        "backward",
        "buffer",
        "weight update",
        "total (512 in)",
    ]);
    for net in [
        models::lenet_spec(),
        models::alexnet_spec(),
        models::vgg_a_spec(),
    ] {
        #[expect(
            clippy::expect_used,
            reason = "zoo networks lower under the default config"
        )]
        let plan = ExecutionPlan::lower(&net, &AcceleratorConfig::default())
            .expect("zoo network lowers under default config");
        let b = plan.training_energy_breakdown(512, 16);
        let pct = |x: Joules| format!("{:.1}%", 100.0 * x / b.total_j());
        t.row([
            net.name.clone(),
            pct(b.forward_j),
            pct(b.backward_j),
            pct(b.buffer_j),
            pct(b.update_j),
            crate::table::joules(b.total_j().0),
        ]);
    }
    t
}

/// Chip-plan analysis: banks, memory residency and peak power per network.
pub fn chip_plan() -> Table {
    let mut t = Table::new([
        "network",
        "compute arrays",
        "banks",
        "resident acts",
        "mem util",
        "peak power",
    ]);
    for net in [
        models::lenet_spec(),
        models::mnist_deep_spec(),
        models::alexnet_spec(),
        models::vgg_a_spec(),
    ] {
        #[expect(
            clippy::expect_used,
            reason = "zoo networks plan under the default config"
        )]
        let p = ChipPlan::plan(
            &net,
            &AcceleratorConfig::default(),
            BankShape::default(),
            32,
        )
        .expect("zoo network plans under default config");
        t.row([
            net.name.clone(),
            p.compute_arrays.to_string(),
            p.total_banks().to_string(),
            format!("{:.2} MB", p.resident_activation_bytes as f64 / 1e6),
            format!("{:.1}%", 100.0 * p.memory_utilization()),
            format!("{:.1} W", p.peak_power_w),
        ]);
    }
    t
}

/// Mean relative MVM error for a noise/fault configuration (shared by the
/// device ablations below).
fn mvm_rel_error(cfg: &CrossbarConfig) -> f64 {
    let w = Matrix::from_fn(Shape2::new(96, 96), |r, c| {
        (((r * 7 + c * 5) % 31) as f32 - 15.0) / 15.0
    });
    let x: Vec<f32> = (0..96).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect();
    let exact = w.matvec(&x);
    let mut tiled = TiledMatrix::program(&w, cfg);
    let got = tiled.matvec(&x);
    let err = got
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs() as f64)
        .sum::<f64>()
        / exact.len() as f64;
    let ref_mean = exact.iter().map(|v| v.abs() as f64).sum::<f64>() / exact.len() as f64;
    err / ref_mean
}

/// Device-variation ablation: MVM error vs. programming/read noise sigma.
pub fn device_noise() -> Table {
    let mut t = Table::new(["write sigma", "read sigma", "mean rel err"]);
    for &(ws, rs) in &[
        (0.0, 0.0),
        (0.01, 0.0),
        (0.0, 0.01),
        (0.02, 0.02),
        (0.05, 0.05),
        (0.1, 0.1),
    ] {
        let cfg = CrossbarConfig::default().with_noise(ws, rs, 99);
        t.row([
            format!("{ws:.2}"),
            format!("{rs:.2}"),
            format!("{:.3}%", 100.0 * mvm_rel_error(&cfg)),
        ]);
    }
    t
}

/// MVM error at a given symmetric noise level (for tests/benches).
pub fn device_noise_error(sigma: f64) -> f64 {
    mvm_rel_error(&CrossbarConfig::default().with_noise(sigma, sigma, 99))
}

/// Stuck-at-fault ablation: MVM error vs. faulty-cell fraction.
pub fn stuck_faults() -> Table {
    let mut t = Table::new(["stuck-off", "stuck-on", "mean rel err"]);
    for &(off, on) in &[
        (0.0, 0.0),
        (0.001, 0.001),
        (0.005, 0.005),
        (0.01, 0.01),
        (0.05, 0.05),
    ] {
        let cfg = CrossbarConfig::default().with_faults(off, on, 101);
        t.row([
            format!("{:.1}%", off * 100.0),
            format!("{:.1}%", on * 100.0),
            format!("{:.3}%", 100.0 * mvm_rel_error(&cfg)),
        ]);
    }
    t
}

/// MVM error at a given symmetric stuck-at rate (for tests/benches).
pub fn stuck_fault_error(rate: f64) -> f64 {
    mvm_rel_error(&CrossbarConfig::default().with_faults(rate, rate, 101))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_error_decreases_with_bits() {
        let coarse = spike_precision_error(4);
        let fine = spike_precision_error(12);
        assert!(fine < coarse, "{fine} !< {coarse}");
        assert!(spike_precision_error(16) < 0.01);
    }

    #[test]
    fn batch_speedup_monotone() {
        let t = batch_size();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn bigger_budget_never_slower() {
        let net = models::vgg_a_spec();
        let time = |budget| {
            let cfg = AcceleratorConfig::default()
                .with_replication(ReplicationPolicy::ArrayBudget(budget));
            PipeLayerAccelerator::new(cfg)
                .train_cost(&net, 32, 512)
                .time_s
        };
        assert!(time(524_288) <= time(65_536));
        assert!(time(65_536) <= time(16_384));
    }

    #[test]
    fn tables_render() {
        assert!(!spike_precision().is_empty());
        assert!(!array_size().is_empty());
        assert!(!replication_budget().is_empty());
        assert!(!device_noise().is_empty());
        assert!(!stuck_faults().is_empty());
        assert_eq!(endurance().len(), 6);
        assert_eq!(chip_plan().len(), 4);
        assert_eq!(energy_breakdown().len(), 3);
        assert_eq!(readout_schemes().len(), 5);
    }

    #[test]
    fn noise_error_grows_with_sigma() {
        assert!(device_noise_error(0.0) < 1e-3);
        assert!(device_noise_error(0.1) > device_noise_error(0.01));
    }

    #[test]
    fn fault_error_grows_with_rate() {
        assert!(stuck_fault_error(0.0) < 1e-3);
        assert!(stuck_fault_error(0.05) > stuck_fault_error(0.005));
    }
}
