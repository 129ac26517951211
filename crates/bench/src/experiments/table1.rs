//! E6/E7 — Table I: PipeLayer and ReGAN vs. the GTX 1080.
//!
//! The paper reports average 42.45× speedup / 7.17× energy saving for
//! PipeLayer (MNIST + ImageNet benchmarks) and 240× / 94× for ReGAN (DCGAN
//! on MNIST, cifar-10, celebA, LSUN). We reproduce the comparison with our
//! calibrated component models; the reproduction target is the *shape*
//! (see EXPERIMENTS.md): both accelerators win by 1–2 orders of magnitude,
//! speedup exceeds energy saving, and ReGAN's benefit exceeds PipeLayer's.

use crate::Table;
use reram_core::{AcceleratorConfig, PipeLayerAccelerator, ReGanAccelerator, ReganOpt};
use reram_gpu::GpuModel;
use reram_nn::{models, NetworkSpec};

/// PipeLayer benchmark networks (MNIST class + ImageNet class).
pub fn pipelayer_networks() -> Vec<NetworkSpec> {
    vec![
        models::lenet_spec(),
        models::mnist_deep_spec(),
        models::alexnet_spec(),
        models::googlenet_spec(),
        models::vgg_a_spec(),
    ]
}

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Workload name.
    pub workload: String,
    /// Accelerator time, s.
    pub accel_time_s: f64,
    /// GPU time, s.
    pub gpu_time_s: f64,
    /// Speedup over the GPU.
    pub speedup: f64,
    /// Energy saving over the GPU.
    pub energy_saving: f64,
}

/// PipeLayer training comparison on one network.
pub fn pipelayer_row(net: &NetworkSpec, batch: usize, n: u64) -> ComparisonRow {
    let accel = PipeLayerAccelerator::new(AcceleratorConfig::default());
    let r = accel.train_cost(net, batch, n);
    let gpu = GpuModel::gtx1080()
        .training_cost(net, batch)
        .times(n as f64 / batch as f64);
    ComparisonRow {
        workload: net.name.clone(),
        accel_time_s: r.time_s.0,
        gpu_time_s: gpu.time_s,
        speedup: r.speedup_vs(&gpu),
        energy_saving: r.energy_saving_vs(&gpu),
    }
}

/// ReGAN training comparison on one dataset shape.
pub fn regan_row(
    name: &str,
    channels: usize,
    hw: usize,
    batch: usize,
    iters: u64,
) -> ComparisonRow {
    let g = models::dcgan_generator_spec(100, channels, hw);
    let d = models::dcgan_discriminator_spec(channels, hw);
    let accel = ReGanAccelerator::new(AcceleratorConfig::default(), ReganOpt::PipelineSpCs);
    let r = accel.train_cost(&g, &d, batch, iters);
    let gpu = GpuModel::gtx1080()
        .gan_training_cost(&g, &d, batch)
        .times(iters as f64);
    ComparisonRow {
        workload: format!("DCGAN/{name}"),
        accel_time_s: r.time_s.0,
        gpu_time_s: gpu.time_s,
        speedup: r.speedup_vs(&gpu),
        energy_saving: r.energy_saving_vs(&gpu),
    }
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// All PipeLayer rows (batch 32, 512 training inputs).
pub fn pipelayer_rows() -> Vec<ComparisonRow> {
    pipelayer_networks()
        .iter()
        .map(|net| pipelayer_row(net, 32, 512))
        .collect()
}

/// All ReGAN rows (batch 64, 50 iterations).
pub fn regan_rows() -> Vec<ComparisonRow> {
    super::fig9::DATASETS
        .iter()
        .map(|&(name, c, hw)| regan_row(name, c, hw, 64, 50))
        .collect()
}

/// Runs the full experiment.
pub fn run() -> Table {
    let mut t = Table::new([
        "accelerator",
        "workload",
        "accel time",
        "GPU time",
        "speedup",
        "energy saving",
    ]);
    let pl = pipelayer_rows();
    for r in &pl {
        t.row([
            "PipeLayer".to_string(),
            r.workload.clone(),
            crate::table::seconds(r.accel_time_s),
            crate::table::seconds(r.gpu_time_s),
            crate::table::ratio(r.speedup),
            crate::table::ratio(r.energy_saving),
        ]);
    }
    t.row([
        "PipeLayer".to_string(),
        "GEOMEAN (paper: 42.45x / 7.17x)".to_string(),
        String::new(),
        String::new(),
        crate::table::ratio(geomean(&pl.iter().map(|r| r.speedup).collect::<Vec<_>>())),
        crate::table::ratio(geomean(
            &pl.iter().map(|r| r.energy_saving).collect::<Vec<_>>(),
        )),
    ]);
    let rg = regan_rows();
    for r in &rg {
        t.row([
            "ReGAN".to_string(),
            r.workload.clone(),
            crate::table::seconds(r.accel_time_s),
            crate::table::seconds(r.gpu_time_s),
            crate::table::ratio(r.speedup),
            crate::table::ratio(r.energy_saving),
        ]);
    }
    t.row([
        "ReGAN".to_string(),
        "GEOMEAN (paper: 240x / 94x)".to_string(),
        String::new(),
        String::new(),
        crate::table::ratio(geomean(&rg.iter().map(|r| r.speedup).collect::<Vec<_>>())),
        crate::table::ratio(geomean(
            &rg.iter().map(|r| r.energy_saving).collect::<Vec<_>>(),
        )),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelayer_wins_on_every_network() {
        for r in pipelayer_rows() {
            assert!(r.speedup > 1.0, "{}: speedup {}", r.workload, r.speedup);
            assert!(
                r.energy_saving > 1.0,
                "{}: saving {}",
                r.workload,
                r.energy_saving
            );
        }
    }

    #[test]
    fn regan_wins_on_every_dataset() {
        for r in regan_rows() {
            assert!(r.speedup > 1.0, "{}: speedup {}", r.workload, r.speedup);
            assert!(
                r.energy_saving > 1.0,
                "{}: saving {}",
                r.workload,
                r.energy_saving
            );
        }
    }

    #[test]
    fn table1_shape_holds() {
        let pl = pipelayer_rows();
        let rg = regan_rows();
        let pl_speed = geomean(&pl.iter().map(|r| r.speedup).collect::<Vec<_>>());
        let pl_energy = geomean(&pl.iter().map(|r| r.energy_saving).collect::<Vec<_>>());
        let rg_speed = geomean(&rg.iter().map(|r| r.speedup).collect::<Vec<_>>());
        // Shape 1: order-of-magnitude PipeLayer wins.
        assert!(pl_speed > 10.0, "PipeLayer speedup {pl_speed}");
        // Shape 2: speedup exceeds energy saving (paper: 42.45 vs 7.17).
        assert!(pl_speed > pl_energy, "{pl_speed} vs {pl_energy}");
        // Shape 3: the GAN accelerator's win exceeds the CNN accelerator's
        // (paper: 240 vs 42.45).
        assert!(
            rg_speed > pl_speed,
            "ReGAN {rg_speed} vs PipeLayer {pl_speed}"
        );
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-9);
    }
}
