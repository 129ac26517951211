//! Analytical GPU baseline — the GTX 1080 platform of the paper's Table I.
//!
//! "Both evaluations were compared to the implementation on the state-of-art
//! GPU platform, GTX 1080." We do not have that GPU (or cuDNN), so the
//! comparison baseline is an analytical *roofline* model: every layer's time
//! is the maximum of its compute time (FLOPs against achievable FLOP/s) and
//! its memory time (bytes moved against achievable bandwidth), plus a kernel
//! launch overhead; energy is execution time times board power. This
//! captures the structure the paper's comparison relies on — GPUs pay DRAM
//! traffic for weights and activations on every pass, while the
//! processing-in-memory accelerator keeps weights resident in the crossbars
//! — and is recorded as a substitution in DESIGN.md.

#![warn(missing_docs)]

use reram_nn::{LayerWork, NetworkSpec};
use serde::{Deserialize, Serialize};

/// Analytical GPU device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Device display name.
    pub name: String,
    /// Peak single-precision throughput, FLOP/s.
    pub peak_flops: f64,
    /// Peak DRAM bandwidth, bytes/s.
    pub mem_bandwidth: f64,
    /// Fraction of peak FLOP/s dense kernels achieve (cuDNN efficiency).
    pub compute_efficiency: f64,
    /// Fraction of peak bandwidth streaming kernels achieve.
    pub bandwidth_efficiency: f64,
    /// Fixed overhead per kernel launch, seconds.
    pub kernel_launch_s: f64,
    /// Average board power while busy, watts.
    pub busy_power_w: f64,
    /// Bytes per activation/weight element (fp32).
    pub bytes_per_elem: f64,
}

impl GpuModel {
    /// The GTX 1080 used by the paper: 8.87 TFLOP/s peak, 320 GB/s GDDR5X,
    /// 180 W TDP. Efficiency factors follow common cuDNN measurements.
    pub fn gtx1080() -> Self {
        Self {
            name: "GTX 1080".into(),
            peak_flops: 8.87e12,
            mem_bandwidth: 320e9,
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.70,
            // Per-op dispatch overhead of a 2017-era framework + driver
            // stack (launch + cuDNN descriptor handling).
            kernel_launch_s: 10e-6,
            busy_power_w: 150.0,
            bytes_per_elem: 4.0,
        }
    }
}

/// Time and energy of a workload on the GPU model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GpuCost {
    /// Wall-clock time, seconds.
    pub time_s: f64,
    /// Energy, joules.
    pub energy_j: f64,
}

impl GpuCost {
    /// Component-wise sum.
    pub fn add(&mut self, other: GpuCost) {
        self.time_s += other.time_s;
        self.energy_j += other.energy_j;
    }

    /// Cost scaled by a repetition count.
    pub fn times(&self, n: f64) -> GpuCost {
        GpuCost {
            time_s: self.time_s * n,
            energy_j: self.energy_j * n,
        }
    }
}

/// Pass direction for per-layer costing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Forward,
    /// Backward data + weight gradients (≈ 2× forward compute) plus the
    /// re-read of stored forward activations.
    Backward,
}

impl GpuModel {
    /// Roofline cost of one pass of one lowered layer: compute time versus
    /// memory time, whichever dominates, plus a kernel launch.
    fn work_cost(&self, work: &LayerWork, batch: usize, pass: Pass) -> GpuCost {
        let b = batch as f64;
        // 1 MAC = 2 FLOPs; the backward volume (error product + weight
        // gradient) is already folded into the lowered work quantities.
        let macs = match pass {
            Pass::Forward => work.forward_macs as f64,
            Pass::Backward => work.backward_macs() as f64,
        } * b;
        let flops = 2.0 * macs;
        // Traffic: weights once per pass + activations in/out per example;
        // backward re-reads the stored forward activations and streams the
        // gradient tensors alongside.
        let out_elems = work.output_elems as f64 * b;
        let weight_elems = work.weight_elems as f64;
        let traffic_elems = match pass {
            Pass::Forward => weight_elems + 2.0 * out_elems,
            Pass::Backward => weight_elems * 2.0 + 4.0 * out_elems,
        };
        let bytes = traffic_elems * self.bytes_per_elem;
        let compute_s = flops / (self.peak_flops * self.compute_efficiency);
        let memory_s = bytes / (self.mem_bandwidth * self.bandwidth_efficiency);
        let time_s = compute_s.max(memory_s) + self.kernel_launch_s;
        GpuCost {
            time_s,
            energy_j: time_s * self.busy_power_w,
        }
    }

    /// Cost of one forward (inference) pass over lowered layer work.
    ///
    /// This is the primitive `reram_core::plan::ExecutionPlan` prices its
    /// GPU baseline with, guaranteeing both backends cost identical work.
    pub fn forward_cost_work(&self, works: &[LayerWork], batch: usize) -> GpuCost {
        let mut total = GpuCost::default();
        for w in works {
            total.add(self.work_cost(w, batch, Pass::Forward));
        }
        total
    }

    /// Cost of one full training step (forward + backward + update) over
    /// lowered layer work.
    pub fn training_cost_work(&self, works: &[LayerWork], batch: usize) -> GpuCost {
        let mut total = self.forward_cost_work(works, batch);
        for w in works {
            total.add(self.work_cost(w, batch, Pass::Backward));
        }
        total.add(self.weight_update_cost(works.iter().map(|w| w.weight_elems).sum()));
        total
    }

    /// Weight update: stream all weights + gradients + momenta once.
    fn weight_update_cost(&self, weight_elems: u64) -> GpuCost {
        let weight_bytes = weight_elems as f64 * self.bytes_per_elem * 3.0;
        let t = weight_bytes / (self.mem_bandwidth * self.bandwidth_efficiency);
        GpuCost {
            time_s: t,
            energy_j: t * self.busy_power_w,
        }
    }

    /// Cost of one forward (inference) pass of a whole network on a batch.
    pub fn forward_cost(&self, net: &NetworkSpec, batch: usize) -> GpuCost {
        self.forward_cost_work(&net.work(), batch)
    }

    /// Cost of one full training step (forward + backward + update) of a
    /// network on a batch.
    pub fn training_cost(&self, net: &NetworkSpec, batch: usize) -> GpuCost {
        self.training_cost_work(&net.work(), batch)
    }

    /// Cost of one GAN training step over lowered generator/discriminator
    /// work (the three phases of the paper's Fig. 8): D on real, D on
    /// generated (G forward included), and G's update through a fixed D.
    pub fn gan_training_cost_work(
        &self,
        generator: &[LayerWork],
        discriminator: &[LayerWork],
        batch: usize,
    ) -> GpuCost {
        let d_fwd = self.forward_cost_work(discriminator, batch);
        let g_fwd = self.forward_cost_work(generator, batch);
        let mut d_bwd = GpuCost::default();
        for w in discriminator {
            d_bwd.add(self.work_cost(w, batch, Pass::Backward));
        }
        let mut g_bwd = GpuCost::default();
        for w in generator {
            g_bwd.add(self.work_cost(w, batch, Pass::Backward));
        }
        let mut total = GpuCost::default();
        // ① D on real: D fwd + D bwd.
        total.add(d_fwd);
        total.add(d_bwd);
        // ② D on generated: G fwd + D fwd + D bwd.
        total.add(g_fwd);
        total.add(d_fwd);
        total.add(d_bwd);
        // ③ G: G fwd + D fwd + D bwd (data gradients) + G bwd.
        total.add(g_fwd);
        total.add(d_fwd);
        total.add(d_bwd);
        total.add(g_bwd);
        // Two weight updates (D and G).
        let weight_elems: u64 = generator
            .iter()
            .chain(discriminator)
            .map(|w| w.weight_elems)
            .sum();
        total.add(self.weight_update_cost(weight_elems));
        total
    }

    /// Cost of one GAN training step on a batch, from network specs.
    pub fn gan_training_cost(
        &self,
        generator: &NetworkSpec,
        discriminator: &NetworkSpec,
        batch: usize,
    ) -> GpuCost {
        self.gan_training_cost_work(&generator.work(), &discriminator.work(), batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_nn::{models, LayerSpec};

    #[test]
    fn training_costs_more_than_inference() {
        let gpu = GpuModel::gtx1080();
        let net = models::lenet_spec();
        let f = gpu.forward_cost(&net, 32);
        let t = gpu.training_cost(&net, 32);
        assert!(t.time_s > 2.0 * f.time_s, "{} vs {}", t.time_s, f.time_s);
        assert!(t.energy_j > f.energy_j);
    }

    #[test]
    fn bigger_networks_cost_more() {
        let gpu = GpuModel::gtx1080();
        let small = gpu.training_cost(&models::lenet_spec(), 32);
        let big = gpu.training_cost(&models::vgg_a_spec(), 32);
        assert!(big.time_s > 50.0 * small.time_s);
    }

    #[test]
    fn vgg_forward_time_plausible() {
        // Real VGG-A forward on a GTX 1080 at batch 32 runs on the order of
        // tens of milliseconds; the model should land in that regime.
        let gpu = GpuModel::gtx1080();
        let t = gpu.forward_cost(&models::vgg_a_spec(), 32).time_s;
        assert!((0.01..1.0).contains(&t), "VGG-A fwd batch-32: {t} s");
    }

    #[test]
    fn small_batches_are_launch_dominated() {
        let gpu = GpuModel::gtx1080();
        let net = models::lenet_spec();
        let t1 = gpu.forward_cost(&net, 1);
        let t64 = gpu.forward_cost(&net, 64);
        // 64x the work costs far less than 64x the time.
        assert!(t64.time_s < 32.0 * t1.time_s);
    }

    #[test]
    fn gan_step_costs_more_than_three_d_passes() {
        let gpu = GpuModel::gtx1080();
        let g = models::dcgan_generator_spec(100, 3, 64);
        let d = models::dcgan_discriminator_spec(3, 64);
        let gan = gpu.gan_training_cost(&g, &d, 64);
        let d_train = gpu.training_cost(&d, 64);
        assert!(gan.time_s > d_train.time_s);
    }

    #[test]
    fn energy_tracks_time() {
        let gpu = GpuModel::gtx1080();
        let c = gpu.training_cost(&models::alexnet_spec(), 16);
        assert!((c.energy_j / c.time_s - gpu.busy_power_w).abs() < 1.0);
    }

    #[test]
    fn compute_bound_layers_scale_with_flops() {
        // VGG's big conv layers are compute-bound: doubling the batch
        // roughly doubles time.
        let gpu = GpuModel::gtx1080();
        let net = models::vgg_a_spec();
        let t32 = gpu.forward_cost(&net, 32).time_s;
        let t64 = gpu.forward_cost(&net, 64).time_s;
        assert!((t64 / t32 - 2.0).abs() < 0.2, "ratio {}", t64 / t32);
    }

    #[test]
    fn fc_layers_are_memory_bound() {
        // A lone 4096x4096 FC at batch 1 moves 64MB of weights for 16M
        // MACs: memory time dominates compute time.
        let gpu = GpuModel::gtx1080();
        let fc = NetworkSpec::new(
            "fc",
            reram_tensor::Shape4::new(1, 4096, 1, 1),
            vec![LayerSpec::Fc {
                in_features: 4096,
                out_features: 4096,
            }],
        );
        let t = gpu.forward_cost(&fc, 1).time_s;
        let weight_bytes = 4096.0 * 4096.0 * 4.0;
        let mem_floor = weight_bytes / (gpu.mem_bandwidth * gpu.bandwidth_efficiency);
        assert!(t >= mem_floor, "time {t} below memory floor {mem_floor}");
        let compute = 2.0 * 4096.0 * 4096.0 / (gpu.peak_flops * gpu.compute_efficiency);
        assert!(mem_floor > 10.0 * compute, "FC should be memory-bound");
    }

    #[test]
    fn gan_cost_exceeds_sum_of_parts_lower_bound() {
        // The three-phase schedule runs D forward three times and backward
        // three times: the GAN step must cost at least 3x one D fwd+bwd.
        let gpu = GpuModel::gtx1080();
        let g = models::dcgan_generator_spec(100, 3, 32);
        let d = models::dcgan_discriminator_spec(3, 32);
        let gan = gpu.gan_training_cost(&g, &d, 32);
        let d_fwd = gpu.forward_cost(&d, 32);
        assert!(gan.time_s >= 3.0 * d_fwd.time_s);
    }

    #[test]
    fn spec_and_work_costing_agree() {
        // The NetworkSpec conveniences are thin wrappers over the lowered
        // LayerWork path — pricing the same plan must give the same cost.
        let gpu = GpuModel::gtx1080();
        let net = models::alexnet_spec();
        let works = net.work();
        let f = gpu.forward_cost(&net, 16);
        let fw = gpu.forward_cost_work(&works, 16);
        assert_eq!(f, fw);
        let t = gpu.training_cost(&net, 16);
        let tw = gpu.training_cost_work(&works, 16);
        assert_eq!(t, tw);
    }

    #[test]
    fn model_clone_round_trips() {
        let gpu = GpuModel::gtx1080();
        assert_eq!(gpu.clone(), gpu);
        assert_eq!(gpu.name, "GTX 1080");
    }

    #[test]
    fn cost_arithmetic() {
        let a = GpuCost {
            time_s: 1.0,
            energy_j: 2.0,
        };
        let b = a.times(3.0);
        assert_eq!(b.time_s, 3.0);
        let mut c = a;
        c.add(b);
        assert_eq!(c.energy_j, 8.0);
    }
}
