//! Batch normalization, including ReGAN's virtual batch normalization.
//!
//! GAN training "usually operates the batch normalization before the
//! activation layer to improve its stability" (§II-A.3). ReGAN implements
//! *virtual* batch normalization in its wordline drivers (Fig. 10 Ⓐ):
//! "each example is normalized based on the statistics collected on a
//! reference batch … chosen once and fixed at the start of training", and
//! the hardware performs the subtraction and division with a *sub and
//! shift* unit whose "divisor is 2^n" — modelled here by the
//! [`BatchNorm::with_shift_divisor`] option that rounds the normalizer to a
//! power of two.

use crate::{Layer, LayerClass, LayerSpec};
use reram_tensor::{Shape4, Tensor};

/// Statistic source for normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormMode {
    /// Standard batch normalization: statistics of the current mini-batch.
    Batch,
    /// Virtual batch normalization: statistics of a reference batch frozen
    /// at the start of training (ReGAN Fig. 10 Ⓐ).
    Virtual,
}

/// Per-channel batch normalization with learnable scale and shift.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    mode: NormMode,
    channels: usize,
    eps: f32,
    momentum: f32,
    shift_divisor: bool,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    grad_gamma: Vec<f32>,
    grad_beta: Vec<f32>,
    /// Frozen reference statistics `(mean, inv_std)` for [`NormMode::Virtual`].
    reference: Option<(Vec<f32>, Vec<f32>)>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    /// Whether backward must differentiate through the statistics.
    through_stats: bool,
    /// Elements per channel in the normalized batch.
    m: usize,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `channels` feature channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize, mode: NormMode) -> Self {
        assert!(channels > 0, "zero channels");
        Self {
            mode,
            channels,
            eps: 1e-5,
            momentum: 0.1,
            shift_divisor: false,
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            grad_gamma: vec![0.0; channels],
            grad_beta: vec![0.0; channels],
            reference: None,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }

    /// Rounds the normalization divisor to the nearest power of two
    /// (ReGAN's sub-and-shift hardware).
    pub fn with_shift_divisor(mut self) -> Self {
        self.shift_divisor = true;
        self
    }

    /// The normalization mode.
    pub fn mode(&self) -> NormMode {
        self.mode
    }

    /// Whether the reference batch has been captured (virtual mode only).
    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    fn channel_stats(&self, input: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let s = input.shape();
        let m = (s.n * s.h * s.w) as f32;
        let mut mean = vec![0.0f32; self.channels];
        let mut var = vec![0.0f32; self.channels];
        for n in 0..s.n {
            for c in 0..s.c {
                for h in 0..s.h {
                    for w in 0..s.w {
                        mean[c] += input.at(n, c, h, w);
                    }
                }
            }
        }
        for mc in &mut mean {
            *mc /= m;
        }
        for n in 0..s.n {
            for c in 0..s.c {
                for h in 0..s.h {
                    for w in 0..s.w {
                        let d = input.at(n, c, h, w) - mean[c];
                        var[c] += d * d;
                    }
                }
            }
        }
        for vc in &mut var {
            *vc /= m;
        }
        (mean, var)
    }

    fn inv_std_from_var(&self, var: &[f32]) -> Vec<f32> {
        var.iter()
            .map(|&v| {
                let istd = 1.0 / (v + self.eps).sqrt();
                if self.shift_divisor {
                    // Round the divisor (std) to 2^n: istd becomes 2^-n.
                    let n = (1.0 / istd).log2().round();
                    2.0f32.powf(-n)
                } else {
                    istd
                }
            })
            .collect()
    }
}

impl Layer for BatchNorm {
    fn name(&self) -> &'static str {
        match self.mode {
            NormMode::Batch => "batch_norm",
            NormMode::Virtual => "virtual_batch_norm",
        }
    }

    fn class(&self) -> LayerClass {
        LayerClass::Auxiliary
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let s = input.shape();
        assert_eq!(
            s.c, self.channels,
            "batch_norm: {} channels, expected {}",
            s.c, self.channels
        );
        let (mean, inv_std, through_stats) = match (self.mode, train) {
            (NormMode::Batch, true) => {
                let (mean, var) = self.channel_stats(input);
                for c in 0..self.channels {
                    self.running_mean[c] =
                        (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                    self.running_var[c] =
                        (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
                }
                let istd = self.inv_std_from_var(&var);
                // Differentiating through statistics needs the exact istd;
                // with a shifted divisor the hardware treats stats as
                // constants, so backward does too.
                (mean, istd, !self.shift_divisor)
            }
            (NormMode::Batch, false) => {
                let istd = self.inv_std_from_var(&self.running_var.clone());
                (self.running_mean.clone(), istd, false)
            }
            (NormMode::Virtual, _) => {
                if self.reference.is_none() {
                    // First batch seen becomes the frozen reference batch.
                    let (mean, var) = self.channel_stats(input);
                    let istd = self.inv_std_from_var(&var);
                    self.reference = Some((mean, istd));
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the branch above just populated the reference stats"
                )]
                let (mean, istd) = self.reference.clone().expect("reference just set");
                (mean, istd, false)
            }
        };

        let xhat = Tensor::from_fn(s, |n, c, h, w| {
            (input.at(n, c, h, w) - mean[c]) * inv_std[c]
        });
        let out = Tensor::from_fn(s, |n, c, h, w| {
            self.gamma[c] * xhat.at(n, c, h, w) + self.beta[c]
        });
        if train {
            self.cache = Some(BnCache {
                xhat,
                inv_std,
                through_stats,
                m: s.n * s.h * s.w,
            });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Layer trait contract — backward follows a training forward"
        )]
        let cache = self
            .cache
            .as_ref()
            .expect("batch_norm backward before forward(train=true)");
        let s = grad_out.shape();
        assert_eq!(s, cache.xhat.shape(), "batch_norm backward shape mismatch");
        let m = cache.m as f32;

        // Parameter gradients.
        let mut sum_g = vec![0.0f32; self.channels];
        let mut sum_gx = vec![0.0f32; self.channels];
        for n in 0..s.n {
            for c in 0..s.c {
                for h in 0..s.h {
                    for w in 0..s.w {
                        let g = grad_out.at(n, c, h, w);
                        sum_g[c] += g;
                        sum_gx[c] += g * cache.xhat.at(n, c, h, w);
                    }
                }
            }
        }
        for c in 0..self.channels {
            self.grad_beta[c] += sum_g[c];
            self.grad_gamma[c] += sum_gx[c];
        }

        if cache.through_stats {
            // Full batch-norm backward.
            Tensor::from_fn(s, |n, c, h, w| {
                let g = grad_out.at(n, c, h, w);
                let xh = cache.xhat.at(n, c, h, w);
                self.gamma[c] * cache.inv_std[c] / m * (m * g - sum_g[c] - xh * sum_gx[c])
            })
        } else {
            // Statistics are constants (virtual BN / shifted divisor).
            Tensor::from_fn(s, |n, c, h, w| {
                grad_out.at(n, c, h, w) * self.gamma[c] * cache.inv_std[c]
            })
        }
    }

    fn apply_update(&mut self, lr: f32) {
        for c in 0..self.channels {
            self.gamma[c] -= lr * self.grad_gamma[c];
            self.beta[c] -= lr * self.grad_beta[c];
        }
        self.zero_grad();
    }

    fn zero_grad(&mut self) {
        self.grad_gamma = vec![0.0; self.channels];
        self.grad_beta = vec![0.0; self.channels];
    }

    fn clip_weights(&mut self, limit: f32) {
        for g in &mut self.gamma {
            *g = g.clamp(-limit, limit);
        }
        for b in &mut self.beta {
            *b = b.clamp(-limit, limit);
        }
    }

    fn param_count(&self) -> usize {
        2 * self.channels
    }

    fn output_shape(&self, input: Shape4) -> Shape4 {
        input
    }

    fn spec(&self, input: Shape4) -> Option<LayerSpec> {
        Some(LayerSpec::BatchNorm {
            elems: input.batch_stride(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_tensor::init::{seeded_rng, standard_normal};

    fn random_input(shape: Shape4, seed: u64) -> Tensor {
        let mut rng = seeded_rng(seed);
        Tensor::from_fn(shape, |_, _, _, _| 2.0 * standard_normal(&mut rng) + 1.0)
    }

    #[test]
    fn normalizes_to_zero_mean_unit_var() {
        let mut bn = BatchNorm::new(3, NormMode::Batch);
        let x = random_input(Shape4::new(8, 3, 4, 4), 1);
        let y = bn.forward(&x, true);
        let s = y.shape();
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..s.n {
                for h in 0..s.h {
                    for w in 0..s.w {
                        vals.push(y.at(n, c, h, w));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn batch_backward_gradient_check() {
        let mut bn = BatchNorm::new(2, NormMode::Batch);
        let x = random_input(Shape4::new(3, 2, 2, 2), 2);
        // Weighted loss so gradient does not vanish through normalization.
        let wts = random_input(x.shape(), 3);
        let y = bn.forward(&x, true);
        let _ = y;
        let gin = bn.backward(&wts);
        let eps = 1e-2;
        let loss =
            |bn: &mut BatchNorm, x: &Tensor| bn.forward(x, true).zip_map(&wts, |a, b| a * b).sum();
        for &(n, c, h, w) in &[(0usize, 0usize, 0usize, 0usize), (2, 1, 1, 1), (1, 0, 1, 0)] {
            let mut bn2 = BatchNorm::new(2, NormMode::Batch);
            let mut xp = x.clone();
            xp.add_at(n, c, h, w, eps);
            let mut xm = x.clone();
            xm.add_at(n, c, h, w, -eps);
            let num = (loss(&mut bn2, &xp) - loss(&mut bn2, &xm)) / (2.0 * eps);
            assert!(
                (num - gin.at(n, c, h, w)).abs() < 0.05,
                "numeric {num} vs analytic {}",
                gin.at(n, c, h, w)
            );
        }
    }

    #[test]
    fn virtual_mode_freezes_reference() {
        let mut bn = BatchNorm::new(2, NormMode::Virtual);
        assert!(!bn.has_reference());
        let reference = random_input(Shape4::new(4, 2, 3, 3), 4);
        let _ = bn.forward(&reference, true);
        assert!(bn.has_reference());
        // A wildly different second batch normalizes with the OLD stats:
        // outputs are not re-centred.
        let shifted = reference.map(|v| v + 100.0);
        let y = bn.forward(&shifted, true);
        assert!(
            y.mean() > 10.0,
            "virtual BN must not re-centre: {}",
            y.mean()
        );
    }

    #[test]
    fn virtual_backward_is_linear_scaling() {
        let mut bn = BatchNorm::new(1, NormMode::Virtual);
        let x = random_input(Shape4::new(4, 1, 2, 2), 5);
        let _ = bn.forward(&x, true);
        let g = Tensor::filled(x.shape(), 2.0);
        let gin = bn.backward(&g);
        // gin = g * gamma * inv_std, identical for all elements.
        let first = gin.data()[0];
        assert!(gin.data().iter().all(|&v| (v - first).abs() < 1e-6));
    }

    #[test]
    fn shift_divisor_rounds_to_power_of_two() {
        let mut bn = BatchNorm::new(1, NormMode::Batch).with_shift_divisor();
        let x = random_input(Shape4::new(8, 1, 4, 4), 6);
        let y = bn.forward(&x, true);
        // Output variance is within 4x of unit (divisor off by at most
        // sqrt(2) in each direction).
        let mean = y.mean();
        let var = y
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / y.len() as f32;
        assert!((0.25..4.0).contains(&var), "var {var}");
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1, NormMode::Batch);
        // Train on many batches to settle running stats.
        for seed in 0..20 {
            let x = random_input(Shape4::new(8, 1, 4, 4), seed);
            let _ = bn.forward(&x, true);
        }
        let x = random_input(Shape4::new(8, 1, 4, 4), 100);
        let y = bn.forward(&x, false);
        // Input has mean~1, std~2; running stats should roughly normalize.
        assert!(y.mean().abs() < 0.5, "eval mean {}", y.mean());
    }

    #[test]
    fn gamma_beta_update() {
        let mut bn = BatchNorm::new(1, NormMode::Batch);
        let x = random_input(Shape4::new(4, 1, 2, 2), 7);
        let _ = bn.forward(&x, true);
        let _ = bn.backward(&Tensor::ones(x.shape()));
        bn.apply_update(0.1);
        // beta moved against the gradient (sum of ones = 16).
        assert!((bn.beta[0] - (-1.6)).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm::new(3, NormMode::Batch);
        let _ = bn.forward(&Tensor::ones(Shape4::new(1, 2, 2, 2)), false);
    }
}
