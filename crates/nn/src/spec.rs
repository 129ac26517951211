//! Geometry descriptions of networks for architectural cost modelling.
//!
//! The accelerator (reram-core) and GPU baseline (reram-gpu) both cost a
//! workload from its *shape* — layer topology, kernel sizes, feature-map
//! extents — not from activation values. [`NetworkSpec`] captures exactly
//! that, either extracted from a live [`crate::Network`] or constructed
//! directly for timing-only runs of ImageNet-scale models whose activations
//! we never materialize (see DESIGN.md, substitutions table).

use reram_tensor::Shape4;
use serde::{Deserialize, Serialize};

/// Geometry of one architecturally visible layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// Convolution: `in_c` channels of `in_h × in_w` → `out_c` channels.
    Conv {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel height/width (square kernels).
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Input feature-map height.
        in_h: usize,
        /// Input feature-map width.
        in_w: usize,
    },
    /// Fractional-strided convolution (GAN generator up-sampling, Fig. 7).
    FracConv {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel height/width (square kernels).
        k: usize,
        /// Up-sampling stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Input feature-map height.
        in_h: usize,
        /// Input feature-map width.
        in_w: usize,
    },
    /// Fully connected / inner product layer (Eq. 2).
    Fc {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Pooling over `k × k` windows.
    Pool {
        /// Channels.
        c: usize,
        /// Window size and stride.
        k: usize,
        /// Stride.
        stride: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
    },
    /// Elementwise activation over `elems` values per batch entry.
    Activation {
        /// Elements per batch entry.
        elems: usize,
    },
    /// Batch normalization over `elems` values per batch entry.
    BatchNorm {
        /// Elements per batch entry.
        elems: usize,
    },
}

impl LayerSpec {
    /// Whether the layer holds crossbar-mapped weights (a pipeline stage in
    /// the paper's Fig. 5 sense).
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            LayerSpec::Conv { .. } | LayerSpec::FracConv { .. } | LayerSpec::Fc { .. }
        )
    }

    /// Output spatial size of convolution-like layers, `None` otherwise.
    pub fn conv_output_hw(&self) -> Option<(usize, usize)> {
        match *self {
            LayerSpec::Conv {
                k,
                stride,
                pad,
                in_h,
                in_w,
                ..
            } => Some((
                (in_h + 2 * pad - k) / stride + 1,
                (in_w + 2 * pad - k) / stride + 1,
            )),
            LayerSpec::FracConv {
                k,
                stride,
                pad,
                in_h,
                in_w,
                ..
            } => Some((
                (in_h - 1) * stride + k - 2 * pad,
                (in_w - 1) * stride + k - 2 * pad,
            )),
            LayerSpec::Pool {
                k,
                stride,
                in_h,
                in_w,
                ..
            } => Some(((in_h - k) / stride + 1, (in_w - k) / stride + 1)),
            _ => None,
        }
    }

    /// Weight-matrix dimensions `(rows, cols)` as mapped to crossbars:
    /// rows = unrolled input vector length (wordlines), cols = output
    /// channels / features (bitlines) — the paper's Fig. 4(a) mapping.
    pub fn crossbar_matrix(&self) -> Option<(usize, usize)> {
        match *self {
            LayerSpec::Conv { in_c, out_c, k, .. } => Some((in_c * k * k, out_c)),
            // FCNN forward is a conv over the dilated map with the same
            // kernel volume (Fig. 7(a)).
            LayerSpec::FracConv { in_c, out_c, k, .. } => Some((in_c * k * k, out_c)),
            LayerSpec::Fc {
                in_features,
                out_features,
            } => Some((in_features, out_features)),
            _ => None,
        }
    }

    /// Number of input vectors (crossbar MVMs) needed for one example's
    /// forward pass through this layer — one per output spatial position
    /// for convolutions (the paper's "12544 cycles" of Fig. 4(a)), one for
    /// FC.
    pub fn mvm_count(&self) -> Option<usize> {
        match self {
            LayerSpec::Conv { .. } | LayerSpec::FracConv { .. } => {
                self.conv_output_hw().map(|(h, w)| h * w)
            }
            LayerSpec::Fc { .. } => Some(1),
            _ => None,
        }
    }

    /// Trainable parameter count (weights only; biases are negligible and
    /// the paper neglects them "for express clarity", Fig. 4).
    pub fn weight_count(&self) -> usize {
        match *self {
            LayerSpec::Conv { in_c, out_c, k, .. } | LayerSpec::FracConv { in_c, out_c, k, .. } => {
                in_c * out_c * k * k
            }
            LayerSpec::Fc {
                in_features,
                out_features,
            } => in_features * out_features,
            LayerSpec::BatchNorm { elems } => 2 * elems,
            _ => 0,
        }
    }

    /// Multiply-accumulate operations of one example's forward pass.
    pub fn forward_macs(&self) -> u64 {
        match *self {
            LayerSpec::Conv { in_c, out_c, k, .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "spatial variants always have output dimensions"
                )]
                let (oh, ow) = self.conv_output_hw().expect("conv has output hw");
                (in_c * k * k * out_c * oh * ow) as u64
            }
            LayerSpec::FracConv { in_c, out_c, k, .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "spatial variants always have output dimensions"
                )]
                let (oh, ow) = self.conv_output_hw().expect("frac conv has output hw");
                (in_c * k * k * out_c * oh * ow) as u64
            }
            LayerSpec::Fc {
                in_features,
                out_features,
            } => (in_features * out_features) as u64,
            LayerSpec::Pool { c, k, .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "spatial variants always have output dimensions"
                )]
                let (oh, ow) = self.conv_output_hw().expect("pool has output hw");
                (c * k * k * oh * ow) as u64
            }
            LayerSpec::Activation { elems } | LayerSpec::BatchNorm { elems } => elems as u64,
        }
    }

    /// Output elements per batch entry.
    pub fn output_elems(&self) -> usize {
        match *self {
            LayerSpec::Conv { out_c, .. } | LayerSpec::FracConv { out_c, .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "spatial variants always have output dimensions"
                )]
                let (oh, ow) = self.conv_output_hw().expect("output hw");
                out_c * oh * ow
            }
            LayerSpec::Fc { out_features, .. } => out_features,
            LayerSpec::Pool { c, .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "spatial variants always have output dimensions"
                )]
                let (oh, ow) = self.conv_output_hw().expect("output hw");
                c * oh * ow
            }
            LayerSpec::Activation { elems } | LayerSpec::BatchNorm { elems } => elems,
        }
    }
}

/// Coarse layer category carried by [`LayerWork`] so backends can apply
/// kind-specific cost rules without re-inspecting [`LayerSpec`] fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Convolution.
    Conv,
    /// Fractional-strided convolution.
    FracConv,
    /// Fully connected.
    Fc,
    /// Pooling.
    Pool,
    /// Elementwise activation.
    Activation,
    /// Batch normalization.
    BatchNorm,
}

/// Backend-neutral per-layer work quantities — the single lowering of a
/// [`LayerSpec`] that every cost model (ReRAM plan, GPU baseline) prices.
///
/// Backward-pass volumes follow PipeLayer §II-A.2: a weighted layer's
/// backward pass is two MVM groups of the forward volume each (error
/// back-propagation through `Wᵀ` plus weight-gradient accumulation), an
/// unweighted layer only routes the error (same volume as forward, no
/// gradient term) — consistent with the standard 3×/2× training-FLOPs rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerWork {
    /// Layer category.
    pub kind: LayerKind,
    /// Whether the layer holds crossbar-mapped weights.
    pub weighted: bool,
    /// Multiply-accumulates of one example's forward pass.
    pub forward_macs: u64,
    /// MACs of error back-propagation through the layer (`Wᵀ δ` for
    /// weighted layers, error routing for unweighted ones).
    pub error_macs: u64,
    /// MACs of weight-gradient accumulation (zero for unweighted layers).
    pub gradient_macs: u64,
    /// Trainable weight elements.
    pub weight_elems: u64,
    /// Output elements per batch entry.
    pub output_elems: u64,
    /// Forward crossbar MVMs per example (zero for unweighted layers).
    pub mvms: u64,
    /// Crossbar weight-matrix rows (unrolled input length; zero if
    /// unweighted).
    pub crossbar_rows: u64,
    /// Crossbar weight-matrix columns (output features; zero if unweighted).
    pub crossbar_cols: u64,
}

impl LayerWork {
    /// Total backward-pass MACs (error + weight gradient).
    pub fn backward_macs(&self) -> u64 {
        self.error_macs + self.gradient_macs
    }

    /// Total training MACs for one example (forward + backward).
    pub fn training_macs(&self) -> u64 {
        self.forward_macs + self.backward_macs()
    }
}

impl LayerSpec {
    /// The layer's category.
    pub fn kind(&self) -> LayerKind {
        match self {
            LayerSpec::Conv { .. } => LayerKind::Conv,
            LayerSpec::FracConv { .. } => LayerKind::FracConv,
            LayerSpec::Fc { .. } => LayerKind::Fc,
            LayerSpec::Pool { .. } => LayerKind::Pool,
            LayerSpec::Activation { .. } => LayerKind::Activation,
            LayerSpec::BatchNorm { .. } => LayerKind::BatchNorm,
        }
    }

    /// Lowers the layer geometry to its backend-neutral work quantities.
    pub fn work(&self) -> LayerWork {
        let weighted = self.is_weighted();
        let forward = self.forward_macs();
        let (rows, cols) = self.crossbar_matrix().unwrap_or((0, 0));
        LayerWork {
            kind: self.kind(),
            weighted,
            forward_macs: forward,
            error_macs: forward,
            gradient_macs: if weighted { forward } else { 0 },
            weight_elems: self.weight_count() as u64,
            output_elems: self.output_elems() as u64,
            mvms: if weighted {
                self.mvm_count().unwrap_or(0) as u64
            } else {
                0
            },
            crossbar_rows: rows as u64,
            crossbar_cols: cols as u64,
        }
    }
}

/// A whole network's geometry: ordered layer specs plus the input shape.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Network display name.
    pub name: String,
    /// Shape of one input batch entry (batch extent ignored).
    pub input: Shape4,
    /// Ordered layer geometries.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Creates a named spec.
    pub fn new(name: impl Into<String>, input: Shape4, layers: Vec<LayerSpec>) -> Self {
        Self {
            name: name.into(),
            input,
            layers,
        }
    }

    /// Number of weighted layers — the `L` of the paper's pipeline cycle
    /// formulas (§III-A.2).
    pub fn weighted_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weighted()).count()
    }

    /// Iterator over the weighted layers only.
    pub fn weighted_layers(&self) -> impl Iterator<Item = &LayerSpec> {
        self.layers.iter().filter(|l| l.is_weighted())
    }

    /// Total trainable parameters.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_count() as u64).sum()
    }

    /// Lowers every layer to its backend-neutral [`LayerWork`] — the one
    /// spec walk all cost models share (see `reram_core::plan`).
    pub fn work(&self) -> Vec<LayerWork> {
        self.layers.iter().map(LayerSpec::work).collect()
    }

    /// Total forward multiply-accumulates for one example.
    pub fn forward_macs(&self) -> u64 {
        self.layers.iter().map(LayerSpec::forward_macs).sum()
    }

    /// Total training multiply-accumulates for one example.
    ///
    /// Backward ≈ 2× forward for weighted layers (input gradient + weight
    /// gradient, each the same volume as the forward pass) — the standard
    /// 3× rule for training FLOPs.
    pub fn training_macs(&self) -> u64 {
        self.work().iter().map(LayerWork::training_macs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_conv() -> LayerSpec {
        // Fig. 4 example: 114x114x128 -> 112x112x256, 3x3 kernels.
        LayerSpec::Conv {
            in_c: 128,
            out_c: 256,
            k: 3,
            stride: 1,
            pad: 0,
            in_h: 114,
            in_w: 114,
        }
    }

    #[test]
    fn paper_fig4_numbers() {
        let l = paper_conv();
        assert_eq!(l.conv_output_hw(), Some((112, 112)));
        assert_eq!(l.crossbar_matrix(), Some((1152, 256)));
        assert_eq!(l.mvm_count(), Some(12544));
        assert_eq!(l.weight_count(), 3 * 3 * 128 * 256);
    }

    #[test]
    fn frac_conv_upsamples() {
        let l = LayerSpec::FracConv {
            in_c: 64,
            out_c: 32,
            k: 4,
            stride: 2,
            pad: 1,
            in_h: 8,
            in_w: 8,
        };
        assert_eq!(l.conv_output_hw(), Some((16, 16)));
        assert!(l.is_weighted());
        assert_eq!(l.crossbar_matrix(), Some((64 * 16, 32)));
    }

    #[test]
    fn fc_is_single_mvm() {
        let l = LayerSpec::Fc {
            in_features: 1024,
            out_features: 10,
        };
        assert_eq!(l.mvm_count(), Some(1));
        assert_eq!(l.crossbar_matrix(), Some((1024, 10)));
        assert_eq!(l.forward_macs(), 10240);
    }

    #[test]
    fn pool_and_activation_unweighted() {
        let p = LayerSpec::Pool {
            c: 16,
            k: 2,
            stride: 2,
            in_h: 8,
            in_w: 8,
        };
        let a = LayerSpec::Activation { elems: 100 };
        assert!(!p.is_weighted());
        assert!(!a.is_weighted());
        assert_eq!(p.conv_output_hw(), Some((4, 4)));
        assert_eq!(p.output_elems(), 16 * 16);
        assert_eq!(a.forward_macs(), 100);
    }

    #[test]
    fn network_spec_counts_weighted_layers() {
        let spec = NetworkSpec::new(
            "toy",
            Shape4::new(1, 1, 8, 8),
            vec![
                LayerSpec::Conv {
                    in_c: 1,
                    out_c: 4,
                    k: 3,
                    stride: 1,
                    pad: 1,
                    in_h: 8,
                    in_w: 8,
                },
                LayerSpec::Activation { elems: 256 },
                LayerSpec::Pool {
                    c: 4,
                    k: 2,
                    stride: 2,
                    in_h: 8,
                    in_w: 8,
                },
                LayerSpec::Fc {
                    in_features: 64,
                    out_features: 10,
                },
            ],
        );
        assert_eq!(spec.weighted_layer_count(), 2);
        assert_eq!(spec.total_weights(), (4 * 9 + 64 * 10) as u64);
        assert!(spec.training_macs() > 2 * spec.forward_macs());
    }

    #[test]
    fn layer_work_lowering_is_consistent() {
        let conv = paper_conv().work();
        assert_eq!(conv.kind, LayerKind::Conv);
        assert!(conv.weighted);
        assert_eq!(conv.forward_macs, paper_conv().forward_macs());
        assert_eq!(conv.error_macs, conv.forward_macs);
        assert_eq!(conv.gradient_macs, conv.forward_macs);
        assert_eq!(conv.mvms, 12544);
        assert_eq!((conv.crossbar_rows, conv.crossbar_cols), (1152, 256));

        let pool = LayerSpec::Pool {
            c: 16,
            k: 2,
            stride: 2,
            in_h: 8,
            in_w: 8,
        }
        .work();
        assert!(!pool.weighted);
        assert_eq!(pool.gradient_macs, 0);
        assert_eq!(pool.mvms, 0);
        assert_eq!(pool.backward_macs(), pool.forward_macs);
    }

    #[test]
    fn network_work_matches_mac_walks() {
        let spec = NetworkSpec::new(
            "toy",
            Shape4::new(1, 1, 8, 8),
            vec![
                LayerSpec::Conv {
                    in_c: 1,
                    out_c: 4,
                    k: 3,
                    stride: 1,
                    pad: 1,
                    in_h: 8,
                    in_w: 8,
                },
                LayerSpec::Activation { elems: 256 },
                LayerSpec::Fc {
                    in_features: 256,
                    out_features: 10,
                },
            ],
        );
        let work = spec.work();
        assert_eq!(work.len(), spec.layers.len());
        let fwd: u64 = work.iter().map(|w| w.forward_macs).sum();
        assert_eq!(fwd, spec.forward_macs());
        let train: u64 = work.iter().map(LayerWork::training_macs).sum();
        assert_eq!(train, spec.training_macs());
    }

    #[test]
    fn conv_macs_match_paper_example_scale() {
        // AlexNet-era sanity: the Fig. 4 layer alone is ~3.7 GMAC.
        let macs = paper_conv().forward_macs();
        assert_eq!(macs, 1152 * 256 * 12544);
    }
}
