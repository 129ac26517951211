//! Compilation of network layers into bank control programs.
//!
//! The paper's control unit "offloads the computation from the host CPU and
//! orchestrates the data transfers between memory subarrays and morphable
//! subarrays in training and testing based on the algorithm configurations"
//! (§III-A.3 (e)). This module is that orchestration: given a stack of
//! CONV / POOL / FC / activation stages ([`NetStage`]),
//! [`CompiledNetwork`] issues the [`Instruction`]s that program the
//! morphable subarrays, morph them into compute mode, and chain each input
//! through the layers via memory subarrays of a [`Bank`]. The same program
//! trains a fully connected stack on the bank
//! ([`CompiledNetwork::train_step`]): error back-propagation runs on each
//! layer's transposed grid and the control unit writes the tuned weights
//! back with [`Instruction::ProgramTraining`].

use crate::isa::{Instruction, SubarrayMode};
use crate::subarray::Bank;
use reram_crossbar::CrossbarConfig;
use reram_nn::activations::Activation;
use reram_telemetry::Span;
use reram_tensor::{ops, Matrix, Shape4, Tensor};

/// Why a layer stack could not be compiled into a bank program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// No stages were given.
    EmptyNetwork,
    /// A stage's input width does not match its predecessor's output.
    ShapeMismatch {
        /// 0-based index of the offending stage.
        stage: usize,
        /// Input width the chain provides.
        expected: usize,
        /// Input width the stage declares.
        got: usize,
    },
    /// A stage's spatial parameters don't fit its input tensor (zero
    /// stride, window larger than the feature map, ...).
    BadGeometry {
        /// 0-based index of the offending stage.
        stage: usize,
        /// What is wrong.
        reason: &'static str,
    },
    /// A stage the bank cannot train: only FC stages with a ReLU or no
    /// activation do, because the ReLU derivative is recoverable from the
    /// buffered outputs.
    Untrainable {
        /// 0-based index of the first such stage.
        stage: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::EmptyNetwork => write!(f, "cannot compile an empty network"),
            CompileError::ShapeMismatch {
                stage,
                expected,
                got,
            } => write!(
                f,
                "stage {stage}: chain output {expected} does not feed stage input {got}"
            ),
            CompileError::BadGeometry { stage, reason } => {
                write!(f, "stage {stage}: {reason}")
            }
            CompileError::Untrainable { stage } => write!(
                f,
                "stage {stage}: only FC stages with ReLU or no activation train on the bank"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// One stage of a generalized compiled network: the layer menagerie of
/// §II-A.1 expressed against the bank ISA instead of host math.
#[derive(Debug, Clone)]
pub enum NetStage {
    /// Convolution. `weights` is the kernel tensor flattened row-major to
    /// `(C_out × C_in·K·K)` — one kernel per crossbar row, Fig. 4(a)'s
    /// mapping — executed as one MVM per output position over the
    /// im2col-unrolled receptive fields. No bias (functional conv layers
    /// initialise bias to zero).
    Conv {
        /// Flattened kernel matrix `(C_out × C_in·K·K)`.
        weights: Matrix,
        /// Square kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Peripheral activation fused onto the bitline outputs.
        activation: Option<Activation>,
    },
    /// Max pooling via the bank's pooling peripheral
    /// ([`Instruction::MaxPool`]).
    MaxPool {
        /// Square pooling window.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Fully connected layer over the flattened `(C·H·W)` feature map.
    Fc {
        /// Weight matrix `(out × in)`.
        weights: Matrix,
        /// Peripheral activation fused onto the bitline outputs.
        activation: Option<Activation>,
    },
    /// Standalone activation, applied by the control unit between memory
    /// subarrays (no crossbar involved).
    Act(Activation),
}

/// Feature-map shape `(c, h, w)`.
type MapShape = (usize, usize, usize);

/// Why a weighted stage with an empty matrix is rejected: a crossbar grid
/// cannot hold it.
const EMPTY_WEIGHTS: &str = "weight matrix has no rows or columns";

fn is_empty(w: &Matrix) -> bool {
    w.rows() == 0 || w.cols() == 0
}

/// A stage resolved against the feature map it receives, once, at compile
/// time: setup, the bank program and the float reference all read it.
#[derive(Debug)]
struct ResolvedStage {
    stage: NetStage,
    input: MapShape,
    output: MapShape,
    /// Morphable subarray holding the stage's grid. Only weighted stages
    /// read it; the others carry the index the next weighted stage gets.
    subarray: usize,
}

/// Which grids the setup program has written. Ordered: training needs
/// everything inference needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Grids {
    Unprogrammed,
    /// Forward grids (`Program`).
    Forward,
    /// Forward and transposed grids (`ProgramTraining`).
    Training,
}

/// A compiled network: CONV / POOL / FC / activation stages lowered onto
/// one [`Bank`]. An FC-only stack is the plain MLP case: each layer is one
/// `Compute` between consecutive slots, and it can also train on the bank.
///
/// Memory map for `depth` stages: slot `i` holds the feature map entering
/// stage `i` (slot 0 the input, slot `depth` the output; layout `(C, H, W)`
/// flattened channel-major), slot `depth + 1` stages the current im2col
/// window and slot `depth + 2` collects its MVM result during CONV
/// execution, and slots `depth + 3` / `depth + 4` ping-pong the error
/// during training.
#[derive(Debug)]
pub struct CompiledNetwork {
    stages: Vec<ResolvedStage>,
    input_shape: MapShape,
    bank: Bank,
    grids: Grids,
}

impl CompiledNetwork {
    /// Compiles a stage stack for inputs of shape `(c, h, w)` onto a fresh
    /// bank: one morphable subarray per weighted stage and `depth + 5`
    /// memory subarrays.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::EmptyNetwork`] for an empty stack,
    /// [`CompileError::ShapeMismatch`] when a weight matrix does not match
    /// the feature map the chain delivers, and
    /// [`CompileError::BadGeometry`] when a window/stride does not fit its
    /// input tensor or a weight matrix has no rows or columns.
    #[must_use = "the compiled network is the result"]
    pub fn compile(
        input: (usize, usize, usize),
        stages: Vec<NetStage>,
        config: &CrossbarConfig,
    ) -> Result<Self, CompileError> {
        if stages.is_empty() {
            return Err(CompileError::EmptyNetwork);
        }
        let mut resolved = Vec::with_capacity(stages.len());
        let mut shape = input;
        let mut subarray = 0;
        for (i, stage) in stages.into_iter().enumerate() {
            let output = resolve(i, &stage, shape)?;
            let weighted = matches!(stage, NetStage::Conv { .. } | NetStage::Fc { .. });
            resolved.push(ResolvedStage {
                stage,
                input: shape,
                output,
                subarray,
            });
            subarray += usize::from(weighted);
            shape = output;
        }
        let bank = Bank::new(subarray.max(1), resolved.len() + 5, config);
        Ok(Self {
            stages: resolved,
            input_shape: input,
            bank,
            grids: Grids::Unprogrammed,
        })
    }

    /// Number of stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Input feature-map shape `(c, h, w)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.input_shape
    }

    /// Output feature-map shape `(c, h, w)`.
    pub fn output_shape(&self) -> (usize, usize, usize) {
        self.stages.last().map_or(self.input_shape, |s| s.output)
    }

    /// Flattened input length.
    pub fn input_len(&self) -> usize {
        let (c, h, w) = self.input_shape();
        c * h * w
    }

    /// Flattened output length.
    pub fn output_len(&self) -> usize {
        let (c, h, w) = self.output_shape();
        c * h * w
    }

    /// Bank statistics accumulated so far.
    pub fn stats(&self) -> crate::subarray::BankStats {
        self.bank.stats()
    }

    /// The setup program: writes every weighted stage's grids and morphs
    /// its subarray into compute mode, unless `grids` are already there.
    fn ensure_setup(&mut self, grids: Grids) {
        if self.grids >= grids {
            return;
        }
        for s in &self.stages {
            let (NetStage::Conv { weights, .. } | NetStage::Fc { weights, .. }) = &s.stage else {
                continue;
            };
            let (subarray, weights) = (s.subarray, weights.clone());
            self.bank.execute(if grids == Grids::Training {
                Instruction::ProgramTraining { subarray, weights }
            } else {
                Instruction::Program { subarray, weights }
            });
            self.bank.execute(Instruction::SetMode {
                subarray,
                mode: SubarrayMode::Compute,
            });
        }
        self.grids = grids;
    }

    /// Runs one input (flattened `(C, H, W)` channel-major) through the
    /// compiled network on the bank, leaving every stage's input and output
    /// in its memory slot. The setup program runs lazily before the first
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()`.
    #[expect(
        clippy::expect_used,
        reason = "every stage leaves its output in the next slot"
    )]
    pub fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        let _span = Span::enter("bank/net_forward");
        assert_eq!(
            input.len(),
            self.input_len(),
            "input length {} vs expected {}",
            input.len(),
            self.input_len()
        );
        self.ensure_setup(Grids::Forward);
        self.bank.execute(Instruction::LoadMem {
            mem: 0,
            data: input.to_vec(),
        });
        let depth = self.depth();
        let (window, result) = (depth + 1, depth + 2);
        for (i, s) in self.stages.iter().enumerate() {
            let (in_c, in_h, in_w) = s.input;
            match &s.stage {
                NetStage::Conv {
                    k,
                    stride,
                    pad,
                    activation,
                    ..
                } => {
                    // The control unit unrolls the stored feature map into
                    // receptive fields (Fig. 4's 1152×1 input vectors) and
                    // issues one MVM per output position.
                    #[expect(clippy::expect_used, reason = "slot written by the previous stage")]
                    let data = self
                        .bank
                        .execute(Instruction::ReadMem { mem: i })
                        .expect("feature map buffered");
                    let t = Tensor::from_vec(Shape4::new(1, in_c, in_h, in_w), data);
                    let patches = ops::im2col(&t, 0, *k, *k, *stride, *pad);
                    let (out_c, oh, ow) = s.output;
                    let npos = oh * ow;
                    let mut out = vec![0.0f32; out_c * npos];
                    for pos in 0..npos {
                        self.bank.execute(Instruction::LoadMem {
                            mem: window,
                            data: patches.row(pos).to_vec(),
                        });
                        self.bank.execute(Instruction::Compute {
                            subarray: s.subarray,
                            src_mem: window,
                            dst_mem: result,
                            activation: *activation,
                        });
                        #[expect(
                            clippy::expect_used,
                            reason = "result slot written by the Compute just issued"
                        )]
                        let y = self
                            .bank
                            .execute(Instruction::ReadMem { mem: result })
                            .expect("conv result buffered");
                        for (oc, &v) in y.iter().enumerate() {
                            out[oc * npos + pos] = v;
                        }
                    }
                    self.bank.execute(Instruction::LoadMem {
                        mem: i + 1,
                        data: out,
                    });
                }
                NetStage::MaxPool { k, stride } => {
                    self.bank.execute(Instruction::MaxPool {
                        src_mem: i,
                        dst_mem: i + 1,
                        c: in_c,
                        k: *k,
                        stride: *stride,
                        in_h,
                        in_w,
                    });
                }
                NetStage::Fc { activation, .. } => {
                    self.bank.execute(Instruction::Compute {
                        subarray: s.subarray,
                        src_mem: i,
                        dst_mem: i + 1,
                        activation: *activation,
                    });
                }
                NetStage::Act(a) => {
                    #[expect(clippy::expect_used, reason = "slot written by the previous stage")]
                    let mut data = self
                        .bank
                        .execute(Instruction::ReadMem { mem: i })
                        .expect("feature map buffered");
                    for v in &mut data {
                        *v = a.apply(*v);
                    }
                    self.bank.execute(Instruction::LoadMem { mem: i + 1, data });
                }
            }
        }
        self.bank
            .execute(Instruction::ReadMem { mem: depth })
            .expect("network output buffered")
    }

    /// One SGD step on `(input, target)` under mean-squared error, on the
    /// bank. Returns the loss before the update.
    ///
    /// The forward pass and every error-propagation product run on the
    /// bank; the control unit computes the loss gradient, masks it by the
    /// ReLU derivative (recovered from the buffered outputs), forms the
    /// weight-gradient outer products, tunes the master weights (the
    /// [`NetStage::Fc`] matrices, so [`CompiledNetwork::forward_exact`]
    /// follows them) and writes them back with `ProgramTraining`. The
    /// first step programs the transposed grids it propagates errors
    /// through.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Untrainable`], with no instruction issued,
    /// unless every stage is [`NetStage::Fc`] with a ReLU or no activation.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()` or
    /// `target.len() != self.output_len()`.
    pub fn train_step(
        &mut self,
        input: &[f32],
        target: &[f32],
        lr: f32,
    ) -> Result<f32, CompileError> {
        let relu = self
            .stages
            .iter()
            .enumerate()
            .map(|(stage, s)| match s.stage {
                NetStage::Fc {
                    activation: None, ..
                } => Ok(false),
                NetStage::Fc {
                    activation: Some(Activation::Relu),
                    ..
                } => Ok(true),
                _ => Err(CompileError::Untrainable { stage }),
            })
            .collect::<Result<Vec<bool>, _>>()?;
        assert_eq!(target.len(), self.output_len(), "target length");
        let _span = Span::enter("bank/train_step");
        self.ensure_setup(Grids::Training);
        let out = self.forward(input);
        let n = out.len() as f32;
        let loss: f32 = out
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f32>()
            / n;

        // Error at the output (dL/dy for MSE), held in the error slots.
        let depth = self.depth();
        let (err_a, err_b) = (depth + 3, depth + 4);
        let mut error: Vec<f32> = out
            .iter()
            .zip(target)
            .map(|(y, t)| 2.0 * (y - t) / n)
            .collect();
        for i in (0..depth).rev() {
            // This stage's output (slot i+1) for the ReLU derivative, and
            // its input (slot i) for the weight gradient.
            #[expect(
                clippy::expect_used,
                reason = "forward pass buffered this slot earlier in the step"
            )]
            let out_act = self
                .bank
                .execute(Instruction::ReadMem { mem: i + 1 })
                .expect("activation buffered");
            if relu[i] {
                for (e, &a) in error.iter_mut().zip(&out_act) {
                    if a <= 0.0 {
                        *e = 0.0;
                    }
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "forward pass buffered this slot earlier in the step"
            )]
            let in_act = self
                .bank
                .execute(Instruction::ReadMem { mem: i })
                .expect("activation buffered");
            // Weight gradient e ⊗ x (control-unit outer-product logic),
            // applied to the master copy; the grids still hold the old
            // weights until the write-back below.
            let s = &mut self.stages[i];
            if let NetStage::Fc { weights, .. } = &mut s.stage {
                for (row, &e) in weights.data_mut().chunks_mut(in_act.len()).zip(&error) {
                    for (w, &x) in row.iter_mut().zip(&in_act) {
                        *w -= lr * (e * x);
                    }
                }
            }
            // Propagate the error through the transposed grid on the bank.
            if i > 0 {
                self.bank.execute(Instruction::LoadMem {
                    mem: err_a,
                    data: error,
                });
                self.bank.execute(Instruction::ComputeTransposed {
                    subarray: s.subarray,
                    src_mem: err_a,
                    dst_mem: err_b,
                });
                #[expect(
                    clippy::expect_used,
                    reason = "error slot written by the ComputeTransposed just issued"
                )]
                let propagated = self
                    .bank
                    .execute(Instruction::ReadMem { mem: err_b })
                    .expect("propagated error");
                error = propagated;
            }
        }

        // Weight update cycle: rewrite both grids of every layer.
        for s in &self.stages {
            if let NetStage::Fc { weights, .. } = &s.stage {
                self.bank.execute(Instruction::ProgramTraining {
                    subarray: s.subarray,
                    weights: weights.clone(),
                });
            }
        }
        Ok(loss)
    }

    /// Reference result computed in floating point (no crossbar).
    pub fn forward_exact(&self, input: &[f32]) -> Vec<f32> {
        let mut x = input.to_vec();
        for s in &self.stages {
            let (c, h, w) = s.input;
            match &s.stage {
                NetStage::Conv {
                    weights,
                    k,
                    stride,
                    pad,
                    activation,
                } => {
                    let t = Tensor::from_vec(Shape4::new(1, c, h, w), x);
                    let patches = ops::im2col(&t, 0, *k, *k, *stride, *pad);
                    let (out_c, oh, ow) = s.output;
                    let npos = oh * ow;
                    let mut out = vec![0.0f32; out_c * npos];
                    for pos in 0..npos {
                        let y = weights.matvec(patches.row(pos));
                        for (oc, &v) in y.iter().enumerate() {
                            out[oc * npos + pos] = activation.map_or(v, |a| a.apply(v));
                        }
                    }
                    x = out;
                }
                NetStage::MaxPool { k, stride } => {
                    let t = Tensor::from_vec(Shape4::new(1, c, h, w), x);
                    x = ops::max_pool2d(&t, *k, *stride).0.into_vec();
                }
                NetStage::Fc {
                    weights,
                    activation,
                } => {
                    x = weights.matvec(&x);
                    if let Some(a) = activation {
                        for v in &mut x {
                            *v = a.apply(*v);
                        }
                    }
                }
                NetStage::Act(a) => {
                    for v in &mut x {
                        *v = a.apply(*v);
                    }
                }
            }
        }
        x
    }
}

/// Checks stage `i` against the feature map `(c, h, w)` it receives and
/// returns the map it produces.
fn resolve(i: usize, stage: &NetStage, (c, h, w): MapShape) -> Result<MapShape, CompileError> {
    let bad = |reason| CompileError::BadGeometry { stage: i, reason };
    let mismatch = |expected, got| CompileError::ShapeMismatch {
        stage: i,
        expected,
        got,
    };
    match stage {
        NetStage::Conv { weights, .. } | NetStage::Fc { weights, .. } if is_empty(weights) => {
            Err(bad(EMPTY_WEIGHTS))
        }
        NetStage::Conv {
            weights,
            k,
            stride,
            pad,
            ..
        } => {
            if *k == 0 || *stride == 0 {
                return Err(bad("conv kernel and stride must be positive"));
            }
            if h + 2 * pad < *k || w + 2 * pad < *k {
                return Err(bad("conv kernel larger than padded input"));
            }
            if weights.cols() != c * k * k {
                return Err(mismatch(c * k * k, weights.cols()));
            }
            let (oh, ow) = ops::conv_output_hw(h, w, *k, *k, *stride, *pad);
            Ok((weights.rows(), oh, ow))
        }
        NetStage::MaxPool { k, stride } => {
            if *k == 0 || *stride == 0 {
                return Err(bad("pool window and stride must be positive"));
            }
            if h < *k || w < *k {
                return Err(bad("pool window larger than input"));
            }
            Ok((c, (h - k) / stride + 1, (w - k) / stride + 1))
        }
        NetStage::Fc { weights, .. } => {
            if weights.cols() != c * h * w {
                return Err(mismatch(c * h * w, weights.cols()));
            }
            Ok((weights.rows(), 1, 1))
        }
        NetStage::Act(_) => Ok((c, h, w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_tensor::Shape2;

    fn stage(out: usize, inp: usize, act: Option<Activation>, salt: usize) -> NetStage {
        NetStage::Fc {
            weights: Matrix::from_fn(Shape2::new(out, inp), |r, c| {
                (((r * 7 + c * 5 + salt) % 13) as f32 - 6.0) / 8.0
            }),
            activation: act,
        }
    }

    fn mlp() -> CompiledNetwork {
        CompiledNetwork::compile(
            (8, 1, 1),
            vec![
                stage(10, 8, Some(Activation::Relu), 1),
                stage(6, 10, Some(Activation::Relu), 2),
                stage(3, 6, None, 3),
            ],
            &CrossbarConfig::default(),
        )
        .expect("compiles")
    }

    #[test]
    fn shapes_and_depth() {
        let m = mlp();
        assert_eq!(m.depth(), 3);
        assert_eq!(m.input_len(), 8);
        assert_eq!(m.output_len(), 3);
    }

    #[test]
    fn inference_matches_exact_within_quantization() {
        let mut m = mlp();
        for k in 0..4 {
            let input: Vec<f32> = (0..8).map(|i| ((i + k) % 5) as f32 / 5.0 - 0.4).collect();
            let got = m.forward(&input);
            let want = m.forward_exact(&input);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 0.05, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn stats_accumulate_per_inference() {
        let mut m = mlp();
        let _ = m.forward(&[0.1; 8]);
        let after_one = m.stats();
        let _ = m.forward(&[0.2; 8]);
        let after_two = m.stats();
        assert_eq!(after_one.mvms, 3);
        assert_eq!(after_two.mvms, 6);
        assert_eq!(after_two.programs, 3); // setup only once
    }

    #[test]
    fn rejects_mismatched_layers() {
        let err = CompiledNetwork::compile(
            (8, 1, 1),
            vec![stage(10, 8, None, 1), stage(6, 9, None, 2)],
            &CrossbarConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CompileError::ShapeMismatch {
                stage: 1,
                expected: 10,
                got: 9
            }
        );
        assert!(err.to_string().contains("does not feed"));
    }

    #[test]
    fn rejects_empty() {
        let err =
            CompiledNetwork::compile((1, 1, 1), vec![], &CrossbarConfig::default()).unwrap_err();
        assert_eq!(err, CompileError::EmptyNetwork);
        // A weight matrix a grid cannot hold is rejected up front.
        for w in [
            Matrix::zeros(Shape2::new(0, 4)),
            Matrix::zeros(Shape2::new(3, 0)),
        ] {
            let err = CompiledNetwork::compile(
                (4, 1, 1),
                vec![
                    NetStage::Fc {
                        weights: Matrix::zeros(Shape2::new(4, 4)),
                        activation: Some(Activation::Relu),
                    },
                    NetStage::Fc {
                        weights: w,
                        activation: None,
                    },
                ],
                &CrossbarConfig::default(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                CompileError::BadGeometry {
                    stage: 1,
                    reason: EMPTY_WEIGHTS
                }
            );
        }
    }

    /// The 4 → 6 (ReLU) → 2 MLP's weights.
    fn trainable_weights() -> (Matrix, Matrix) {
        (
            Matrix::from_fn(Shape2::new(6, 4), |r, c| {
                (((r * 7 + c * 5) % 11) as f32 - 5.0) / 10.0
            }),
            Matrix::from_fn(Shape2::new(2, 6), |r, c| {
                (((r * 3 + c * 7 + 1) % 11) as f32 - 5.0) / 10.0
            }),
        )
    }

    fn trainable() -> CompiledNetwork {
        let (w0, w1) = trainable_weights();
        CompiledNetwork::compile(
            (4, 1, 1),
            vec![
                NetStage::Fc {
                    weights: w0,
                    activation: Some(Activation::Relu),
                },
                NetStage::Fc {
                    weights: w1,
                    activation: None,
                },
            ],
            &CrossbarConfig::default(),
        )
        .expect("compiles")
    }

    #[test]
    fn trainable_forward_matches_host_math() {
        let mut m = trainable();
        let (w0, w1) = trainable_weights();
        let x = [0.4f32, -0.2, 0.1, 0.3];
        let y = m.forward(&x);
        // Host reference.
        let h: Vec<f32> = w0.matvec(&x).iter().map(|v| v.max(0.0)).collect();
        let want = w1.matvec(&h);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn bank_training_reduces_loss() {
        let mut m = trainable();
        let x = [0.4f32, -0.2, 0.1, 0.3];
        let target = [0.5f32, -0.25];
        let first = m.train_step(&x, &target, 0.2).expect("trainable");
        let mut last = first;
        for _ in 0..30 {
            last = m.train_step(&x, &target, 0.2).expect("trainable");
        }
        assert!(
            last < first * 0.2,
            "bank-level training failed to descend: {first} -> {last}"
        );
    }

    #[test]
    fn bank_training_tracks_float_training() {
        // Train the same network host-side in f32; both trajectories end
        // near the target.
        let mut m = trainable();
        let (mut w0, mut w1) = trainable_weights();
        let x = [0.4f32, -0.2, 0.1, 0.3];
        let target = [0.5f32, -0.25];
        for _ in 0..30 {
            let _ = m.train_step(&x, &target, 0.2).expect("trainable");
            // Host-side reference step.
            let h_pre = w0.matvec(&x);
            let h: Vec<f32> = h_pre.iter().map(|v| v.max(0.0)).collect();
            let y = w1.matvec(&h);
            let n = y.len() as f32;
            let e1: Vec<f32> = y
                .iter()
                .zip(&target)
                .map(|(a, b)| 2.0 * (a - b) / n)
                .collect();
            let mut g1 = Matrix::zeros(w1.shape());
            for r in 0..w1.rows() {
                for c in 0..w1.cols() {
                    g1.set(r, c, e1[r] * h[c]);
                }
            }
            let mut e0 = w1.transposed().matvec(&e1);
            for (e, &p) in e0.iter_mut().zip(&h_pre) {
                if p <= 0.0 {
                    *e = 0.0;
                }
            }
            let mut g0 = Matrix::zeros(w0.shape());
            for r in 0..w0.rows() {
                for c in 0..w0.cols() {
                    g0.set(r, c, e0[r] * x[c]);
                }
            }
            for (w, g) in w1.data_mut().iter_mut().zip(g1.data()) {
                *w -= 0.2 * g;
            }
            for (w, g) in w0.data_mut().iter_mut().zip(g0.data()) {
                *w -= 0.2 * g;
            }
        }
        // Final outputs of both within a small band of the target, and the
        // master weights the float reference reads follow the bank's
        // updates.
        let y_bank = m.forward(&x);
        let y_master = m.forward_exact(&x);
        let h: Vec<f32> = w0.matvec(&x).iter().map(|v| v.max(0.0)).collect();
        let y_host = w1.matvec(&h);
        for i in 0..2 {
            assert!(
                (y_bank[i] - target[i]).abs() < 0.1,
                "bank {} vs {}",
                y_bank[i],
                target[i]
            );
            assert!(
                (y_host[i] - target[i]).abs() < 0.1,
                "host {} vs {}",
                y_host[i],
                target[i]
            );
            assert!(
                (y_master[i] - target[i]).abs() < 0.1,
                "master {} vs {}",
                y_master[i],
                target[i]
            );
        }
    }

    #[test]
    fn training_issues_program_instructions() {
        let mut m = trainable();
        let _ = m
            .train_step(&[0.1; 4], &[0.0, 0.0], 0.1)
            .expect("trainable");
        // Setup: 2 ProgramTraining (2 grids each) + 2 SetMode; forward:
        // LoadMem + 2 Compute + ReadMem; backward: 4 ReadMem, then LoadMem,
        // ComputeTransposed and ReadMem for layer 1; 2 ProgramTraining.
        let s = m.stats();
        assert_eq!((s.programs, s.mvms, s.instructions), (8, 3, 17));
    }

    #[test]
    fn training_after_inference_programs_the_transposed_grids() {
        let mut m = trainable();
        let x = [0.4f32, -0.2, 0.1, 0.3];
        let _ = m.forward(&x);
        assert_eq!(m.stats().programs, 2);
        let _ = m.train_step(&x, &[0.5, -0.25], 0.2).expect("trainable");
        // Setup again with both grids (2 × 2), then the write-back (2 × 2).
        assert_eq!(m.stats().programs, 10);
        let _ = m.forward(&x);
        assert_eq!(m.stats().programs, 10);
    }

    #[test]
    fn untrainable_stacks_are_rejected_untouched() {
        let cases = [
            (small_cnn(), 0),
            (
                CompiledNetwork::compile(
                    (8, 1, 1),
                    vec![
                        stage(10, 8, Some(Activation::Relu), 1),
                        stage(6, 10, Some(Activation::Tanh), 2),
                        stage(3, 6, None, 3),
                    ],
                    &CrossbarConfig::default(),
                )
                .expect("compiles"),
                1,
            ),
        ];
        for (mut m, stage) in cases {
            let (inputs, outputs) = (m.input_len(), m.output_len());
            let err = m
                .train_step(&vec![0.1; inputs], &vec![0.0; outputs], 0.1)
                .unwrap_err();
            assert_eq!(err, CompileError::Untrainable { stage });
            assert!(err.to_string().contains("train on the bank"));
            assert_eq!(m.stats(), crate::subarray::BankStats::default());
        }
    }

    fn small_cnn() -> CompiledNetwork {
        // 2ch 6x6 -> conv(3 kernels 3x3, relu) -> pool 2/2 -> tanh -> fc 4.
        let conv_w = Matrix::from_fn(Shape2::new(3, 2 * 3 * 3), |r, c| {
            (((r * 5 + c * 3) % 11) as f32 - 5.0) / 12.0
        });
        let fc_w = Matrix::from_fn(Shape2::new(4, 3 * 2 * 2), |r, c| {
            (((r * 7 + c * 2 + 3) % 9) as f32 - 4.0) / 8.0
        });
        CompiledNetwork::compile(
            (2, 6, 6),
            vec![
                NetStage::Conv {
                    weights: conv_w,
                    k: 3,
                    stride: 1,
                    pad: 0,
                    activation: Some(Activation::Relu),
                },
                NetStage::MaxPool { k: 2, stride: 2 },
                NetStage::Act(Activation::Tanh),
                NetStage::Fc {
                    weights: fc_w,
                    activation: None,
                },
            ],
            &CrossbarConfig::default(),
        )
        .expect("compiles")
    }

    #[test]
    fn network_shapes_resolve() {
        let m = small_cnn();
        assert_eq!(m.depth(), 4);
        assert_eq!(m.input_shape(), (2, 6, 6));
        assert_eq!(m.input_len(), 72);
        assert_eq!(m.output_shape(), (4, 1, 1));
        assert_eq!(m.output_len(), 4);
    }

    #[test]
    fn network_conv_pool_fc_matches_exact_within_quantization() {
        let mut m = small_cnn();
        for k in 0..3 {
            let input: Vec<f32> = (0..72)
                .map(|i| (((i + k * 5) % 7) as f32 - 3.0) / 7.0)
                .collect();
            let got = m.forward(&input);
            let want = m.forward_exact(&input);
            assert_eq!(got.len(), 4);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 0.1, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn network_conv_issues_one_mvm_per_output_position() {
        let mut m = small_cnn();
        let _ = m.forward(&[0.1; 72]);
        // conv: 4x4 output positions = 16 MVMs, fc: 1 -> 17 total.
        assert_eq!(m.stats().mvms, 17);
        assert_eq!(m.stats().programs, 2); // conv + fc grids
    }

    #[test]
    fn network_rejects_bad_geometry_and_shapes() {
        let cfg = CrossbarConfig::default();
        let err = CompiledNetwork::compile(
            (1, 6, 6),
            vec![NetStage::Conv {
                weights: Matrix::zeros(Shape2::new(1, 9)),
                k: 3,
                stride: 0,
                pad: 0,
                activation: None,
            }],
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::BadGeometry { stage: 0, .. }));
        let err =
            CompiledNetwork::compile((1, 6, 6), vec![NetStage::MaxPool { k: 8, stride: 1 }], &cfg)
                .unwrap_err();
        assert!(matches!(err, CompileError::BadGeometry { stage: 0, .. }));
        let err = CompiledNetwork::compile(
            (1, 3, 3),
            vec![NetStage::Fc {
                weights: Matrix::zeros(Shape2::new(2, 10)),
                activation: None,
            }],
            &cfg,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CompileError::ShapeMismatch {
                stage: 0,
                expected: 9,
                got: 10
            }
        );
        // Empty weight matrices compile to nothing a grid can hold.
        let empty = CompileError::BadGeometry {
            stage: 0,
            reason: EMPTY_WEIGHTS,
        };
        let err = CompiledNetwork::compile(
            (4, 1, 1),
            vec![NetStage::Fc {
                weights: Matrix::zeros(Shape2::new(0, 4)),
                activation: None,
            }],
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, empty);
        let err = CompiledNetwork::compile(
            (2, 3, 3),
            vec![NetStage::Conv {
                weights: Matrix::zeros(Shape2::new(0, 18)),
                k: 3,
                stride: 1,
                pad: 0,
                activation: None,
            }],
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, empty);
        assert!(err.to_string().contains("no rows or columns"));
    }
}
