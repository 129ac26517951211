//! Compilation of network layers into bank control programs.
//!
//! The paper's control unit "offloads the computation from the host CPU and
//! orchestrates the data transfers between memory subarrays and morphable
//! subarrays in training and testing based on the algorithm configurations"
//! (§III-A.3 (e)). This module is that orchestration: given a stack of
//! CONV / POOL / FC / activation stages ([`NetStage`]),
//! [`CompiledNetwork`] issues the [`Instruction`]s that program the
//! morphable subarrays, morph them into compute mode, and chain each input
//! through the layers via memory subarrays of a [`Bank`];
//! [`TrainableMlp`] does the same for training a fully connected stack.

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
        }
    }
}

impl std::error::Error for CompileError {}

/// An MLP trained *on the bank*: forward MVMs and error back-propagation
/// both execute as bank instructions on the morphable subarrays (forward
/// grid + transposed grid per layer), with the control unit holding the
/// master weights and issuing [`Instruction::ProgramTraining`] updates —
/// the complete "testing and training" support the paper's abstract claims.
///
/// Activations are restricted to ReLU (or none): its derivative is
/// recoverable from the stored post-activation values, so the bank only
/// buffers each stage's output, exactly as Fig. 5(a)'s memory subarrays do.
#[derive(Debug)]
pub struct TrainableMlp {
    weights: Vec<Matrix>,
    relu: Vec<bool>,
    bank: Bank,
    setup_needed: bool,
}

impl TrainableMlp {
    /// Compiles a trainable MLP. `layers` gives each layer's weights and
    /// whether a ReLU follows it.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::EmptyNetwork`] if `layers` is empty,
    /// [`CompileError::BadGeometry`] if a weight matrix has no rows or
    /// columns and [`CompileError::ShapeMismatch`] if consecutive shapes
    /// are incompatible.
    #[must_use = "the compiled network is the result"]
    pub fn compile(
        layers: Vec<(Matrix, bool)>,
        config: &CrossbarConfig,
    ) -> Result<Self, CompileError> {
        if layers.is_empty() {
            return Err(CompileError::EmptyNetwork);
        }
        if let Some(stage) = layers.iter().position(|(w, _)| is_empty(w)) {
            return Err(CompileError::BadGeometry {
                stage,
                reason: EMPTY_WEIGHTS,
            });
        }
        for (i, w) in layers.windows(2).enumerate() {
            if w[1].0.cols() != w[0].0.rows() {
                return Err(CompileError::ShapeMismatch {
                    stage: i + 1,
                    expected: w[0].0.rows(),
                    got: w[1].0.cols(),
                });
            }
        }
        // Memory map: slot i = activation entering layer i (slot 0 = input,
        // slot L = network output), slots L+1/L+2 = error ping-pong.
        let depth = layers.len();
        let bank = Bank::new(depth, depth + 3, config);
        Ok(Self {
            weights: layers.iter().map(|(w, _)| w.clone()).collect(),
            relu: layers.iter().map(|&(_, r)| r).collect(),
            bank,
            setup_needed: true,
        })
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.weights.len()
    }

    /// The control unit's master copy of layer `i`'s weights.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn weights(&self, i: usize) -> &Matrix {
        &self.weights[i]
    }

    /// Bank statistics accumulated so far.
    pub fn stats(&self) -> crate::subarray::BankStats {
        self.bank.stats()
    }

    fn ensure_setup(&mut self) {
        if !self.setup_needed {
            return;
        }
        for (i, w) in self.weights.iter().enumerate() {
            self.bank.execute(Instruction::ProgramTraining {
                subarray: i,
                weights: w.clone(),
            });
            self.bank.execute(Instruction::SetMode {
                subarray: i,
                mode: SubarrayMode::Compute,
            });
        }
        self.setup_needed = false;
    }

    /// Forward pass on the bank, leaving every stage's activation in its
    /// memory subarray. Returns the network output.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the first layer's width.
    #[expect(
        clippy::expect_used,
        reason = "ReadMem of a slot this compiler wrote always yields data"
    )]
    pub fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.weights[0].cols(), "input length");
        self.ensure_setup();
        self.bank.execute(Instruction::LoadMem {
            mem: 0,
            data: input.to_vec(),
        });
        for i in 0..self.depth() {
            self.bank.execute(Instruction::Compute {
                subarray: i,
                src_mem: i,
                dst_mem: i + 1,
                activation: if self.relu[i] {
                    Some(Activation::Relu)
                } else {
                    None
                },
            });
        }
        self.bank
            .execute(Instruction::ReadMem { mem: self.depth() })
            .expect("read returns data")
    }

    /// One SGD training step on `(input, target)` under mean-squared error.
    /// Returns the loss before the update.
    ///
    /// The forward pass and every error-propagation product run on the
    /// bank; the control unit computes the loss gradient, masks it by the
    /// ReLU derivative (recovered from the buffered activations), forms the
    /// weight-gradient outer products, and writes the tuned weights back
    /// with `ProgramTraining`.
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` differs from the output width.
    pub fn train_step(&mut self, input: &[f32], target: &[f32], lr: f32) -> f32 {
        let _span = Span::enter("bank/train_step");
        let depth = self.depth();
        let out = self.forward(input);
        assert_eq!(target.len(), out.len(), "target length");
        let n = out.len() as f32;
        let loss: f32 = out
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f32>()
            / n;

        // Error at the output (dL/dy for MSE), held in the error slots.
        let err_a = depth + 1;
        let err_b = depth + 2;
        let mut grads: Vec<Matrix> = Vec::with_capacity(depth);
        let mut error: Vec<f32> = out
            .iter()
            .zip(target)
            .map(|(y, t)| 2.0 * (y - t) / n)
            .collect();

        for i in (0..depth).rev() {
            // Activation of this layer's output (slot i+1) for the ReLU
            // derivative, and its input (slot i) for the weight gradient.
            #[expect(
                clippy::expect_used,
                reason = "forward pass buffered this slot earlier in the step"
            )]
            let out_act = self
                .bank
                .execute(Instruction::ReadMem { mem: i + 1 })
                .expect("activation buffered");
            if self.relu[i] {
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
            // Weight gradient: e ⊗ x (control-unit outer-product logic).
            let w = &self.weights[i];
            let mut grad = Matrix::zeros(w.shape());
            for r in 0..w.rows() {
                for c in 0..w.cols() {
                    grad.set(r, c, error[r] * in_act[c]);
                }
            }
            grads.push(grad);
            // Propagate the error through the transposed grid on the bank.
            #[expect(
                clippy::expect_used,
                reason = "error slot written by the preceding backward stage"
            )]
            if i > 0 {
                self.bank.execute(Instruction::LoadMem {
                    mem: err_a,
                    data: error.clone(),
                });
                self.bank.execute(Instruction::ComputeTransposed {
                    subarray: i,
                    src_mem: err_a,
                    dst_mem: err_b,
                });
                error = self
                    .bank
                    .execute(Instruction::ReadMem { mem: err_b })
                    .expect("propagated error");
            }
        }

        // Weight update cycle: tune the weights and rewrite both grids.
        grads.reverse();
        for (i, grad) in grads.iter().enumerate() {
            for (w, g) in self.weights[i].data_mut().iter_mut().zip(grad.data()) {
                *w -= lr * g;
            }
            self.bank.execute(Instruction::ProgramTraining {
                subarray: i,
                weights: self.weights[i].clone(),
            });
        }
        loss
    }
}

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

/// A compiled inference network: CONV / POOL / FC / activation stages
/// lowered onto one [`Bank`]. An FC-only stack is the plain MLP case: each
/// layer is one `Compute` between the ping-pong slots.
///
/// Memory map: slots 0/1 ping-pong whole feature maps between stages
/// (layout `(C, H, W)` flattened channel-major), slot 2 stages the current
/// im2col window and slot 3 collects its MVM result during CONV execution.
#[derive(Debug)]
pub struct CompiledNetwork {
    stages: Vec<ResolvedStage>,
    input_shape: MapShape,
    bank: Bank,
    setup_done: bool,
}

impl CompiledNetwork {
    /// Compiles a stage stack for inputs of shape `(c, h, w)` onto a fresh
    /// bank: one morphable subarray per weighted stage, four memory
    /// subarrays.
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
        let bank = Bank::new(subarray.max(1), 4, config);
        Ok(Self {
            stages: resolved,
            input_shape: input,
            bank,
            setup_done: false,
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

    fn ensure_setup(&mut self) {
        if self.setup_done {
            return;
        }
        for s in &self.stages {
            let (NetStage::Conv { weights, .. } | NetStage::Fc { weights, .. }) = &s.stage else {
                continue;
            };
            self.bank.execute(Instruction::Program {
                subarray: s.subarray,
                weights: weights.clone(),
            });
            self.bank.execute(Instruction::SetMode {
                subarray: s.subarray,
                mode: SubarrayMode::Compute,
            });
        }
        self.setup_done = true;
    }

    /// Runs one input (flattened `(C, H, W)` channel-major) through the
    /// compiled network on the bank. The setup program runs lazily before
    /// the first input.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()`.
    #[expect(
        clippy::expect_used,
        reason = "every stage leaves its output in the ping-pong slot"
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
        self.ensure_setup();
        self.bank.execute(Instruction::LoadMem {
            mem: 0,
            data: input.to_vec(),
        });
        let mut cur = 0;
        for s in &self.stages {
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
                    #[expect(
                        clippy::expect_used,
                        reason = "ping-pong slot written by the previous stage"
                    )]
                    let data = self
                        .bank
                        .execute(Instruction::ReadMem { mem: cur })
                        .expect("feature map buffered");
                    let t = Tensor::from_vec(Shape4::new(1, in_c, in_h, in_w), data);
                    let patches = ops::im2col(&t, 0, *k, *k, *stride, *pad);
                    let (out_c, oh, ow) = s.output;
                    let npos = oh * ow;
                    let mut out = vec![0.0f32; out_c * npos];
                    for pos in 0..npos {
                        self.bank.execute(Instruction::LoadMem {
                            mem: 2,
                            data: patches.row(pos).to_vec(),
                        });
                        self.bank.execute(Instruction::Compute {
                            subarray: s.subarray,
                            src_mem: 2,
                            dst_mem: 3,
                            activation: *activation,
                        });
                        #[expect(
                            clippy::expect_used,
                            reason = "slot 3 written by the Compute just issued"
                        )]
                        let y = self
                            .bank
                            .execute(Instruction::ReadMem { mem: 3 })
                            .expect("conv result buffered");
                        for (oc, &v) in y.iter().enumerate() {
                            out[oc * npos + pos] = v;
                        }
                    }
                    self.bank.execute(Instruction::LoadMem {
                        mem: 1 - cur,
                        data: out,
                    });
                }
                NetStage::MaxPool { k, stride } => {
                    self.bank.execute(Instruction::MaxPool {
                        src_mem: cur,
                        dst_mem: 1 - cur,
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
                        src_mem: cur,
                        dst_mem: 1 - cur,
                        activation: *activation,
                    });
                }
                NetStage::Act(a) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "ping-pong slot written by the previous stage"
                    )]
                    let mut data = self
                        .bank
                        .execute(Instruction::ReadMem { mem: cur })
                        .expect("feature map buffered");
                    for v in &mut data {
                        *v = a.apply(*v);
                    }
                    self.bank
                        .execute(Instruction::LoadMem { mem: 1 - cur, data });
                }
            }
            cur = 1 - cur;
        }
        self.bank
            .execute(Instruction::ReadMem { mem: cur })
            .expect("network output buffered")
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
        let err = TrainableMlp::compile(vec![], &CrossbarConfig::default()).unwrap_err();
        assert_eq!(err, CompileError::EmptyNetwork);
        let err =
            CompiledNetwork::compile((1, 1, 1), vec![], &CrossbarConfig::default()).unwrap_err();
        assert_eq!(err, CompileError::EmptyNetwork);
        // A weight matrix a grid cannot hold is rejected up front.
        for w in [
            Matrix::zeros(Shape2::new(0, 4)),
            Matrix::zeros(Shape2::new(3, 0)),
        ] {
            let err = TrainableMlp::compile(
                vec![(Matrix::zeros(Shape2::new(4, 4)), true), (w, false)],
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

    fn trainable() -> TrainableMlp {
        TrainableMlp::compile(
            vec![
                (
                    Matrix::from_fn(Shape2::new(6, 4), |r, c| {
                        (((r * 7 + c * 5) % 11) as f32 - 5.0) / 10.0
                    }),
                    true,
                ),
                (
                    Matrix::from_fn(Shape2::new(2, 6), |r, c| {
                        (((r * 3 + c * 7 + 1) % 11) as f32 - 5.0) / 10.0
                    }),
                    false,
                ),
            ],
            &CrossbarConfig::default(),
        )
        .expect("compiles")
    }

    #[test]
    fn trainable_forward_matches_host_math() {
        let mut m = trainable();
        let x = [0.4f32, -0.2, 0.1, 0.3];
        let y = m.forward(&x);
        // Host reference.
        let h: Vec<f32> = m.weights(0).matvec(&x).iter().map(|v| v.max(0.0)).collect();
        let want = m.weights(1).matvec(&h);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn bank_training_reduces_loss() {
        let mut m = trainable();
        let x = [0.4f32, -0.2, 0.1, 0.3];
        let target = [0.5f32, -0.25];
        let first = m.train_step(&x, &target, 0.2);
        let mut last = first;
        for _ in 0..30 {
            last = m.train_step(&x, &target, 0.2);
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
        let mut w0 = m.weights(0).clone();
        let mut w1 = m.weights(1).clone();
        let x = [0.4f32, -0.2, 0.1, 0.3];
        let target = [0.5f32, -0.25];
        for _ in 0..30 {
            let _ = m.train_step(&x, &target, 0.2);
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
        // Final outputs of both within a small band of the target.
        let y_bank = m.forward(&x);
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
        }
    }

    #[test]
    fn training_issues_program_instructions() {
        let mut m = trainable();
        let _ = m.train_step(&[0.1; 4], &[0.0, 0.0], 0.1);
        // Setup: 2 ProgramTraining (x2 grids each) + per-step 2 more.
        assert!(m.stats().programs >= 8);
        assert!(m.stats().mvms >= 3); // 2 forward + 1 transposed
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
