//! Bank-level instruction set.
//!
//! "Each memory bank contains a bank control unit, which decodes the
//! incoming instructions and determines the operation mode of morphable
//! subarrays" (§III-A.3). The control unit "offloads the computation from
//! the host CPU and orchestrates the data transfers between memory
//! subarrays and morphable subarrays".

use reram_nn::activations::Activation;
use reram_tensor::Matrix;

/// Operating mode of a morphable (full-function) subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubarrayMode {
    /// Behaves as a regular ReRAM memory subarray; the activation peripheral
    /// is bypassed.
    Memory,
    /// Performs matrix-vector multiplications on its programmed weights.
    Compute,
}

/// One instruction decoded by the bank control unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Switch a morphable subarray between memory and compute modes.
    SetMode {
        /// Morphable subarray index.
        subarray: usize,
        /// Target mode.
        mode: SubarrayMode,
    },
    /// Program weights into a morphable subarray (weight update path: the
    /// spike drivers act as write drivers).
    Program {
        /// Morphable subarray index.
        subarray: usize,
        /// Weight matrix `(out × in)`.
        weights: Matrix,
    },
    /// Program weights for *training*: both the forward grid and a
    /// transposed copy for error back-propagation (§II-A.2 — the backward
    /// pass is itself a matrix multiplication with `W^T`).
    ProgramTraining {
        /// Morphable subarray index.
        subarray: usize,
        /// Weight matrix `(out × in)`.
        weights: Matrix,
    },
    /// Write data from the host / previous layer into a memory subarray.
    LoadMem {
        /// Memory subarray index.
        mem: usize,
        /// Values to store.
        data: Vec<f32>,
    },
    /// Run a compute-mode morphable subarray on the contents of `src_mem`,
    /// optionally apply the peripheral activation, and store the result in
    /// `dst_mem` (the Connection component of §III-A.3 (d)).
    Compute {
        /// Morphable subarray index (must be in compute mode).
        subarray: usize,
        /// Source memory subarray.
        src_mem: usize,
        /// Destination memory subarray.
        dst_mem: usize,
        /// Peripheral activation function, if enabled.
        activation: Option<Activation>,
    },
    /// Back-propagation step: multiply `src_mem` by the subarray's
    /// *transposed* weights (requires [`Instruction::ProgramTraining`]) and
    /// store the result in `dst_mem`.
    ComputeTransposed {
        /// Morphable subarray index (must be in compute mode).
        subarray: usize,
        /// Source memory subarray (upstream error vector).
        src_mem: usize,
        /// Destination memory subarray (propagated error vector).
        dst_mem: usize,
    },
    /// Max-pool the tensor held in `src_mem` (layout `(C, H, W)` flattened
    /// channel-major) into `dst_mem` — the pooling peripheral that the
    /// morphable subarrays contain alongside the activation circuitry
    /// (§III-A.3 (c)), exposed as its own decoded operation so POOL layers
    /// lower onto the bank without a host round trip.
    MaxPool {
        /// Source memory subarray.
        src_mem: usize,
        /// Destination memory subarray.
        dst_mem: usize,
        /// Channel count of the stored tensor.
        c: usize,
        /// Pooling window size.
        k: usize,
        /// Pooling stride.
        stride: usize,
        /// Stored tensor height.
        in_h: usize,
        /// Stored tensor width.
        in_w: usize,
    },
    /// Copy a memory subarray into the bank buffer (private data ports, so
    /// buffer accesses don't consume memory-subarray bandwidth). No
    /// instruction reads the buffer back, so the bank books the traffic and
    /// keeps no copy.
    StoreBuffer {
        /// Source memory subarray.
        src_mem: usize,
    },
    /// Read a memory subarray back to the host.
    ReadMem {
        /// Memory subarray index.
        mem: usize,
    },
    /// Store a morphable subarray's raw cells while in memory mode.
    MemWrite {
        /// Morphable subarray index (must be in memory mode).
        subarray: usize,
        /// Values to store.
        data: Vec<f32>,
    },
    /// Read a morphable subarray's raw cells while in memory mode.
    MemRead {
        /// Morphable subarray index (must be in memory mode).
        subarray: usize,
    },
}
