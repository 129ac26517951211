//! Memory-bank organization — paper Fig. 6 (PipeLayer) / Fig. 10 (ReGAN).
//!
//! "A memory bank is divided into three regions — morphable subarrays,
//! memory subarrays, and bank buffer subarrays. The ReRAM-based morphable
//! subarray can alter its function between memory and computing modes."
//! ReGAN calls its morphable subarrays *full function (FF)* subarrays and
//! adds private data ports to the buffer so "buffer accesses do not consume
//! the bandwidth of Mem subarrays" — modelled by separate traffic counters.

use crate::isa::{Instruction, SubarrayMode};
use reram_crossbar::{CrossbarConfig, TiledMatrix};
use reram_telemetry::{self as telemetry, Event};
use reram_tensor::{ops, Matrix, Shape4, Tensor};

/// A morphable (full-function) ReRAM subarray.
///
/// In memory mode it stores plain data; in compute mode it holds a
/// crossbar-programmed weight matrix and performs MVMs through the full
/// quantized spike-coded datapath of `reram-crossbar`.
#[derive(Debug)]
pub struct MorphableSubarray {
    mode: SubarrayMode,
    config: CrossbarConfig,
    stored: Vec<f32>,
    weights: Option<TiledMatrix>,
    /// Transposed weight grid for training-mode back-propagation.
    weights_t: Option<TiledMatrix>,
    mode_switches: u64,
}

impl MorphableSubarray {
    /// Creates a subarray in memory mode.
    pub fn new(config: CrossbarConfig) -> Self {
        Self {
            mode: SubarrayMode::Memory,
            config,
            stored: Vec::new(),
            weights: None,
            weights_t: None,
            mode_switches: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> SubarrayMode {
        self.mode
    }

    /// Switches the operating mode. Data and weights survive the switch —
    /// ReRAM is non-volatile.
    pub fn set_mode(&mut self, mode: SubarrayMode) {
        if mode != self.mode {
            self.mode_switches += 1;
            if mode == SubarrayMode::Compute {
                telemetry::record(Event::SubarrayActivation, 1);
            }
            self.mode = mode;
        }
    }

    /// Number of mode switches so far.
    pub fn mode_switches(&self) -> u64 {
        self.mode_switches
    }

    /// Programs a weight matrix (compute-mode payload).
    pub fn program(&mut self, weights: &Matrix) {
        program_grid(&mut self.weights, weights, &self.config);
    }

    /// Programs a weight matrix *and* its transpose (training mode): the
    /// forward grid computes `W x`, the transposed grid computes `W^T e`
    /// for error back-propagation.
    pub fn program_training(&mut self, weights: &Matrix) {
        self.program(weights);
        program_grid(&mut self.weights_t, &weights.transposed(), &self.config);
    }

    /// Runs the transposed MVM `W^T e` (error back-propagation step).
    ///
    /// # Panics
    ///
    /// Panics if the subarray is in memory mode or was not programmed with
    /// [`MorphableSubarray::program_training`].
    #[expect(
        clippy::expect_used,
        reason = "documented caller contract — program_training first"
    )]
    pub fn compute_transposed(&mut self, error: &[f32]) -> Vec<f32> {
        assert_eq!(
            self.mode,
            SubarrayMode::Compute,
            "compute_transposed issued to a subarray in memory mode"
        );
        self.weights_t
            .as_mut()
            .expect("compute_transposed requires program_training")
            .matvec(error)
    }

    /// Runs an MVM in compute mode.
    ///
    /// # Panics
    ///
    /// Panics if the subarray is in memory mode or has no programmed
    /// weights.
    #[expect(
        clippy::expect_used,
        reason = "documented caller contract — program weights first"
    )]
    pub fn compute(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(
            self.mode,
            SubarrayMode::Compute,
            "compute issued to a subarray in memory mode"
        );
        self.weights
            .as_mut()
            .expect("compute issued before programming weights")
            .matvec(input)
    }

    /// Stores raw data in memory mode.
    ///
    /// # Panics
    ///
    /// Panics if the subarray is in compute mode.
    pub fn mem_write(&mut self, data: Vec<f32>) {
        assert_eq!(
            self.mode,
            SubarrayMode::Memory,
            "mem_write issued to a subarray in compute mode"
        );
        self.stored = data;
    }

    /// Reads raw data in memory mode.
    ///
    /// # Panics
    ///
    /// Panics if the subarray is in compute mode.
    pub fn mem_read(&self) -> &[f32] {
        assert_eq!(
            self.mode,
            SubarrayMode::Memory,
            "mem_read issued to a subarray in compute mode"
        );
        &self.stored
    }
}

/// Writes `weights` into a subarray's grid in full: reprograms it in place
/// when the shape matches and programs a new grid otherwise.
fn program_grid(grid: &mut Option<TiledMatrix>, weights: &Matrix, config: &CrossbarConfig) {
    match grid {
        Some(t) if (t.out_dim(), t.in_dim()) == (weights.rows(), weights.cols()) => {
            t.reprogram(weights);
        }
        _ => *grid = Some(TiledMatrix::program(weights, config)),
    }
}

/// Traffic statistics of a bank, split by region — the buffer has private
/// ports, so its traffic is tracked separately from memory-subarray traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Instructions decoded by the control unit.
    pub instructions: u64,
    /// MVMs executed by morphable subarrays.
    pub mvms: u64,
    /// Elements moved to/from memory subarrays.
    pub mem_traffic: u64,
    /// Elements moved through the buffer's private ports.
    pub buffer_traffic: u64,
    /// Weight (re)programming operations.
    pub programs: u64,
}

/// A memory bank: morphable subarrays + memory subarrays + buffer, driven by
/// the bank control unit via [`Instruction`]s.
#[derive(Debug)]
pub struct Bank {
    morphable: Vec<MorphableSubarray>,
    memory: Vec<Vec<f32>>,
    buffer: Vec<Vec<f32>>,
    stats: BankStats,
}

impl Bank {
    /// Creates a bank with the given number of morphable and memory
    /// subarrays.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(morphable: usize, memory: usize, config: &CrossbarConfig) -> Self {
        assert!(morphable > 0 && memory > 0, "empty bank");
        Self {
            morphable: (0..morphable)
                .map(|_| MorphableSubarray::new(config.clone()))
                .collect(),
            memory: vec![Vec::new(); memory],
            buffer: Vec::new(),
            stats: BankStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Buffered tensors (most recent last).
    pub fn buffer(&self) -> &[Vec<f32>] {
        &self.buffer
    }

    /// Direct access to a morphable subarray (e.g. for mode inspection).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn morphable(&self, i: usize) -> &MorphableSubarray {
        &self.morphable[i]
    }

    /// Decodes and executes one instruction, returning read data when the
    /// instruction produces any.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range subarray indices or mode violations —
    /// these indicate control-program bugs, exactly what the bank control
    /// unit must never emit.
    pub fn execute(&mut self, instruction: Instruction) -> Option<Vec<f32>> {
        self.stats.instructions += 1;
        match instruction {
            Instruction::SetMode { subarray, mode } => {
                self.morphable[subarray].set_mode(mode);
                None
            }
            Instruction::Program { subarray, weights } => {
                self.stats.programs += 1;
                self.morphable[subarray].program(&weights);
                None
            }
            Instruction::ProgramTraining { subarray, weights } => {
                // Two grids programmed: forward and transposed.
                self.stats.programs += 2;
                self.morphable[subarray].program_training(&weights);
                None
            }
            Instruction::LoadMem { mem, data } => {
                self.stats.mem_traffic += data.len() as u64;
                self.memory[mem] = data;
                None
            }
            Instruction::Compute {
                subarray,
                src_mem,
                dst_mem,
                activation,
            } => {
                let input = self.memory[src_mem].clone();
                self.stats.mem_traffic += input.len() as u64;
                self.stats.mvms += 1;
                let mut out = self.morphable[subarray].compute(&input);
                if let Some(a) = activation {
                    for v in &mut out {
                        *v = a.apply(*v);
                    }
                }
                self.stats.mem_traffic += out.len() as u64;
                self.memory[dst_mem] = out;
                None
            }
            Instruction::ComputeTransposed {
                subarray,
                src_mem,
                dst_mem,
            } => {
                let error = self.memory[src_mem].clone();
                self.stats.mem_traffic += error.len() as u64;
                self.stats.mvms += 1;
                let out = self.morphable[subarray].compute_transposed(&error);
                self.stats.mem_traffic += out.len() as u64;
                self.memory[dst_mem] = out;
                None
            }
            Instruction::MaxPool {
                src_mem,
                dst_mem,
                c,
                k,
                stride,
                in_h,
                in_w,
            } => {
                let input = self.memory[src_mem].clone();
                assert!(
                    k > 0 && stride > 0 && in_h >= k && in_w >= k,
                    "max_pool window {k} stride {stride} does not fit {in_h}x{in_w}"
                );
                assert_eq!(
                    input.len(),
                    c * in_h * in_w,
                    "max_pool: memory subarray holds {} elements, not {c}x{in_h}x{in_w}",
                    input.len()
                );
                self.stats.mem_traffic += input.len() as u64;
                let map = Tensor::from_vec(Shape4::new(1, c, in_h, in_w), input);
                let out = ops::max_pool2d(&map, k, stride).0.into_vec();
                self.stats.mem_traffic += out.len() as u64;
                self.memory[dst_mem] = out;
                None
            }
            Instruction::StoreBuffer { src_mem } => {
                let data = self.memory[src_mem].clone();
                self.stats.buffer_traffic += data.len() as u64;
                telemetry::record(Event::BufferWrite, data.len() as u64);
                self.buffer.push(data);
                None
            }
            Instruction::ReadMem { mem } => {
                let data = self.memory[mem].clone();
                self.stats.mem_traffic += data.len() as u64;
                Some(data)
            }
            Instruction::MemWrite { subarray, data } => {
                self.stats.mem_traffic += data.len() as u64;
                self.morphable[subarray].mem_write(data);
                None
            }
            Instruction::MemRead { subarray } => {
                let data = self.morphable[subarray].mem_read().to_vec();
                self.stats.mem_traffic += data.len() as u64;
                Some(data)
            }
        }
    }

    /// Executes a program (instruction sequence), returning the outputs of
    /// the read instructions in order.
    pub fn run(&mut self, program: Vec<Instruction>) -> Vec<Vec<f32>> {
        program
            .into_iter()
            .filter_map(|i| self.execute(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_nn::activations::Activation;
    use reram_tensor::Shape2;

    fn config() -> CrossbarConfig {
        CrossbarConfig::default()
    }

    #[test]
    fn morphable_starts_in_memory_mode() {
        let sub = MorphableSubarray::new(config());
        assert_eq!(sub.mode(), SubarrayMode::Memory);
        assert_eq!(sub.mode_switches(), 0);
    }

    #[test]
    fn mode_switch_counting() {
        let mut sub = MorphableSubarray::new(config());
        sub.set_mode(SubarrayMode::Compute);
        sub.set_mode(SubarrayMode::Compute); // no-op
        sub.set_mode(SubarrayMode::Memory);
        assert_eq!(sub.mode_switches(), 2);
    }

    #[test]
    fn compute_mode_runs_mvm() {
        let mut sub = MorphableSubarray::new(config());
        sub.program(&Matrix::identity(8));
        sub.set_mode(SubarrayMode::Compute);
        let x = vec![0.5, -0.25, 0.75, 0.0, 0.1, -0.6, 0.3, 0.9];
        let y = sub.compute(&x);
        for (a, b) in y.iter().zip(&x) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "memory mode")]
    fn compute_in_memory_mode_panics() {
        let mut sub = MorphableSubarray::new(config());
        sub.program(&Matrix::identity(4));
        let _ = sub.compute(&[0.0; 4]);
    }

    #[test]
    fn memory_mode_stores_data_across_mode_switches() {
        let mut sub = MorphableSubarray::new(config());
        sub.mem_write(vec![1.0, 2.0, 3.0]);
        sub.set_mode(SubarrayMode::Compute);
        sub.set_mode(SubarrayMode::Memory);
        // Non-volatile: the data survived the round trip.
        assert_eq!(sub.mem_read(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn bank_executes_a_layer_program() {
        // Program a small weight matrix, load an input, compute with ReLU,
        // store to buffer, read back.
        let w = Matrix::from_vec(Shape2::new(2, 3), vec![0.5, -0.5, 0.25, -0.25, 0.5, -0.5]);
        let x = vec![1.0, 0.5, -0.5];
        let mut bank = Bank::new(2, 4, &config());
        let outputs = bank.run(vec![
            Instruction::Program {
                subarray: 0,
                weights: w.clone(),
            },
            Instruction::SetMode {
                subarray: 0,
                mode: SubarrayMode::Compute,
            },
            Instruction::LoadMem {
                mem: 0,
                data: x.clone(),
            },
            Instruction::Compute {
                subarray: 0,
                src_mem: 0,
                dst_mem: 1,
                activation: Some(Activation::Relu),
            },
            Instruction::StoreBuffer { src_mem: 1 },
            Instruction::ReadMem { mem: 1 },
        ]);
        assert_eq!(outputs.len(), 1);
        let want: Vec<f32> = w.matvec(&x).iter().map(|v| v.max(0.0)).collect();
        for (a, b) in outputs[0].iter().zip(&want) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
        let stats = bank.stats();
        assert_eq!(stats.instructions, 6);
        assert_eq!(stats.mvms, 1);
        assert_eq!(stats.programs, 1);
        assert_eq!(stats.buffer_traffic, 2);
        assert_eq!(bank.buffer().len(), 1);
    }

    #[test]
    fn buffer_traffic_separate_from_mem_traffic() {
        let mut bank = Bank::new(1, 2, &config());
        bank.execute(Instruction::LoadMem {
            mem: 0,
            data: vec![1.0; 10],
        });
        let mem_before = bank.stats().mem_traffic;
        bank.execute(Instruction::StoreBuffer { src_mem: 0 });
        assert_eq!(bank.stats().mem_traffic, mem_before);
        assert_eq!(bank.stats().buffer_traffic, 10);
    }

    #[test]
    fn reprogramming_reuses_grid() {
        let mut sub = MorphableSubarray::new(config());
        sub.program(&Matrix::identity(4));
        sub.program(&Matrix::identity(4));
        sub.set_mode(SubarrayMode::Compute);
        let y = sub.compute(&[1.0, 0.0, 0.0, 0.0]);
        assert!((y[0] - 1.0).abs() < 0.02);
    }

    #[test]
    fn training_programming_enables_transposed_mvm() {
        let mut sub = MorphableSubarray::new(config());
        let w = Matrix::from_vec(Shape2::new(2, 3), vec![1.0, 0.0, 0.5, 0.0, 1.0, -0.5]);
        sub.program_training(&w);
        sub.set_mode(SubarrayMode::Compute);
        // Forward: W x with x of length 3.
        let y = sub.compute(&[1.0, 1.0, 1.0]);
        let want = w.matvec(&[1.0, 1.0, 1.0]);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.02);
        }
        // Backward: W^T e with e of length 2.
        let e = [0.5f32, -0.5];
        let back = sub.compute_transposed(&e);
        let want_t = w.transposed().matvec(&e);
        assert_eq!(back.len(), 3);
        for (a, b) in back.iter().zip(&want_t) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "requires program_training")]
    fn transposed_mvm_requires_training_programming() {
        let mut sub = MorphableSubarray::new(config());
        sub.program(&Matrix::identity(4));
        sub.set_mode(SubarrayMode::Compute);
        let _ = sub.compute_transposed(&[0.0; 4]);
    }

    #[test]
    fn bank_runs_backward_instruction() {
        let w = Matrix::from_vec(Shape2::new(2, 3), vec![0.5, 0.25, -0.5, 1.0, -0.25, 0.75]);
        let mut bank = Bank::new(1, 3, &config());
        let out = bank.run(vec![
            Instruction::ProgramTraining {
                subarray: 0,
                weights: w.clone(),
            },
            Instruction::SetMode {
                subarray: 0,
                mode: SubarrayMode::Compute,
            },
            Instruction::LoadMem {
                mem: 0,
                data: vec![1.0, -1.0],
            },
            Instruction::ComputeTransposed {
                subarray: 0,
                src_mem: 0,
                dst_mem: 1,
            },
            Instruction::ReadMem { mem: 1 },
        ]);
        let want = w.transposed().matvec(&[1.0, -1.0]);
        for (a, b) in out[0].iter().zip(&want) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
        // program_training counts as two grid programs.
        assert_eq!(bank.stats().programs, 2);
    }

    #[test]
    fn bank_max_pools_a_stored_tensor() {
        // Two 4x4 channels, 2x2 non-overlapping pooling.
        let ch0 = vec![
            1.0, 2.0, 5.0, 6.0, //
            3.0, 4.0, 7.0, 8.0, //
            -1.0, -2.0, 0.0, 0.5, //
            -3.0, -4.0, 0.25, 0.75,
        ];
        let ch1: Vec<f32> = ch0.iter().map(|v| -v).collect();
        let data: Vec<f32> = ch0.iter().chain(&ch1).copied().collect();
        let mut bank = Bank::new(1, 2, &config());
        let out = bank.run(vec![
            Instruction::LoadMem { mem: 0, data },
            Instruction::MaxPool {
                src_mem: 0,
                dst_mem: 1,
                c: 2,
                k: 2,
                stride: 2,
                in_h: 4,
                in_w: 4,
            },
            Instruction::ReadMem { mem: 1 },
        ]);
        assert_eq!(out[0], vec![4.0, 8.0, -1.0, 0.75, -1.0, -5.0, 4.0, 0.0]);
    }

    #[test]
    fn morphable_as_memory_roundtrip_via_bank() {
        let mut bank = Bank::new(1, 1, &config());
        let out = bank.run(vec![
            Instruction::MemWrite {
                subarray: 0,
                data: vec![4.0, 5.0],
            },
            Instruction::MemRead { subarray: 0 },
        ]);
        assert_eq!(out, vec![vec![4.0, 5.0]]);
    }
}
