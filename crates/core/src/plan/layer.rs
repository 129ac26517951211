//! Per-layer lowering record — one weighted layer mapped onto crossbars.

use crate::mapping::LayerMapping;
use crate::AcceleratorConfig;
use reram_crossbar::units::{Ns, Pj};
use reram_nn::{LayerKind, LayerWork};
use serde::{Deserialize, Serialize};

/// Bytes per activation element moving through memory subarrays or held
/// resident in them (16-bit fixed point, matching the default crossbar
/// input precision).
pub const BYTES_PER_ELEM: u64 = 2;

/// Closed-form I&F/ADC conversions of one forward input through a mapped
/// layer.
///
/// Every MVM walks `input_bits` spike frames; each frame converts every
/// bitline of every engaged array (`2 · row_tiles · col_tiles` differential
/// arrays per weight copy). Replication does not change the count: the same
/// MVMs happen, just spread over more arrays.
pub fn adc_conversions(mapping: &LayerMapping, config: &AcceleratorConfig) -> u64 {
    let frames = config.crossbar.input_bits as u64;
    let cols = config.crossbar.cols as u64;
    let arrays_per_copy = (2 * mapping.row_tiles * mapping.col_tiles) as u64;
    mapping.mvms_per_input as u64 * arrays_per_copy * frames * cols
}

/// Closed-form cell writes of programming a mapped layer's arrays once.
///
/// A full (re)program touches every cell of every physical array, including
/// replicated copies — the count behind the update-energy closed form and
/// the per-batch wear unit of `EnduranceReport`.
pub fn cell_writes(mapping: &LayerMapping, config: &AcceleratorConfig) -> u64 {
    mapping.arrays as u64 * (config.crossbar.rows * config.crossbar.cols) as u64
}

/// Everything the lowering pass derives about one weighted layer: its
/// backend-neutral work description, its crossbar tile geometry, its MVM
/// counts per training pass (PipeLayer §II-A.2 — forward, error
/// back-propagation through the transposed weights, and the weight-gradient
/// outer product), its buffer traffic, and its per-input cycle and energy
/// closed forms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPlan {
    /// Layer name by kind and 1-based weighted position ("conv1", "fc5").
    pub name: String,
    /// Backend-neutral work description of the layer.
    pub work: LayerWork,
    /// Crossbar tile geometry and replication (Fig. 4).
    pub mapping: LayerMapping,
    /// Crossbar MVM groups of one input's forward pass.
    pub forward_mvms: u64,
    /// MVM groups of the error back-propagation (transposed weights).
    pub error_mvms: u64,
    /// MVM groups of the weight-gradient outer-product accumulation.
    pub gradient_mvms: u64,
    /// Forward pipeline-stage cost in micro-cycles (replication-adjusted
    /// sequential MVM steps per input).
    pub stage_cycles: u64,
    /// Wall-clock latency of the forward stage, ns.
    pub forward_latency_ns: Ns,
    /// Wall-clock latency of the backward stage (error + gradient), ns.
    pub backward_latency_ns: Ns,
    /// Crossbar energy of one input's forward pass, pJ.
    pub forward_energy_pj: Pj,
    /// Crossbar energy of one input's backward pass, pJ.
    pub backward_energy_pj: Pj,
    /// Energy to reprogram this layer's arrays once, pJ.
    pub update_energy_pj: Pj,
    /// Bytes written to memory subarrays per input (the layer's output
    /// tensor, stored once).
    pub buffer_write_bytes: f64,
    /// Bytes read back per input during training: the next stage's consume
    /// plus the backward re-read of the stored forward activation.
    pub buffer_read_bytes: f64,
    /// I&F/ADC conversions of one forward input.
    pub adc_conversions: u64,
    /// Cell writes of one full array (re)program.
    pub cell_writes: u64,
}

impl LayerPlan {
    /// Display prefix for a layer kind ("conv", "fracconv", "fc").
    pub fn kind_str(kind: LayerKind) -> &'static str {
        match kind {
            LayerKind::Conv => "conv",
            LayerKind::FracConv => "fracconv",
            LayerKind::Fc => "fc",
            _ => "layer",
        }
    }

    /// Lowers one weighted layer given its mapping and 0-based weighted
    /// index.
    pub(crate) fn lower(
        index: usize,
        work: LayerWork,
        mapping: LayerMapping,
        config: &AcceleratorConfig,
    ) -> Self {
        let (_, program_energy_per_array) = config.cost.program_cost(&config.crossbar);
        let forward_latency_ns = mapping.stage_latency_ns();
        let forward_energy_pj = mapping.forward_energy_pj();
        let out_bytes = work.output_elems as f64 * BYTES_PER_ELEM as f64;
        Self {
            name: format!("{}{}", Self::kind_str(work.kind), index + 1),
            forward_mvms: mapping.mvms_per_input as u64,
            error_mvms: mapping.mvms_per_input as u64,
            gradient_mvms: mapping.mvms_per_input as u64,
            stage_cycles: mapping.steps_per_input as u64,
            forward_latency_ns,
            // Error MVM + weight-gradient accumulation = 2 MVM groups.
            backward_latency_ns: 2.0 * forward_latency_ns,
            forward_energy_pj,
            backward_energy_pj: 2.0 * forward_energy_pj,
            update_energy_pj: mapping.arrays as f64 * program_energy_per_array,
            buffer_write_bytes: out_bytes,
            buffer_read_bytes: 2.0 * out_bytes,
            adc_conversions: adc_conversions(&mapping, config),
            cell_writes: cell_writes(&mapping, config),
            work,
            mapping,
        }
    }

    /// MVM groups of one input's full training pass (forward + error +
    /// gradient).
    pub fn training_mvms(&self) -> u64 {
        self.forward_mvms + self.error_mvms + self.gradient_mvms
    }
}
