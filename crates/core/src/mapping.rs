//! Data input and kernel mapping — paper §III-A.1 and Fig. 4.
//!
//! A weighted layer's kernels form a matrix (unrolled kernel volume ×
//! output channels). The **naïve scheme** (Fig. 4(a)) maps that matrix onto
//! one logical array and feeds input vectors sequentially: the example layer
//! (114×114×128 → 112×112×256, 3×3 kernels) takes 12544 cycles — one per
//! output position. The **balanced scheme** (Fig. 4(b)) partitions the
//! matrix over 128×128 arrays (the example's 1152×256 matrix becomes a
//! 9×2 group) and replicates the weights `X` times so `X` input vectors
//! are processed per step: `X = 1` degenerates to the naïve scheme,
//! `X = 12544` produces the whole layer in one step at excessive hardware
//! cost — "a good trade-off … requires a carefully chosen X".

use std::fmt;

use crate::AcceleratorConfig;
use reram_crossbar::units::{Ns, Pj};
use reram_nn::{LayerSpec, NetworkSpec};
use serde::{Deserialize, Serialize};

/// Why a layer or network cannot be mapped under a replication policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingError {
    /// [`ReplicationPolicy::Fixed`] with `X = 0`: replication must be
    /// positive.
    ZeroReplication,
    /// [`ReplicationPolicy::MaxStepsPerLayer`] with a zero step bound.
    ZeroStepsBound,
    /// [`ReplicationPolicy::ArrayBudget`] with a zero array budget.
    ZeroArrayBudget,
    /// [`ReplicationPolicy::ArrayBudget`] chooses per-layer factors
    /// jointly, so it cannot resolve a single layer in isolation — map the
    /// whole network with [`map_network`] instead.
    NeedsNetworkContext,
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::ZeroReplication => {
                write!(f, "fixed replication factor must be positive")
            }
            MappingError::ZeroStepsBound => {
                write!(f, "per-layer step bound must be positive")
            }
            MappingError::ZeroArrayBudget => write!(f, "array budget must be positive"),
            MappingError::NeedsNetworkContext => write!(
                f,
                "ArrayBudget needs whole-network context; use map_network"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// Which mapping scheme of Fig. 4 to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingScheme {
    /// One logical array, inputs strictly sequential (Fig. 4(a)).
    Naive,
    /// Partitioned over physical arrays with replication `X` (Fig. 4(b)).
    Balanced {
        /// Weight replication factor.
        replication: usize,
    },
}

/// How the accelerator chooses the replication factor `X` per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationPolicy {
    /// No replication anywhere (`X = 1`).
    None,
    /// The same fixed `X` for every layer.
    Fixed(usize),
    /// Choose per-layer `X` so that every layer needs at most this many
    /// sequential MVM steps per input — balancing the pipeline stages so
    /// the slowest layer (which sets the cycle time) is bounded.
    MaxStepsPerLayer(usize),
    /// Whole-chip provisioning: spend up to this many physical arrays on a
    /// network, choosing per-layer `X` to minimize the slowest stage's
    /// sequential step count. This is the paper's "carefully chosen X"
    /// trade-off at chip scale — small networks get full replication,
    /// large networks share the budget.
    ArrayBudget(usize),
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        // 128K arrays — an ISAAC/PipeLayer-class chip provisioning.
        ReplicationPolicy::ArrayBudget(131_072)
    }
}

impl ReplicationPolicy {
    /// Replication factor for a layer needing `mvms` MVMs per input.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if the policy parameter is zero, or for
    /// [`ReplicationPolicy::ArrayBudget`], which needs whole-network
    /// context — use [`map_network`] instead.
    #[must_use = "the chosen replication factor is the result"]
    pub fn replication_for(&self, mvms: usize) -> Result<usize, MappingError> {
        match *self {
            ReplicationPolicy::None => Ok(1),
            ReplicationPolicy::Fixed(0) => Err(MappingError::ZeroReplication),
            ReplicationPolicy::Fixed(x) => Ok(x),
            ReplicationPolicy::MaxStepsPerLayer(0) => Err(MappingError::ZeroStepsBound),
            ReplicationPolicy::MaxStepsPerLayer(steps) => Ok(mvms.div_ceil(steps).max(1)),
            ReplicationPolicy::ArrayBudget(_) => Err(MappingError::NeedsNetworkContext),
        }
    }
}

/// The physical realization of one weighted layer on crossbar arrays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerMapping {
    /// Row tiles (input-dimension partitions) per weight copy.
    pub row_tiles: usize,
    /// Column tiles (output-dimension partitions) per weight copy.
    pub col_tiles: usize,
    /// Weight replication factor `X`.
    pub replication: usize,
    /// Physical arrays used (differential pairs × tiles × replication).
    pub arrays: usize,
    /// MVMs needed per input example (output spatial positions).
    pub mvms_per_input: usize,
    /// Sequential MVM steps per input after replication:
    /// `ceil(mvms_per_input / replication)`.
    pub steps_per_input: usize,
    /// Latency of one step (one grid MVM), ns.
    pub step_latency_ns: Ns,
    /// Energy of one MVM through the grid, pJ.
    pub mvm_energy_pj: Pj,
}

impl LayerMapping {
    /// Maps one weighted layer under the given scheme.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not weighted or the scheme is degenerate.
    pub fn map(layer: &LayerSpec, config: &AcceleratorConfig, scheme: MappingScheme) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented caller contract — weighted layers only"
        )]
        let (in_dim, out_dim) = layer
            .crossbar_matrix()
            .expect("only weighted layers map to crossbars");
        #[expect(
            clippy::expect_used,
            reason = "documented caller contract — weighted layers only"
        )]
        let mvms = layer.mvm_count().expect("weighted layers have MVM counts");

        let (row_tiles, col_tiles, replication) = match scheme {
            MappingScheme::Naive => (1, 1, 1),
            MappingScheme::Balanced { replication } => {
                assert!(replication > 0, "replication must be positive");
                let logical_cols = config.crossbar.logical_cols();
                (
                    in_dim.div_ceil(config.crossbar.rows),
                    out_dim.div_ceil(logical_cols),
                    replication,
                )
            }
        };

        let grid_cost =
            config
                .cost
                .grid_mvm_cost(&config.crossbar, row_tiles, col_tiles, config.activity);
        let steps = mvms.div_ceil(replication);
        Self {
            row_tiles,
            col_tiles,
            replication,
            arrays: grid_cost.arrays * replication,
            mvms_per_input: mvms,
            steps_per_input: steps,
            step_latency_ns: grid_cost.latency_ns,
            mvm_energy_pj: grid_cost.energy_pj(),
        }
    }

    /// Maps a layer using the configuration's replication policy.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if the policy is degenerate or is
    /// [`ReplicationPolicy::ArrayBudget`] (whole-network context required —
    /// use [`map_network`]).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not weighted.
    #[must_use = "the mapping is the result"]
    pub fn map_with_policy(
        layer: &LayerSpec,
        config: &AcceleratorConfig,
    ) -> Result<Self, MappingError> {
        #[expect(
            clippy::expect_used,
            reason = "caller contract — only weighted layers map to crossbars"
        )]
        let mvms = layer.mvm_count().expect("weighted layers have MVM counts");
        let x = config.replication.replication_for(mvms)?;
        Ok(Self::map(
            layer,
            config,
            MappingScheme::Balanced { replication: x },
        ))
    }

    /// Physical arrays of one (unreplicated) copy of this layer's grid.
    pub fn base_arrays(&self) -> usize {
        self.arrays / self.replication
    }

    /// Time to push one input example through this layer stage, ns.
    pub fn stage_latency_ns(&self) -> Ns {
        self.steps_per_input as f64 * self.step_latency_ns
    }

    /// Energy to push one input example through this layer (forward), pJ.
    ///
    /// Replication does not change per-input energy: the same total number
    /// of MVMs happens, just spread over more arrays.
    pub fn forward_energy_pj(&self) -> Pj {
        self.mvms_per_input as f64 * self.mvm_energy_pj
    }
}

/// Maps every weighted layer of a network with the configured policy.
///
/// For [`ReplicationPolicy::ArrayBudget`] the per-layer replication factors
/// are chosen jointly: binary-search the smallest per-layer step bound `T`
/// whose total array cost `Σ base_i · ceil(m_i / T)` fits the budget, then
/// set `X_i = ceil(m_i / T)`. If even `X = 1` everywhere exceeds the
/// budget, the network maps unreplicated (the budget is a provisioning
/// target, not a hard wall — matching the paper's "hardware cost is
/// excessive" framing).
///
/// # Errors
///
/// Returns a [`MappingError`] if the configured policy has a zero
/// parameter (replication factor, step bound, or array budget).
#[must_use = "the mappings are the result"]
pub fn map_network(
    net: &NetworkSpec,
    config: &AcceleratorConfig,
) -> Result<Vec<LayerMapping>, MappingError> {
    match config.replication {
        ReplicationPolicy::ArrayBudget(0) => Err(MappingError::ZeroArrayBudget),
        ReplicationPolicy::ArrayBudget(budget) => {
            let bases: Vec<LayerMapping> = net
                .weighted_layers()
                .map(|l| LayerMapping::map(l, config, MappingScheme::Balanced { replication: 1 }))
                .collect();
            let cost_at = |t: usize| -> u128 {
                bases
                    .iter()
                    .map(|m| (m.base_arrays() as u128) * (m.mvms_per_input.div_ceil(t) as u128))
                    .sum()
            };
            let max_steps = bases.iter().map(|m| m.mvms_per_input).max().unwrap_or(1);
            // Smallest T with cost(T) <= budget; cost is non-increasing in T.
            let t = if cost_at(max_steps) > budget as u128 {
                max_steps // even X = 1 exceeds the budget
            } else {
                let (mut lo, mut hi) = (1usize, max_steps);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if cost_at(mid) <= budget as u128 {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            };
            Ok(net
                .weighted_layers()
                .map(|l| {
                    #[expect(
                        clippy::expect_used,
                        reason = "weighted_layers() yields weighted layers only"
                    )]
                    let mvms = l.mvm_count().expect("weighted layer");
                    let x = mvms.div_ceil(t).max(1);
                    LayerMapping::map(l, config, MappingScheme::Balanced { replication: x })
                })
                .collect())
        }
        _ => net
            .weighted_layers()
            .map(|l| LayerMapping::map_with_policy(l, config))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_crossbar::CrossbarConfig;

    /// The Fig. 4 example layer.
    fn fig4_layer() -> LayerSpec {
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

    /// Config with 4-bit weights so one weight = one cell, giving the
    /// paper's 128 logical columns per array.
    fn fig4_config() -> AcceleratorConfig {
        AcceleratorConfig {
            crossbar: CrossbarConfig {
                weight_bits: 4,
                cell_bits: 4,
                ..CrossbarConfig::default()
            },
            ..AcceleratorConfig::default()
        }
    }

    #[test]
    fn naive_scheme_matches_fig4a() {
        let m = LayerMapping::map(&fig4_layer(), &fig4_config(), MappingScheme::Naive);
        assert_eq!(m.mvms_per_input, 12544);
        assert_eq!(m.steps_per_input, 12544);
        assert_eq!((m.row_tiles, m.col_tiles, m.replication), (1, 1, 1));
    }

    #[test]
    fn balanced_scheme_matches_fig4b() {
        let m = LayerMapping::map(
            &fig4_layer(),
            &fig4_config(),
            MappingScheme::Balanced { replication: 1 },
        );
        // "The 1152x256 matrix is divided into a group of 18 (= 9 x 2)
        // matrices and each of subgroup maps to a 128x128 ReRAM array."
        assert_eq!((m.row_tiles, m.col_tiles), (9, 2));
        assert_eq!(m.arrays, 36); // 18 tiles x differential pair
    }

    #[test]
    fn replication_one_equals_naive_cycles() {
        // "If X = 1, the design is equivalent to the naive scheme."
        let naive = LayerMapping::map(&fig4_layer(), &fig4_config(), MappingScheme::Naive);
        let x1 = LayerMapping::map(
            &fig4_layer(),
            &fig4_config(),
            MappingScheme::Balanced { replication: 1 },
        );
        assert_eq!(naive.steps_per_input, x1.steps_per_input);
    }

    #[test]
    fn full_replication_single_step() {
        // "If X = 12544, the results of a layer could be generated in just
        // one cycle but the hardware cost is excessive."
        let m = LayerMapping::map(
            &fig4_layer(),
            &fig4_config(),
            MappingScheme::Balanced { replication: 12544 },
        );
        assert_eq!(m.steps_per_input, 1);
        assert_eq!(m.arrays, 36 * 12544);
    }

    #[test]
    fn fig4_example_x256() {
        // "Fig. 4 is an example with X = 256."
        let m = LayerMapping::map(
            &fig4_layer(),
            &fig4_config(),
            MappingScheme::Balanced { replication: 256 },
        );
        assert_eq!(m.steps_per_input, 49); // ceil(12544/256)
        assert_eq!(m.arrays, 36 * 256);
    }

    #[test]
    fn replication_trades_arrays_for_latency() {
        let cfg = fig4_config();
        let mut prev_latency = Ns(f64::INFINITY);
        let mut prev_arrays = 0;
        for x in [1usize, 4, 16, 64, 256] {
            let m = LayerMapping::map(
                &fig4_layer(),
                &cfg,
                MappingScheme::Balanced { replication: x },
            );
            assert!(m.stage_latency_ns() <= prev_latency);
            assert!(m.arrays > prev_arrays);
            prev_latency = m.stage_latency_ns();
            prev_arrays = m.arrays;
        }
    }

    #[test]
    fn per_input_energy_independent_of_replication() {
        let cfg = fig4_config();
        let e1 = LayerMapping::map(
            &fig4_layer(),
            &cfg,
            MappingScheme::Balanced { replication: 1 },
        )
        .forward_energy_pj();
        let e256 = LayerMapping::map(
            &fig4_layer(),
            &cfg,
            MappingScheme::Balanced { replication: 256 },
        )
        .forward_energy_pj();
        assert!((e1 - e256).abs() / e1 < 1e-9);
    }

    #[test]
    fn policy_bounds_steps() {
        let policy = ReplicationPolicy::MaxStepsPerLayer(64);
        assert_eq!(policy.replication_for(12544), Ok(196));
        assert_eq!(policy.replication_for(64), Ok(1));
        assert_eq!(policy.replication_for(1), Ok(1));
        let m =
            LayerMapping::map_with_policy(&fig4_layer(), &fig4_config().with_replication(policy))
                .unwrap();
        assert!(m.steps_per_input <= 64);
    }

    #[test]
    fn array_budget_respected() {
        let net = reram_nn::models::vgg_a_spec();
        for budget in [4096usize, 65536, 262_144] {
            let cfg = AcceleratorConfig::default()
                .with_replication(ReplicationPolicy::ArrayBudget(budget));
            let maps = map_network(&net, &cfg).unwrap();
            let base: usize = maps.iter().map(super::LayerMapping::base_arrays).sum();
            let total: usize = maps.iter().map(|m| m.arrays).sum();
            if base <= budget {
                assert!(total <= budget, "budget {budget} exceeded: {total}");
            } else {
                // Budget smaller than X=1 floor: maps unreplicated.
                assert!(maps.iter().all(|m| m.replication == 1));
            }
        }
    }

    #[test]
    fn bigger_budget_never_slower() {
        let net = reram_nn::models::alexnet_spec();
        let slowest = |budget: usize| {
            let cfg = AcceleratorConfig::default()
                .with_replication(ReplicationPolicy::ArrayBudget(budget));
            map_network(&net, &cfg)
                .unwrap()
                .iter()
                .map(|m| m.steps_per_input)
                .max()
                .expect("layers")
        };
        assert!(slowest(262_144) <= slowest(65_536));
        assert!(slowest(65_536) <= slowest(8_192));
    }

    #[test]
    fn small_network_gets_full_replication() {
        // LeNet's whole grid is tiny: a 128K-array budget replicates every
        // layer down to a single step per input.
        let net = reram_nn::models::lenet_spec();
        let maps = map_network(&net, &AcceleratorConfig::default()).unwrap();
        assert!(maps.iter().all(|m| m.steps_per_input == 1));
    }

    #[test]
    fn array_budget_rejects_per_layer_use() {
        assert_eq!(
            ReplicationPolicy::ArrayBudget(1024).replication_for(100),
            Err(MappingError::NeedsNetworkContext)
        );
    }

    #[test]
    fn degenerate_policies_are_typed_errors() {
        assert_eq!(
            ReplicationPolicy::Fixed(0).replication_for(100),
            Err(MappingError::ZeroReplication)
        );
        assert_eq!(
            ReplicationPolicy::MaxStepsPerLayer(0).replication_for(100),
            Err(MappingError::ZeroStepsBound)
        );
        let net = reram_nn::models::lenet_spec();
        let cfg = AcceleratorConfig::default().with_replication(ReplicationPolicy::ArrayBudget(0));
        assert_eq!(map_network(&net, &cfg), Err(MappingError::ZeroArrayBudget));
        let cfg = AcceleratorConfig::default().with_replication(ReplicationPolicy::Fixed(0));
        assert_eq!(map_network(&net, &cfg), Err(MappingError::ZeroReplication));
    }

    #[test]
    fn fc_layer_maps_to_single_step() {
        let fc = LayerSpec::Fc {
            in_features: 4096,
            out_features: 1000,
        };
        let cfg =
            AcceleratorConfig::default().with_replication(ReplicationPolicy::MaxStepsPerLayer(64));
        let m = LayerMapping::map_with_policy(&fc, &cfg).unwrap();
        assert_eq!(m.mvms_per_input, 1);
        assert_eq!(m.steps_per_input, 1);
        // 4096/128 row tiles x 1000/32 col tiles (16-bit weights, 4 slices).
        assert_eq!(m.row_tiles, 32);
        assert_eq!(m.col_tiles, 32);
    }

    #[test]
    fn map_network_covers_weighted_layers() {
        let net = reram_nn::models::lenet_spec();
        let maps = map_network(&net, &AcceleratorConfig::default()).unwrap();
        assert_eq!(maps.len(), net.weighted_layer_count());
        assert!(maps.iter().all(|m| m.arrays > 0));
    }
}
