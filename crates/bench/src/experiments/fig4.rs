//! E1 — Fig. 4: naïve vs. balanced data mapping and the replication
//! trade-off.
//!
//! Reproduces the paper's worked example: the CONV layer
//! 114×114×128 → 112×112×256 with 3×3 kernels, whose kernel matrix is
//! 1152×256 and which needs 12544 input vectors per image. Sweeps the
//! replication factor `X` to show the cycles-versus-arrays trade-off the
//! paper calls "a carefully chosen X".

use crate::Table;
use reram_core::{AcceleratorConfig, LayerMapping, MappingScheme};
use reram_crossbar::CrossbarConfig;
use reram_nn::LayerSpec;

/// The Fig. 4 example layer.
pub fn fig4_layer() -> LayerSpec {
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

/// Accelerator config with 4-bit weights (one cell per weight), matching
/// the figure's 128-logical-column arrays.
pub fn fig4_config() -> AcceleratorConfig {
    AcceleratorConfig {
        crossbar: CrossbarConfig {
            weight_bits: 4,
            cell_bits: 4,
            ..CrossbarConfig::default()
        },
        ..AcceleratorConfig::default()
    }
}

/// The replication factors swept (the paper highlights X = 1, 256, 12544).
pub const REPLICATIONS: [usize; 6] = [1, 16, 64, 256, 1024, 12544];

/// Maps the Fig. 4 layer at replication `x`.
pub fn measure(x: usize) -> LayerMapping {
    LayerMapping::map(
        &fig4_layer(),
        &fig4_config(),
        MappingScheme::Balanced { replication: x },
    )
}

/// Runs the full experiment.
pub fn run() -> Table {
    let cfg = fig4_config();
    let naive = LayerMapping::map(&fig4_layer(), &cfg, MappingScheme::Naive);
    let mut t = Table::new([
        "scheme",
        "X",
        "grid",
        "arrays",
        "steps/input",
        "latency/input",
    ]);
    t.row([
        "naive (Fig.4a)".to_string(),
        "-".to_string(),
        "1 x 1 (logical)".to_string(),
        naive.arrays.to_string(),
        naive.steps_per_input.to_string(),
        crate::table::seconds(naive.stage_latency_ns().to_seconds().0),
    ]);
    for x in REPLICATIONS {
        let m = measure(x);
        t.row([
            "balanced (Fig.4b)".to_string(),
            x.to_string(),
            format!("{} x {}", m.row_tiles, m.col_tiles),
            m.arrays.to_string(),
            m.steps_per_input.to_string(),
            crate::table::seconds(m.stage_latency_ns().to_seconds().0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_constants() {
        let m = measure(1);
        assert_eq!(m.mvms_per_input, 12544);
        assert_eq!((m.row_tiles, m.col_tiles), (9, 2));
    }

    #[test]
    fn x_one_equals_naive_steps() {
        let naive = LayerMapping::map(&fig4_layer(), &fig4_config(), MappingScheme::Naive);
        assert_eq!(measure(1).steps_per_input, naive.steps_per_input);
    }

    #[test]
    fn full_replication_single_cycle() {
        assert_eq!(measure(12544).steps_per_input, 1);
    }

    #[test]
    fn monotone_tradeoff() {
        let rows: Vec<_> = REPLICATIONS.iter().map(|&x| measure(x)).collect();
        for w in rows.windows(2) {
            assert!(w[0].steps_per_input >= w[1].steps_per_input);
            assert!(w[0].arrays < w[1].arrays);
        }
    }

    #[test]
    fn run_has_naive_plus_sweep() {
        assert_eq!(run().len(), 1 + REPLICATIONS.len());
    }
}
