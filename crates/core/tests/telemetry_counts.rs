//! Telemetry counters observed from an instrumented crossbar simulation must
//! match the closed-form predictions of the execution plan and endurance
//! models — the contract that lets the cheap analytical path stand in for
//! the simulator in the evaluation artifacts.

use std::sync::Arc;

use reram_core::plan::{adc_conversions, cell_writes};
use reram_core::{AcceleratorConfig, EnduranceReport, ExecutionPlan, ReplicationPolicy};
use reram_crossbar::TiledMatrix;
use reram_nn::{LayerSpec, NetworkSpec};
use reram_telemetry::{scoped_recorder, CounterRecorder, Event};
use reram_tensor::{Matrix, Shape2, Shape4};

/// A single fully-connected layer: one crossbar grid, one MVM per input —
/// small enough to simulate, rich enough to exercise row/column tiling.
fn probe_net(in_features: usize, out_features: usize) -> NetworkSpec {
    NetworkSpec::new(
        "fc-probe",
        Shape4::new(1, in_features, 1, 1),
        vec![LayerSpec::Fc {
            in_features,
            out_features,
        }],
    )
}

#[test]
fn simulated_counts_match_plan_and_endurance_closed_forms() {
    // Replication off so the analytical mapping describes exactly the grid
    // the simulator programs; the default config is an ideal (noise-free)
    // device, so no spike pass is legally skipped for being all-zero.
    let config = AcceleratorConfig::default().with_replication(ReplicationPolicy::None);
    let (in_features, out_features) = (200, 40);
    let net = probe_net(in_features, out_features);
    let plan = ExecutionPlan::lower(&net, &config).expect("probe lowers");
    let m = &plan.layers[0].mapping;
    assert!(
        m.row_tiles > 1 && m.col_tiles > 1,
        "probe must tile both ways"
    );

    let counters = Arc::new(CounterRecorder::new());
    let _guard = scoped_recorder(counters.clone());

    let w = Matrix::from_fn(Shape2::new(out_features, in_features), |r, c| {
        ((r + 2 * c) % 7) as f32 - 3.0
    });
    let mut grid = TiledMatrix::program(&w, &config.crossbar);
    assert_eq!(grid.grid(), (m.row_tiles, m.col_tiles));
    assert_eq!(grid.array_count(), m.arrays);

    // A weight update reprograms every cell of every array exactly once —
    // the count behind ExecutionPlan::update_energy_pj and the
    // one-write-per-cell-per-batch wear unit of EnduranceReport. (Initial
    // construction also forms cells, so measure the reprogram delta.)
    let writes_before = counters.count(Event::CellWrite);
    let w2 = Matrix::from_fn(Shape2::new(out_features, in_features), |r, c| {
        ((2 * r + c) % 5) as f32 - 2.0
    });
    grid.reprogram(&w2);
    assert_eq!(
        counters.count(Event::CellWrite) - writes_before,
        cell_writes(m, &config),
        "one weight update must write each cell once"
    );
    assert_eq!(counters.count(Event::WeightUpdate), 1);
    let endurance = EnduranceReport::analyze(&net, &config, 32);
    assert_eq!(endurance.writes_per_batch, 1);

    // One forward MVM with strictly positive inputs (zero or negative
    // inputs legally skip spike passes, which the closed form, like the
    // cost model, does not discount).
    let before = counters.count(Event::AdcConversion);
    assert_eq!(before, 0, "programming must not convert anything");
    let x: Vec<f32> = (0..in_features).map(|i| 1.0 + (i % 3) as f32).collect();
    let _ = grid.matvec(&x);
    assert_eq!(
        counters.count(Event::AdcConversion),
        adc_conversions(m, &config),
        "one forward pass must convert frames x bitlines on every array"
    );
    assert_eq!(counters.count(Event::CrossbarMvm), m.arrays as u64);
    assert_eq!(
        counters.count(Event::SpikeFrame),
        m.arrays as u64 * u64::from(config.crossbar.input_bits)
    );
    // Every engaged array's spike driver converts one code per wordline.
    assert_eq!(
        counters.count(Event::DacConversion),
        m.arrays as u64 * config.crossbar.rows as u64
    );
}
