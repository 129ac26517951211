//! The serve loop's telemetry events must count exactly what its report
//! says: one `RequestEnqueued` per admitted request, one
//! `RequestCompleted` per completion and one `BatchFormed` per batch.
//!
//! The recorder is process-wide, so this is the only test in its binary:
//! any other test calling `simulate` in the same process, even without
//! installing a recorder, would add its events to these counters.

use std::sync::Arc;

use reram_core::AcceleratorConfig;
use reram_nn::models;
use reram_serve::{simulate, ServeConfig, TrafficModel};
use reram_telemetry::{scoped_recorder, CounterRecorder, Event};

#[test]
fn telemetry_events_flow() {
    let config = ServeConfig {
        chips: 4,
        traffic: TrafficModel::Poisson {
            rate_rps: 200_000.0,
        },
        mix: vec![0.7, 0.3],
        horizon_ns: 5_000_000,
        seed: 11,
        ..ServeConfig::default()
    };
    let catalog = [models::lenet_spec(), models::alexnet_spec()];
    let counters = Arc::new(CounterRecorder::new());
    let report;
    {
        let _guard = scoped_recorder(counters.clone());
        report = simulate(&config, &catalog, &AcceleratorConfig::default()).expect("simulates");
    }
    assert_eq!(
        counters.count(Event::RequestEnqueued),
        report.requests_admitted
    );
    assert_eq!(
        counters.count(Event::RequestCompleted),
        report.requests_completed
    );
    assert_eq!(counters.count(Event::BatchFormed), report.batches);
}
