//! Every telemetry event is emitted by some simulated path.
//!
//! One run of each instrumented subsystem — a compiled bank forward pass,
//! the cycle-stepped training pipeline, one trainer step and one serving
//! simulation — must move every counter of `Event::ALL`. An event no path
//! records would print a permanent zero in every `RunReport`: either wire
//! it up where the modelled hardware activity happens or delete it.
//!
//! The recorder is process-wide, so this is the only test in its binary.

use std::sync::Arc;

use reram_serve::{simulate, ServeConfig, TrafficModel};
use reram_suite::core::{AcceleratorConfig, CompiledNetwork, NetStage, PipelineModel};
use reram_suite::crossbar::CrossbarConfig;
use reram_suite::nn::layers::{Flatten, Linear};
use reram_suite::nn::{models, Network, TrainConfig, Trainer};
use reram_suite::tensor::{init, Matrix, Shape2, Shape4, Tensor};
use reram_telemetry::{scoped_recorder, CounterRecorder, Event};

#[test]
fn every_event_is_emitted() {
    let counters = Arc::new(CounterRecorder::new());
    {
        let _guard = scoped_recorder(counters.clone());

        let weights = Matrix::from_fn(Shape2::new(4, 8), |r, c| {
            ((r * 8 + c) % 5) as f32 / 5.0 - 0.4
        });
        let stages = vec![NetStage::Fc {
            weights,
            activation: None,
        }];
        let mut bank = CompiledNetwork::compile((8, 1, 1), stages, &CrossbarConfig::default())
            .expect("compiles");
        let _ = bank.forward(&[0.5; 8]);

        let _ = PipelineModel::new(3, 2).simulate_training(4);

        let mut rng = init::seeded_rng(3);
        let mut net = Network::new("coverage", Shape4::new(1, 1, 2, 2))
            .push(Flatten::new())
            .push(Linear::new(4, 2, &mut rng));
        let images = Tensor::from_vec(Shape4::new(2, 1, 2, 2), vec![0.25; 8]);
        let _ = Trainer::new(TrainConfig::default()).step(&mut net, &images, &[0, 1]);

        let config = ServeConfig {
            chips: 2,
            traffic: TrafficModel::Poisson {
                rate_rps: 100_000.0,
            },
            mix: vec![1.0],
            horizon_ns: 1_000_000,
            seed: 5,
            ..ServeConfig::default()
        };
        let _ = simulate(
            &config,
            &[models::lenet_spec()],
            &AcceleratorConfig::default(),
        )
        .expect("simulates");
    }
    let silent: Vec<&str> = Event::ALL
        .iter()
        .filter(|&&e| counters.count(e) == 0)
        .map(|e| e.name())
        .collect();
    assert!(silent.is_empty(), "events never emitted: {silent:?}");
}
