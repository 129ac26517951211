//! Golden serving reports.
//!
//! Each case runs one traffic shape under one placement policy on a
//! three-chip heterogeneous cluster (64², 128² and 256² crossbar arrays),
//! so every chip prices batches differently, and compares the report JSON
//! byte for byte against a pinned literal. The trace case is built so
//! that arrivals coincide with linger deadlines, with a batch completion
//! and with each other: the order of same-nanosecond events is part of the
//! pinned behaviour.
#![expect(
    clippy::expect_used,
    reason = "shared setup helpers abort on a setup error, which fails the calling test"
)]

use reram_core::AcceleratorConfig;
use reram_crossbar::CrossbarConfig;
use reram_nn::models;
use reram_serve::{
    generate_requests, BatcherConfig, Cluster, ModelMix, Policy, ServeSim, TrafficModel,
};

const HORIZON_NS: u64 = 2_000_000;
const SEED: u64 = 5;

fn cluster() -> Cluster {
    let configs: Vec<AcceleratorConfig> = [64, 128, 256]
        .iter()
        .map(|&n| AcceleratorConfig {
            crossbar: CrossbarConfig::default().with_array_size(n, n),
            ..AcceleratorConfig::default()
        })
        .collect();
    Cluster::heterogeneous(&configs, &[models::lenet_spec(), models::alexnet_spec()])
        .expect("zoo models lower on every geometry")
}

fn poisson() -> TrafficModel {
    // The cluster saturates near 5 Mrps on this mix.
    TrafficModel::Poisson {
        rate_rps: 4_500_000.0,
    }
}

fn bursty() -> TrafficModel {
    TrafficModel::Bursty {
        base_rps: 2_000_000.0,
        burst_rps: 8_000_000.0,
        mean_base_ns: 300_000.0,
        mean_burst_ns: 100_000.0,
    }
}

/// A replayed trace that puts simultaneous events on the same nanosecond:
///
/// * a lone LeNet request at 0 ns lingers out onto chip 0, and sixteen more
///   arrive exactly when chip 0 finishes it, so under least-loaded the
///   pick depends on whether that completion is handled before the
///   arrivals;
/// * from 200 µs, one request every 5 µs, alternating models, so each
///   model's 20 µs linger deadline lands on one of its own arrivals;
/// * from 1.7 ms, four arrivals on every microsecond.
///
/// The entries are listed out of time order; the generator replays them
/// in stable time order.
fn trace() -> TrafficModel {
    let probe_done_ns = 20_000 + cluster().chips[0].batch_service_ns(0, 1);
    assert!(probe_done_ns < 200_000, "probe overlaps the sparse block");
    let probe = std::iter::once((0, 0)).chain(std::iter::repeat_n((probe_done_ns, 0), 16));
    let sparse = (0..300u64).map(|k| (200_000 + k * 5_000, (k % 2) as usize));
    let dense = (0..400u64).map(|i| (1_700_000 + (i % 100) * 1_000, usize::from(i * 37 % 10 < 3)));
    TrafficModel::Trace {
        arrivals: dense.chain(sparse).chain(probe).collect(),
    }
}

fn report_json(traffic: &TrafficModel, policy: Policy) -> String {
    let mix = ModelMix::new(&[0.7, 0.3]).expect("mix");
    let arrivals = generate_requests(traffic, &mix, HORIZON_NS, SEED).expect("generable");
    ServeSim::new(
        cluster(),
        BatcherConfig::default(),
        policy.scheduler(),
        SEED,
    )
    .expect("buildable")
    .run(arrivals)
    .to_json()
}

fn assert_golden(traffic: &TrafficModel, golden: [&str; 3]) {
    for (policy, want) in Policy::ALL.into_iter().zip(golden) {
        assert_eq!(report_json(traffic, policy), want, "{}", policy.name());
    }
}

#[test]
fn poisson_near_capacity_matches_golden() {
    assert_golden(&poisson(), POISSON);
}

#[test]
fn bursty_mmpp_matches_golden() {
    assert_golden(&bursty(), BURSTY);
}

#[test]
fn trace_with_same_instant_events_matches_golden() {
    assert_golden(&trace(), TRACE);
}

const POISSON: [&str; 3] = [
    r#"{
  "policy": "round-robin",
  "seed": 5,
  "requests_admitted": 8853,
  "requests_completed": 8853,
  "batches": 554,
  "mean_batch_size": 15.98014440433213,
  "makespan_ns": 71850895,
  "throughput_rps": 123213.49650550631,
  "mean_latency_ns": 10293237.13362702,
  "p50_latency_ns": 692226,
  "p95_latency_ns": 52667295,
  "p99_latency_ns": 67801465,
  "max_latency_ns": 69860300,
  "total_energy_uj": 7875797.615128,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 2958,
      "batches_served": 185,
      "utilization": 0.9997039981199956,
      "energy_uj": 4775698.312128
    },
    {
      "chip": 1,
      "completed_requests": 2953,
      "batches_served": 185,
      "utilization": 0.04312866248917289,
      "energy_uj": 2112147.765528
    },
    {
      "chip": 2,
      "completed_requests": 2942,
      "batches_served": 184,
      "utilization": 0.021326915969522717,
      "energy_uj": 987951.537472
    }
  ]
}"#,
    r#"{
  "policy": "least-loaded",
  "seed": 5,
  "requests_admitted": 8853,
  "requests_completed": 8853,
  "batches": 554,
  "mean_batch_size": 15.98014440433213,
  "makespan_ns": 26592670,
  "throughput_rps": 332911.2872080915,
  "mean_latency_ns": 1872115.0477804134,
  "p50_latency_ns": 398802,
  "p95_latency_ns": 13290756,
  "p99_latency_ns": 22523236,
  "max_latency_ns": 24651861,
  "total_energy_uj": 5684510.40924,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 1152,
      "batches_served": 72,
      "utilization": 0.9997573015421167,
      "energy_uj": 1767006.615552
    },
    {
      "chip": 1,
      "completed_requests": 2960,
      "batches_served": 185,
      "utilization": 0.11409290605268294,
      "energy_uj": 2038949.97632
    },
    {
      "chip": 2,
      "completed_requests": 4741,
      "batches_served": 297,
      "utilization": 0.09690192823811976,
      "energy_uj": 1878553.8173679998
    }
  ]
}"#,
    r#"{
  "policy": "plan-cost-aware",
  "seed": 5,
  "requests_admitted": 8853,
  "requests_completed": 8853,
  "batches": 554,
  "mean_batch_size": 15.98014440433213,
  "makespan_ns": 2030017,
  "throughput_rps": 4361047.222757247,
  "mean_latency_ns": 21274.131141985767,
  "p50_latency_ns": 13830,
  "p95_latency_ns": 48934,
  "p99_latency_ns": 53922,
  "max_latency_ns": 60424,
  "total_energy_uj": 3870469.128728,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 4128,
      "batches_served": 258,
      "utilization": 0.820001014769827,
      "energy_uj": 19619.789568
    },
    {
      "chip": 1,
      "completed_requests": 2393,
      "batches_served": 150,
      "utilization": 0.870593694535563,
      "energy_uj": 898810.8011759999
    },
    {
      "chip": 2,
      "completed_requests": 2332,
      "batches_served": 146,
      "utilization": 0.9968029824380781,
      "energy_uj": 2952038.537984
    }
  ]
}"#,
];

const BURSTY: [&str; 3] = [
    r#"{
  "policy": "round-robin",
  "seed": 5,
  "requests_admitted": 9593,
  "requests_completed": 9593,
  "batches": 611,
  "mean_batch_size": 15.700490998363339,
  "makespan_ns": 65473367,
  "throughput_rps": 146517.59088546643,
  "mean_latency_ns": 11739090.863859063,
  "p50_latency_ns": 814310,
  "p95_latency_ns": 60734212,
  "p99_latency_ns": 62801351,
  "max_latency_ns": 63485572,
  "total_energy_uj": 8043353.536992,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 3222,
      "batches_served": 204,
      "utilization": 0.9988007184661818,
      "energy_uj": 4299871.665472
    },
    {
      "chip": 1,
      "completed_requests": 3164,
      "batches_served": 204,
      "utilization": 0.05618059935729287,
      "energy_uj": 2599206.678976
    },
    {
      "chip": 2,
      "completed_requests": 3207,
      "batches_served": 203,
      "utilization": 0.026027590730136118,
      "energy_uj": 1144275.192544
    }
  ]
}"#,
    r#"{
  "policy": "least-loaded",
  "seed": 5,
  "requests_admitted": 9593,
  "requests_completed": 9593,
  "batches": 611,
  "mean_batch_size": 15.700490998363339,
  "makespan_ns": 42266717,
  "throughput_rps": 226963.4521176556,
  "mean_latency_ns": 3600237.485875117,
  "p50_latency_ns": 460831,
  "p95_latency_ns": 30827057,
  "p99_latency_ns": 38395831,
  "max_latency_ns": 40411492,
  "total_energy_uj": 6768528.579039999,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 1505,
      "batches_served": 95,
      "utilization": 0.9992318305677728,
      "energy_uj": 2800831.63472
    },
    {
      "chip": 1,
      "completed_requests": 3385,
      "batches_served": 213,
      "utilization": 0.07815636591789232,
      "energy_uj": 2136315.250464
    },
    {
      "chip": 2,
      "completed_requests": 4703,
      "batches_served": 303,
      "utilization": 0.060897419593766884,
      "energy_uj": 1831381.693856
    }
  ]
}"#,
    r#"{
  "policy": "plan-cost-aware",
  "seed": 5,
  "requests_admitted": 9593,
  "requests_completed": 9593,
  "batches": 611,
  "mean_batch_size": 15.700490998363339,
  "makespan_ns": 2222554,
  "throughput_rps": 4316205.590505337,
  "mean_latency_ns": 145281.6032523715,
  "p50_latency_ns": 143934,
  "p95_latency_ns": 299731,
  "p99_latency_ns": 331582,
  "max_latency_ns": 355331,
  "total_energy_uj": 4337701.42768,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 4856,
      "batches_served": 304,
      "utilization": 0.881339216055043,
      "energy_uj": 23079.868736
    },
    {
      "chip": 1,
      "completed_requests": 2217,
      "batches_served": 140,
      "utilization": 0.9280791377847287,
      "energy_uj": 1284239.500832
    },
    {
      "chip": 2,
      "completed_requests": 2520,
      "batches_served": 167,
      "utilization": 0.9718589514585473,
      "energy_uj": 3030382.0581119996
    }
  ]
}"#,
];

const TRACE: [&str; 3] = [
    r#"{
  "policy": "round-robin",
  "seed": 5,
  "requests_admitted": 717,
  "requests_completed": 717,
  "batches": 128,
  "mean_batch_size": 5.6015625,
  "makespan_ns": 10668754,
  "throughput_rps": 67205.59870440353,
  "mean_latency_ns": 1507835.429567643,
  "p50_latency_ns": 23929,
  "p95_latency_ns": 7146795,
  "p99_latency_ns": 8872754,
  "max_latency_ns": 8875754,
  "total_energy_uj": 768641.0352399999,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 236,
      "batches_served": 43,
      "utilization": 0.9790610037498287,
      "energy_uj": 491965.038136
    },
    {
      "chip": 1,
      "completed_requests": 251,
      "batches_served": 43,
      "utilization": 0.034422107773785016,
      "energy_uj": 148582.05101599998
    },
    {
      "chip": 2,
      "completed_requests": 230,
      "batches_served": 42,
      "utilization": 0.019268041985034054,
      "energy_uj": 128093.946088
    }
  ]
}"#,
    r#"{
  "policy": "least-loaded",
  "seed": 5,
  "requests_admitted": 717,
  "requests_completed": 717,
  "batches": 128,
  "mean_batch_size": 5.6015625,
  "makespan_ns": 2900748,
  "throughput_rps": 247177.6245299488,
  "mean_latency_ns": 80569.10041841005,
  "p50_latency_ns": 22248,
  "p95_latency_ns": 398633,
  "p99_latency_ns": 1111296,
  "max_latency_ns": 1114296,
  "total_energy_uj": 631717.637096,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 121,
      "batches_served": 15,
      "utilization": 0.914340025400345,
      "energy_uj": 129020.088056
    },
    {
      "chip": 1,
      "completed_requests": 372,
      "batches_served": 98,
      "utilization": 0.3152972957319974,
      "energy_uj": 428867.168304
    },
    {
      "chip": 2,
      "completed_requests": 224,
      "batches_served": 15,
      "utilization": 0.04086566637294932,
      "energy_uj": 73830.38073599999
    }
  ]
}"#,
    r#"{
  "policy": "plan-cost-aware",
  "seed": 5,
  "requests_admitted": 717,
  "requests_completed": 717,
  "batches": 128,
  "mean_batch_size": 5.6015625,
  "makespan_ns": 1821858,
  "throughput_rps": 393554.27261619724,
  "mean_latency_ns": 13313.599721059973,
  "p50_latency_ns": 10452,
  "p95_latency_ns": 25745,
  "p99_latency_ns": 28919,
  "max_latency_ns": 28990,
  "total_energy_uj": 348529.00349599996,
  "chips": [
    {
      "chip": 0,
      "completed_requests": 128,
      "batches_served": 8,
      "utilization": 0.028331516506774953,
      "energy_uj": 608.3655679999999
    },
    {
      "chip": 1,
      "completed_requests": 136,
      "batches_served": 9,
      "utilization": 0.030365703583923664,
      "energy_uj": 1122.1142399999999
    },
    {
      "chip": 2,
      "completed_requests": 453,
      "batches_served": 111,
      "utilization": 0.2788532366408359,
      "energy_uj": 346798.523688
    }
  ]
}"#,
];
