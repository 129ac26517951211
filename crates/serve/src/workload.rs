//! Seeded workload generators: stationary Poisson, bursty MMPP, and traces.
//!
//! A [`RequestStream`] turns a [`TrafficModel`] plus a [`ModelMix`] into
//! the sorted sequence of [`Request`]s over a fixed horizon of simulated
//! nanoseconds, one request at a time; [`generate_requests`] collects it.
//! All randomness comes from one seeded [`StdRng`], so a `(traffic, mix,
//! horizon, seed)` tuple always reproduces the same arrival sequence —
//! the foundation of the simulator's byte-identical replay guarantee.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::ServeError;

/// One inference request admitted to the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Dense id in arrival order, `0..n`.
    pub id: u64,
    /// Index into the model catalog this request targets.
    pub model: usize,
    /// Simulated arrival time, nanoseconds.
    pub arrival_ns: u64,
}

/// Relative traffic weights over the model catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMix {
    /// Cumulative normalized weights, one entry per catalog model; the last
    /// entry is 1.0.
    cumulative: Vec<f64>,
}

impl ModelMix {
    /// Builds a mix from one non-negative weight per catalog model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadMix`] when `weights` is empty, contains a
    /// negative or non-finite weight, or sums to zero or past `f64::MAX`.
    #[must_use = "the built mix is the result"]
    pub fn new(weights: &[f64]) -> Result<Self, ServeError> {
        if weights.is_empty() || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ServeError::BadMix);
        }
        let total: f64 = weights.iter().sum();
        if !(total > 0.0 && total.is_finite()) {
            return Err(ServeError::BadMix);
        }
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Ok(Self { cumulative })
    }

    /// A mix sending equal traffic to each of `models` catalog entries.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadMix`] when `models == 0`.
    #[must_use = "the built mix is the result"]
    pub fn uniform(models: usize) -> Result<Self, ServeError> {
        Self::new(&vec![1.0; models])
    }

    /// Number of catalog models the mix covers.
    pub fn models(&self) -> usize {
        self.cumulative.len()
    }

    /// Draws one model index.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cumulative
            .iter()
            .position(|c| u < *c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// How requests arrive over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// Stationary Poisson arrivals: exponential inter-arrival gaps at
    /// `rate_rps` requests per second.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
    },
    /// Two-state Markov-modulated Poisson process: the source alternates
    /// between a base state and a burst state, each with exponentially
    /// distributed dwell times, emitting Poisson arrivals at the state's
    /// rate. Models flash crowds and diurnal spikes.
    Bursty {
        /// Arrival rate in the base state, requests per second.
        base_rps: f64,
        /// Arrival rate in the burst state, requests per second.
        burst_rps: f64,
        /// Mean dwell time in the base state, nanoseconds.
        mean_base_ns: f64,
        /// Mean dwell time in the burst state, nanoseconds.
        mean_burst_ns: f64,
    },
    /// Replay a recorded trace of `(arrival_ns, model)` pairs verbatim
    /// (entries beyond the horizon are dropped; the mix is ignored).
    Trace {
        /// Arrival time and catalog model index per request.
        arrivals: Vec<(u64, usize)>,
    },
}

impl TrafficModel {
    /// Long-run mean arrival rate, requests per second — the `λ` the
    /// static feasibility check compares against the cluster's service
    /// capacity. Poisson is its rate; the bursty MMPP averages its two
    /// states by dwell time; a trace counts its in-horizon arrivals.
    #[must_use = "the computed rate is the result"]
    pub fn mean_rate_rps(&self, horizon_ns: u64) -> f64 {
        match self {
            TrafficModel::Poisson { rate_rps } => *rate_rps,
            TrafficModel::Bursty {
                base_rps,
                burst_rps,
                mean_base_ns,
                mean_burst_ns,
            } => {
                let dwell = mean_base_ns + mean_burst_ns;
                if dwell <= 0.0 || !dwell.is_finite() {
                    return 0.0;
                }
                (base_rps * mean_base_ns + burst_rps * mean_burst_ns) / dwell
            }
            TrafficModel::Trace { arrivals } => {
                if horizon_ns == 0 {
                    return 0.0;
                }
                let in_horizon = arrivals.iter().filter(|(t, _)| *t < horizon_ns).count();
                in_horizon as f64 / (horizon_ns as f64 * 1e-9)
            }
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        let ok = |x: f64| x.is_finite() && x > 0.0;
        match self {
            TrafficModel::Poisson { rate_rps } => {
                if !ok(*rate_rps) {
                    return Err(ServeError::BadTraffic);
                }
            }
            TrafficModel::Bursty {
                base_rps,
                burst_rps,
                mean_base_ns,
                mean_burst_ns,
            } => {
                if !(ok(*base_rps) && ok(*burst_rps) && ok(*mean_base_ns) && ok(*mean_burst_ns)) {
                    return Err(ServeError::BadTraffic);
                }
            }
            TrafficModel::Trace { .. } => {}
        }
        Ok(())
    }
}

/// Draws an exponential gap with the given mean, nanoseconds (≥ 1 so time
/// strictly advances between draws).
fn exp_gap_ns(mean_ns: f64, rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen();
    // ln(1 - u) is finite for u ∈ [0, 1).
    let gap = -mean_ns * (1.0 - u).ln();
    (gap.round() as u64).max(1)
}

/// Where the next arrival comes from, with the generator state it needs.
#[derive(Debug, Clone)]
enum Source {
    Poisson {
        mean_gap_ns: f64,
        t: u64,
    },
    Bursty {
        base_rps: f64,
        burst_rps: f64,
        mean_base_ns: f64,
        mean_burst_ns: f64,
        in_burst: bool,
        t: u64,
        state_end: u64,
    },
    /// The in-horizon trace entries, sorted by arrival time.
    Trace(std::vec::IntoIter<(u64, usize)>),
}

/// The request sequence of one [`TrafficModel`] over a horizon, generated
/// lazily in arrival order.
///
/// Memory is O(1) for the Poisson and bursty generators (a trace keeps its
/// in-horizon entries), so a simulation can stream arbitrarily long
/// horizons. [`generate_requests`] collects it into a vector. Once it
/// returns `None` it keeps returning `None`.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: StdRng,
    mix: ModelMix,
    horizon_ns: u64,
    next_id: u64,
    source: Source,
}

impl RequestStream {
    /// Starts the seeded request sequence of `traffic` over `horizon_ns`
    /// simulated nanoseconds, tagging each request with a model drawn from
    /// `mix`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadTraffic`] for non-positive rates or dwell
    /// times, and [`ServeError::BadMix`] when an in-horizon trace entry's
    /// model index is outside the mix.
    #[must_use = "the request stream is the result"]
    pub fn new(
        traffic: &TrafficModel,
        mix: &ModelMix,
        horizon_ns: u64,
        seed: u64,
    ) -> Result<Self, ServeError> {
        traffic.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let source = match traffic {
            TrafficModel::Poisson { rate_rps } => Source::Poisson {
                mean_gap_ns: 1e9 / rate_rps,
                t: 0,
            },
            TrafficModel::Bursty {
                base_rps,
                burst_rps,
                mean_base_ns,
                mean_burst_ns,
            } => Source::Bursty {
                base_rps: *base_rps,
                burst_rps: *burst_rps,
                mean_base_ns: *mean_base_ns,
                mean_burst_ns: *mean_burst_ns,
                in_burst: false,
                t: 0,
                state_end: exp_gap_ns(*mean_base_ns, &mut rng),
            },
            TrafficModel::Trace { arrivals } => {
                let mut kept = Vec::new();
                for &(arrival_ns, model) in arrivals {
                    if arrival_ns >= horizon_ns {
                        continue;
                    }
                    if model >= mix.models() {
                        return Err(ServeError::BadMix);
                    }
                    kept.push((arrival_ns, model));
                }
                // Stable: same-instant entries keep their trace order.
                kept.sort_by_key(|&(arrival_ns, _)| arrival_ns);
                Source::Trace(kept.into_iter())
            }
        };
        Ok(Self {
            rng,
            mix: mix.clone(),
            horizon_ns,
            next_id: 0,
            source,
        })
    }

    /// The next arrival time and model, or `None` once the horizon passes.
    #[inline]
    fn draw(&mut self) -> Option<(u64, usize)> {
        let rng = &mut self.rng;
        match &mut self.source {
            Source::Poisson { mean_gap_ns, t } => {
                *t = t.saturating_add(exp_gap_ns(*mean_gap_ns, rng));
                if *t >= self.horizon_ns {
                    return None;
                }
                Some((*t, self.mix.sample(rng)))
            }
            Source::Bursty {
                base_rps,
                burst_rps,
                mean_base_ns,
                mean_burst_ns,
                in_burst,
                t,
                state_end,
            } => {
                while *t < self.horizon_ns {
                    let rate = if *in_burst { *burst_rps } else { *base_rps };
                    let next = t.saturating_add(exp_gap_ns(1e9 / rate, rng));
                    if next >= *state_end {
                        // State expires before the next arrival: switch
                        // state and restart the (memoryless) arrival draw
                        // there.
                        *t = *state_end;
                        *in_burst = !*in_burst;
                        let dwell = if *in_burst {
                            *mean_burst_ns
                        } else {
                            *mean_base_ns
                        };
                        *state_end = state_end.saturating_add(exp_gap_ns(dwell, rng));
                        continue;
                    }
                    *t = next;
                    if *t >= self.horizon_ns {
                        break;
                    }
                    return Some((*t, self.mix.sample(rng)));
                }
                None
            }
            Source::Trace(arrivals) => arrivals.next(),
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    #[inline]
    fn next(&mut self) -> Option<Request> {
        let (arrival_ns, model) = self.draw()?;
        let id = self.next_id;
        self.next_id += 1;
        Some(Request {
            id,
            model,
            arrival_ns,
        })
    }
}

impl std::iter::FusedIterator for RequestStream {}

/// Generates the sorted request sequence of `traffic` over `horizon_ns`
/// simulated nanoseconds, tagging each request with a model drawn from
/// `mix`: the whole [`RequestStream`], collected into a vector.
///
/// # Errors
///
/// Returns [`ServeError::BadTraffic`] for non-positive rates or dwell
/// times, and [`ServeError::BadMix`] when a trace entry's model index is
/// outside the mix.
#[must_use = "the generated requests are the result"]
pub fn generate_requests(
    traffic: &TrafficModel,
    mix: &ModelMix,
    horizon_ns: u64,
    seed: u64,
) -> Result<Vec<Request>, ServeError> {
    // A push loop rather than `collect()`: `Vec`'s generic extend path
    // compiles this generator about twice as slow.
    let mut requests = Vec::new();
    for request in RequestStream::new(traffic, mix, horizon_ns, seed)? {
        requests.push(request);
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(traffic: &TrafficModel, horizon_ns: u64, seed: u64) -> usize {
        let mix = ModelMix::uniform(2).expect("mix");
        generate_requests(traffic, &mix, horizon_ns, seed)
            .expect("generable")
            .len()
    }

    #[test]
    fn poisson_rate_is_respected_on_average() {
        // 100k rps over 10 ms ⇒ ~1000 arrivals.
        let n = count(
            &TrafficModel::Poisson {
                rate_rps: 100_000.0,
            },
            10_000_000,
            7,
        );
        assert!((800..1200).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn arrivals_are_sorted_unique_ids_and_within_horizon() {
        let mix = ModelMix::new(&[0.7, 0.3]).expect("mix");
        let reqs = generate_requests(
            &TrafficModel::Bursty {
                base_rps: 50_000.0,
                burst_rps: 500_000.0,
                mean_base_ns: 1_000_000.0,
                mean_burst_ns: 250_000.0,
            },
            &mix,
            5_000_000,
            3,
        )
        .expect("generable");
        assert!(!reqs.is_empty());
        for (i, pair) in reqs.windows(2).enumerate() {
            assert!(pair[0].arrival_ns <= pair[1].arrival_ns);
            assert_eq!(pair[0].id, i as u64);
        }
        assert!(reqs.iter().all(|r| r.arrival_ns < 5_000_000 && r.model < 2));
    }

    #[test]
    fn bursty_outpaces_base_rate() {
        let base = count(
            &TrafficModel::Poisson { rate_rps: 50_000.0 },
            20_000_000,
            11,
        );
        let bursty = count(
            &TrafficModel::Bursty {
                base_rps: 50_000.0,
                burst_rps: 1_000_000.0,
                mean_base_ns: 1_000_000.0,
                mean_burst_ns: 1_000_000.0,
            },
            20_000_000,
            11,
        );
        assert!(bursty > base, "bursty {bursty} <= base {base}");
    }

    #[test]
    fn same_seed_same_stream() {
        let traffic = TrafficModel::Poisson { rate_rps: 80_000.0 };
        let mix = ModelMix::uniform(3).expect("mix");
        let a = generate_requests(&traffic, &mix, 4_000_000, 99).expect("a");
        let b = generate_requests(&traffic, &mix, 4_000_000, 99).expect("b");
        assert_eq!(a, b);
        let c = generate_requests(&traffic, &mix, 4_000_000, 100).expect("c");
        assert_ne!(a, c);
    }

    #[test]
    fn stream_stays_exhausted_after_the_horizon() {
        let mix = ModelMix::uniform(2).expect("mix");
        for traffic in [
            TrafficModel::Poisson {
                rate_rps: 500_000.0,
            },
            TrafficModel::Bursty {
                base_rps: 100_000.0,
                burst_rps: 1_000_000.0,
                mean_base_ns: 200_000.0,
                mean_burst_ns: 50_000.0,
            },
            TrafficModel::Trace {
                arrivals: vec![(5, 0), (1, 1), (2_000, 0)],
            },
        ] {
            let mut stream = RequestStream::new(&traffic, &mix, 1_000_000, 3).expect("valid");
            let drained = stream.by_ref().count();
            assert!(drained > 0, "{traffic:?}");
            for _ in 0..4 {
                assert_eq!(stream.next(), None, "{traffic:?}");
            }
        }
    }

    #[test]
    fn trace_replays_sorted_and_validates_models() {
        let mix = ModelMix::uniform(2).expect("mix");
        let traffic = TrafficModel::Trace {
            arrivals: vec![(300, 1), (100, 0), (900_000, 0), (500, 1)],
        };
        let reqs = generate_requests(&traffic, &mix, 1_000, 0).expect("generable");
        assert_eq!(
            reqs.iter()
                .map(|r| (r.arrival_ns, r.model, r.id))
                .collect::<Vec<_>>(),
            vec![(100, 0, 0), (300, 1, 1), (500, 1, 2)]
        );
        let bad = TrafficModel::Trace {
            arrivals: vec![(1, 5)],
        };
        assert_eq!(
            generate_requests(&bad, &mix, 1_000, 0),
            Err(ServeError::BadMix)
        );
    }

    #[test]
    fn mean_rate_follows_each_traffic_model() {
        assert_eq!(
            TrafficModel::Poisson { rate_rps: 123.0 }.mean_rate_rps(1_000),
            123.0
        );
        // Equal dwell times average the two state rates.
        let bursty = TrafficModel::Bursty {
            base_rps: 100.0,
            burst_rps: 300.0,
            mean_base_ns: 1_000.0,
            mean_burst_ns: 1_000.0,
        };
        assert!((bursty.mean_rate_rps(1_000) - 200.0).abs() < 1e-12);
        // 3 arrivals inside a 1 ms horizon (the 4th is outside) = 3000 rps.
        let trace = TrafficModel::Trace {
            arrivals: vec![(0, 0), (10, 0), (999_999, 1), (1_000_000, 1)],
        };
        assert!((trace.mean_rate_rps(1_000_000) - 3000.0).abs() < 1e-9);
        assert_eq!(trace.mean_rate_rps(0), 0.0);
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let mix = ModelMix::uniform(1).expect("mix");
        for traffic in [
            TrafficModel::Poisson { rate_rps: 0.0 },
            TrafficModel::Poisson {
                rate_rps: f64::INFINITY,
            },
            TrafficModel::Bursty {
                base_rps: 1.0,
                burst_rps: -2.0,
                mean_base_ns: 1.0,
                mean_burst_ns: 1.0,
            },
        ] {
            assert_eq!(
                generate_requests(&traffic, &mix, 1_000, 0),
                Err(ServeError::BadTraffic)
            );
        }
        assert_eq!(ModelMix::new(&[]).unwrap_err(), ServeError::BadMix);
        assert_eq!(ModelMix::new(&[0.0, 0.0]).unwrap_err(), ServeError::BadMix);
        assert_eq!(ModelMix::new(&[1.0, -1.0]).unwrap_err(), ServeError::BadMix);
        assert_eq!(
            ModelMix::new(&[1e308, 1e308]).unwrap_err(),
            ServeError::BadMix
        );
    }
}
