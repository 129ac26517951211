//! A pod of accelerator chips, each priced by its lowered execution plans.
//!
//! Every [`Chip`] keeps one small batch-price record per catalog model,
//! read once from the [`ExecutionPlan`] lowered for that chip's
//! [`AcceleratorConfig`], plus the runtime state the schedulers read: when
//! its FIFO dispatch queue drains (`busy_until_ns`), how many requests are
//! dispatched but not yet completed, and the running utilization/energy
//! tallies the final report aggregates. Chips serve one batch at a time in
//! dispatch order — the inter-layer pipeline inside a chip is already
//! priced into the batch latency closed form, so the serving layer never
//! re-simulates individual layers.

use reram_core::units::{Ns, Pj};
use reram_core::{AcceleratorConfig, ExecutionPlan};
use reram_nn::NetworkSpec;

use crate::ServeError;

/// The plan aggregates that price a batch of one model on one chip.
///
/// Pricing a batch from these four numbers evaluates the same float
/// expressions as [`ExecutionPlan::batch_inference_latency_ns`],
/// [`ExecutionPlan::batch_forward_energy_pj`] and
/// [`ExecutionPlan::inference_buffer_energy_pj`], so the results are
/// bit-identical to asking the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BatchPrice {
    /// Pipeline fill of one input (`Σ fᵢ`).
    fill_ns: Ns,
    /// Initiation interval per additional input (`max fᵢ`).
    interval_ns: Ns,
    /// Forward crossbar energy of one input.
    forward_pj: Pj,
    /// Inference buffer energy of one input.
    buffer_pj: Pj,
}

impl BatchPrice {
    fn of(plan: &ExecutionPlan) -> Self {
        Self {
            fill_ns: plan.inference_fill_ns(),
            interval_ns: plan.inference_interval_ns(),
            forward_pj: plan.forward_energy_pj(),
            buffer_pj: plan.inference_buffer_energy_pj(),
        }
    }

    fn service_ns(&self, batch: usize) -> u64 {
        assert!(batch > 0, "need at least one input");
        let latency_s = (self.fill_ns + (batch - 1) as f64 * self.interval_ns).to_seconds();
        (latency_s.to_ns().0.ceil() as u64).max(1)
    }

    fn energy_pj(&self, batch: usize) -> Pj {
        let b = batch as f64;
        b * self.forward_pj + b * self.buffer_pj
    }
}

/// One accelerator chip plus its serving-time state.
#[derive(Debug, Clone)]
pub struct Chip {
    /// Chip index within the cluster.
    pub id: usize,
    /// One batch price per catalog model.
    prices: Vec<BatchPrice>,
    /// Simulated time at which the chip's dispatch queue drains.
    pub busy_until_ns: u64,
    /// Requests dispatched to this chip and not yet completed.
    pub queued_requests: usize,
    /// Accumulated busy (serving) time, nanoseconds.
    pub busy_ns: u64,
    /// Requests completed by this chip.
    pub completed_requests: u64,
    /// Batches served by this chip.
    pub batches_served: u64,
    /// Accumulated crossbar + buffer energy.
    pub energy_pj: Pj,
}

impl Chip {
    fn new(id: usize, prices: Vec<BatchPrice>) -> Self {
        Self {
            id,
            prices,
            busy_until_ns: 0,
            queued_requests: 0,
            busy_ns: 0,
            completed_requests: 0,
            batches_served: 0,
            energy_pj: Pj::ZERO,
        }
    }

    fn price(&self, model: usize) -> BatchPrice {
        assert!(model < self.prices.len(), "model {model} not in catalog");
        self.prices[model]
    }

    /// Service latency of one batch of `batch` requests of `model` on this
    /// chip, simulated nanoseconds (plan fill + initiation intervals,
    /// rounded up to a whole tick).
    ///
    /// # Panics
    ///
    /// Panics if `model` is not a catalog index or `batch` is zero.
    pub fn batch_service_ns(&self, model: usize, batch: usize) -> u64 {
        self.price(model).service_ns(batch)
    }

    /// Energy of serving one batch: per-input forward crossbar energy plus
    /// the inference share of buffer traffic.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not a catalog index.
    pub fn batch_energy_pj(&self, model: usize, batch: usize) -> Pj {
        self.price(model).energy_pj(batch)
    }

    /// Predicted completion time of a batch dispatched now: the chip works
    /// FIFO, so the batch starts when the queue drains and occupies the
    /// chip for the plan-priced service latency.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not a catalog index or `batch` is zero.
    pub fn predicted_completion_ns(&self, now_ns: u64, model: usize, batch: usize) -> u64 {
        self.busy_until_ns.max(now_ns) + self.batch_service_ns(model, batch)
    }
}

/// A cluster of chips serving one model catalog.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The chips, indexed by [`Chip::id`].
    pub chips: Vec<Chip>,
    /// Human-readable model names, indexed by catalog position.
    pub model_names: Vec<String>,
}

impl Cluster {
    /// Builds a homogeneous cluster: `n` identical chips, each priced by
    /// every catalog model lowered once for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoChips`] / [`ServeError::NoModels`] for empty
    /// inputs and [`ServeError::Plan`] when a model fails to lower.
    #[must_use = "the built cluster is the result"]
    pub fn homogeneous(
        n: usize,
        catalog: &[NetworkSpec],
        config: &AcceleratorConfig,
    ) -> Result<Self, ServeError> {
        if n == 0 {
            return Err(ServeError::NoChips);
        }
        let prices = lower_prices(catalog, config)?;
        Ok(Self::from_prices(
            (0..n).map(|_| prices.clone()).collect(),
            catalog,
        ))
    }

    /// Builds a cluster with one [`AcceleratorConfig`] per chip — chips may
    /// differ in crossbar geometry or replication budget, and each prices
    /// batches through its own lowered plans.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoChips`] / [`ServeError::NoModels`] for empty
    /// inputs and [`ServeError::Plan`] when a model fails to lower on any
    /// chip's configuration.
    #[must_use = "the built cluster is the result"]
    pub fn heterogeneous(
        configs: &[AcceleratorConfig],
        catalog: &[NetworkSpec],
    ) -> Result<Self, ServeError> {
        if configs.is_empty() {
            return Err(ServeError::NoChips);
        }
        let prices = configs
            .iter()
            .map(|config| lower_prices(catalog, config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_prices(prices, catalog))
    }

    fn from_prices(prices: Vec<Vec<BatchPrice>>, catalog: &[NetworkSpec]) -> Self {
        Self {
            chips: prices
                .into_iter()
                .enumerate()
                .map(|(id, p)| Chip::new(id, p))
                .collect(),
            model_names: catalog.iter().map(|n| n.name.clone()).collect(),
        }
    }

    /// Number of chips.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the cluster has no chips (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Number of catalog models each chip serves.
    pub fn models(&self) -> usize {
        self.model_names.len()
    }
}

/// Lowers every catalog model for one chip configuration and keeps its
/// batch price.
fn lower_prices(
    catalog: &[NetworkSpec],
    config: &AcceleratorConfig,
) -> Result<Vec<BatchPrice>, ServeError> {
    if catalog.is_empty() {
        return Err(ServeError::NoModels);
    }
    catalog
        .iter()
        .map(|net| Ok(BatchPrice::of(&ExecutionPlan::lower(net, config)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_nn::models;

    fn catalog() -> [NetworkSpec; 2] {
        [models::lenet_spec(), models::alexnet_spec()]
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(3, &catalog(), &AcceleratorConfig::default()).expect("buildable")
    }

    #[test]
    fn homogeneous_builds_all_chips_and_models() {
        let c = cluster();
        assert_eq!(c.len(), 3);
        assert_eq!(c.models(), 2);
        assert_eq!(c.model_names, vec!["lenet-mnist", "alexnet-imagenet"]);
        for (i, chip) in c.chips.iter().enumerate() {
            assert_eq!(chip.id, i);
            assert_eq!(chip.busy_until_ns, 0);
            assert_eq!(chip.queued_requests, 0);
        }
    }

    #[test]
    fn batch_pricing_is_bit_identical_to_the_plan_closed_forms() {
        // One chip per array geometry, so each prices through its own plans.
        let configs: Vec<AcceleratorConfig> = [64, 128, 256]
            .iter()
            .map(|&n| {
                let mut config = AcceleratorConfig::default();
                config.crossbar = config.crossbar.with_array_size(n, n);
                config
            })
            .collect();
        let c = Cluster::heterogeneous(&configs, &catalog()).expect("buildable");
        for (chip, config) in c.chips.iter().zip(&configs) {
            for (model, net) in catalog().iter().enumerate() {
                let plan = ExecutionPlan::lower(net, config).expect("lowerable");
                for batch in 1..=64 {
                    let ns = (plan.batch_inference_latency_ns(batch).0.ceil() as u64).max(1);
                    assert_eq!(chip.batch_service_ns(model, batch), ns);
                    let pj = plan.batch_forward_energy_pj(batch)
                        + batch as f64 * plan.inference_buffer_energy_pj();
                    assert_eq!(
                        chip.batch_energy_pj(model, batch).0.to_bits(),
                        pj.0.to_bits()
                    );
                }
            }
        }
        // The geometries actually price differently.
        assert_ne!(
            c.chips[0].batch_service_ns(1, 8),
            c.chips[2].batch_service_ns(1, 8)
        );
    }

    #[test]
    fn batching_amortizes_service_time() {
        let c = cluster();
        let chip = &c.chips[0];
        for model in 0..c.models() {
            // 8 together beat 8 separate dispatches.
            assert!(8 * chip.batch_service_ns(model, 1) > chip.batch_service_ns(model, 8));
            let e = chip.batch_energy_pj(model, 4);
            assert!((e / 4.0 - chip.batch_energy_pj(model, 1)).abs() < Pj(1e-6));
        }
        // AlexNet batches cost more than LeNet batches on the same chip.
        assert!(chip.batch_service_ns(1, 8) > chip.batch_service_ns(0, 8));
    }

    #[test]
    fn predicted_completion_respects_fifo_backlog() {
        let mut c = cluster();
        let idle = c.chips[0].predicted_completion_ns(1_000, 0, 4);
        assert_eq!(idle, 1_000 + c.chips[0].batch_service_ns(0, 4));
        c.chips[0].busy_until_ns = 50_000;
        let backed_up = c.chips[0].predicted_completion_ns(1_000, 0, 4);
        assert_eq!(backed_up, 50_000 + c.chips[0].batch_service_ns(0, 4));
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let cfg = AcceleratorConfig::default();
        assert_eq!(
            Cluster::homogeneous(0, &[models::lenet_spec()], &cfg).unwrap_err(),
            ServeError::NoChips
        );
        assert_eq!(
            Cluster::homogeneous(2, &[], &cfg).unwrap_err(),
            ServeError::NoModels
        );
        assert_eq!(
            Cluster::heterogeneous(&[], &[models::lenet_spec()]).unwrap_err(),
            ServeError::NoChips
        );
        assert_eq!(
            Cluster::heterogeneous(&[cfg], &[]).unwrap_err(),
            ServeError::NoModels
        );
    }

    #[test]
    fn lowering_errors_surface() {
        let cfg =
            AcceleratorConfig::default().with_replication(reram_core::ReplicationPolicy::Fixed(0));
        let err = Cluster::homogeneous(1, &[models::lenet_spec()], &cfg).unwrap_err();
        assert!(matches!(err, ServeError::Plan(_)));
    }
}
