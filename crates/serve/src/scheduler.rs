//! Batch-placement policies.
//!
//! A [`Scheduler`] picks the chip a freshly closed batch is dispatched to.
//! Three built-in policies span the classic trade-off:
//!
//! * [`Policy::RoundRobin`] — cyclic assignment, blind to load and cost.
//! * [`Policy::LeastLoaded`] — pick the chip with the fewest outstanding
//!   requests. Cheap and load-aware, but blind to *how expensive* those
//!   requests are: one queued AlexNet batch counts the same as one queued
//!   LeNet batch.
//! * [`Policy::PlanCostAware`] — pick the chip with the earliest predicted
//!   batch completion, priced through each chip's lowered
//!   [`reram_core::ExecutionPlan`] ([`crate::Chip::predicted_completion_ns`]).
//!   This sees both the backlog *and* the per-model service cost, so a
//!   heterogeneous model mix (or a heterogeneous cluster) no longer skews
//!   tail latency.
//!
//! All tie-breaks go to the lowest chip id, keeping every policy fully
//! deterministic.

use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;

/// Named placement policy — the serializable configuration-side handle;
/// [`Policy::scheduler`] instantiates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Cyclic assignment ignoring all state.
    RoundRobin,
    /// Fewest outstanding requests wins (ties to the lowest id).
    LeastLoaded,
    /// Earliest plan-priced batch completion wins (ties to the lowest id).
    PlanCostAware,
}

impl Policy {
    /// Every built-in policy, in comparison order.
    pub const ALL: [Policy; 3] = [
        Policy::RoundRobin,
        Policy::LeastLoaded,
        Policy::PlanCostAware,
    ];

    /// Instantiates a fresh scheduler running this policy.
    pub fn scheduler(self) -> Scheduler {
        Scheduler {
            policy: self,
            next: 0,
        }
    }

    /// Stable policy name used in reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::LeastLoaded => "least-loaded",
            Policy::PlanCostAware => "plan-cost-aware",
        }
    }
}

/// Picks a chip for each dispatched batch under one [`Policy`].
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    policy: Policy,
    /// Round-robin cursor (unused by the stateless policies).
    next: usize,
}

impl Scheduler {
    /// Stable policy name used in reports and tables.
    pub fn name(&self) -> &'static str {
        self.policy.name()
    }

    /// Chooses the chip (by id) to serve a batch of `batch` requests of
    /// catalog model `model`, given the cluster state at `now_ns`.
    pub fn pick(&mut self, cluster: &Cluster, now_ns: u64, model: usize, batch: usize) -> usize {
        match self.policy {
            Policy::RoundRobin => {
                let id = self.next % cluster.len();
                self.next = (self.next + 1) % cluster.len();
                id
            }
            Policy::LeastLoaded => cluster
                .chips
                .iter()
                .min_by_key(|c| (c.queued_requests, c.id))
                .map_or(0, |c| c.id),
            Policy::PlanCostAware => cluster
                .chips
                .iter()
                .min_by_key(|c| (c.predicted_completion_ns(now_ns, model, batch), c.id))
                .map_or(0, |c| c.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_core::AcceleratorConfig;
    use reram_nn::models;

    fn cluster() -> Cluster {
        Cluster::homogeneous(
            3,
            &[models::lenet_spec(), models::alexnet_spec()],
            &AcceleratorConfig::default(),
        )
        .expect("buildable")
    }

    #[test]
    fn round_robin_cycles() {
        let c = cluster();
        let mut s = Policy::RoundRobin.scheduler();
        let picks: Vec<usize> = (0..5).map(|_| s.pick(&c, 0, 0, 1)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_loaded_prefers_empty_queue() {
        let mut c = cluster();
        c.chips[0].queued_requests = 4;
        c.chips[1].queued_requests = 1;
        c.chips[2].queued_requests = 4;
        assert_eq!(Policy::LeastLoaded.scheduler().pick(&c, 0, 0, 1), 1);
        c.chips[1].queued_requests = 4;
        // All equal: lowest id.
        assert_eq!(Policy::LeastLoaded.scheduler().pick(&c, 0, 0, 1), 0);
    }

    #[test]
    fn cost_aware_sees_backlog_time_not_request_count() {
        let mut c = cluster();
        // Chip 0: one queued request, but it is a huge AlexNet backlog.
        c.chips[0].queued_requests = 1;
        c.chips[0].busy_until_ns = 10_000_000;
        // Chip 1: more queued requests, but nearly drained.
        c.chips[1].queued_requests = 3;
        c.chips[1].busy_until_ns = 1_000;
        c.chips[2].queued_requests = 3;
        c.chips[2].busy_until_ns = 2_000;
        // Least-loaded walks into the backlog; cost-aware does not.
        assert_eq!(Policy::LeastLoaded.scheduler().pick(&c, 500, 0, 2), 0);
        assert_eq!(Policy::PlanCostAware.scheduler().pick(&c, 500, 0, 2), 1);
    }
}
