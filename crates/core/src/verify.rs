//! Static plan verification — an abstract-interpretation pass over the
//! lowered [`ExecutionPlan`] IR.
//!
//! PR 3 made the plan the single choke point between a network spec and
//! every reported number; this module proves a lowered plan is internally
//! consistent *without running any simulation*. Three families of checks:
//!
//! * **Conservation laws** — plan aggregates equal the sum (or max) of
//!   their per-layer parts; forward/error/gradient MVM counts match the
//!   analytic MAC totals carried in each layer's [`reram_nn::LayerWork`]
//!   (PipeLayer §II-A.2: one MVM group per pass, so
//!   `forward_mvms · rows · cols == forward_macs`); ADC conversions and
//!   cell writes match the spike-frame and endurance closed forms of
//!   [`crate::plan::adc_conversions`] / [`crate::plan::cell_writes`];
//!   buffer read traffic is exactly twice the write traffic (write once,
//!   consume once, backward re-read once — §III-B).
//! * **Feasibility** — the mapped geometry respects the configured
//!   [`ReplicationPolicy`] (Fig. 4 balanced mapping: `steps = ⌈mvms/X⌉`,
//!   arrays divisible by `X`, array budgets honoured), every pipeline
//!   stage has a strictly positive latency, and — given a
//!   [`ServeShape`] — the batcher linger is sane against the chip batch
//!   latency and the cluster is stable (`ρ = λ/μ < 1`).
//! * **Metamorphic checks** — doubling the batch size must not lower the
//!   batch latency, and raising the replication factor `X` must not raise
//!   per-input cycles.
//!
//! Violations are typed ([`Violation`]) and carry the numbers that
//! disagree, in the cost model's units. Every call to
//! [`ExecutionPlan::lower`] re-verifies its own output in debug builds,
//! and this module's tests sweep the model zoo across [`config_matrix`]
//! and check a half-loaded serving shape under every matrix entry.

use crate::mapping::ReplicationPolicy;
use crate::plan::{adc_conversions, cell_writes, ExecutionPlan, PlanError, BYTES_PER_ELEM};
use crate::AcceleratorConfig;
use reram_crossbar::units::{Ns, Pj};
use reram_nn::{models, NetworkSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A batcher `max_linger` longer than this multiple of the slowest
/// full-batch service latency is flagged: the linger knob exists to bound
/// *queueing* delay, so waiting three orders of magnitude longer than the
/// service itself means the deadline can never matter in practice.
pub const LINGER_FACTOR: f64 = 1000.0;

/// Relative tolerance used when re-deriving `f64` closed forms. The
/// verifier recomputes every aggregate with the same expressions the
/// lowering used, so honest plans agree to well under this bound.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// One statically detected inconsistency in a lowered plan or serving
/// shape. Each variant carries the disagreeing quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// `forward_cycle_ns` is not the slowest forward stage latency.
    ForwardCycleMismatch {
        /// Aggregate stored in the plan.
        plan_ns: Ns,
        /// Max per-layer forward latency re-derived from the layers.
        derived_ns: Ns,
    },
    /// `training_cycle_ns` is not twice `forward_cycle_ns` (backward
    /// stages dominate at 2× the forward latency, Fig. 5).
    TrainingCycleMismatch {
        /// Training macro-cycle stored in the plan.
        training_ns: Ns,
        /// Forward macro-cycle stored in the plan.
        forward_ns: Ns,
    },
    /// `total_arrays` is not the sum of the per-layer array counts.
    ArrayTotalMismatch {
        /// Aggregate stored in the plan.
        plan_arrays: usize,
        /// Sum over `layers[i].mapping.arrays`.
        layer_arrays: usize,
    },
    /// `buffer_energy_pj` disagrees with the 3-touch traffic closed form
    /// (every weighted output written once, consumed once, re-read once).
    BufferEnergyMismatch {
        /// Aggregate stored in the plan.
        plan_pj: Pj,
        /// Energy re-derived from the layer output sizes.
        derived_pj: Pj,
    },
    /// A per-layer `f64` closed form disagrees with its re-derivation
    /// (stage latency, forward/backward/update energy, update cycle).
    LayerFormMismatch {
        /// Layer name (or `<plan>` for plan-wide quantities).
        layer: String,
        /// Which quantity disagrees.
        quantity: String,
        /// Value stored in the plan.
        plan: f64,
        /// Value re-derived from the mapping and config.
        derived: f64,
    },
    /// A layer's MVM count does not reproduce its analytic MAC total
    /// (`forward_mvms · crossbar_rows · crossbar_cols == forward_macs`).
    MacCountMismatch {
        /// Layer name.
        layer: String,
        /// MACs implied by the plan's MVM count and tile geometry.
        plan_macs: u64,
        /// Analytic MAC total from the network spec.
        spec_macs: u64,
    },
    /// Forward / error / gradient MVM counts drifted apart — each training
    /// pass is one MVM group per input (§II-A.2), so all three must agree.
    TrainingPassSkew {
        /// Layer name.
        layer: String,
        /// Forward-pass MVM groups.
        forward_mvms: u64,
        /// Error back-propagation MVM groups.
        error_mvms: u64,
        /// Weight-gradient MVM groups.
        gradient_mvms: u64,
    },
    /// A layer's stored ADC conversion count disagrees with the
    /// spike-frame closed form.
    AdcCountMismatch {
        /// Layer name.
        layer: String,
        /// Conversions stored in the plan.
        plan: u64,
        /// Conversions re-derived from the mapping.
        derived: u64,
    },
    /// A layer's stored cell-write count disagrees with the endurance
    /// closed form (`arrays · rows · cols` per full reprogram).
    CellWriteMismatch {
        /// Layer name.
        layer: String,
        /// Cell writes stored in the plan.
        plan: u64,
        /// Cell writes re-derived from the mapping.
        derived: u64,
    },
    /// Buffer write/read symmetry is broken: writes must equal the layer's
    /// output bytes and reads must be exactly twice the writes.
    BufferAsymmetry {
        /// Layer name.
        layer: String,
        /// Bytes written per input.
        write_bytes: f64,
        /// Bytes read per input.
        read_bytes: f64,
    },
    /// A layer's replication bookkeeping is inconsistent with Fig. 4
    /// balanced mapping (`steps = ⌈mvms/X⌉`, arrays divisible by `X`) or
    /// with the configured replication policy.
    ReplicationInconsistent {
        /// Layer name.
        layer: String,
        /// MVMs per input.
        mvms: usize,
        /// Replication factor `X`.
        replication: usize,
        /// Sequential steps per input.
        steps: usize,
    },
    /// An [`ReplicationPolicy::ArrayBudget`] plan spends more arrays than
    /// the budget although an unreplicated mapping would have fit.
    BudgetExceeded {
        /// Configured array budget.
        budget: usize,
        /// Physical arrays the plan uses.
        total_arrays: usize,
    },
    /// A pipeline stage has a non-positive (or non-finite) latency or a
    /// zero micro-cycle count — the pipeline closed forms are meaningless.
    NonPositiveStage {
        /// Layer name.
        layer: String,
        /// The offending stage latency.
        latency_ns: Ns,
    },
    /// Metamorphic: doubling the batch size lowered the batch latency.
    BatchLatencyShrank {
        /// Base batch size.
        batch: usize,
        /// Latency at `batch`.
        latency_ns: Ns,
        /// Latency at `2 · batch`.
        doubled_ns: Ns,
    },
    /// Metamorphic: doubling the replication factor raised per-input
    /// cycles (more weight copies must never slow a layer down).
    ReplicationRegressed {
        /// Base replication factor `X`.
        replication: usize,
        /// Slowest stage micro-cycles at `X`.
        slowest_cycles: u64,
        /// Slowest stage micro-cycles at `2X`.
        doubled_cycles: u64,
    },
    /// The batcher's `max_linger` dwarfs the slowest full-batch service
    /// latency (see [`LINGER_FACTOR`]): the deadline can never bind.
    LingerExcessive {
        /// Configured linger, ns.
        max_linger_ns: u64,
        /// Slowest full-batch service latency across the catalog, ns.
        slowest_batch_ns: u64,
    },
    /// The offered arrival rate meets or exceeds the cluster's service
    /// capacity: `ρ = λ/μ ≥ 1`, so queues grow without bound and latency
    /// percentiles are garbage.
    Overload {
        /// Utilization `ρ = λ / (chips · μ)`.
        rho: f64,
        /// Offered load, requests per second.
        arrival_rps: f64,
        /// Cluster service capacity, requests per second.
        service_rps: f64,
    },
    /// A zoo network failed to lower at all under a matrix configuration.
    LoweringFailed {
        /// The lowering error, rendered.
        error: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ForwardCycleMismatch {
                plan_ns,
                derived_ns,
            } => write!(
                f,
                "forward_cycle_ns {plan_ns} != slowest stage latency {derived_ns}"
            ),
            Violation::TrainingCycleMismatch {
                training_ns,
                forward_ns,
            } => write!(
                f,
                "training_cycle_ns {training_ns} != 2 x forward_cycle_ns {forward_ns}"
            ),
            Violation::ArrayTotalMismatch {
                plan_arrays,
                layer_arrays,
            } => write!(
                f,
                "total_arrays {plan_arrays} != per-layer sum {layer_arrays}"
            ),
            Violation::BufferEnergyMismatch {
                plan_pj,
                derived_pj,
            } => write!(
                f,
                "buffer_energy_pj {plan_pj} != 3-touch traffic form {derived_pj}"
            ),
            Violation::LayerFormMismatch {
                layer,
                quantity,
                plan,
                derived,
            } => write!(
                f,
                "{layer}: {quantity} {plan} != re-derived closed form {derived}"
            ),
            Violation::MacCountMismatch {
                layer,
                plan_macs,
                spec_macs,
            } => write!(
                f,
                "{layer}: mvms x rows x cols = {plan_macs} MACs != spec {spec_macs}"
            ),
            Violation::TrainingPassSkew {
                layer,
                forward_mvms,
                error_mvms,
                gradient_mvms,
            } => write!(
                f,
                "{layer}: training passes drifted: forward {forward_mvms} / \
                 error {error_mvms} / gradient {gradient_mvms} MVMs"
            ),
            Violation::AdcCountMismatch {
                layer,
                plan,
                derived,
            } => write!(
                f,
                "{layer}: adc_conversions {plan} != spike-frame form {derived}"
            ),
            Violation::CellWriteMismatch {
                layer,
                plan,
                derived,
            } => write!(f, "{layer}: cell_writes {plan} != endurance form {derived}"),
            Violation::BufferAsymmetry {
                layer,
                write_bytes,
                read_bytes,
            } => write!(
                f,
                "{layer}: buffer traffic asymmetric: write {write_bytes} B, \
                 read {read_bytes} B (want read = 2 x write)"
            ),
            Violation::ReplicationInconsistent {
                layer,
                mvms,
                replication,
                steps,
            } => write!(
                f,
                "{layer}: replication bookkeeping inconsistent: {mvms} mvms, \
                 X = {replication}, steps = {steps}"
            ),
            Violation::BudgetExceeded {
                budget,
                total_arrays,
            } => write!(
                f,
                "array budget {budget} exceeded: plan uses {total_arrays} arrays"
            ),
            Violation::NonPositiveStage { layer, latency_ns } => {
                write!(f, "{layer}: non-positive stage latency {latency_ns} ns")
            }
            Violation::BatchLatencyShrank {
                batch,
                latency_ns,
                doubled_ns,
            } => write!(
                f,
                "batch {batch} -> {} lowered latency {latency_ns} -> {doubled_ns} ns",
                2 * batch
            ),
            Violation::ReplicationRegressed {
                replication,
                slowest_cycles,
                doubled_cycles,
            } => write!(
                f,
                "raising X {replication} -> {} raised slowest stage \
                 {slowest_cycles} -> {doubled_cycles} cycles",
                2 * replication
            ),
            Violation::LingerExcessive {
                max_linger_ns,
                slowest_batch_ns,
            } => write!(
                f,
                "max_linger {max_linger_ns} ns exceeds {LINGER_FACTOR} x the \
                 slowest batch latency {slowest_batch_ns} ns"
            ),
            Violation::Overload {
                rho,
                arrival_rps,
                service_rps,
            } => write!(
                f,
                "unstable: rho = {rho:.3} (lambda {arrival_rps:.0} rps vs \
                 capacity {service_rps:.0} rps)"
            ),
            Violation::LoweringFailed { error } => {
                write!(f, "network failed to lower: {error}")
            }
        }
    }
}

/// Verifies one lowered plan against the configuration that produced it.
/// Returns every violated invariant (empty = clean).
#[must_use = "the returned violations are the verification result"]
pub fn verify_plan(plan: &ExecutionPlan, config: &AcceleratorConfig) -> Vec<Violation> {
    let mut v = Vec::new();
    let form = |layer: &str, quantity: &str, plan_val: f64, derived: f64| {
        if !close(plan_val, derived) {
            Some(Violation::LayerFormMismatch {
                layer: layer.to_owned(),
                quantity: quantity.to_owned(),
                plan: plan_val,
                derived,
            })
        } else {
            None
        }
    };

    // Conservation: aggregates vs per-layer parts.
    let derived_cycle = plan
        .layers
        .iter()
        .map(|l| l.forward_latency_ns)
        .fold(Ns::ZERO, Ns::max);
    if !close(plan.forward_cycle_ns.0, derived_cycle.0) {
        v.push(Violation::ForwardCycleMismatch {
            plan_ns: plan.forward_cycle_ns,
            derived_ns: derived_cycle,
        });
    }
    if !close(plan.training_cycle_ns.0, (2.0 * plan.forward_cycle_ns).0) {
        v.push(Violation::TrainingCycleMismatch {
            training_ns: plan.training_cycle_ns,
            forward_ns: plan.forward_cycle_ns,
        });
    }
    let layer_arrays: usize = plan.layers.iter().map(|l| l.mapping.arrays).sum();
    if plan.total_arrays != layer_arrays {
        v.push(Violation::ArrayTotalMismatch {
            plan_arrays: plan.total_arrays,
            layer_arrays,
        });
    }
    let activation_elems: f64 = plan.layers.iter().map(|l| l.work.output_elems as f64).sum();
    let derived_buffer = config
        .cost
        .buffer_energy_pj((activation_elems * BYTES_PER_ELEM as f64 * 3.0) as u64);
    if !close(plan.buffer_energy_pj.0, derived_buffer.0) {
        v.push(Violation::BufferEnergyMismatch {
            plan_pj: plan.buffer_energy_pj,
            derived_pj: derived_buffer,
        });
    }
    let (program_latency_ns, program_energy_pj) = config.cost.program_cost(&config.crossbar);
    v.extend(form(
        "<plan>",
        "update_cycle_ns",
        plan.update_cycle_ns.0,
        program_latency_ns.0,
    ));

    // Per-layer conservation laws and closed forms.
    for l in &plan.layers {
        let m = &l.mapping;
        let plan_macs = l
            .forward_mvms
            .saturating_mul(l.work.crossbar_rows)
            .saturating_mul(l.work.crossbar_cols);
        if plan_macs != l.work.forward_macs {
            v.push(Violation::MacCountMismatch {
                layer: l.name.clone(),
                plan_macs,
                spec_macs: l.work.forward_macs,
            });
        }
        if l.error_mvms != l.forward_mvms || l.gradient_mvms != l.forward_mvms {
            v.push(Violation::TrainingPassSkew {
                layer: l.name.clone(),
                forward_mvms: l.forward_mvms,
                error_mvms: l.error_mvms,
                gradient_mvms: l.gradient_mvms,
            });
        }
        let derived_adc = adc_conversions(m, config);
        if l.adc_conversions != derived_adc {
            v.push(Violation::AdcCountMismatch {
                layer: l.name.clone(),
                plan: l.adc_conversions,
                derived: derived_adc,
            });
        }
        let derived_writes = cell_writes(m, config);
        if l.cell_writes != derived_writes {
            v.push(Violation::CellWriteMismatch {
                layer: l.name.clone(),
                plan: l.cell_writes,
                derived: derived_writes,
            });
        }
        let out_bytes = l.work.output_elems as f64 * BYTES_PER_ELEM as f64;
        if !close(l.buffer_write_bytes, out_bytes)
            || !close(l.buffer_read_bytes, 2.0 * l.buffer_write_bytes)
        {
            v.push(Violation::BufferAsymmetry {
                layer: l.name.clone(),
                write_bytes: l.buffer_write_bytes,
                read_bytes: l.buffer_read_bytes,
            });
        }
        if m.replication == 0
            || m.steps_per_input != m.mvms_per_input.div_ceil(m.replication.max(1))
            || !m.arrays.is_multiple_of(m.replication.max(1))
            || l.stage_cycles != m.steps_per_input as u64
            || l.forward_mvms != m.mvms_per_input as u64
        {
            v.push(Violation::ReplicationInconsistent {
                layer: l.name.clone(),
                mvms: m.mvms_per_input,
                replication: m.replication,
                steps: m.steps_per_input,
            });
        }
        if !(l.forward_latency_ns.0.is_finite() && l.forward_latency_ns > Ns::ZERO)
            || l.stage_cycles == 0
        {
            v.push(Violation::NonPositiveStage {
                layer: l.name.clone(),
                latency_ns: l.forward_latency_ns,
            });
        }
        v.extend(form(
            &l.name,
            "forward_latency_ns",
            l.forward_latency_ns.0,
            m.stage_latency_ns().0,
        ));
        v.extend(form(
            &l.name,
            "backward_latency_ns",
            l.backward_latency_ns.0,
            (2.0 * l.forward_latency_ns).0,
        ));
        v.extend(form(
            &l.name,
            "forward_energy_pj",
            l.forward_energy_pj.0,
            m.forward_energy_pj().0,
        ));
        v.extend(form(
            &l.name,
            "backward_energy_pj",
            l.backward_energy_pj.0,
            (2.0 * l.forward_energy_pj).0,
        ));
        v.extend(form(
            &l.name,
            "update_energy_pj",
            l.update_energy_pj.0,
            (m.arrays as f64 * program_energy_pj).0,
        ));
    }

    // Feasibility: the mapping must respect the configured policy.
    v.extend(check_policy(plan, config));

    // Metamorphic: doubling the batch must never lower the batch latency.
    if !plan.layers.is_empty() {
        for batch in [1usize, 4, 16] {
            let small = plan.batch_inference_latency_ns(batch);
            let big = plan.batch_inference_latency_ns(2 * batch);
            if big + REL_TOL * small.abs().max(Ns(1.0)) < small {
                v.push(Violation::BatchLatencyShrank {
                    batch,
                    latency_ns: small,
                    doubled_ns: big,
                });
            }
        }
    }
    v
}

/// Checks the plan's replication factors against the configured policy:
/// Fig. 4's balanced mapping constrains `X` per layer, and
/// [`ReplicationPolicy::ArrayBudget`] bounds the whole-network array spend
/// (unless even the unreplicated floor exceeds it, in which case the
/// mapping must be exactly unreplicated).
fn check_policy(plan: &ExecutionPlan, config: &AcceleratorConfig) -> Vec<Violation> {
    let mut v = Vec::new();
    let bad = |l: &crate::plan::LayerPlan| Violation::ReplicationInconsistent {
        layer: l.name.clone(),
        mvms: l.mapping.mvms_per_input,
        replication: l.mapping.replication,
        steps: l.mapping.steps_per_input,
    };
    match config.replication {
        ReplicationPolicy::None => {
            for l in plan.layers.iter().filter(|l| l.mapping.replication != 1) {
                v.push(bad(l));
            }
        }
        ReplicationPolicy::Fixed(x) => {
            for l in plan.layers.iter().filter(|l| l.mapping.replication != x) {
                v.push(bad(l));
            }
        }
        ReplicationPolicy::MaxStepsPerLayer(steps) => {
            for l in plan
                .layers
                .iter()
                .filter(|l| steps > 0 && l.mapping.steps_per_input > steps)
            {
                v.push(bad(l));
            }
        }
        ReplicationPolicy::ArrayBudget(budget) => {
            let floor: usize = plan.layers.iter().map(|l| l.mapping.base_arrays()).sum();
            if floor <= budget {
                if plan.total_arrays > budget {
                    v.push(Violation::BudgetExceeded {
                        budget,
                        total_arrays: plan.total_arrays,
                    });
                }
            } else {
                // Budget below the unreplicated floor: the mapping falls
                // back to X = 1 everywhere (a provisioning target, not a
                // hard wall).
                for l in plan.layers.iter().filter(|l| l.mapping.replication != 1) {
                    v.push(bad(l));
                }
            }
        }
    }
    v
}

/// Metamorphic comparison of two lowerings of the same network at
/// replication factors `X` and `2X`: more weight copies must never raise
/// the slowest stage's per-input micro-cycles.
#[must_use = "the returned violation is the verification result"]
pub fn check_replication_monotone(
    base: &ExecutionPlan,
    doubled: &ExecutionPlan,
    replication: usize,
) -> Option<Violation> {
    let slowest = |p: &ExecutionPlan| p.layers.iter().map(|l| l.stage_cycles).max().unwrap_or(0);
    let (a, b) = (slowest(base), slowest(doubled));
    (b > a).then_some(Violation::ReplicationRegressed {
        replication,
        slowest_cycles: a,
        doubled_cycles: b,
    })
}

/// Lowers `net` under `config` and verifies the result, adding the
/// replication metamorphic check (re-lowering at fixed `X` and `2X`).
///
/// # Errors
///
/// Propagates the [`PlanError`] when the network cannot be lowered at all
/// under `config` — a failed lowering has no plan to verify.
#[must_use = "the returned violations are the verification result"]
pub fn verify_lowering(
    net: &NetworkSpec,
    config: &AcceleratorConfig,
) -> Result<Vec<Violation>, PlanError> {
    let plan = ExecutionPlan::lower(net, config)?;
    let mut v = plan.verify(config);
    for x in [1usize, 4] {
        let at = |factor: usize| {
            ExecutionPlan::lower(
                net,
                &config
                    .clone()
                    .with_replication(ReplicationPolicy::Fixed(factor)),
            )
        };
        if let (Ok(base), Ok(doubled)) = (at(x), at(2 * x)) {
            v.extend(check_replication_monotone(&base, &doubled, x));
        }
    }
    Ok(v)
}

impl ExecutionPlan {
    /// Statically verifies this plan against the configuration that
    /// produced it. See [`verify_plan`].
    #[must_use = "the returned violations are the verification result"]
    pub fn verify(&self, config: &AcceleratorConfig) -> Vec<Violation> {
        verify_plan(self, config)
    }
}

/// The serving-layer shape the feasibility checks need — a deliberately
/// backend-neutral mirror of `reram_serve::ServeConfig` (this crate sits
/// below the serving crate in the layering, so it cannot name those types;
/// `reram-serve` bridges its config into this shape).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeShape {
    /// Chips in the cluster.
    pub chips: usize,
    /// Dynamic batcher size trigger.
    pub max_batch: usize,
    /// Dynamic batcher linger trigger, ns.
    pub max_linger_ns: u64,
    /// Mean offered arrival rate, requests per second.
    pub mean_arrival_rps: f64,
    /// Relative traffic weight per catalog plan (falls back to uniform
    /// when empty or mismatched).
    pub mix: Vec<f64>,
}

/// Static feasibility of a serving shape over one plan per catalog model:
/// flags a linger deadline that can never bind ([`LINGER_FACTOR`]) and an
/// offered load at or beyond the cluster's plan-priced service capacity
/// (`ρ = λ/μ ≥ 1`, the queueing-stability condition — an overloaded run
/// produces unbounded queues and meaningless latency percentiles).
#[must_use = "the returned violations are the verification result"]
pub fn verify_serve(plans: &[ExecutionPlan], shape: &ServeShape) -> Vec<Violation> {
    let mut v = Vec::new();
    if plans.is_empty() || shape.chips == 0 || shape.max_batch == 0 {
        return v;
    }
    let batch = shape.max_batch;
    let slowest_batch_ns = plans
        .iter()
        .map(|p| p.batch_inference_latency_ns(batch))
        .fold(Ns::ZERO, Ns::max);
    if Ns(shape.max_linger_ns as f64) > LINGER_FACTOR * slowest_batch_ns {
        v.push(Violation::LingerExcessive {
            max_linger_ns: shape.max_linger_ns,
            slowest_batch_ns: slowest_batch_ns.0 as u64,
        });
    }

    if let Some(service_rps) = service_rps(plans, shape) {
        if shape.mean_arrival_rps.is_finite() {
            let rho = shape.mean_arrival_rps / service_rps;
            if rho >= 1.0 {
                v.push(Violation::Overload {
                    rho,
                    arrival_rps: shape.mean_arrival_rps,
                    service_rps,
                });
            }
        }
    }
    v
}

/// Plan-priced service capacity of a serving shape, requests per second:
/// `chips / s̄`, with `s̄` the mix-weighted amortized full-batch latency per
/// request (uniform weights when `shape.mix` is empty, mismatched, or not a
/// valid non-negative mix). `None` when the shape or catalog is degenerate
/// or `s̄` is not positive. This is the `μ` that [`verify_serve`] prices
/// stability against.
#[must_use = "the capacity is the result"]
pub fn service_rps(plans: &[ExecutionPlan], shape: &ServeShape) -> Option<f64> {
    if plans.is_empty() || shape.chips == 0 || shape.max_batch == 0 {
        return None;
    }
    let batch = shape.max_batch;
    let weights: Vec<f64> = if shape.mix.len() == plans.len()
        && shape.mix.iter().all(|w| w.is_finite() && *w >= 0.0)
        && shape.mix.iter().sum::<f64>() > 0.0
    {
        shape.mix.clone()
    } else {
        vec![1.0; plans.len()]
    };
    let total_weight: f64 = weights.iter().sum();
    let mean_service_ns: Ns = plans
        .iter()
        .zip(&weights)
        .map(|(plan, w)| (w / total_weight) * plan.batch_inference_latency_ns(batch) / batch as f64)
        .sum();
    (mean_service_ns > Ns::ZERO).then(|| shape.chips as f64 * 1e9 / mean_service_ns.0)
}

/// One verifier finding over the lowered model zoo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZooFinding {
    /// Network name.
    pub network: String,
    /// Config-matrix entry name.
    pub config: String,
    /// The violated invariant.
    pub violation: Violation,
}

/// The standard accelerator config matrix zoo-wide verification sweeps:
/// the default 128K-array budget, a step-bounded pipeline, a fixed
/// replication factor, and a deliberately starved budget that exercises
/// the unreplicated fallback.
#[must_use = "builds and returns the config matrix"]
pub fn config_matrix() -> Vec<(String, AcceleratorConfig)> {
    vec![
        ("budget-128k".to_owned(), AcceleratorConfig::default()),
        (
            "steps-64".to_owned(),
            AcceleratorConfig::default().with_replication(ReplicationPolicy::MaxStepsPerLayer(64)),
        ),
        (
            "fixed-x4".to_owned(),
            AcceleratorConfig::default().with_replication(ReplicationPolicy::Fixed(4)),
        ),
        (
            "budget-8k".to_owned(),
            AcceleratorConfig::default().with_replication(ReplicationPolicy::ArrayBudget(8_192)),
        ),
    ]
}

/// The model zoo the verifier sweeps: every network the repository can
/// lower.
#[must_use = "builds and returns the zoo"]
pub fn model_zoo() -> Vec<NetworkSpec> {
    vec![
        models::lenet_spec(),
        models::mnist_deep_spec(),
        models::alexnet_spec(),
        models::vgg_a_spec(),
        models::googlenet_spec(),
        models::dcgan_generator_spec(100, 3, 64),
        models::dcgan_discriminator_spec(3, 64),
    ]
}

/// Lowers and verifies the whole model zoo across [`config_matrix`].
/// Returns `(plans verified, findings)`; a clean tree returns an empty
/// finding list.
#[must_use = "the returned findings are the verification result"]
pub fn verify_zoo() -> (usize, Vec<ZooFinding>) {
    let mut plans = 0usize;
    let mut findings = Vec::new();
    for (config_name, config) in config_matrix() {
        for net in model_zoo() {
            plans += 1;
            let violations = match verify_lowering(&net, &config) {
                Ok(violations) => violations,
                Err(e) => vec![Violation::LoweringFailed {
                    error: e.to_string(),
                }],
            };
            findings.extend(violations.into_iter().map(|violation| ZooFinding {
                network: net.name.clone(),
                config: config_name.clone(),
                violation,
            }));
        }
    }
    (plans, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(net: &NetworkSpec, config: &AcceleratorConfig) -> ExecutionPlan {
        ExecutionPlan::lower(net, config).expect("lowerable")
    }

    #[test]
    fn default_lowerings_verify_clean() {
        let config = AcceleratorConfig::default();
        for net in model_zoo() {
            let plan = plan_for(&net, &config);
            assert_eq!(plan.verify(&config), Vec::new(), "{}", net.name);
        }
    }

    #[test]
    fn zoo_sweep_is_clean() {
        let (plans, findings) = verify_zoo();
        assert_eq!(plans, config_matrix().len() * model_zoo().len());
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn serve_shape_default_is_feasible() {
        let plans_under = |config: &AcceleratorConfig| {
            vec![
                plan_for(&models::lenet_spec(), config),
                plan_for(&models::alexnet_spec(), config),
            ]
        };
        let mut shape = ServeShape {
            chips: 4,
            max_batch: 16,
            max_linger_ns: 20_000,
            mean_arrival_rps: 200_000.0,
            mix: vec![0.7, 0.3],
        };
        let plans = plans_under(&AcceleratorConfig::default());
        assert_eq!(verify_serve(&plans, &shape), Vec::new());

        // Capacity spans orders of magnitude across the matrix, so each
        // entry is offered half of its own plan-priced capacity: a finding
        // is a regression in the closed forms, not an infeasible shape.
        for (name, config) in config_matrix() {
            let plans = plans_under(&config);
            let capacity = service_rps(&plans, &shape).expect("positive capacity");
            shape.mean_arrival_rps = 0.5 * capacity;
            assert_eq!(verify_serve(&plans, &shape), Vec::new(), "{name}");
        }
    }

    #[test]
    fn violations_render_and_round_trip() {
        let v = Violation::Overload {
            rho: 1.5,
            arrival_rps: 3e6,
            service_rps: 2e6,
        };
        assert!(v.to_string().contains("rho = 1.500"));
        let json = serde::json::to_string(&v);
        let back: Violation = serde::json::from_str(&json).expect("parse");
        assert_eq!(back, v);
    }
}
