//! Corrupted-plan fixtures for the static plan verifier.
//!
//! [`reram_core::verify`] promises that every class of lowering bug it
//! models maps to a distinct [`Violation`] variant. Each test here takes a
//! *clean* lowered plan, injects exactly one class of corruption by editing
//! the public IR fields, and pins the variant the verifier reports — so a
//! future refactor that silently stops detecting a class fails loudly. A
//! closing proptest sweeps the whole model zoo across the config matrix
//! (plus random policies) and asserts the verifier stays quiet on honest
//! lowerings.
#![expect(
    clippy::expect_used,
    reason = "shared setup helpers abort on a setup error, which fails the calling test"
)]

use proptest::prelude::*;
use reram_core::verify::{
    check_replication_monotone, config_matrix, model_zoo, verify_lowering, verify_serve,
    ServeShape, Violation,
};
use reram_core::{AcceleratorConfig, ExecutionPlan, PlanError, ReplicationPolicy};
use reram_crossbar::units::Ns;
use reram_nn::models;

fn clean_plan() -> (ExecutionPlan, AcceleratorConfig) {
    let config = AcceleratorConfig::default();
    let plan = ExecutionPlan::lower(&models::alexnet_spec(), &config).expect("lowerable");
    assert_eq!(plan.verify(&config), Vec::new(), "fixture must start clean");
    (plan, config)
}

/// Asserts at least one violation matching `pred` and returns the list.
#[track_caller]
fn expect_violation(
    plan: &ExecutionPlan,
    config: &AcceleratorConfig,
    pred: impl Fn(&Violation) -> bool,
) -> Vec<Violation> {
    let violations = plan.verify(config);
    assert!(
        violations.iter().any(&pred),
        "expected variant missing from: {violations:?}"
    );
    violations
}

#[test]
fn corrupt_forward_cycle_is_flagged() {
    let (mut plan, config) = clean_plan();
    plan.forward_cycle_ns.0 *= 2.0;
    expect_violation(
        &plan,
        &config,
        |v| matches!(v, Violation::ForwardCycleMismatch { plan_ns, .. } if *plan_ns == plan.forward_cycle_ns),
    );
}

#[test]
fn corrupt_training_cycle_is_flagged() {
    let (mut plan, config) = clean_plan();
    plan.training_cycle_ns.0 += 1.0;
    let violations = expect_violation(&plan, &config, |v| {
        matches!(v, Violation::TrainingCycleMismatch { .. })
    });
    // The corruption is surgical: only the training-cycle law breaks.
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn corrupt_array_total_is_flagged() {
    let (mut plan, config) = clean_plan();
    plan.total_arrays += 1;
    expect_violation(&plan, &config, |v| {
        matches!(v, Violation::ArrayTotalMismatch { plan_arrays, layer_arrays }
                 if *plan_arrays == *layer_arrays + 1)
    });
}

#[test]
fn corrupt_buffer_energy_is_flagged() {
    let (mut plan, config) = clean_plan();
    plan.buffer_energy_pj.0 *= 3.0;
    let violations = expect_violation(&plan, &config, |v| {
        matches!(v, Violation::BufferEnergyMismatch { .. })
    });
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn corrupt_update_cycle_is_flagged_as_plan_wide_form() {
    let (mut plan, config) = clean_plan();
    plan.update_cycle_ns.0 *= 5.0;
    expect_violation(&plan, &config, |v| {
        matches!(v, Violation::LayerFormMismatch { layer, quantity, .. }
                 if layer == "<plan>" && quantity == "update_cycle_ns")
    });
}

#[test]
fn corrupt_layer_energy_is_flagged_as_layer_form() {
    let (mut plan, config) = clean_plan();
    plan.layers[0].update_energy_pj.0 *= 1.01;
    let name = plan.layers[0].name.clone();
    expect_violation(&plan, &config, |v| {
        matches!(v, Violation::LayerFormMismatch { layer, quantity, .. }
                 if *layer == name && quantity == "update_energy_pj")
    });
}

#[test]
fn corrupt_mvm_count_breaks_mac_conservation() {
    let (mut plan, config) = clean_plan();
    plan.layers[0].forward_mvms += 1;
    expect_violation(&plan, &config, |v| {
        matches!(v, Violation::MacCountMismatch { .. })
    });
}

#[test]
fn skewed_training_passes_are_flagged() {
    let (mut plan, config) = clean_plan();
    plan.layers[0].error_mvms += 1;
    let violations = expect_violation(&plan, &config, |v| {
        matches!(v, Violation::TrainingPassSkew { forward_mvms, error_mvms, .. }
                 if *error_mvms == *forward_mvms + 1)
    });
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn corrupt_adc_count_is_flagged() {
    let (mut plan, config) = clean_plan();
    plan.layers[0].adc_conversions += 1;
    let violations = expect_violation(&plan, &config, |v| {
        matches!(v, Violation::AdcCountMismatch { plan, derived, .. }
                 if *plan == *derived + 1)
    });
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn corrupt_cell_writes_are_flagged() {
    let (mut plan, config) = clean_plan();
    plan.layers[0].cell_writes /= 2;
    let violations = expect_violation(&plan, &config, |v| {
        matches!(v, Violation::CellWriteMismatch { .. })
    });
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn asymmetric_buffer_traffic_is_flagged() {
    let (mut plan, config) = clean_plan();
    // Break the read = 2 x write symmetry (a dropped backward re-read).
    plan.layers[0].buffer_read_bytes = plan.layers[0].buffer_write_bytes;
    let violations = expect_violation(&plan, &config, |v| {
        matches!(v, Violation::BufferAsymmetry { write_bytes, read_bytes, .. }
                 if read_bytes == write_bytes)
    });
    assert_eq!(violations.len(), 1, "{violations:?}");
}

#[test]
fn broken_replication_bookkeeping_is_flagged() {
    let (mut plan, config) = clean_plan();
    plan.layers[0].mapping.steps_per_input += 1;
    expect_violation(&plan, &config, |v| {
        matches!(v, Violation::ReplicationInconsistent { .. })
    });
}

#[test]
fn budget_overrun_is_flagged() {
    let (plan, config) = clean_plan();
    // Re-judge the same (replicated) plan against a budget one array below
    // its spend: the unreplicated floor still fits, so the overrun is a
    // genuine policy violation, not the sanctioned starved-budget fallback.
    let tight = config
        .clone()
        .with_replication(ReplicationPolicy::ArrayBudget(plan.total_arrays - 1));
    expect_violation(&plan, &tight, |v| {
        matches!(v, Violation::BudgetExceeded { budget, total_arrays }
                 if *budget == plan.total_arrays - 1 && *total_arrays == plan.total_arrays)
    });
}

#[test]
fn zero_cycle_stage_is_flagged() {
    let (mut plan, config) = clean_plan();
    plan.layers[0].stage_cycles = 0;
    expect_violation(&plan, &config, |v| {
        matches!(v, Violation::NonPositiveStage { .. })
    });
}

#[test]
fn negative_stage_latency_is_flagged() {
    let (mut plan, config) = clean_plan();
    for l in &mut plan.layers {
        l.forward_latency_ns.0 = -1.0;
    }
    let violations = expect_violation(
        &plan,
        &config,
        |v| matches!(v, Violation::NonPositiveStage { latency_ns, .. } if latency_ns.0 == -1.0),
    );
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::ForwardCycleMismatch { .. })),
        "{violations:?}"
    );
    // The batch metamorphic stays quiet even here: the initiation interval
    // folds from 0.0, so corrupt negative stages cannot make longer batches
    // cheaper. That check guards future edits to the latency *formula*, so
    // the variant is pinned by direct construction below instead.
    assert!(
        violations
            .iter()
            .all(|v| !matches!(v, Violation::BatchLatencyShrank { .. })),
        "{violations:?}"
    );
}

#[test]
fn batch_shrink_variant_renders_and_round_trips() {
    let v = Violation::BatchLatencyShrank {
        batch: 4,
        latency_ns: Ns(100.0),
        doubled_ns: Ns(90.0),
    };
    assert!(v.to_string().contains("batch 4 -> 8"), "{v}");
    let json = serde::json::to_string(&v);
    let back: Violation = serde::json::from_str(&json).expect("parse");
    assert_eq!(back, v);
}

#[test]
fn replication_regression_is_flagged() {
    let config = AcceleratorConfig::default();
    let net = models::alexnet_spec();
    let at = |x: usize| {
        ExecutionPlan::lower(
            &net,
            &config.clone().with_replication(ReplicationPolicy::Fixed(x)),
        )
        .expect("lowerable")
    };
    let (slow, fast) = (at(1), at(4));
    // Honest direction: more copies, same-or-fewer cycles.
    assert_eq!(check_replication_monotone(&slow, &fast, 1), None);
    // Swapped plans model a lowering whose "doubled" mapping got slower.
    let v = check_replication_monotone(&fast, &slow, 4).expect("regression");
    assert!(
        matches!(v, Violation::ReplicationRegressed { replication: 4, slowest_cycles, doubled_cycles }
                 if doubled_cycles > slowest_cycles),
        "{v:?}"
    );
}

#[test]
fn unbindable_linger_is_flagged() {
    let (plan, _config) = clean_plan();
    let shape = ServeShape {
        chips: 4,
        max_batch: 16,
        max_linger_ns: u64::MAX / 2,
        mean_arrival_rps: 1.0,
        mix: vec![1.0],
    };
    let violations = verify_serve(&[plan], &shape);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::LingerExcessive { .. })),
        "{violations:?}"
    );
}

#[test]
fn overload_is_flagged_with_utilization() {
    let (plan, _config) = clean_plan();
    let shape = ServeShape {
        chips: 1,
        max_batch: 16,
        max_linger_ns: 20_000,
        mean_arrival_rps: 1e12,
        mix: vec![1.0],
    };
    let violations = verify_serve(&[plan], &shape);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::Overload { rho, arrival_rps, service_rps }
                if *rho >= 1.0 && *arrival_rps == 1e12 && *service_rps > 0.0
        )),
        "{violations:?}"
    );
}

#[test]
fn failed_lowering_propagates_instead_of_verifying() {
    let config = AcceleratorConfig::default().with_replication(ReplicationPolicy::Fixed(0));
    let err = verify_lowering(&models::lenet_spec(), &config).expect_err("degenerate policy");
    assert!(matches!(err, PlanError::Mapping(_)), "{err:?}");
}

#[test]
fn zoo_times_matrix_is_clean() {
    for (config_name, config) in config_matrix() {
        for net in model_zoo() {
            let violations = verify_lowering(&net, &config).expect("zoo networks lower");
            assert_eq!(violations, Vec::new(), "{}/{config_name}", net.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Honest lowerings verify clean under *random* replication policies,
    /// not just the curated matrix — the verifier models the lowering's
    /// laws, not one configuration's constants.
    #[test]
    fn random_policies_verify_clean(
        net_idx in 0usize..7,
        kind in 0usize..4,
        x in 1usize..=16,
        steps in 1usize..=256,
        budget in 1_024usize..=262_144,
    ) {
        let policy = match kind {
            0 => ReplicationPolicy::None,
            1 => ReplicationPolicy::Fixed(x),
            2 => ReplicationPolicy::MaxStepsPerLayer(steps),
            _ => ReplicationPolicy::ArrayBudget(budget),
        };
        let net = &model_zoo()[net_idx];
        let config = AcceleratorConfig::default().with_replication(policy);
        let violations = verify_lowering(net, &config).expect("zoo networks lower");
        prop_assert_eq!(violations, Vec::new());
    }
}
