//! `--plans` mode: static verification of lowered execution plans.
//!
//! Where the source rules scan text, this mode scans *lowered IR*: it runs
//! [`reram_core::verify::verify_zoo`] — every zoo network lowered under
//! every config-matrix entry, each plan checked against its conservation
//! laws, feasibility constraints, and metamorphic monotonicity properties
//! — plus a serving-shape feasibility pass over a representative cluster
//! config. Findings come back as ordinary [`Diagnostic`]s (rule `plan`),
//! so CI output and waiver ergonomics match the source rules; the synthetic
//! "path" is `plan/<config>/<network>` since a violation lives in a lowered
//! artifact, not a file.

use reram_core::verify::{
    config_matrix, service_rps, verify_serve, ServeShape, Violation, ZooFinding,
};
use reram_core::ExecutionPlan;
use reram_nn::models;

use crate::Diagnostic;

const RULE: &str = "plan";

/// The serving shape the feasibility pass checks: the default 4-chip,
/// 16-deep-batch cluster from `reram-serve`, offered half of each
/// config's own plan-priced service capacity over a LeNet-heavy mix.
/// Capacity varies by orders of magnitude across the matrix (replication
/// is what buys throughput), so the offered load is derived per config —
/// comfortably inside capacity by construction, meaning any violation is
/// a regression in the closed forms, not an infeasible shape.
const SERVE_CHIPS: usize = 4;
const SERVE_MAX_BATCH: usize = 16;
const SERVE_MAX_LINGER_NS: u64 = 20_000;
const SERVE_MIX: [f64; 2] = [0.7, 0.3];
const SERVE_LOAD_FRACTION: f64 = 0.5;

/// Outcome of the plan verification sweep.
pub struct PlanCheck {
    /// Lowered plans verified (zoo networks × matrix configs).
    pub plans: usize,
    /// Accelerator configs in the matrix.
    pub configs: usize,
    /// Violations, rendered as diagnostics.
    pub diags: Vec<Diagnostic>,
}

/// Runs the full plan verification sweep: the zoo × config matrix, plus a
/// serving-shape feasibility check per matrix config.
#[must_use = "the returned findings are the verification result"]
pub fn check_plans() -> PlanCheck {
    let (plans, findings) = reram_core::verify::verify_zoo();
    let mut diags: Vec<Diagnostic> = findings.iter().map(finding_diag).collect();

    // Serving feasibility: one plan per catalog model under each matrix
    // config, checked against the representative cluster shape.
    let catalog = [models::lenet_spec(), models::alexnet_spec()];
    let matrix = config_matrix();
    for (config_name, config) in &matrix {
        let lowered: Result<Vec<ExecutionPlan>, _> = catalog
            .iter()
            .map(|net| ExecutionPlan::lower(net, config))
            .collect();
        let violations = match lowered {
            Ok(plans) => {
                let mut shape = ServeShape {
                    chips: SERVE_CHIPS,
                    max_batch: SERVE_MAX_BATCH,
                    max_linger_ns: SERVE_MAX_LINGER_NS,
                    mean_arrival_rps: 0.0,
                    mix: SERVE_MIX.to_vec(),
                };
                shape.mean_arrival_rps =
                    SERVE_LOAD_FRACTION * service_rps(&plans, &shape).unwrap_or(0.0);
                verify_serve(&plans, &shape)
            }
            Err(e) => vec![Violation::LoweringFailed {
                error: e.to_string(),
            }],
        };
        diags.extend(violations.iter().map(|violation| {
            Diagnostic::new(
                &format!("plan/{config_name}/serve-shape"),
                1,
                RULE,
                violation.to_string(),
            )
        }));
    }

    diags.sort();
    diags.dedup();
    PlanCheck {
        plans,
        configs: matrix.len(),
        diags,
    }
}

fn finding_diag(finding: &ZooFinding) -> Diagnostic {
    Diagnostic::new(
        &format!("plan/{}/{}", finding.config, finding.network),
        1,
        RULE,
        finding.violation.to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_zoo_verifies_clean_across_the_matrix() {
        let check = check_plans();
        assert!(check.configs >= 3, "matrix shrank below the floor");
        assert!(
            check.plans >= 3 * check.configs,
            "zoo shrank: {} plans",
            check.plans
        );
        assert_eq!(
            check.diags,
            Vec::new(),
            "plan verification must be clean on the live workspace"
        );
    }
}
