//! The rule set. Each rule module exposes `check(&Workspace) -> Vec<Diagnostic>`.

pub mod dead_events;
pub mod layering;
pub mod must_use;

use crate::workspace::Workspace;
use crate::Diagnostic;

/// Signature every rule's `check` entry point shares.
pub type RuleFn = fn(&Workspace) -> Vec<Diagnostic>;

/// `(rule name, one-line description, check fn)` for every rule.
pub const RULES: &[(&str, &str, RuleFn)] = &[
    (
        "layering",
        "crate dependencies must point down the stack (tensor/telemetry -> crossbar -> nn -> gpu -> core -> serve -> bench -> suite); every manifest inherits [workspace.lints]",
        layering::check,
    ),
    (
        "dead-event",
        "every telemetry::Event variant is emitted via a record(...) call outside the telemetry crate",
        dead_events::check,
    ),
    (
        "must_use",
        "public fns returning Result in library crates carry #[must_use] (or lint:allow(must_use))",
        must_use::check,
    ),
];
