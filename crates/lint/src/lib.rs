//! `reram-lint` — first-party architectural lint for the ReRAM accelerator
//! workspace.
//!
//! The paper-reproduction's credibility rests on closed-form hardware
//! accounting: if a crate dependency points up the stack or an event loses
//! its instrumentation, the numbers in the regenerated tables silently stop
//! meaning what they claim. This crate is a workspace-aware static-analysis
//! pass — a small token-level Rust scanner, no external parser
//! dependencies — that fails the build when the codebase violates its own
//! architecture:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `layering` | crate dependencies point down the stack, no back-edges; every manifest inherits `[workspace.lints]` |
//! | `dead-event` | every `telemetry::Event` variant is *emitted* via `record(...)` outside the telemetry crate |
//! | `must_use` | public `fn`s returning `Result` in library crates carry `#[must_use]` |
//!
//! The abort policy (no `unwrap`/`expect`/`panic!`/`todo!` outside tests)
//! and the determinism policy (no `Instant`/`SystemTime`/`HashMap`/`HashSet`)
//! are not rules here: rustc and clippy enforce them type-aware through
//! `[workspace.lints]` and the root `clippy.toml`, and `layering` makes sure
//! no crate drops out of that policy. Unit discipline is not a rule either:
//! the cost model carries dimensioned newtypes (`reram_crossbar::units`),
//! so adding picojoules to nanoseconds does not compile. Lowered-plan
//! invariants are checked by `reram_core::verify` and its tests.
//!
//! A justified exception to one of these rules is waived in place with
//! `// lint:allow(<rule>) <reason>` on (or directly above) the offending
//! line; the reason is mandatory and malformed annotations are themselves
//! diagnostics. Run via `cargo run -p reram-lint` (wired into
//! `scripts/check.sh`); the binary exits non-zero on any violation and
//! prints `file:line: [rule] message` diagnostics.

pub mod rules;
pub mod scanner;
pub mod workspace;

use std::fmt;

pub use scanner::SourceFile;
pub use workspace::{CrateInfo, Workspace};

/// One lint finding, pointing at a file/line with the violated rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (`layering`, `dead-event`, ...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(path: &str, line: usize, rule: &'static str, message: String) -> Self {
        Self {
            path: path.to_owned(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Runs every rule plus annotation-hygiene checks; diagnostics are sorted
/// by path and line.
pub fn check_workspace(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (_, _, check) in rules::RULES {
        diags.extend(check(ws));
    }
    // Malformed allow-annotations are violations in their own right — a
    // silently ignored waiver would un-waive itself confusingly later.
    for krate in &ws.crates {
        for file in &krate.files {
            for (line, problem) in &file.bad_allows {
                diags.push(Diagnostic::new(
                    &file.path,
                    *line,
                    "allow-syntax",
                    problem.clone(),
                ));
            }
        }
    }
    diags.sort();
    diags.dedup();
    diags
}
