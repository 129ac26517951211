//! Rule `layering`: crate dependencies must point down the stack.
//!
//! The sanctioned dependency direction is
//! `{tensor, telemetry} → {crossbar, datasets} → nn → gpu → core →
//! serve → bench → suite`: a crate may depend only on first-party crates in a
//! strictly lower layer, so no back-edges (and no same-layer edges) can
//! form. `reram-lint` itself is a tool at the top of the stack: it depends
//! on no first-party crate, and nothing may depend on it — the stack must
//! keep building when the tool is deleted.
//!
//! The manifest pass also requires every first-party crate to declare
//! `[lints] workspace = true`: that one line carries the workspace's whole
//! rustc/clippy policy, so a new crate cannot quietly drop out of it.
//!
//! Both declaration sites are checked: `Cargo.toml` dependency tables and
//! `reram_*` paths in non-test source (a `use` back-edge would not compile
//! without the manifest edge, but checking both catches a manifest edit
//! that sneaks an edge in "temporarily").
//!
//! Inside `reram-core` — the only crate with enough internal structure to
//! grow cycles of its own — the rule additionally enforces a module-level
//! allowed-edges table: every `crate::<module>` reference in non-test code
//! must be a sanctioned edge in [`CORE_MODULE_EDGES`] (self-edges and the
//! crate root `lib.rs` are exempt). New intra-core dependencies are
//! therefore a reviewed one-line table change, not an accident.

use crate::workspace::{CrateInfo, Workspace};
use crate::Diagnostic;

/// Layer rank of every first-party crate. Lower = closer to the bottom of
/// the stack; dependencies must strictly decrease rank.
pub const LAYERS: &[(&str, u32)] = &[
    ("reram-tensor", 0),
    ("reram-telemetry", 0),
    ("reram-crossbar", 1),
    ("reram-datasets", 1),
    ("reram-nn", 2),
    ("reram-gpu", 3),
    ("reram-core", 4),
    ("reram-serve", 5),
    ("reram-bench", 6),
    ("reram-suite", 7),
    ("reram-lint", 7),
];

/// Crates nothing in the stack may depend on: the tools must stay
/// deletable without breaking a single build.
pub const TOOL_CRATES: &[&str] = &["reram-lint"];

/// The crate whose internal module graph is table-enforced.
pub const CORE_CRATE: &str = "reram-core";

/// Top-level modules of `reram-core`. A `crate::<ident>` reference is only
/// treated as a module edge when `<ident>` appears here, so re-exported
/// types addressed through the crate root stay exempt.
pub const CORE_MODULES: &[&str] = &[
    "accelerator",
    "chip",
    "compiler",
    "config",
    "endurance",
    "isa",
    "mapping",
    "pipeline",
    "plan",
    "regan",
    "report",
    "subarray",
    "verify",
];

/// Sanctioned `(from, to)` module edges inside `reram-core`. The plan IR
/// is the hub and the one pricing model: `plan` lowers specs onto
/// `mapping`, while `accelerator`, `chip`, `endurance` and `report`
/// consume the lowered plan instead of re-walking the spec.
pub const CORE_MODULE_EDGES: &[(&str, &str)] = &[
    ("accelerator", "pipeline"),
    ("accelerator", "plan"),
    ("accelerator", "regan"),
    ("chip", "plan"),
    ("compiler", "isa"),
    ("compiler", "subarray"),
    ("config", "mapping"),
    ("endurance", "plan"),
    ("plan", "mapping"),
    // lower() re-verifies its own output in debug builds; the verifier in
    // turn recomputes mapping/plan closed forms. A sanctioned 2-cycle.
    ("plan", "verify"),
    ("verify", "mapping"),
    ("verify", "plan"),
    ("regan", "pipeline"),
    ("report", "plan"),
    ("subarray", "isa"),
];

const RULE: &str = "layering";

fn rank(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

fn is_tool(name: &str) -> bool {
    TOOL_CRATES.contains(&name)
}

/// Top-level module a core source file belongs to, derived from its path:
/// `crates/core/src/<mod>.rs` and `crates/core/src/<mod>/...` both map to
/// `<mod>`. The crate root and binaries are exempt (they may wire any
/// modules together).
fn core_module_of(path: &str) -> Option<&str> {
    let rest = path.split("/src/").nth(1)?;
    if rest == "lib.rs" || rest.starts_with("bin/") {
        return None;
    }
    let first = rest.split('/').next()?;
    Some(first.strip_suffix(".rs").unwrap_or(first))
}

fn core_edge_allowed(from: &str, to: &str) -> bool {
    CORE_MODULE_EDGES.iter().any(|&(f, t)| f == from && t == to)
}

/// Enforces the intra-core module table: every `crate::<module>` path in
/// non-test code must be a sanctioned edge.
fn check_core_modules(krate: &CrateInfo) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &krate.files {
        let Some(own) = core_module_of(&file.path) else {
            continue;
        };
        for (line_no, line) in file.code_lines() {
            let tokens = crate::scanner::tokenize(line);
            for w in tokens.windows(4) {
                if w[0].ident() != Some("crate") || !w[1].is_punct(':') || !w[2].is_punct(':') {
                    continue;
                }
                let Some(target) = w[3].ident() else { continue };
                if target == own || !CORE_MODULES.contains(&target) {
                    continue;
                }
                if file.allowed(line_no, RULE) {
                    continue;
                }
                if !core_edge_allowed(own, target) {
                    diags.push(Diagnostic::new(
                        &file.path,
                        line_no,
                        RULE,
                        format!(
                            "intra-core edge `{own} -> {target}` is not sanctioned; \
                             add it to rules::layering::CORE_MODULE_EDGES if the \
                             direction is intended"
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// Runs the layering rule over the workspace.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for krate in &ws.crates {
        let Some(own_rank) = rank(&krate.name) else {
            diags.push(Diagnostic::new(
                &krate.manifest_path,
                1,
                RULE,
                format!(
                    "crate `{}` is not in the layering table; add it to \
                     rules::layering::LAYERS with its layer rank",
                    krate.name
                ),
            ));
            continue;
        };

        // The shared lint policy (abort and determinism bans, forbidden
        // `unsafe`) lives in `[workspace.lints]`; a crate that does not
        // inherit it silently drops out of every one of those checks.
        if !krate.inherits_workspace_lints() {
            diags.push(Diagnostic::new(
                &krate.manifest_path,
                1,
                RULE,
                format!(
                    "crate `{}` does not inherit the workspace lint policy; \
                     add `[lints]` with `workspace = true` to its manifest",
                    krate.name
                ),
            ));
        }

        // Manifest edges.
        for (dep, line, _dev) in krate.first_party_deps() {
            if is_tool(&dep) {
                diags.push(Diagnostic::new(
                    &krate.manifest_path,
                    line,
                    RULE,
                    format!("`{dep}` is a tool crate; nothing may depend on it"),
                ));
                continue;
            }
            match rank(&dep) {
                Some(dep_rank) if dep_rank >= own_rank => {
                    diags.push(Diagnostic::new(
                        &krate.manifest_path,
                        line,
                        RULE,
                        format!(
                            "back-edge: `{}` (layer {own_rank}) may not depend on \
                             `{dep}` (layer {dep_rank}); dependencies must point \
                             down the stack",
                            krate.name
                        ),
                    ));
                }
                Some(_) => {}
                None => diags.push(Diagnostic::new(
                    &krate.manifest_path,
                    line,
                    RULE,
                    format!("dependency `{dep}` is not in the layering table"),
                )),
            }
        }

        // Intra-core module edges (`crate::<module>` in non-test code).
        if krate.name == CORE_CRATE {
            diags.extend(check_core_modules(krate));
        }

        // Source-path edges (`reram_foo::...` in non-test code).
        let own_ident = krate.name.replace('-', "_");
        for file in &krate.files {
            for (line_no, line) in file.code_lines() {
                for token in crate::scanner::tokenize(line) {
                    let Some(ident) = token.ident() else { continue };
                    if !ident.starts_with("reram_") || ident == own_ident {
                        continue;
                    }
                    if file.allowed(line_no, RULE) {
                        continue;
                    }
                    let dep = ident.replace('_', "-");
                    match rank(&dep) {
                        Some(dep_rank) if dep_rank >= own_rank || is_tool(&dep) => {
                            diags.push(Diagnostic::new(
                                &file.path,
                                line_no,
                                RULE,
                                format!(
                                    "back-edge: `{}` (layer {own_rank}) references \
                                     `{ident}` (layer {dep_rank})",
                                    krate.name
                                ),
                            ));
                        }
                        Some(_) => {}
                        None => diags.push(Diagnostic::new(
                            &file.path,
                            line_no,
                            RULE,
                            format!("path `{ident}` is not a known first-party crate"),
                        )),
                    }
                }
            }
        }
    }
    diags
}
