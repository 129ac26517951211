//! Fixture-based rule tests: each rule must trip on a known-bad snippet and
//! stay quiet on the corresponding good snippet.

use reram_lint::{check_workspace, Workspace};

fn manifest(name: &str, deps: &[&str]) -> String {
    let mut m =
        format!("[package]\nname = \"{name}\"\n[lints]\nworkspace = true\n[dependencies]\n");
    for dep in deps {
        m.push_str(&format!("{dep}.workspace = true\n"));
    }
    m
}

fn rules_hit(ws: &Workspace) -> Vec<(String, &'static str)> {
    check_workspace(ws)
        .into_iter()
        .map(|d| (format!("{}:{}", d.path, d.line), d.rule))
        .collect()
}

#[test]
fn layering_flags_manifest_back_edge() {
    // tensor (layer 0) depending on nn (layer 2) is a back-edge.
    let m = manifest("reram-tensor", &["reram-nn"]);
    let ws = Workspace::from_sources(&[("reram-tensor", &m, &[])]);
    let diags = check_workspace(&ws);
    assert!(
        diags.iter().any(|d| d.rule == "layering"
            && d.path.ends_with("Cargo.toml")
            && d.message.contains("back-edge")),
        "expected a manifest layering diagnostic, got: {diags:?}"
    );
}

#[test]
fn layering_flags_use_path_back_edge() {
    let m = manifest("reram-crossbar", &["reram-tensor"]);
    let src = "use reram_core::AcceleratorConfig;\n";
    let ws =
        Workspace::from_sources(&[("reram-crossbar", &m, &[("crates/crossbar/src/lib.rs", src)])]);
    let diags = check_workspace(&ws);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "layering" && d.path.ends_with("lib.rs") && d.line == 1),
        "expected a source-path layering diagnostic, got: {diags:?}"
    );
}

#[test]
fn layering_accepts_downward_edges() {
    let m = manifest("reram-crossbar", &["reram-tensor", "reram-telemetry"]);
    let src = "use reram_tensor::Matrix;\nuse reram_telemetry as telemetry;\n";
    let ws =
        Workspace::from_sources(&[("reram-crossbar", &m, &[("crates/crossbar/src/lib.rs", src)])]);
    assert!(
        check_workspace(&ws).is_empty(),
        "downward edges must pass: {:?}",
        check_workspace(&ws)
    );
}

#[test]
fn layering_protects_tool_crate() {
    let m = manifest("reram-bench", &["reram-lint"]);
    let ws = Workspace::from_sources(&[("reram-bench", &m, &[])]);
    assert!(check_workspace(&ws)
        .iter()
        .any(|d| d.rule == "layering" && d.message.contains("tool crate")),);
}

#[test]
fn layering_flags_unsanctioned_core_module_edge() {
    // `mapping` is a leaf of the intra-core graph; it reaching up into
    // `accelerator` is exactly the cycle the module table forbids.
    let src = "use crate::accelerator::PipeLayerAccelerator;\n";
    let m = manifest("reram-core", &[]);
    let ws = Workspace::from_sources(&[("reram-core", &m, &[("crates/core/src/mapping.rs", src)])]);
    let diags = check_workspace(&ws);
    assert!(
        diags.iter().any(|d| d.rule == "layering"
            && d.path.ends_with("mapping.rs")
            && d.line == 1
            && d.message.contains("mapping -> accelerator")),
        "expected an intra-core module diagnostic, got: {diags:?}"
    );
}

#[test]
fn layering_accepts_sanctioned_core_module_edges() {
    // Sanctioned table edges, self-references, the crate root, test code,
    // and annotated lines must all stay quiet.
    let plan_src = "use crate::mapping::LayerMapping;\n\
                    use crate::verify::verify_plan;\n\
                    pub use crate::plan::layer::LayerPlan;\n";
    let chip_src = "use crate::plan::ExecutionPlan;\n\
                    // lint:allow(layering) doc example exercises the report facade\n\
                    use crate::report::RunReport;\n\
                    #[cfg(test)]\nmod tests {\n    use crate::accelerator::PipeLayerAccelerator;\n}\n";
    let root_src = "pub use crate::plan::ExecutionPlan;\n";
    let m = manifest("reram-core", &[]);
    let ws = Workspace::from_sources(&[(
        "reram-core",
        &m,
        &[
            ("crates/core/src/lib.rs", root_src),
            ("crates/core/src/plan/mod.rs", plan_src),
            ("crates/core/src/chip.rs", chip_src),
        ],
    )]);
    let diags = check_workspace(&ws);
    assert!(
        diags.iter().all(|d| d.rule != "layering"),
        "sanctioned core module edges must pass: {diags:?}"
    );
}

#[test]
fn dead_event_flags_referenced_but_never_recorded_variant() {
    let telemetry_manifest = manifest("reram-telemetry", &[]);
    let event_src = "pub enum Event {\n    CrossbarMvm = 0,\n    CellWrite = 1,\n}\n";
    let emitter_manifest = manifest("reram-crossbar", &["reram-telemetry"]);
    // `CellWrite` is *referenced* (a match arm), but only `CrossbarMvm` is
    // ever passed to a `record(...)` call, so its counter can never move.
    let emitter_src = "pub fn mvm() { record(Event::CrossbarMvm, 1); }\n\
                       pub fn label(e: &Event) -> u32 {\n\
                       match e { Event::CellWrite => 1, _ => 0 }\n\
                       }\n";
    let ws = Workspace::from_sources(&[
        (
            "reram-telemetry",
            &telemetry_manifest,
            &[("crates/telemetry/src/event.rs", event_src)],
        ),
        (
            "reram-crossbar",
            &emitter_manifest,
            &[("crates/crossbar/src/lib.rs", emitter_src)],
        ),
    ]);
    let diags = check_workspace(&ws);
    let dead: Vec<_> = diags.iter().filter(|d| d.rule == "dead-event").collect();
    assert_eq!(dead.len(), 1, "exactly CellWrite is dead: {diags:?}");
    assert!(dead[0].message.contains("CellWrite"));
    assert!(dead[0].path.ends_with("event.rs"));
    assert_eq!(dead[0].line, 3);
}

#[test]
fn dead_event_follows_wrapped_record_calls() {
    let telemetry_manifest = manifest("reram-telemetry", &[]);
    let event_src = "pub enum Event {\n    CrossbarMvm = 0,\n}\n";
    let emitter_manifest = manifest("reram-crossbar", &["reram-telemetry"]);
    // rustfmt wraps wide record calls; the variant lands on a later line
    // than the `record(` opener and must still count as emitted.
    let emitter_src = "pub fn mvm() {\n\
                       record(\n\
                       Event::CrossbarMvm,\n\
                       1,\n\
                       );\n\
                       }\n";
    let ws = Workspace::from_sources(&[
        (
            "reram-telemetry",
            &telemetry_manifest,
            &[("crates/telemetry/src/event.rs", event_src)],
        ),
        (
            "reram-crossbar",
            &emitter_manifest,
            &[("crates/crossbar/src/lib.rs", emitter_src)],
        ),
    ]);
    let diags = check_workspace(&ws);
    assert!(
        diags.iter().all(|d| d.rule != "dead-event"),
        "a wrapped record call still emits: {diags:?}"
    );
}

#[test]
fn must_use_flags_unannotated_result_fn() {
    let src = "pub fn parse(s: &str) -> Result<u32, String> {\n    Err(s.to_owned())\n}\n";
    let m = manifest("reram-nn", &[]);
    let ws = Workspace::from_sources(&[("reram-nn", &m, &[("crates/nn/src/layers.rs", src)])]);
    let hits = rules_hit(&ws);
    assert!(
        hits.contains(&("crates/nn/src/layers.rs:1".to_owned(), "must_use")),
        "unannotated Result-returning pub fn must trip: {hits:?}"
    );
}

#[test]
fn must_use_honors_annotations_waivers_and_binaries() {
    let src = "#[must_use = \"the parsed value is the result\"]\n\
               pub fn parse(s: &str) -> Result<u32, String> {\n    Err(s.to_owned())\n}\n\
               // lint:allow(must_use) callers poll this in a retry loop\n\
               pub fn poll() -> Result<(), String> {\n    Ok(())\n}\n\
               pub fn infallible() -> u32 {\n    7\n}\n\
               pub(crate) fn internal() -> Result<(), String> {\n    Ok(())\n}\n\
               pub fn wrapped() -> Option<Result<u32, String>> {\n    None\n}\n";
    let bin_src = "fn main() {}\npub fn run() -> Result<(), String> {\n    Ok(())\n}\n";
    let m = manifest("reram-nn", &[]);
    let ws = Workspace::from_sources(&[(
        "reram-nn",
        &m,
        &[
            ("crates/nn/src/layers.rs", src),
            ("crates/nn/src/bin/tool.rs", bin_src),
        ],
    )]);
    let diags = check_workspace(&ws);
    assert!(
        diags.iter().all(|d| d.rule != "must_use"),
        "annotated/waived/non-public/non-Result/binary fns must pass: {diags:?}"
    );
}

#[test]
fn dead_event_flags_telemetry_crate_without_event_enum() {
    // A parser that finds no variants must not pass silently: the rule is
    // out of sync with the code, not the code clean.
    let telemetry_manifest = manifest("reram-telemetry", &[]);
    let ws = Workspace::from_sources(&[(
        "reram-telemetry",
        &telemetry_manifest,
        &[("crates/telemetry/src/lib.rs", "pub struct Counter;\n")],
    )]);
    let diags = check_workspace(&ws);
    assert!(
        diags.iter().any(|d| d.rule == "dead-event"
            && d.path == "crates/reram-telemetry/Cargo.toml"
            && d.message.contains("out of sync")),
        "expected the out-of-sync diagnostic, got: {diags:?}"
    );
}

#[test]
fn allow_without_reason_is_itself_flagged() {
    let src = "// lint:allow(must_use)\npub fn parse(s: &str) -> Result<u32, String> {\n    Err(s.to_owned())\n}\n";
    let m = manifest("reram-nn", &[]);
    let ws = Workspace::from_sources(&[("reram-nn", &m, &[("crates/nn/src/layers.rs", src)])]);
    let diags = check_workspace(&ws);
    assert!(diags
        .iter()
        .any(|d| d.rule == "allow-syntax" && d.line == 1));
    // And the reasonless allow does not waive the underlying violation.
    assert!(diags.iter().any(|d| d.rule == "must_use" && d.line == 2));
}

#[test]
fn layering_requires_workspace_lints() {
    // Without `[lints] workspace = true` a crate silently drops out of the
    // abort, determinism and `unsafe_code` policy.
    let m = "[package]\nname = \"reram-gpu\"\n[dependencies]\n";
    let ws = Workspace::from_sources(&[(
        "reram-gpu",
        m,
        &[("crates/gpu/src/lib.rs", "pub fn f() {}\n")],
    )]);
    assert!(check_workspace(&ws)
        .iter()
        .any(|d| d.rule == "layering" && d.message.contains("workspace = true")));
    let ok = manifest("reram-gpu", &[]);
    let ws = Workspace::from_sources(&[(
        "reram-gpu",
        &ok,
        &[("crates/gpu/src/lib.rs", "pub fn f() {}\n")],
    )]);
    assert!(check_workspace(&ws).is_empty());
}
