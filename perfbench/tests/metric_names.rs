//! Self-test: the metric table in `BENCHMARK.json` matches the one the
//! binary declares, every name is well formed, and a short run of each
//! mode emits exactly the declared metrics.

use std::path::Path;
use std::process::Command;

use serde::json::parse_value;
use serde::Value;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
}

fn text(v: &Value, key: &str) -> String {
    match v.field(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// `(section, name, unit, better)` rows of `BENCHMARK.json`.
fn benchmark_json() -> Vec<(String, String, String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse_value(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let mut rows = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let entries = doc
            .field(section)
            .expect("section present")
            .as_seq(section)
            .expect("section is a list");
        for e in entries {
            rows.push((
                section.to_owned(),
                text(e, "name"),
                text(e, "unit"),
                text(e, "better"),
            ));
        }
    }
    rows
}

fn declared() -> Vec<(String, String, String, String)> {
    let out = bin().arg("--list-metrics").output().expect("binary runs");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 4, "{l}");
            (f[0].into(), f[1].into(), f[2].into(), f[3].into())
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_matches_the_declared_table() {
    assert_eq!(benchmark_json(), declared());
}

#[test]
fn names_are_well_formed_and_unique() {
    let rows = declared();
    for (_, name, _, _) in &rows {
        assert!(well_formed(name), "{name}");
    }
    let mut names: Vec<&str> = rows.iter().map(|r| r.1.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), rows.len(), "a metric name repeats");
}

#[test]
fn short_runs_emit_every_declared_metric() {
    let rows = declared();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bin()
            .args(["--workload", "plan-search", "--seed", "3", "--seconds", "1"])
            .args(["--trace", trace])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let result = parse_value(stdout.lines().last().expect("a result line")).expect("JSON");
        assert!(matches!(result.field("correct"), Some(Value::Bool(true))));
        let metrics = result
            .field("metrics")
            .expect("metrics")
            .as_map("metrics")
            .expect("an object");
        let emitted: Vec<(&str, String)> = metrics
            .iter()
            .map(|(name, m)| (name.as_str(), text(m, "unit")))
            .collect();
        let expected: Vec<(&str, String)> = rows
            .iter()
            .filter(|r| r.0 == section)
            .map(|r| (r.1.as_str(), r.2.clone()))
            .collect();
        assert_eq!(emitted, expected, "--trace {trace}");
    }
}
