//! The workspace's architecture, checked from its manifests and sources.
//!
//! * Crate dependencies point down the stack `{tensor, telemetry} →
//!   {crossbar, datasets} → nn → gpu → core → serve → bench → suite`: a
//!   crate may depend (normal, dev or build) only on first-party crates of
//!   a strictly lower rank in [`LAYERS`], so no back-edge or same-layer
//!   edge can form. A `reram_*` path in source cannot compile without such
//!   a manifest edge, so the manifests are the whole check.
//! * Every first-party manifest declares `[lints] workspace = true`, the
//!   one line that carries the rustc/clippy policy of `[workspace.lints]`.
//! * Every `crates/*` package is ranked and listed in `FIRST_PARTY` of
//!   `scripts/check.sh`, so a new crate cannot slip out of fmt, clippy or
//!   the first-party tests.
//! * Inside `reram-core`, every `crate::<module>` reference in non-test
//!   code is a sanctioned edge of [`CORE_MODULE_EDGES`], and every edge
//!   there is used: a new intra-core dependency is a reviewed one-line
//!   table change, and a stale one is removed.
#![expect(
    clippy::expect_used,
    reason = "helpers abort on an unreadable file or directory, which fails the calling test"
)]

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Layer rank of every first-party package. Lower is closer to the bottom
/// of the stack; dependencies must strictly decrease rank.
const LAYERS: &[(&str, u32)] = &[
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
];

/// Sanctioned `(from, to)` module edges inside `reram-core`. The plan IR
/// is the hub and the one pricing model: `plan` lowers specs onto
/// `mapping`, while `accelerator`, `chip`, `endurance` and `report`
/// consume the lowered plan instead of re-walking the spec.
const CORE_MODULE_EDGES: &[(&str, &str)] = &[
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
    ("report", "plan"),
    ("subarray", "isa"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rank(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

/// What a `Cargo.toml` declares that the checks need.
#[derive(Debug)]
struct Manifest {
    path: PathBuf,
    name: String,
    /// Every dependency key, normal, dev and build alike.
    deps: Vec<String>,
    inherits_lints: bool,
}

/// The root manifest followed by every `crates/*/Cargo.toml`.
fn manifests() -> Vec<Manifest> {
    let mut paths: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("read crates/")
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|path| path.is_file())
        .collect();
    paths.sort();
    paths.insert(0, root().join("Cargo.toml"));
    paths.iter().map(|path| parse_manifest(path)).collect()
}

/// Line-parses the tables the checks read: `[package] name`, `[lints]
/// workspace` and the keys of every dependency table (including the
/// `[target.<cfg>.dependencies]` and `[dependencies.<name>]` forms, but not
/// `[workspace.dependencies]`, which declares versions, not edges).
fn parse_manifest(path: &Path) -> Manifest {
    const DEP_TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];
    let text = fs::read_to_string(path).expect("read manifest");
    let mut manifest = Manifest {
        path: path.to_owned(),
        name: String::new(),
        deps: Vec::new(),
        inherits_lints: false,
    };
    let mut table = String::new();
    let mut in_dep_table = false;
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            table = header.trim_end_matches(']').to_owned();
            let segments: Vec<&str> = table.split('.').collect();
            let dep_at = segments.iter().position(|s| DEP_TABLES.contains(s));
            in_dep_table = false;
            match dep_at {
                _ if segments[0] == "workspace" => {}
                Some(i) if i + 1 < segments.len() => manifest.deps.push(segments[i + 1].to_owned()),
                Some(_) => in_dep_table = true,
                None => {}
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if in_dep_table {
            manifest
                .deps
                .push(key.split('.').next().unwrap_or(key).to_owned());
        } else if table == "package" && key == "name" {
            manifest.name = value.trim_matches('"').to_owned();
        } else if table == "lints" && key == "workspace" {
            manifest.inherits_lints = value == "true";
        }
    }
    manifest
}

fn assert_none(problems: &[String]) {
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

#[test]
fn dependencies_point_down_the_stack() {
    let mut problems = Vec::new();
    for m in manifests() {
        // An unranked package fails `every_package_is_ranked_and_checked`.
        let Some(own) = rank(&m.name) else {
            continue;
        };
        for dep in m.deps.iter().filter(|d| d.starts_with("reram-")) {
            match rank(dep) {
                Some(r) if r < own => {}
                Some(r) => problems.push(format!(
                    "{}: back-edge `{}` (layer {own}) -> `{dep}` (layer {r})",
                    m.path.display(),
                    m.name
                )),
                None => problems.push(format!(
                    "{}: dependency `{dep}` has no rank in LAYERS",
                    m.path.display()
                )),
            }
        }
    }
    assert_none(&problems);
}

#[test]
fn every_manifest_inherits_workspace_lints() {
    let problems: Vec<String> = manifests()
        .iter()
        .filter(|m| !m.inherits_lints)
        .map(|m| format!("{}: missing `[lints] workspace = true`", m.path.display()))
        .collect();
    assert_none(&problems);
}

#[test]
fn every_package_is_ranked_and_checked() {
    let script = fs::read_to_string(root().join("scripts/check.sh")).expect("read check.sh");
    let first_party: Vec<&str> = script
        .lines()
        .skip_while(|l| !l.starts_with("FIRST_PARTY=("))
        .skip(1)
        .take_while(|l| !l.starts_with(')'))
        .map(str::trim)
        .collect();
    let names: Vec<String> = manifests().into_iter().map(|m| m.name).collect();
    let mut problems = Vec::new();
    for name in &names {
        if rank(name).is_none() {
            problems.push(format!("`{name}` has no rank in LAYERS"));
        }
        if !first_party.contains(&name.as_str()) {
            problems.push(format!(
                "`{name}` is missing from FIRST_PARTY in scripts/check.sh"
            ));
        }
    }
    for (name, _) in LAYERS {
        if !names.iter().any(|n| n == name) {
            problems.push(format!("LAYERS ranks `{name}`, which is not a package"));
        }
    }
    assert_none(&problems);
}

/// One line of Rust with comments and string-literal contents removed.
/// `in_string` carries an open string literal across lines.
fn mask_line(line: &str, in_string: &mut bool) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut code = String::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if *in_string {
            match c {
                '\\' => i += 1,
                '"' => *in_string = false,
                _ => {}
            }
        } else {
            match c {
                '/' if chars.get(i + 1) == Some(&'/') => break,
                '"' => *in_string = true,
                // A char literal such as `'{'` or `'\''`; a lifetime has no
                // closing quote.
                '\'' if chars.get(i + 1) == Some(&'\\') => {
                    i += 3;
                    while chars.get(i).is_some_and(|&c| c != '\'') {
                        i += 1;
                    }
                }
                '\'' if chars.get(i + 2) == Some(&'\'') => i += 2,
                _ => code.push(c),
            }
        }
        i += 1;
    }
    code
}

/// The non-test code of a source file: comments and string contents
/// masked, every `#[cfg(test)]` item dropped.
fn non_test_code(source: &str) -> String {
    let mut code = String::new();
    let mut in_string = false;
    let mut depth = 0usize;
    // Brace depth at which a `#[cfg(test)]` item began, and whether its
    // body has opened.
    let mut test_item: Option<(usize, bool)> = None;
    for line in source.lines() {
        let masked = mask_line(line, &mut in_string);
        if test_item.is_none() && masked.trim_start().starts_with("#[cfg(test)]") {
            test_item = Some((depth, false));
        }
        for c in masked.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
            if let Some((start, opened)) = &mut test_item {
                *opened |= depth > *start;
            }
        }
        // A bodiless item such as `mod tests;` ends at its semicolon.
        if let Some((start, opened)) = test_item {
            if (opened && depth == start) || (!opened && masked.trim_end().ends_with(';')) {
                test_item = None;
            }
        } else {
            code.push_str(&masked);
            code.push('\n');
        }
    }
    code
}

/// The first path segment of every `crate::` reference in `code`,
/// including each item of a `crate::{a::X, b}` group.
fn crate_path_heads(code: &str) -> Vec<String> {
    let ident = |s: &str| -> String {
        s.trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    };
    let mut heads = Vec::new();
    for (at, _) in code.match_indices("crate::") {
        let prefix_ok = code[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if !prefix_ok {
            continue;
        }
        let rest = code[at + "crate::".len()..].trim_start();
        let Some(group) = rest.strip_prefix('{') else {
            heads.push(ident(rest));
            continue;
        };
        // Items of the group start after `{` or a `,` at group depth 0.
        heads.push(ident(group));
        let mut depth = 0usize;
        for (i, c) in group.char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth == 0 => break,
                '}' => depth -= 1,
                ',' if depth == 0 => heads.push(ident(&group[i + 1..])),
                _ => {}
            }
        }
    }
    heads
}

/// `path` itself if it is a Rust file, else every Rust file under it.
fn rust_files(path: &Path) -> Vec<PathBuf> {
    if !path.is_dir() {
        let is_rust = path.extension().is_some_and(|e| e == "rs");
        return if is_rust {
            vec![path.to_owned()]
        } else {
            Vec::new()
        };
    }
    fs::read_dir(path)
        .expect("read source dir")
        .flat_map(|entry| rust_files(&entry.expect("source dir entry").path()))
        .collect()
}

#[test]
fn core_module_edges_match_the_table() {
    let src = root().join("crates/core/src");
    // Top-level modules: `<mod>.rs` files and `<mod>/` directories. The
    // crate root wires modules together and is exempt.
    let mut modules: Vec<(String, Vec<PathBuf>)> = fs::read_dir(&src)
        .expect("read crates/core/src")
        .map(|entry| entry.expect("core src entry").path())
        .filter_map(|path| {
            let stem = path.file_stem()?.to_str()?.to_owned();
            let files = rust_files(&path);
            (stem != "lib" && !files.is_empty()).then_some((stem, files))
        })
        .collect();
    modules.sort();
    let names: BTreeSet<&str> = modules.iter().map(|(n, _)| n.as_str()).collect();

    let mut used = BTreeSet::new();
    let mut problems = Vec::new();
    for (module, files) in &modules {
        for file in files {
            let code = non_test_code(&fs::read_to_string(file).expect("read source"));
            for target in crate_path_heads(&code) {
                if target == *module || !names.contains(target.as_str()) {
                    continue;
                }
                let edge = (module.as_str(), target.as_str());
                if let Some(&sanctioned) = CORE_MODULE_EDGES.iter().find(|&&e| e == edge) {
                    used.insert(sanctioned);
                } else {
                    problems.push(format!(
                        "{}: intra-core edge `{module} -> {target}` is not in CORE_MODULE_EDGES",
                        file.display()
                    ));
                }
            }
        }
    }
    for &(from, to) in CORE_MODULE_EDGES {
        if !used.contains(&(from, to)) {
            problems.push(format!(
                "CORE_MODULE_EDGES lists `{from} -> {to}`, which no non-test code uses"
            ));
        }
    }
    assert_none(&problems);
}
