//! Loading the first-party workspace into a lintable model.
//!
//! Only first-party code is modelled: the root `reram-suite` package and
//! every crate under `crates/`. The `vendor/` stand-ins mirror upstream
//! crates' idioms, not this repository's architecture, and are skipped for
//! the same reason `scripts/check.sh` skips them.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::scanner::SourceFile;

/// One first-party crate: its manifest and its `src/` tree.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name, e.g. `reram-core`.
    pub name: String,
    /// Workspace-relative manifest path.
    pub manifest_path: String,
    /// Raw manifest text.
    pub manifest: String,
    /// Parsed source files under the crate's `src/`.
    pub files: Vec<SourceFile>,
}

impl CrateInfo {
    /// Whether the manifest opts into the workspace lint policy with a
    /// `[lints]` table holding `workspace = true`.
    pub fn inherits_workspace_lints(&self) -> bool {
        let mut in_lints = false;
        for line in self.manifest.lines() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                in_lints = trimmed == "[lints]";
            } else if in_lints && trimmed.replace(' ', "") == "workspace=true" {
                return true;
            }
        }
        false
    }

    /// First-party dependencies declared in the manifest:
    /// `(name, 1-based manifest line, is_dev_or_build)`.
    pub fn first_party_deps(&self) -> Vec<(String, usize, bool)> {
        let mut deps = Vec::new();
        let mut section = String::new();
        for (idx, line) in self.manifest.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                section = trimmed.to_owned();
                continue;
            }
            let is_dep_section = matches!(
                section.as_str(),
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            if !is_dep_section {
                continue;
            }
            let Some(name) = trimmed
                .split(['=', '.', ' ', '\t'])
                .next()
                .filter(|n| n.starts_with("reram-"))
            else {
                continue;
            };
            let dev = section != "[dependencies]";
            deps.push((name.to_owned(), idx + 1, dev));
        }
        deps
    }
}

/// Fixture-crate input for [`Workspace::from_sources`]:
/// `(crate_name, manifest_toml, [(workspace-relative path, source)])`.
pub type FixtureCrate<'a> = (&'a str, &'a str, &'a [(&'a str, &'a str)]);

/// The whole first-party workspace.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// All first-party crates, in directory order.
    pub crates: Vec<CrateInfo>,
}

/// Errors loading a workspace from disk.
#[derive(Debug)]
pub struct LoadError(String);

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LoadError {}

impl Workspace {
    /// Loads the workspace rooted at `root` (the directory holding the
    /// workspace `Cargo.toml` with the `crates/` and `src/` trees).
    #[must_use = "the loaded workspace is the result"]
    pub fn load(root: &Path) -> Result<Workspace, LoadError> {
        let mut crates = Vec::new();
        // Root package (reram-suite): manifest at the workspace root.
        crates.push(load_crate(root, root, "Cargo.toml")?);

        let crates_dir = root.join("crates");
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| LoadError(format!("reading {}: {e}", crates_dir.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        entries.sort();
        for dir in entries {
            crates.push(load_crate(root, &dir, "Cargo.toml")?);
        }
        Ok(Workspace { crates })
    }

    /// Builds an in-memory workspace for fixture tests:
    /// `(crate_name, manifest_toml, [(workspace-relative path, source)])`.
    pub fn from_sources(sources: &[FixtureCrate<'_>]) -> Workspace {
        let crates = sources
            .iter()
            .map(|(name, manifest, files)| CrateInfo {
                name: (*name).to_owned(),
                manifest_path: format!("crates/{name}/Cargo.toml"),
                manifest: (*manifest).to_owned(),
                files: files
                    .iter()
                    .map(|(path, src)| SourceFile::parse(*path, src))
                    .collect(),
            })
            .collect();
        Workspace { crates }
    }

    /// Looks up a crate by package name.
    pub fn get(&self, name: &str) -> Option<&CrateInfo> {
        self.crates.iter().find(|c| c.name == name)
    }

    /// Total parsed source files.
    pub fn file_count(&self) -> usize {
        self.crates.iter().map(|c| c.files.len()).sum()
    }
}

fn load_crate(root: &Path, dir: &Path, manifest_name: &str) -> Result<CrateInfo, LoadError> {
    let manifest_path = dir.join(manifest_name);
    let manifest = fs::read_to_string(&manifest_path)
        .map_err(|e| LoadError(format!("reading {}: {e}", manifest_path.display())))?;
    let name = package_name(&manifest).ok_or_else(|| {
        LoadError(format!(
            "{}: no [package] name found",
            manifest_path.display()
        ))
    })?;
    let src_dir = dir.join("src");
    let mut files = Vec::new();
    if src_dir.is_dir() {
        let mut paths = Vec::new();
        collect_rs_files(&src_dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let raw = fs::read_to_string(&path)
                .map_err(|e| LoadError(format!("reading {}: {e}", path.display())))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::parse(rel, &raw));
        }
    }
    let rel_manifest = manifest_path
        .strip_prefix(root)
        .unwrap_or(&manifest_path)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(CrateInfo {
        name,
        manifest_path: rel_manifest,
        manifest,
        files,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LoadError> {
    let entries =
        fs::read_dir(dir).map_err(|e| LoadError(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LoadError(format!("reading {}: {e}", dir.display())))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts the `[package]` table's `name` from a manifest.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_package = trimmed == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = trimmed.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_owned());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_dep_extraction() {
        let c = CrateInfo {
            name: "reram-x".to_owned(),
            manifest_path: "crates/x/Cargo.toml".to_owned(),
            manifest: "[package]\nname = \"reram-x\"\n[dependencies]\nserde.workspace = true\nreram-tensor.workspace = true\nreram-nn = { path = \"../nn\" }\n[dev-dependencies]\nreram-core.workspace = true\n"
                .to_owned(),
            files: Vec::new(),
        };
        let deps = c.first_party_deps();
        assert_eq!(
            deps,
            vec![
                ("reram-tensor".to_owned(), 5, false),
                ("reram-nn".to_owned(), 6, false),
                ("reram-core".to_owned(), 8, true),
            ]
        );
    }

    #[test]
    fn package_name_parses() {
        assert_eq!(
            package_name("[workspace]\nmembers = []\n[package]\nname = \"reram-suite\"\n"),
            Some("reram-suite".to_owned())
        );
    }
}
