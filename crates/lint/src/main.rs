//! CLI entry point: `cargo run -p reram-lint [-- --root <dir>]`.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use reram_lint::{check_workspace, rules, Workspace};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("reram-lint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for (name, description, _) in rules::RULES {
                    println!("{name}: {description}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "reram-lint: first-party architectural lint\n\n\
                     usage: cargo run -p reram-lint [-- --root <dir> | --list-rules]\n\n\
                     Checks the workspace's simulator invariants (layering, dead\n\
                     events, must_use) and exits non-zero on any violation. The\n\
                     abort and determinism policies live in [workspace.lints] and\n\
                     clippy.toml instead (cargo clippy).\n\
                     Waive a justified exception with\n\
                     `// lint:allow(<rule>) <reason>` on or above the line."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("reram-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let Some(root) = root.or_else(discover_root) else {
        eprintln!(
            "reram-lint: no workspace root found (run from inside the \
             workspace or pass --root <dir>)"
        );
        return ExitCode::from(2);
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("reram-lint: loading workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let diags = check_workspace(&ws);
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!(
            "reram-lint: {} crates, {} files, {} rules — clean",
            ws.crates.len(),
            ws.file_count(),
            rules::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("reram-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

/// Ascends from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn discover_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
