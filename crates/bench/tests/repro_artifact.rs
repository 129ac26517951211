//! The committed `repro_output.txt` is the stdout of a full default `repro`
//! run. Its noisy-ablation rows depend on every keyed device draw, so this
//! test is the broadest check that a refactor keeps the device noise model:
//! a change that moves any row must regenerate the artifact in the same
//! change.
//!
//! The `--json` run report is pinned as a shape instead: two runs of the
//! same tree write the same bytes once the measured `wall_ns` span times
//! are masked, and the totals carry every telemetry event.
#![expect(
    clippy::expect_used,
    reason = "shared setup helpers abort on a setup error, which fails the calling test"
)]

use std::path::Path;
use std::process::Command;

use reram_telemetry::Event;

#[test]
fn committed_repro_output_is_current() {
    // `repro serve` writes BENCH_serve.json into its working directory;
    // run it in a scratch directory so the committed file is untouched.
    let dir = std::env::temp_dir().join(format!("reram-repro-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .output();
    let _ = std::fs::remove_dir_all(&dir);
    let run = run.expect("spawn repro");
    assert!(
        run.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let committed = include_str!("../../../repro_output.txt");
    assert!(
        String::from_utf8_lossy(&run.stdout) == committed,
        "repro_output.txt is stale; regenerate it with \
         `cargo run -p reram-bench --bin repro --release > repro_output.txt`"
    );
}

/// Runs `repro table1 --json <file>` in `dir` and returns the file.
fn table1_report(dir: &Path, file: &str) -> String {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(["table1", "--json", file])
        .output()
        .expect("spawn repro");
    assert!(
        run.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    std::fs::read_to_string(dir.join(file)).expect("read run report")
}

/// `json` with the digits of every `"wall_ns": <digits>` value removed.
fn mask_wall_ns(json: &str) -> String {
    const KEY: &str = "\"wall_ns\": ";
    let mut masked = String::new();
    let mut rest = json;
    while let Some(at) = rest.find(KEY) {
        masked.push_str(&rest[..at + KEY.len()]);
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    masked.push_str(rest);
    masked
}

#[test]
fn json_report_is_reproducible_up_to_wall_time() {
    let dir = std::env::temp_dir().join(format!("reram-repro-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let first = table1_report(&dir, "first.json");
    let second = table1_report(&dir, "second.json");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        first.contains("\"wall_ns\": "),
        "no span timings in:\n{first}"
    );
    assert!(
        mask_wall_ns(&first) == mask_wall_ns(&second),
        "two table1 runs differ beyond wall_ns:\n{first}\n---\n{second}"
    );
    for event in Event::ALL {
        let key = format!("\"{}\": ", event.name());
        assert!(first.contains(&key), "run report lacks {key}");
    }
}
