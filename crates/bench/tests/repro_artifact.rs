//! The committed `repro_output.txt` is the stdout of a full default `repro`
//! run. Its noisy-ablation rows depend on every seeded device draw, so this
//! test is the broadest check that a refactor keeps the RNG order: a change
//! that moves any row must regenerate the artifact in the same change.

use std::process::Command;

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
