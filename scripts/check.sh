#!/usr/bin/env bash
# Checks for the first-party crates: formatting, lints, the fast examples,
# their own tests, and a compile-only build of the benchmark package.
#
# Offline-tolerant: runs with --offline against the in-repo vendor/ crates.
# rustfmt and rustdoc are skipped with a notice when their rustup component
# is not installed (e.g. a minimal CI image); clippy is required, because it
# enforces the abort and determinism policy.
#
# Vendored dependency stand-ins under vendor/ are workspace members but are
# intentionally NOT checked here: they mirror upstream-crate idioms, not this
# repository's style.
set -u

cd "$(dirname "$0")/.."

FIRST_PARTY=(
    reram-suite
    reram-tensor
    reram-telemetry
    reram-crossbar
    reram-nn
    reram-datasets
    reram-gpu
    reram-core
    reram-serve
    reram-bench
)

status=0

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    for pkg in "${FIRST_PARTY[@]}"; do
        cargo fmt -p "$pkg" --check || status=1
    done
else
    echo "== rustfmt not installed; skipping format check =="
fi

# Mandatory: clippy carries the abort and determinism policy
# ([workspace.lints] + clippy.toml), so a missing clippy is a failure.
echo "== cargo clippy -D warnings =="
if cargo clippy --version >/dev/null 2>&1; then
    pkg_flags=()
    for pkg in "${FIRST_PARTY[@]}"; do
        pkg_flags+=(-p "$pkg")
    done
    cargo clippy --offline --all-targets "${pkg_flags[@]}" -- -D warnings || status=1
else
    echo "clippy is not installed; it enforces the abort and determinism policy"
    status=1
fi

echo "== cargo build --examples =="
cargo build --offline -q --examples || status=1

# Run the examples that finish in about a second in a debug build. Left
# out: gan_training_regan (~20 s); noise_study runs below in release.
echo "== cargo run --example (fast examples) =="
for example in bank_program execution_plan quickstart serve_cluster train_mnist_pipelayer; do
    if ! cargo run --offline -q --example "$example" >/dev/null; then
        echo "example $example failed"
        status=1
    fi
done

# The device-noise sweep trains eight crossbar-backed classifiers on noisy
# and faulty arrays: ~5 s in a release build.
echo "== cargo run --release --example noise_study =="
if ! cargo run --offline -q --release --example noise_study >/dev/null; then
    echo "example noise_study failed"
    status=1
fi

echo "== cargo test (first-party crates) =="
pkg_flags=()
for pkg in "${FIRST_PARTY[@]}"; do
    pkg_flags+=(-p "$pkg")
done
cargo test --offline -q --no-fail-fast "${pkg_flags[@]}" || status=1

# Compile only: a core API change that breaks the benchmark fails here.
echo "== cargo build perfbench (compile only) =="
cargo build --offline -q --manifest-path perfbench/Cargo.toml || status=1

# Smoke runs: perfbench checks every crossbar inference against its float
# reference within its tolerance, and its last line reports the verdict.
echo "== perfbench xbar-infer smoke runs =="
for trace in 0 1; do
    last=$(cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload xbar-infer --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    case "$last" in
        '{"correct": true,'*) ;;
        *)
            echo "perfbench --trace $trace: ${last:-no output}"
            status=1
            ;;
    esac
done

if rustdoc --version >/dev/null 2>&1; then
    echo "== cargo doc -D warnings =="
    pkg_flags=()
    for pkg in "${FIRST_PARTY[@]}"; do
        pkg_flags+=(-p "$pkg")
    done
    RUSTDOCFLAGS="-D warnings" cargo doc --offline -q --no-deps "${pkg_flags[@]}" || status=1
else
    echo "== rustdoc not installed; skipping doc check =="
fi

if [ "$status" -ne 0 ]; then
    echo "checks FAILED"
else
    echo "checks passed"
fi
exit $status
