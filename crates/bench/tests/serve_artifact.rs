//! The committed `BENCH_serve.json` is what `repro serve` writes: a change
//! to the serving simulator that moves any of its numbers must regenerate
//! the artifact in the same change.

use reram_bench::experiments::serve;

#[test]
fn committed_bench_serve_json_is_current() {
    let committed = include_str!("../../../BENCH_serve.json");
    assert_eq!(
        serve::bench_json(),
        committed,
        "BENCH_serve.json is stale; regenerate it with `repro serve`"
    );
}
