//! The repository benchmark: one command that sets up the four stages of
//! the reproduction, measures them for a fixed wall time, checks their
//! outputs, and prints every metric by name, unit and direction. The last
//! line of standard output is one JSON object with the result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with no telemetry recorder
//! installed; `--trace 1` installs a counting recorder, times the calls
//! into each layer and reports the per-layer metrics instead.
//! `--list-metrics` prints the metric table and exits.

#![forbid(unsafe_code)]

mod plan_search;
mod serve_fleet;
mod util;
mod xbar_infer;
mod xbar_train;

use std::process::ExitCode;
use std::time::Duration;

use plan_search::PlanSearch;
use serve_fleet::Fleet;
use util::{derive_seed, median, now, peak_rss_bytes, secs_since, Metric, Stage, Tally};
use xbar_infer::Infer;
use xbar_train::Train;

/// Workloads, in the order their stages run. Every run exercises all four
/// stages; the named workload takes `PRIMARY_SHARE` of the measured time
/// and the other three split the rest.
const WORKLOADS: [&str; 4] = ["serve-fleet", "xbar-infer", "xbar-train", "plan-search"];
const PRIMARY_SHARE: f64 = 0.4;
/// Set-up runs per process; `setup_s` is their median.
const SETUP_REPEATS: usize = 8;

/// `(name, unit, better)` of every end-to-end metric (`--trace 0`).
const END_TO_END: [(&str, &str, &str); 11] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_req_per_s", "1/s", "higher"),
    ("sim_p50_us", "us", "lower"),
    ("sim_p99_us", "us", "lower"),
    ("slo_goodput_mrps", "Mrps", "higher"),
    ("infer_img_per_s", "1/s", "higher"),
    ("infer_nrmse", "ratio", "lower"),
    ("train_steps_per_s", "1/s", "higher"),
    ("heldout_acc", "ratio", "higher"),
    ("plans_per_s", "1/s", "higher"),
];

/// `(name, unit, better)` of every per-layer metric (`--trace 1`).
const PER_LAYER: [(&str, &str, &str); 42] = [
    ("serve.cluster.build_ms", "ms", "lower"),
    ("serve.workload.gen_ns_per_req", "ns", "lower"),
    ("serve.sim.run_ns_per_req", "ns", "lower"),
    ("serve.sim.batches_per_req", "ratio", "lower"),
    ("serve.sim.rss_bytes_per_req", "B", "lower"),
    ("serve.scheduler.pick_ns.round-robin", "ns", "lower"),
    ("serve.scheduler.pick_ns.least-loaded", "ns", "lower"),
    ("serve.scheduler.pick_ns.plan-cost-aware", "ns", "lower"),
    ("serve.batcher.mean_batch", "req", "higher"),
    ("serve.scheduler.util_spread", "ratio", "lower"),
    ("core.compiler.setup_ms", "ms", "lower"),
    ("core.compiler.forward_us", "us", "lower"),
    ("core.subarray.instr_per_img", "count", "lower"),
    ("core.subarray.mem_words_per_img", "count", "lower"),
    ("crossbar.mvms_per_img", "count", "lower"),
    ("crossbar.spike_frames_per_img", "count", "lower"),
    ("crossbar.adc_per_img", "count", "lower"),
    ("tensor.im2col_us.conv1", "us", "lower"),
    ("crossbar.tile.matvec_us.conv1.ideal", "us", "lower"),
    ("crossbar.tile.matvec_us.conv1.noisy", "us", "lower"),
    ("tensor.im2col_us.conv2", "us", "lower"),
    ("crossbar.tile.matvec_us.conv2.ideal", "us", "lower"),
    ("crossbar.tile.matvec_us.conv2.noisy", "us", "lower"),
    ("crossbar.tile.matvec_us.fc.ideal", "us", "lower"),
    ("crossbar.tile.matvec_us.fc.noisy", "us", "lower"),
    ("nn.train_batch_ms", "ms", "lower"),
    ("datasets.batch_us", "us", "lower"),
    ("crossbar.tile.reprogram_delta_us", "us", "lower"),
    ("crossbar.cell_writes_per_step", "count", "lower"),
    ("crossbar.weight_updates_per_step", "count", "lower"),
    ("core.plan.lower_us", "us", "lower"),
    ("core.verify.verify_us", "us", "lower"),
    ("core.plan.layers_per_plan", "count", "lower"),
    ("core.plan.revisit_share", "ratio", "higher"),
    ("telemetry.overhead_pct.serve-fleet", "%", "lower"),
    ("telemetry.overhead_pct.xbar-infer", "%", "lower"),
    ("telemetry.overhead_pct.xbar-train", "%", "lower"),
    ("telemetry.overhead_pct.plan-search", "%", "lower"),
    ("telemetry.accounted_pct.serve-fleet", "%", "higher"),
    ("telemetry.accounted_pct.xbar-infer", "%", "higher"),
    ("telemetry.accounted_pct.xbar-train", "%", "higher"),
    ("telemetry.accounted_pct.plan-search", "%", "higher"),
];

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list-metrics" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let i = WORKLOADS.iter().position(|w| *w == value);
                workload = Some(i.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is one of {WORKLOADS:?}"))?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Share of the measured time per stage, in `WORKLOADS` order.
fn shares(primary: usize) -> [f64; 4] {
    std::array::from_fn(|i| {
        if i == primary {
            PRIMARY_SHARE
        } else {
            (1.0 - PRIMARY_SHARE) / 3.0
        }
    })
}

struct Stages {
    fleet: Fleet,
    infer: Infer,
    train: Train,
    plans: PlanSearch,
}

fn setup(seed: u64, tally: &mut Tally) -> Result<Stages, String> {
    Ok(Stages {
        fleet: Fleet::setup(derive_seed(seed, 0), tally)?,
        infer: Infer::setup(derive_seed(seed, 1))?,
        train: Train::setup(derive_seed(seed, 2))?,
        plans: PlanSearch::setup(derive_seed(seed, 3)),
    })
}

/// Runs the stages' units interleaved, always picking the stage furthest
/// behind its share of the measured time, so every stage samples the
/// whole run rather than one stretch of it. A stage's throughput is its
/// total work over its total time, which moves smoothly when the host's
/// speed drifts during a run, where a median of units would jump between
/// the fast and the slow spells. Set-ups repeat at evenly spaced points of
/// the run and report their median.
fn end_to_end(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let t = now();
    let mut s = setup(args.seed, tally)?;
    let mut setup_s = vec![secs_since(t)];
    let shares = shares(args.workload);
    let mut stages: [&mut dyn Stage; 4] = [&mut s.fleet, &mut s.infer, &mut s.train, &mut s.plans];
    let mut spent = [0.0f64; 4];
    let mut work = [0.0f64; 4];
    let start = now();
    loop {
        let elapsed = secs_since(start);
        if setup_s.len() < SETUP_REPEATS
            && elapsed >= args.seconds * setup_s.len() as f64 / SETUP_REPEATS as f64
        {
            let t = now();
            drop(setup(args.seed, tally)?);
            setup_s.push(secs_since(t));
            continue;
        }
        if elapsed >= args.seconds && work.iter().all(|&w| w > 0.0) {
            break;
        }
        let i = (0..4)
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
            .expect("four stages");
        let (items, secs) = stages[i].unit(tally);
        work[i] += items;
        spent[i] += secs;
    }
    let mut metrics = vec![Metric::new("setup_s", median(&setup_s), "s")];
    for (i, stage) in stages.iter_mut().enumerate() {
        metrics.extend(stage.finish(work[i] / spent[i], tally));
    }
    let rss = peak_rss_bytes().ok_or("cannot read peak RSS from /proc/self/status")?;
    metrics.push(Metric::new(
        "peak_rss_mb",
        rss as f64 / (1024.0 * 1024.0),
        "MB",
    ));
    Ok(metrics)
}

fn per_layer(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let fleet = Fleet::setup(derive_seed(args.seed, 0), tally)?;
    // First, before any larger allocation raises the high-water mark.
    let mut metrics = vec![fleet.rss_probe()];
    let mut infer = Infer::setup(derive_seed(args.seed, 1))?;
    let mut train = Train::setup(derive_seed(args.seed, 2))?;
    let mut plans = PlanSearch::setup(derive_seed(args.seed, 3));
    let b = shares(args.workload).map(|share| Duration::from_secs_f64(args.seconds * share));
    metrics.extend(fleet.trace(b[0], tally));
    let noisy = train.config().clone();
    metrics.extend(infer.trace(b[1], &noisy, tally));
    metrics.extend(train.trace(b[2], tally));
    metrics.extend(plans.trace(b[3], tally));
    Ok(metrics)
}

/// Orders `metrics` as `table` declares them, failing on a missing, extra
/// or mislabelled metric, and counting a non-finite value as a failure.
fn conform(
    mut metrics: Vec<Metric>,
    table: &[(&str, &str, &str)],
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(table.len());
    for &(name, unit, _) in table {
        let i = metrics
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let mut m = metrics.swap_remove(i);
        if m.unit != unit {
            return Err(format!("metric {name} measured in {} not {unit}", m.unit));
        }
        tally.check(m.value.is_finite(), || format!("{name} is {}", m.value));
        if !m.value.is_finite() {
            m.value = 0.0;
        }
        out.push(m);
    }
    if let Some(extra) = metrics.first() {
        return Err(format!("metric {} is not declared", extra.name));
    }
    Ok(out)
}

fn run() -> Result<ExitCode, String> {
    let Some(args) = parse_args()? else {
        for (kind, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (name, unit, better) in table {
                println!("{kind} {name} {unit} {better}");
            }
        }
        return Ok(ExitCode::SUCCESS);
    };
    let mut tally = Tally::default();
    let (measured, table) = if args.trace {
        (per_layer(&args, &mut tally)?, &PER_LAYER[..])
    } else {
        (end_to_end(&args, &mut tally)?, &END_TO_END[..])
    };
    let metrics = conform(measured, table, &mut tally)?;
    for note in &tally.notes {
        eprintln!("check failed: {note}");
    }
    let correct = tally.failed == 0;
    for (m, (_, _, better)) in metrics.iter().zip(table) {
        println!(
            "{:<42} {:>16.6} {:<6} ({better} is better)",
            m.name, m.value, m.unit
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
