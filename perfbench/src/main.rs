//! The repository benchmark: four seeded workloads, each timed from
//! outside every layer's public API (see `README.md` beside this crate).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform_steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The run repeats the workload until `--seconds` have passed, each
//! repetition in a fresh child process (`--repetition <i>`), so every
//! repetition pays the same cold-start costs a user's process does and
//! reports its own peak RSS. In a traced run (`--trace 1`) repetitions
//! alternate untraced and traced; the traced ones record spans and turn on
//! the stack's own profilers.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! holding the medians over repetitions of the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A failed output
//! check still prints that line, with `"correct": false`, and the process
//! then exits with code 1.

mod live;
mod rep;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rdt_obs::json::JsonValue;

use crate::rep::Rep;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "ring_10k",
    "uniform_steady",
    "crash_recovery",
    "durable_live",
];

/// End-to-end metrics: `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, printed by a traced run. A metric of
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("workloads.generate_s", "s"),
    ("sim.build_s", "s"),
    ("sim.build_rss_mb", "MiB"),
    ("sim.schedule_s", "s"),
    ("sim.schedule_rss_mb", "MiB"),
    ("sim.run_s", "s"),
    ("sim.report_s", "s"),
    ("sim.drop_s", "s"),
    ("sim.unaccounted_s", "s"),
    ("engine.drain_s", "s"),
    ("engine.drain_ns_per_event", "ns"),
    ("engine.loop_s", "s"),
    ("engine.recovery_s", "s"),
    ("engine.recovery_sessions", "count"),
    ("engine.recovery_p50_ms", "ms"),
    ("protocols.basic_checkpoints", "count"),
    ("protocols.forced_checkpoints", "count"),
    ("core.collected", "count"),
    ("core.max_retained", "count"),
    ("sim.delivered", "count"),
    ("sim.lost", "count"),
    ("recovery.rolled_back", "count"),
    ("commit_p50_us", "us"),
    ("commit_p90_us", "us"),
    ("deliver_p50_us", "us"),
    ("deliver_p90_us", "us"),
    ("protocols.send_frame_p50_us", "us"),
    ("env.encode_p50_us", "us"),
    ("env.frame_bytes_mean", "bytes"),
    ("env.transport_send_p50_us", "us"),
    ("env.transport_recv_p50_us", "us"),
    ("storage.write_s", "s"),
    ("storage.write_count", "count"),
    ("storage.fsync_s", "s"),
    ("storage.fsync_count", "count"),
    ("storage.fsync_dir_s", "s"),
    ("storage.fsync_dir_count", "count"),
    ("storage.rename_s", "s"),
    ("storage.rename_count", "count"),
    ("storage.remove_s", "s"),
    ("storage.remove_count", "count"),
    ("storage.list_s", "s"),
    ("storage.list_count", "count"),
    ("storage.checkpoints", "count"),
    ("storage.fsyncs_per_checkpoint", "ratio"),
    ("storage.commits", "count"),
    ("storage.lists_per_commit", "ratio"),
    ("storage.bytes_on_disk", "bytes"),
    ("recovery.restart_s", "s"),
    ("recovery.recover_s", "s"),
    ("recovery.line_us", "us"),
    ("ccp.oracle_s", "s"),
    ("obs.trace_overhead_pct", "%"),
    ("self.bench_s", "s"),
    ("self.workloads_s", "s"),
    ("self.sim_s", "s"),
    ("self.protocols_s", "s"),
    ("self.env_s", "s"),
    ("self.storage_s", "s"),
    ("self.recovery_s", "s"),
];

/// Input scale: `full` is the benchmark proper, `tiny` the smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `README.md` documents.
    Full,
    /// Sizes that run in well under a second but still exercise every
    /// layer and every check.
    Tiny,
}

impl Size {
    fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    /// Set in a child: run this one repetition and print its [`Rep`].
    repetition: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut size = Size::Full;
    let mut repetition = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            "--repetition" => {
                repetition = Some(value()?.parse().map_err(|e| format!("--repetition: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = match (seconds, repetition) {
        (Some(s), _) => s,
        (None, Some(_)) => 0.0,
        (None, None) => return Err("--seconds is required".into()),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        size,
        repetition,
    })
}

/// Where runs leave span dumps and the durable stores they use: inside the
/// benchmark's own directory, git-ignored.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    // Relative to the working directory when possible: Unix socket paths
    // must fit in 108 bytes, and checkouts can live deep in a tree.
    std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(dir)
}

fn spans_dir(workload: &str) -> PathBuf {
    out_dir().join("spans").join(workload)
}

/// Child side: one repetition, printed as one JSON line.
fn run_repetition(args: &Args, index: u64) {
    let mut rep = if args.workload == "durable_live" {
        live::repetition(args.size, args.seed, index, args.traced)
    } else {
        let spec = sim::SimSpec::of(&args.workload, args.size);
        sim::repetition(&spec, args.seed, index, args.traced)
    };
    rep.set("peak_rss_mb", stats::status_mib("VmHWM"));
    if args.traced {
        rep.set_self_times();
        let path = spans_dir(&args.workload).join(format!("seed{}-rep{index}.jsonl", args.seed));
        if let Err(e) = trace::write_jsonl(&path) {
            rep.fail(format!("writing {}: {e}", path.display()));
        }
    }
    println!("{}", rep.to_json().to_string());
}

/// Parent side: runs one child per repetition and waits for it.
fn spawn_repetition(args: &Args, index: u64, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--size", args.size.name()])
        .args(["--repetition", &index.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning repetition {index}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(Rep::parse);
    match (output.status.success(), parsed) {
        (true, Ok(rep)) => Ok(rep),
        (_, Err(e)) => Err(format!(
            "repetition {index} ({}) printed no result: {e}",
            output.status
        )),
        (false, Ok(_)) => Err(format!("repetition {index} exited with {}", output.status)),
    }
}

/// The values of `name` over the repetitions of one kind (traced or not).
fn values_of(reps: &[(bool, Rep)], traced: bool, name: &str) -> Vec<f64> {
    reps.iter()
        .filter(|(t, _)| *t == traced)
        .filter_map(|(_, r)| r.metrics.get(name).copied())
        .collect()
}

/// The end-to-end value of `name` over the untraced repetitions (or the
/// traced ones, for the tracing overhead). Set-up time and memory are
/// medians. Time and throughput are the best repetition: contention from
/// other tenants of the host only ever adds time, in bursts that often
/// cover a whole repetition, and the best repetition is the least
/// disturbed one. On the recording host the median repetition of a run
/// spread by 13-24% between runs, the best one by 6-7%.
fn end_to_end(reps: &[(bool, Rep)], traced: bool, name: &str) -> f64 {
    let values = values_of(reps, traced, name);
    match name {
        "wall_s" => values.iter().copied().fold(f64::INFINITY, f64::min),
        "ops_per_s" => values.iter().copied().fold(0.0, f64::max),
        _ => stats::median(&values),
    }
}

fn metric_json(metrics: &BTreeMap<&str, f64>, catalogue: &[(&str, &str)]) -> JsonValue {
    JsonValue::Obj(
        catalogue
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(metrics[name])),
                        ("unit".into(), JsonValue::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args) -> ExitCode {
    if args.traced {
        let dir = spans_dir(&args.workload);
        if let Err(e) = clear_dir(&dir) {
            eprintln!("perfbench: clearing {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    let mut index = 0;
    // At least two repetitions of each kind the run reports.
    while index < 2 * (1 + u64::from(args.traced)) || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.traced && index % 2 == 1;
        match spawn_repetition(args, index, traced) {
            Ok(rep) => {
                attempted += rep.attempted;
                let mut bad: Vec<String> = rep.failures.clone();
                if let Some((_, first)) = reps.first() {
                    if first.counts != rep.counts {
                        bad.push(format!(
                            "counts {:?} differ from repetition 0's {:?}",
                            rep.counts, first.counts
                        ));
                    }
                }
                failed += if bad.is_empty() {
                    rep.failed
                } else {
                    rep.attempted
                };
                failures.extend(bad.into_iter().map(|b| format!("repetition {index}: {b}")));
                reps.push((traced, rep));
            }
            Err(e) => failures.push(e),
        }
        index += 1;
    }

    if let Some((_, first)) = reps.first() {
        let counts: Vec<String> = first
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!(
            "counts workload={} seed={} {}",
            args.workload,
            args.seed,
            counts.join(" ")
        );
    }
    let mut metrics = BTreeMap::new();
    for (name, _) in END_TO_END {
        let value = end_to_end(&reps, false, name);
        if !(value.is_finite() && value > 0.0) {
            failures.push(format!("end-to-end metric {name} reads {value}"));
        }
        metrics.insert(name, value);
    }
    if args.traced {
        for (name, _) in PER_LAYER {
            metrics.insert(name, stats::median(&values_of(&reps, true, name)));
        }
        let overhead = (end_to_end(&reps, true, "wall_s") / metrics["wall_s"] - 1.0) * 100.0;
        metrics.insert("obs.trace_overhead_pct", overhead);
    }
    for why in &failures {
        eprintln!("perfbench: check failed: {why}");
    }
    let correct = failures.is_empty();
    if !correct && failed == 0 {
        failed = attempted.max(1);
    }
    let catalogue: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let line = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::UInt(attempted.max(1))),
        ("failed".into(), JsonValue::UInt(failed)),
        ("metrics".into(), metric_json(&metrics, catalogue)),
    ]);
    println!("{}", line.to_string());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Empties `dir` (creating it if needed).
fn clear_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.repetition {
        Some(index) => {
            run_repetition(&args, index);
            ExitCode::SUCCESS
        }
        None => run(&args),
    }
}
