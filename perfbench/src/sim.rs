//! The three simulator workloads: `ring_10k`, `uniform_steady` and
//! `crash_recovery`. Each repetition drives one whole simulation through
//! the public API — `WorkloadSpec::generate`, `Simulation::{new,
//! schedule_ops, run_to_completion, into_report}` and the drop — timing
//! every call from here.

use std::time::Duration;

use rdt_base::ProcessId;
use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_recovery::{FaultySet, RecoveryManager, RecoveryMode};
use rdt_sim::{SimConfig, Simulation, SimulationReport};
use rdt_workloads::{AppOp, Pattern, WorkloadSpec};

use crate::rep::Rep;
use crate::stats::{median, phase_quantile_ns, status_mib};
use crate::{trace, Size};

/// One simulator workload's inputs, apart from the seed.
#[derive(Debug, Clone)]
pub struct SimSpec {
    n: usize,
    steps: usize,
    pattern: Pattern,
    /// Every `crash_every`-th op becomes a crash of the process acting in
    /// it (0: no crashes). A fixed spacing, rather than a crash
    /// probability, gives every seed the same number of recovery sessions
    /// at the same queue depths, so the run time does not swing with how
    /// many crashes a seed happens to draw.
    crash_every: usize,
    config: SimConfig,
}

impl SimSpec {
    /// The inputs of workload `name` at `size`.
    ///
    /// # Panics
    ///
    /// On a name that is not a simulator workload.
    pub fn of(name: &str, size: Size) -> Self {
        let tiny = size == Size::Tiny;
        let (n, steps, pattern, crash_every, config) = match name {
            "ring_10k" if tiny => (300, 2_000, Pattern::Ring, 0, SimConfig::default()),
            "ring_10k" => (10_000, 20_000, Pattern::Ring, 0, SimConfig::default()),
            "uniform_steady" if tiny => {
                (16, 20_000, Pattern::UniformRandom, 0, SimConfig::default())
            }
            "uniform_steady" => (128, 50_000, Pattern::UniformRandom, 0, SimConfig::default()),
            "crash_recovery" if tiny => (
                16,
                4_000,
                Pattern::UniformRandom,
                200,
                SimConfig::fault_heavy(),
            ),
            "crash_recovery" => (
                16,
                40_000,
                Pattern::UniformRandom,
                200,
                SimConfig::fault_heavy(),
            ),
            other => panic!("{other} is not a simulator workload"),
        };
        Self {
            n,
            steps,
            pattern,
            crash_every,
            config,
        }
    }

    /// The op stream for `seed`: `WorkloadSpec::generate`, then the crash
    /// schedule.
    fn generate(&self, seed: u64) -> Vec<AppOp> {
        let mut ops = WorkloadSpec::uniform_random(self.n, self.steps)
            .with_pattern(self.pattern)
            .with_seed(seed)
            .generate();
        if self.crash_every > 0 {
            for op in ops
                .iter_mut()
                .skip(self.crash_every - 1)
                .step_by(self.crash_every)
            {
                let (AppOp::Send { from: p, .. } | AppOp::Checkpoint(p) | AppOp::Crash(p)) = *op;
                *op = AppOp::Crash(p);
            }
        }
        ops
    }
}

/// Counts a run must reproduce exactly for a given seed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    basic: u64,
    forced: u64,
    collected: u64,
    sent: u64,
    delivered: u64,
    lost: u64,
    rolled_back: u64,
    retained: u64,
    max_retained: u64,
    peak_global_retained: u64,
    sessions: u64,
    degraded: u64,
}

impl Counts {
    fn of(report: &SimulationReport) -> Self {
        let m = &report.metrics;
        Self {
            basic: m.total_basic(),
            forced: m.total_forced(),
            collected: m.total_collected() as u64,
            sent: m.per_process.iter().map(|p| p.sent).sum(),
            delivered: m.total_delivered(),
            lost: m.per_process.iter().map(|p| p.lost).sum(),
            rolled_back: m.total_rolled_back,
            retained: m.total_retained() as u64,
            max_retained: m.max_retained_per_process() as u64,
            peak_global_retained: m.peak_global_retained as u64,
            sessions: m.recovery_sessions,
            degraded: m.degraded_lines,
        }
    }

    fn list(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("basic", self.basic),
            ("forced", self.forced),
            ("collected", self.collected),
            ("sent", self.sent),
            ("delivered", self.delivered),
            ("lost", self.lost),
            ("rolled_back", self.rolled_back),
            ("retained", self.retained),
            ("max_retained", self.max_retained),
            ("peak_global_retained", self.peak_global_retained),
            ("recovery_sessions", self.sessions),
        ]
    }
}

/// Lemma-1 recovery line for every single-process faulty set over the
/// final state; each must succeed. Returns the per-call times in µs.
fn line_checks(sim: &Simulation, n: usize) -> Result<Vec<f64>, String> {
    let manager = RecoveryManager::new();
    (0..n)
        .map(|p| {
            let faulty: FaultySet = [ProcessId::new(p)].into_iter().collect();
            let (line, took) = trace::call("recovery.line", p as u64, || {
                manager.recovery_line(sim.processes(), &faulty)
            });
            line.map_err(|e| format!("recovery_line for faulty {{p{p}}}: {e}"))?;
            Ok(took.as_secs_f64() * 1e6)
        })
        .collect()
}

/// The output checks on a finished run's counts.
fn check(spec: &SimSpec, c: &Counts, rep: &mut Rep) {
    let n = spec.n as u64;
    if c.max_retained > n + 1 {
        rep.fail(format!(
            "a process retained {} checkpoints, above n + 1 = {}",
            c.max_retained,
            n + 1
        ));
    }
    if c.peak_global_retained > n * (n + 1) {
        rep.fail(format!(
            "global retention peaked at {}, above n(n + 1) = {}",
            c.peak_global_retained,
            n * (n + 1)
        ));
    }
    if c.delivered + c.lost != c.sent {
        rep.fail(format!(
            "delivered {} + lost {} != sent {}",
            c.delivered, c.lost, c.sent
        ));
    }
    if spec.crash_every > 0 {
        if c.sessions == 0 {
            rep.fail("no recovery session ran");
        }
        if c.degraded > 0 {
            rep.fail(format!("{} recovery-line components degraded", c.degraded));
        }
    }
}

/// Layer-call durations of one repetition, in seconds.
#[derive(Debug, Default)]
struct Times {
    generate: f64,
    build: f64,
    schedule: f64,
    run: f64,
    report: f64,
    drop: f64,
    /// Benchmark-only work (output checks, RSS probes), excluded from the
    /// wall time.
    check: f64,
}

/// Current RSS in MiB, read as benchmark-only work (excluded from the
/// wall time through `check`).
fn rss_probe(index: u64, check: &mut f64) -> f64 {
    let (rss, took) = trace::call("bench.check", index, || status_mib("VmRSS"));
    *check += secs(took);
    rss
}

/// One repetition: generate, build, schedule, run, report and drop one
/// simulation, timing each call. Traced repetitions also record spans,
/// turn on the engine's phase profiler and sample RSS around set-up.
pub fn repetition(spec: &SimSpec, seed: u64, index: u64, traced: bool) -> Rep {
    let mut rep = Rep {
        attempted: spec.steps as u64,
        ..Rep::default()
    };
    let mut t = Times::default();
    let mut rss = [0.0; 3];
    let mut profile = None;
    let mut line_us = Vec::new();
    trace::set_recording(traced);
    let (result, total) = trace::call("bench.repetition", index, || -> Result<Counts, String> {
        let (ops, took) = trace::call("workloads.generate", index, || spec.generate(seed));
        t.generate = secs(took);
        let config = SimConfig {
            profile: traced,
            ..spec.config
        };
        if traced {
            rss[0] = rss_probe(index, &mut t.check);
        }
        let (mut sim, took) = trace::call("sim.build", index, || {
            Simulation::new(
                spec.n,
                ProtocolKind::Fdas,
                GcKind::RdtLgc,
                config,
                RecoveryMode::Coordinated,
                seed,
            )
        });
        t.build = secs(took);
        if traced {
            rss[1] = rss_probe(index, &mut t.check);
        }
        let ((), took) = trace::call("sim.schedule", index, || sim.schedule_ops(&ops));
        t.schedule = secs(took);
        if traced {
            rss[2] = rss_probe(index, &mut t.check);
        }
        let (ran, took) = trace::call("sim.run", index, || sim.run_to_completion());
        t.run = secs(took);
        ran.map_err(|e| format!("run_to_completion: {e}"))?;
        if spec.crash_every > 0 {
            let (lines, took) = trace::call("bench.check", index, || line_checks(&sim, spec.n));
            t.check += secs(took);
            line_us = lines?;
        }
        let (report, took) = trace::call("sim.report", index, || sim.into_report());
        t.report = secs(took);
        let ((counts, engine_profile), took) = trace::call("bench.check", index, || {
            (Counts::of(&report), report.profile.clone())
        });
        t.check += secs(took);
        profile = engine_profile;
        let ((), took) = trace::call("sim.drop", index, || {
            drop(report);
            drop(ops);
        });
        t.drop = secs(took);
        Ok(counts)
    });
    trace::set_recording(false);
    let counts = match result {
        Ok(counts) => counts,
        Err(e) => {
            rep.failed = rep.attempted;
            rep.fail(e);
            return rep;
        }
    };
    check(spec, &counts, &mut rep);
    for (name, value) in counts.list() {
        rep.count(name, value);
    }

    let wall = secs(total) - t.check;
    let spans = t.generate + t.build + t.schedule + t.run + t.report + t.drop;
    rep.set("wall_s", wall);
    rep.set("setup_s", t.generate + t.build + t.schedule);
    rep.set("ops_per_s", spec.steps as f64 / t.run);
    if !traced {
        return rep;
    }
    if wall - spans > 0.05 * wall {
        rep.fail(format!(
            "layer spans cover {spans:.4} s of a {wall:.4} s repetition (< 95%)"
        ));
    }
    rep.set("workloads.generate_s", t.generate);
    rep.set("sim.build_s", t.build);
    rep.set("sim.build_rss_mb", rss[1] - rss[0]);
    rep.set("sim.schedule_s", t.schedule);
    rep.set("sim.schedule_rss_mb", rss[2] - rss[1]);
    rep.set("sim.run_s", t.run);
    rep.set("sim.report_s", t.report);
    rep.set("sim.drop_s", t.drop);
    rep.set("sim.unaccounted_s", wall - spans);
    let phase = |name: &str| profile.as_ref().and_then(|p| p.phase(name));
    let phase_s = |name: &str| phase(name).map_or(0.0, |s| s.total_ns as f64 * 1e-9);
    rep.set("engine.drain_s", phase_s("engine/drain"));
    rep.set(
        "engine.drain_ns_per_event",
        phase("engine/drain").map_or(0.0, |s| s.mean_ns() as f64),
    );
    rep.set(
        "engine.loop_s",
        phase_s("engine/run")
            - phase_s("engine/drain")
            - phase_s("engine/recovery")
            - phase_s("engine/control_round"),
    );
    rep.set("engine.recovery_s", phase_s("engine/recovery"));
    rep.set(
        "engine.recovery_p50_ms",
        phase("engine/recovery").map_or(0.0, |s| phase_quantile_ns(s, 0.5) * 1e-6),
    );
    rep.set("engine.recovery_sessions", counts.sessions as f64);
    rep.set("recovery.line_us", median(&line_us));
    rep.set("protocols.basic_checkpoints", counts.basic as f64);
    rep.set("protocols.forced_checkpoints", counts.forced as f64);
    rep.set("core.collected", counts.collected as f64);
    rep.set("core.max_retained", counts.max_retained as f64);
    rep.set("sim.delivered", counts.delivered as f64);
    rep.set("sim.lost", counts.lost as f64);
    rep.set("recovery.rolled_back", counts.rolled_back as f64);
    rep
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}
