//! The sharded parallel engine: conservative-lookahead parallel
//! discrete-event simulation whose output is byte-identical to the
//! sequential engine for a fixed seed.
//!
//! # How determinism survives parallelism
//!
//! The sequential engine's behaviour is a pure function of the workload,
//! the configuration and the seed: randomness is drawn at exactly two
//! kinds of event (a send's loss/delay, a crash's correlated faulty set),
//! and every draw happens at a deterministic point of the event stream.
//! A **planning pass** therefore replays the exact schedule/pop/draw
//! sequence of the sequential engine over a payload-free event kind —
//! same `SimEnv`, same seed salt, same rng stream — without doing any
//! middleware work. The pass resolves, ahead of time:
//!
//! - every event's global `(tick, sequence)` key, including the key each
//!   delivery will carry — so cross-shard deliveries are inserted at the
//!   receiver with their *final* position, and per-process event order is
//!   identical to the sequential run;
//! - which sends are lost, and which in-flight deliveries a later crash
//!   cancels (the sharded run never materializes those at all — a
//!   *static* crash cut);
//! - the global events (control rounds, recovery sessions) that need the
//!   whole system stopped;
//! - the **barrier schedule**: a cut before every global event, plus the
//!   minimum set of cuts that guarantees every cross-shard delivery is
//!   exchanged before the receiver's window reaches it. The distance
//!   between a send and its earliest possible delivery is bounded below
//!   by the channel's `min_delay` — the conservative lookahead that makes
//!   the windows non-trivial (and why `min_delay == 0` falls back to the
//!   sequential engine).
//!
//! Between cuts, each worker shard drains its own bucket queue with no
//! synchronization whatsoever; at a cut, workers exchange outboxes over
//! bounded channels (an all-to-all with one batch per directed pair) and
//! the coordinator runs any global event. Per-process state transitions
//! are byte-exact mirrors of the sequential handlers, and every
//! order-sensitive observable (trace, occupancy, metric mutations) is
//! logged under its global event key and replayed in key order at the
//! end — see [`crate::worker`].

use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Included};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use rdt_base::{CheckpointId, CheckpointIndex, MessageId, ProcessId, Result, TraceEvent};
use rdt_core::{ControlInfo, GcKind, LastIntervals};
use rdt_env::{Rng as _, SimEnv};
use rdt_recovery::{FaultySet, ProcessView, RecoveryError, RecoveryManager};
use rdt_workloads::AppOp;

use crate::engine::{SimulationBuilder, SimulationReport};
use crate::metrics::Metrics;
use crate::worker::{
    join_outcomes, run_worker, Cmd, EventLogs, FinalProcess, MetricOp, PlannedLocal, RemoteMsg,
    Reply, WorkerSetup,
};

/// Event kind of the planning pass: the sequential engine's
/// `EventKind` with every payload stripped to what scheduling needs.
/// Scheduled in the same order as the sequential engine schedules its
/// events, so the `(at, seq)` keys and the rng stream line up exactly.
#[derive(Debug)]
enum PlanKind {
    App(AppOp),
    Deliver { send_idx: usize },
    ControlRound,
}

/// Everything the planning pass learns about one send.
#[derive(Debug, Clone, Copy)]
struct SendCell {
    from: ProcessId,
    to: ProcessId,
    /// The id the sender's middleware will mint (per-sender counter,
    /// reconstructed by the plan) — needed for crash-cancellation traces
    /// that the coordinator emits without seeing the message.
    id: MessageId,
    lost: bool,
    cancelled: bool,
    send_key: (u64, u64),
    delivery: (u64, u64),
}

/// Placeholder for a local event while send outcomes are still being
/// resolved; materialized into [`PlannedLocal`] after the pass.
#[derive(Debug, Clone, Copy)]
enum LocalSlot {
    Checkpoint(ProcessId),
    Send(usize),
}

/// A pre-planned global (all-shards) event.
#[derive(Debug)]
enum GlobalPlan {
    Control,
    Crash {
        /// The faulty set, ascending (correlated draws resolved).
        faulty: Vec<ProcessId>,
        /// In-flight deliveries the crash cancels, in the deterministic
        /// `(at, seq)` order the sequential engine's queue-retain visits
        /// them.
        drops: Vec<(ProcessId, MessageId)>,
    },
}

/// The complete pre-computed run structure.
struct RunPlan {
    /// Process → shard map.
    shard_of: Vec<u32>,
    /// Per-shard local events (checkpoints and sends), each with its
    /// global key.
    locals: Vec<Vec<(u64, u64, PlannedLocal)>>,
    /// Global events in key order.
    globals: Vec<(u64, u64, GlobalPlan)>,
    /// The barrier schedule (always ends with the drain-everything cut).
    cuts: BTreeSet<(u64, u64)>,
    /// Final simulated time (the planning env's clock after the drain).
    ticks: u64,
}

/// Runs the planning pass: an event-for-event, draw-for-draw replay of
/// the sequential engine's scheduling skeleton.
fn build_plan(builder: &SimulationBuilder, ops: &[AppOp], shards: usize) -> RunPlan {
    let n = builder.spec.n;
    let config = &builder.config;
    let shard_of: Vec<u32> = (0..n)
        .map(|p| config.shard.partitioning.shard_of(p, n, shards) as u32)
        .collect();

    let mut env: SimEnv<PlanKind> = SimEnv::new(builder.spec.seed ^ 0x5eed_c0de);
    if let Some(every) = config.control_every {
        env.schedule(every, PlanKind::ControlRound);
    }
    let mut horizon = 0u64;
    for (k, op) in ops.iter().enumerate() {
        let at = k as u64 * config.ticks_per_op;
        horizon = horizon.max(at);
        env.script(at, PlanKind::App(*op));
    }

    let mut sends: Vec<SendCell> = Vec::new();
    let mut slots: Vec<Vec<(u64, u64, LocalSlot)>> = vec![Vec::new(); shards];
    let mut globals: Vec<(u64, u64, GlobalPlan)> = Vec::new();
    // Mirrors each middleware's per-sender message counter: incremented on
    // every executed send, exactly like `begin_send`.
    let mut send_seq = vec![0u64; n];

    while let Some((at, seq, kind)) = env.pop() {
        match kind {
            PlanKind::App(AppOp::Checkpoint(p)) => {
                slots[shard_of[p.index()] as usize].push((at, seq, LocalSlot::Checkpoint(p)));
            }
            PlanKind::App(AppOp::Send { from, to }) => {
                let id = MessageId::new(from, send_seq[from.index()]);
                send_seq[from.index()] += 1;
                let idx = sends.len();
                slots[shard_of[from.index()] as usize].push((at, seq, LocalSlot::Send(idx)));
                // Same draw order as the sequential send handler: loss
                // first, then (only if delivered) the delay.
                let lost = env.rng().chance(config.channel.loss_rate);
                if !lost {
                    let delay = env
                        .rng()
                        .between(config.channel.min_delay, config.channel.max_delay);
                    let d_at = env.now() + delay;
                    env.schedule(d_at, PlanKind::Deliver { send_idx: idx });
                }
                sends.push(SendCell {
                    from,
                    to,
                    id,
                    lost,
                    cancelled: false,
                    send_key: (at, seq),
                    delivery: (0, 0),
                });
            }
            PlanKind::Deliver { send_idx } => {
                sends[send_idx].delivery = (at, seq);
            }
            PlanKind::App(AppOp::Crash(p)) => {
                let mut faulty: FaultySet = [p].into_iter().collect();
                if config.correlated_crash_prob > 0.0 {
                    for q in ProcessId::all(n) {
                        if q != p && env.rng().chance(config.correlated_crash_prob) {
                            faulty.insert(q);
                        }
                    }
                }
                let mut drops = Vec::new();
                env.cancel(
                    |kind| !matches!(kind, PlanKind::Deliver { .. }),
                    |_, kind| {
                        if let PlanKind::Deliver { send_idx } = kind {
                            let cell = &mut sends[send_idx];
                            cell.cancelled = true;
                            drops.push((cell.to, cell.id));
                        }
                    },
                );
                globals.push((
                    at,
                    seq,
                    GlobalPlan::Crash {
                        faulty: faulty.into_iter().collect(),
                        drops,
                    },
                ));
            }
            PlanKind::ControlRound => {
                globals.push((at, seq, GlobalPlan::Control));
                if let Some(every) = config.control_every {
                    let next = env.now() + every;
                    if next <= horizon {
                        env.schedule(next, PlanKind::ControlRound);
                    }
                }
            }
        }
    }
    let ticks = env.now();

    // Barrier schedule. Every global event needs a cut (all shards
    // stopped at its key); every surviving cross-shard delivery needs
    // *some* cut in (send, delivery] so the exchange at that cut carries
    // it before the receiver's window reaches the delivery key. Greedy
    // over deliveries in key order, reusing existing cuts, yields the
    // minimal such schedule.
    let mut cuts: BTreeSet<(u64, u64)> = globals.iter().map(|&(at, seq, _)| (at, seq)).collect();
    let mut crossings: Vec<((u64, u64), (u64, u64))> = sends
        .iter()
        .filter(|c| !c.lost && !c.cancelled && shard_of[c.from.index()] != shard_of[c.to.index()])
        .map(|c| (c.send_key, c.delivery))
        .collect();
    crossings.sort_unstable_by_key(|&(_, d)| d);
    for (s, d) in crossings {
        if cuts.range((Excluded(s), Included(d))).next().is_none() {
            cuts.insert(d);
        }
    }
    cuts.insert((u64::MAX, u64::MAX));

    let locals: Vec<Vec<(u64, u64, PlannedLocal)>> = slots
        .into_iter()
        .map(|shard_slots| {
            shard_slots
                .into_iter()
                .map(|(at, seq, slot)| {
                    let ev = match slot {
                        LocalSlot::Checkpoint(p) => PlannedLocal::Checkpoint(p),
                        LocalSlot::Send(idx) => {
                            let c = &sends[idx];
                            PlannedLocal::Send {
                                from: c.from,
                                to: c.to,
                                lost: c.lost,
                                cancelled: c.cancelled,
                                delivery: c.delivery,
                            }
                        }
                    };
                    (at, seq, ev)
                })
                .collect()
        })
        .collect();

    RunPlan {
        shard_of,
        locals,
        globals,
        cuts,
        ticks,
    }
}

/// Runs the simulation across `shards` worker shards (callers guarantee
/// `shards > 1` and `min_delay > 0`; [`SimulationBuilder::run`] dispatches
/// accordingly).
pub(crate) fn run_sharded(builder: SimulationBuilder, shards: usize) -> Result<SimulationReport> {
    let profiling = builder.config.profile || rdt_obs::profile::env_enabled();
    let mut prof = rdt_obs::Profiler::new(profiling);
    let wall = prof.start();

    let ops = builder.spec.generate();
    let t_plan = prof.start();
    let mut plan = build_plan(&builder, &ops, shards);
    prof.stop("shard/plan", t_plan);
    let n = builder.spec.n;

    let shard_of = Arc::new(std::mem::take(&mut plan.shard_of));
    let mut owned: Vec<Vec<ProcessId>> = vec![Vec::new(); shards];
    for p in 0..n {
        owned[shard_of[p] as usize].push(ProcessId::new(p));
    }

    // Control plane: one command and one reply channel per worker.
    let mut cmd_txs = Vec::with_capacity(shards);
    let mut cmd_rxs = Vec::with_capacity(shards);
    let mut reply_txs = Vec::with_capacity(shards);
    let mut reply_rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (ct, cr) = unbounded();
        cmd_txs.push(ct);
        cmd_rxs.push(cr);
        let (rt, rr) = unbounded();
        reply_txs.push(rt);
        reply_rxs.push(rr);
    }
    // Exchange plane: a bounded channel per directed shard pair. Capacity
    // 2 keeps a fast sender at most one barrier ahead; no deadlock, since
    // a worker whose send would block has a peer that is itself inside
    // (or entering) the same barrier's receive phase. The self-pair is
    // allocated but never used.
    let mut out_rows: Vec<Vec<Sender<Vec<RemoteMsg>>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut in_rows: Vec<Vec<Receiver<Vec<RemoteMsg>>>> = (0..shards).map(|_| Vec::new()).collect();
    for out_row in &mut out_rows {
        for in_row in &mut in_rows {
            let (t, r) = bounded(2);
            out_row.push(t);
            in_row.push(r);
        }
    }

    let mut setups: Vec<WorkerSetup> = Vec::with_capacity(shards);
    {
        let mut cmd_rxs = cmd_rxs.into_iter();
        let mut reply_txs = reply_txs.into_iter();
        let mut out_rows = out_rows.into_iter();
        let mut in_rows = in_rows.into_iter();
        let mut locals = std::mem::take(&mut plan.locals).into_iter();
        for (shard, owned) in owned.into_iter().enumerate() {
            setups.push(WorkerSetup {
                shard,
                shards,
                n,
                owned,
                shard_of: shard_of.clone(),
                events: locals.next().expect("one local list per shard"),
                protocol: builder.protocol,
                gc: builder.gc,
                state_size: builder.config.state_size,
                record_trace: builder.config.record_trace,
                record_occupancy: builder.config.record_occupancy,
                profile: profiling,
                recovery_mode: builder.recovery_mode,
                cmd_rx: cmd_rxs.next().expect("one cmd channel per shard"),
                reply_tx: reply_txs.next().expect("one reply channel per shard"),
                out_txs: out_rows.next().expect("one outbox row per shard"),
                in_rxs: in_rows.next().expect("one inbox row per shard"),
            });
        }
    }

    // Workers run on the shared scoped pool; the coordinator runs right
    // here on the calling thread. The pool never queues a scope job
    // behind another (it overflows to a fresh thread instead), which is
    // what lets all shards rendezvous at exchange barriers even when the
    // pool is smaller than the shard count.
    let mut report = rayon::global_pool().scope(|scope| {
        for setup in setups {
            scope.spawn(move || run_worker(setup));
        }
        let outcome = coordinate(&builder, plan, cmd_txs, &reply_rxs, n, &mut prof);
        // On error the command senders are already dropped, so every
        // worker sees a disconnect and exits before the scope joins.
        outcome
    })?;
    prof.stop("shard/run_wall", wall);
    report.profile = prof.into_report();
    Ok(report)
}

/// Drives the run: advances all shards cut by cut, executes global
/// events between windows, then merges worker logs into the report.
fn coordinate(
    builder: &SimulationBuilder,
    plan: RunPlan,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rxs: &[Receiver<Reply>],
    n: usize,
    prof: &mut rdt_obs::Profiler,
) -> Result<SimulationReport> {
    let manager = RecoveryManager::with_mode(builder.recovery_mode);
    let record_trace = builder.config.record_trace;
    let mut logs = EventLogs::default();
    let mut recovery_sessions = Vec::new();
    let mut globals = plan.globals.into_iter().peekable();

    for &cut in &plan.cuts {
        for tx in &cmd_txs {
            tx.send(Cmd::Advance { upto: cut })
                .expect("shard worker gone");
        }
        // Every global event's key is a cut, so at most one fires here.
        while globals.peek().is_some_and(|&(at, seq, _)| (at, seq) == cut) {
            let (at, seq, global) = globals.next().expect("peeked");
            let t = prof.start();
            match global {
                GlobalPlan::Control => control_round(
                    builder, &manager, at, seq, &cmd_txs, reply_rxs, &mut logs, n,
                )?,
                GlobalPlan::Crash { faulty, drops } => crash_session(
                    &manager,
                    at,
                    seq,
                    faulty,
                    drops,
                    &cmd_txs,
                    reply_rxs,
                    &mut logs,
                    record_trace,
                    n,
                    &mut recovery_sessions,
                )?,
            }
            prof.stop("shard/coordinate_global", t);
        }
    }

    for tx in &cmd_txs {
        tx.send(Cmd::Finish).expect("shard worker gone");
    }
    let mut finals: Vec<Option<FinalProcess>> = (0..n).map(|_| None).collect();
    for (shard, reply) in join_outcomes(reply_rxs.iter().map(|rx| rx.recv()))
        .into_iter()
        .enumerate()
    {
        let Reply::Done(data) = reply else {
            panic!("worker sent a non-final reply to Finish");
        };
        let data = *data;
        logs.trace.extend(data.logs.trace);
        logs.occupancy.extend(data.logs.occupancy);
        logs.metrics.extend(data.logs.metrics);
        for f in data.finals {
            let k = f.p.index();
            finals[k] = Some(f);
        }
        // Namespace each worker's phases under its shard index: the
        // `reply_rxs` slice is in shard order, so `shard` is the sender.
        if let (Some(merged), Some(worker)) = (prof.report_mut(), &data.profile) {
            merged.merge_suffixed(worker, &shard.to_string());
        }
    }
    let finals: Vec<FinalProcess> = finals
        .into_iter()
        .map(|f| f.expect("final state for every process"))
        .collect();

    // Replay the merged logs in global key order: this reproduces the
    // sequential engine's trace, occupancy and metric mutation order —
    // including the order-sensitive `peak_global_retained` — exactly.
    let t_merge = prof.start();
    let EventLogs {
        mut trace,
        mut occupancy,
        metrics: mut metric_ops,
    } = logs;
    trace.sort_unstable_by_key(|e| e.0);
    occupancy.sort_unstable_by_key(|e| e.0);
    metric_ops.sort_unstable_by_key(|e| e.0);

    let mut metrics = Metrics::new(n);
    for (_, op) in metric_ops {
        match op {
            MetricOp::Sent(p) => metrics.per_process[p.index()].sent += 1,
            MetricOp::Delivered(p) => metrics.per_process[p.index()].delivered += 1,
            MetricOp::Lost(p) => metrics.per_process[p.index()].lost += 1,
            MetricOp::Sample { p, retained, peak } => metrics.sample(p, retained, peak),
            MetricOp::ControlRound => metrics.control_rounds += 1,
            MetricOp::Session {
                rolled_back,
                degraded,
            } => {
                metrics.recovery_sessions += 1;
                metrics.total_rolled_back += rolled_back;
                metrics.degraded_lines += degraded;
            }
        }
    }
    metrics.ticks = plan.ticks;
    for f in &finals {
        let m = &mut metrics.per_process[f.p.index()];
        m.retained = f.retained;
        m.peak_retained = m.peak_retained.max(f.peak);
        m.total_stored = f.total_stored;
        m.total_collected = f.total_collected;
        m.basic = f.basic;
        m.forced = f.forced;
    }
    prof.stop("shard/merge", t_merge);

    Ok(SimulationReport {
        n,
        final_dvs: finals.iter().map(|f| f.dv.clone()).collect(),
        final_last_stable: finals.iter().map(|f| f.last_stable.value()).collect(),
        final_retained: finals.iter().map(|f| f.retained_indices.clone()).collect(),
        final_incarnations: finals.iter().map(|f| f.incarnation).collect(),
        metrics,
        trace: builder
            .config
            .record_trace
            .then(|| trace.into_iter().map(|(_, e)| e).collect()),
        occupancy: builder
            .config
            .record_occupancy
            .then(|| occupancy.into_iter().map(|(_, s)| s).collect()),
        recovery_sessions,
        // Filled by `run_sharded` from the merged coordinator+worker
        // profilers after the scope joins.
        profile: None,
    })
}

/// Broadcasts `mk()` to every worker and merges the `Views` replies into
/// process-id order.
fn gather_views(
    cmd_txs: &[Sender<Cmd>],
    reply_rxs: &[Receiver<Reply>],
    mk: impl Fn() -> Cmd,
    n: usize,
) -> Vec<ProcessView> {
    for tx in cmd_txs {
        tx.send(mk()).expect("shard worker gone");
    }
    let mut slots: Vec<Option<ProcessView>> = (0..n).map(|_| None).collect();
    for reply in join_outcomes(reply_rxs.iter().map(|rx| rx.recv())) {
        let Reply::Views(views) = reply else {
            panic!("worker sent a non-view reply to a gather");
        };
        for v in views {
            let k = v.owner.index();
            slots[k] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("view for every process"))
        .collect()
}

/// A control round, mirroring `Simulation::handle_control_round`: the
/// coordinator builds the `ControlInfo` from gathered state and
/// broadcasts it; each worker delivers it to its owned processes.
#[allow(clippy::too_many_arguments)]
fn control_round(
    builder: &SimulationBuilder,
    manager: &RecoveryManager,
    at: u64,
    seq: u64,
    cmd_txs: &[Sender<Cmd>],
    reply_rxs: &[Receiver<Reply>],
    logs: &mut EventLogs,
    n: usize,
) -> Result<()> {
    logs.metrics.push(((at, seq, 0), MetricOp::ControlRound));
    let gc = builder.gc;
    let info = if gc.needs_control_messages() {
        match gc {
            GcKind::SimpleCoordinated => {
                let views = gather_views(cmd_txs, reply_rxs, || Cmd::GatherViews, n);
                let all: FaultySet = (0..n).map(ProcessId::new).collect();
                let line = manager
                    .recovery_line(&views, &all)
                    .map_err(rdt_base::Error::from)?;
                Some(Arc::new(ControlInfo::GlobalLine(line)))
            }
            _ => {
                for tx in cmd_txs {
                    tx.send(Cmd::GatherLasts).expect("shard worker gone");
                }
                let mut components: Vec<Option<_>> = (0..n).map(|_| None).collect();
                for reply in join_outcomes(reply_rxs.iter().map(|rx| rx.recv())) {
                    let Reply::Lasts(lasts) = reply else {
                        panic!("worker sent a non-lasts reply to a gather");
                    };
                    for (p, last_stable, incarnation) in lasts {
                        components[p.index()] = Some((last_stable, incarnation));
                    }
                }
                let components: Vec<_> = components
                    .into_iter()
                    .map(|c| c.expect("component for every process"))
                    .collect();
                Some(Arc::new(ControlInfo::LastIntervals(
                    LastIntervals::from_components(&components),
                )))
            }
        }
    } else {
        None
    };
    for tx in cmd_txs {
        tx.send(Cmd::Control {
            at,
            seq,
            info: info.clone(),
        })
        .expect("shard worker gone");
    }
    Ok(())
}

/// A recovery session, mirroring `Simulation::run_recovery_session`:
/// crash the faulty set on their owning workers, gather views, plan at
/// the coordinator, apply on the workers, merge outcomes into the report.
/// The crash-cancelled deliveries were never materialized (static cut);
/// only their observable side effects — `Drop` traces and lost counts —
/// are emitted here, in the sequential engine's cancellation order.
#[allow(clippy::too_many_arguments)]
fn crash_session(
    manager: &RecoveryManager,
    at: u64,
    seq: u64,
    faulty: Vec<ProcessId>,
    drops: Vec<(ProcessId, MessageId)>,
    cmd_txs: &[Sender<Cmd>],
    reply_rxs: &[Receiver<Reply>],
    logs: &mut EventLogs,
    record_trace: bool,
    n: usize,
    recovery_sessions: &mut Vec<rdt_recovery::RecoverySessionReport>,
) -> Result<()> {
    let mut sub = 0u64;
    if record_trace {
        for &f in &faulty {
            logs.trace
                .push(((at, seq, sub), TraceEvent::Crash { process: f }));
            sub += 1;
        }
    }
    let faulty: Arc<FaultySet> = Arc::new(faulty.into_iter().collect());
    let views = gather_views(
        cmd_txs,
        reply_rxs,
        || Cmd::CrashGather {
            faulty: faulty.clone(),
        },
        n,
    );
    for (to, id) in drops {
        logs.metrics.push(((at, seq, sub), MetricOp::Lost(to)));
        sub += 1;
        if record_trace {
            logs.trace.push(((at, seq, sub), TraceEvent::Drop { id }));
            sub += 1;
        }
    }

    let plan = Arc::new(
        manager
            .plan(&views, &faulty)
            .map_err(rdt_base::Error::from)?,
    );
    for tx in cmd_txs {
        tx.send(Cmd::ApplyRecovery {
            at,
            seq,
            plan: plan.clone(),
        })
        .expect("shard worker gone");
    }
    let mut applied: Vec<Option<(Option<CheckpointIndex>, Vec<CheckpointIndex>)>> =
        (0..n).map(|_| None).collect();
    let mut first_err: Option<RecoveryError> = None;
    for reply in join_outcomes(reply_rxs.iter().map(|rx| rx.recv())) {
        let Reply::Applied(batch) = reply else {
            panic!("worker sent a non-apply reply to a recovery");
        };
        match batch {
            Ok(list) => {
                for (p, rolled, eliminated) in list {
                    applied[p.index()] = Some((rolled, eliminated));
                }
            }
            Err(e) => {
                // Keep the error of the lowest-id process, matching the
                // sequential apply loop's first failure.
                let proc_of = |e: &RecoveryError| match e {
                    RecoveryError::LineExhausted { process, .. }
                    | RecoveryError::Storage { process, .. } => *process,
                };
                if first_err.as_ref().is_none_or(|f| proc_of(&e) < proc_of(f)) {
                    first_err = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(rdt_base::Error::from(e));
    }

    let mut rolled_back = Vec::new();
    let mut eliminated = Vec::new();
    for (k, outcome) in applied.into_iter().enumerate() {
        let p = ProcessId::new(k);
        let (rolled, elim) = outcome.expect("apply outcome for every process");
        if let Some(component) = rolled {
            rolled_back.push((p, component));
        }
        eliminated.extend(elim.into_iter().map(|idx| CheckpointId::new(p, idx)));
    }
    let report = manager.report(&faulty, (*plan).clone(), rolled_back, eliminated, |p| {
        plan.components[p.index()].1
    });
    logs.metrics.push((
        (at, seq, sub),
        MetricOp::Session {
            rolled_back: report.rolled_back.len() as u64,
            degraded: report.degraded.len() as u64,
        },
    ));
    sub += 1;
    if record_trace {
        for &(process, to) in &report.rolled_back {
            logs.trace
                .push(((at, seq, sub), TraceEvent::Restore { process, to }));
            sub += 1;
        }
    }
    recovery_sessions.push(report);
    Ok(())
}
