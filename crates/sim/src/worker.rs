//! One shard worker of the parallel engine: owns a contiguous or strided
//! subset of the middlewares, drains its [`ShardEnv`] inside each
//! conservative lookahead window, and exchanges cross-shard deliveries
//! with its peers at window barriers.
//!
//! Workers never touch the run's [`Metrics`](crate::Metrics), trace or
//! occupancy buffers directly — the exact values of order-sensitive
//! aggregates (`peak_global_retained`, trace order) depend on the *global*
//! event order, which no single shard sees. Instead every observable is
//! logged under its event's global `(at, seq)` key plus an intra-event
//! sub-key; the coordinator merges all logs by key at the end and replays
//! them in sequential-engine order, reproducing the aggregates byte for
//! byte.

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use rdt_base::{
    CheckpointIndex, DependencyVector, Incarnation, MessageId, Payload, ProcessId, TraceEvent,
};
use rdt_core::{ControlInfo, GcKind};
use rdt_env::ShardEnv;
use rdt_protocols::{Middleware, Piggyback, ProtocolKind, SyncPiggyback};
use rdt_recovery::{
    FaultySet, ProcessView, RecoveryError, RecoveryManager, RecoveryMode, RecoveryPlan,
};

use crate::engine::EventScratch;

/// Global ordering key of one logged observable: the owning event's
/// `(at, seq)` plus an intra-event sub-key.
pub(crate) type LogKey = (u64, u64, u64);

/// Sub-key base for the fragment process `p` contributes to a *global*
/// event (control round or recovery session): the high bit makes every
/// fragment sort after the coordinator's own entries for that event, and
/// the process index orders fragments the way the sequential engine's
/// `for k in 0..n` loops visit them.
pub(crate) fn global_sub(p: ProcessId) -> u64 {
    (1 << 63) | ((p.index() as u64) << 20)
}

/// One metric mutation, replayed by the coordinator in key order. The
/// variants mirror exactly the mutations the sequential engine performs
/// inline; `Sample` is the order-sensitive one (it refreshes
/// `peak_global_retained` from the *current* per-process retained values).
#[derive(Debug, Clone, Copy)]
pub(crate) enum MetricOp {
    Sent(ProcessId),
    Delivered(ProcessId),
    Lost(ProcessId),
    Sample {
        p: ProcessId,
        retained: usize,
        peak: usize,
    },
    ControlRound,
    Session {
        rolled_back: u64,
        degraded: u64,
    },
}

/// Keyed observables accumulated by one worker (or the coordinator).
#[derive(Debug, Default)]
pub(crate) struct EventLogs {
    pub trace: Vec<(LogKey, TraceEvent)>,
    pub occupancy: Vec<(LogKey, (u64, ProcessId, usize))>,
    pub metrics: Vec<(LogKey, MetricOp)>,
}

/// A pre-planned local event, shippable to the worker thread that owns
/// its process. Deliveries are not planned — they are created at send
/// execution (locally or through the barrier exchange), exactly like the
/// sequential engine schedules them; only their `(at, seq)` keys are.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PlannedLocal {
    /// A basic checkpoint of the process.
    Checkpoint(ProcessId),
    /// A send, with every scheduling decision the sequential engine would
    /// draw from the rng resolved by the planning pass.
    Send {
        from: ProcessId,
        to: ProcessId,
        /// The channel lost the message (loss drawn at plan time).
        lost: bool,
        /// A later crash cancels the in-flight delivery; the send itself
        /// still executes (and is traced), but nothing is scheduled — the
        /// coordinator emits the cancellation's `Drop` at the crash.
        cancelled: bool,
        /// Pre-assigned global key of the delivery (meaningful iff
        /// `!lost && !cancelled`).
        delivery: (u64, u64),
    },
}

/// A live event in a worker's queue.
enum LocalEvent {
    Checkpoint(ProcessId),
    Send {
        from: ProcessId,
        to: ProcessId,
        lost: bool,
        cancelled: bool,
        delivery: (u64, u64),
    },
    /// Same-shard delivery: the `Rc`-shared piggyback, like the
    /// sequential engine's queue.
    DeliverLocal {
        to: ProcessId,
        id: MessageId,
        pb: Piggyback,
    },
    /// Cross-shard delivery received through a barrier exchange: the
    /// `Arc`-backed flavour.
    DeliverRemote {
        to: ProcessId,
        id: MessageId,
        pb: SyncPiggyback,
    },
}

/// One cross-shard message in a barrier exchange batch.
pub(crate) type RemoteMsg = (u64, u64, ProcessId, MessageId, SyncPiggyback);

/// Coordinator-to-worker commands, processed strictly in order.
pub(crate) enum Cmd {
    /// Process every owned event with key strictly below `upto`, then
    /// exchange outboxes with every peer shard.
    Advance { upto: (u64, u64) },
    /// Reply with `(p, last_stable, incarnation)` for every owned
    /// process (control rounds of `LastIntervals`-consuming collectors).
    GatherLasts,
    /// Reply with a full [`ProcessView`] per owned process (recovery
    /// planning; `SimpleCoordinated` control rounds).
    GatherViews,
    /// Deliver a control round to every owned process.
    Control {
        at: u64,
        seq: u64,
        info: Option<Arc<ControlInfo>>,
    },
    /// Crash the owned members of `faulty`, then reply with views of
    /// every owned process.
    CrashGather { faulty: Arc<FaultySet> },
    /// Apply a planned recovery session to every owned process.
    ApplyRecovery {
        at: u64,
        seq: u64,
        plan: Arc<RecoveryPlan>,
    },
    /// Reply with final states and the accumulated logs, then exit.
    Finish,
}

/// Worker-to-coordinator replies.
pub(crate) enum Reply {
    Lasts(Vec<(ProcessId, CheckpointIndex, Incarnation)>),
    Views(Vec<ProcessView>),
    Applied(AppliedBatch),
    Done(Box<FinishData>),
}

/// Per-owned-process outcomes of an applied recovery session, or the
/// first error the worker hit.
pub(crate) type AppliedBatch =
    Result<Vec<(ProcessId, Option<CheckpointIndex>, Vec<CheckpointIndex>)>, RecoveryError>;

/// Everything a worker reports at the end of the run.
pub(crate) struct FinishData {
    pub finals: Vec<FinalProcess>,
    pub logs: EventLogs,
    /// This shard's phase timings (`Some` iff profiling was on); the
    /// coordinator merges them under `…/<shard>` keys.
    pub profile: Option<rdt_obs::ProfileReport>,
}

/// Final state of one process, mirroring what
/// `Simulation::into_report` reads off a middleware.
pub(crate) struct FinalProcess {
    pub p: ProcessId,
    pub dv: DependencyVector,
    pub last_stable: CheckpointIndex,
    pub incarnation: Incarnation,
    pub retained_indices: Vec<usize>,
    pub retained: usize,
    pub peak: usize,
    pub total_stored: usize,
    pub total_collected: usize,
    pub basic: u64,
    pub forced: u64,
}

/// Construction parameters for one worker (everything `Send`; the
/// `!Send` middlewares are minted on the worker's own thread).
pub(crate) struct WorkerSetup {
    pub shard: usize,
    pub shards: usize,
    pub n: usize,
    pub owned: Vec<ProcessId>,
    pub shard_of: Arc<Vec<u32>>,
    /// The shard's planned local events in global `(at, seq)` order (the
    /// planning pass emits them in pop order), fed to the script lane.
    pub events: Vec<(u64, u64, PlannedLocal)>,
    pub protocol: ProtocolKind,
    pub gc: GcKind,
    pub state_size: usize,
    pub record_trace: bool,
    pub record_occupancy: bool,
    pub profile: bool,
    pub recovery_mode: RecoveryMode,
    pub cmd_rx: Receiver<Cmd>,
    pub reply_tx: Sender<Reply>,
    /// Outbound exchange channels, indexed by destination shard (the own
    /// slot is never used).
    pub out_txs: Vec<Sender<Vec<RemoteMsg>>>,
    /// Inbound exchange channels, indexed by source shard.
    pub in_rxs: Vec<Receiver<Vec<RemoteMsg>>>,
}

/// Runs one shard worker to completion. Exits when the coordinator drops
/// the command channel (error paths included), so a failed run never
/// leaves a worker blocked.
///
/// When profiling, every interval between entry and the `Finish` reply is
/// attributed to a named phase (`shard/setup`, `shard/cmd_wait`,
/// `shard/drain`, `shard/exchange`, `shard/barrier_wait`, `shard/global`,
/// `shard/finish`), and `shard/wall` records the whole span — so the
/// per-shard phases sum to the shard's measured wall-clock (asserted to
/// ±5% by `tests/obs_equiv.rs`).
pub(crate) fn run_worker(setup: WorkerSetup) {
    let WorkerSetup {
        shard,
        shards,
        n,
        owned,
        shard_of,
        events,
        protocol,
        gc,
        state_size,
        record_trace,
        record_occupancy,
        profile,
        recovery_mode,
        cmd_rx,
        reply_tx,
        out_txs,
        in_rxs,
    } = setup;

    let prof = rdt_obs::Profiler::new(profile);
    let wall = prof.start();
    let t_setup = prof.start();

    // Middlewares are minted here, on the worker thread (they are !Send).
    let mut local_idx = vec![u32::MAX; n];
    let mws: Vec<Middleware> = owned
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            local_idx[p.index()] = i as u32;
            let mut mw = Middleware::new(p, n, protocol, gc);
            mw.set_state_size(state_size);
            mw
        })
        .collect();

    let mut env: ShardEnv<LocalEvent> = ShardEnv::new();
    for (at, seq, ev) in events {
        let live = match ev {
            PlannedLocal::Checkpoint(p) => LocalEvent::Checkpoint(p),
            PlannedLocal::Send {
                from,
                to,
                lost,
                cancelled,
                delivery,
            } => LocalEvent::Send {
                from,
                to,
                lost,
                cancelled,
                delivery,
            },
        };
        env.script(at, seq, live);
    }

    let mut w = Worker {
        shard,
        owned,
        local_idx,
        shard_of,
        mws,
        env,
        logs: EventLogs::default(),
        outboxes: vec![Vec::new(); shards],
        out_txs,
        in_rxs,
        record_trace,
        record_occupancy,
        manager: RecoveryManager::with_mode(recovery_mode),
        key: (0, 0),
        sub: 0,
        prof,
    };
    w.prof.stop("shard/setup", t_setup);

    let mut scratch = EventScratch::default();
    loop {
        // Time blocked on the coordinator (between windows this is the
        // complement of the peers' barrier waits).
        let t_wait = w.prof.start();
        let Ok(cmd) = cmd_rx.recv() else { break };
        w.prof.stop("shard/cmd_wait", t_wait);
        match cmd {
            Cmd::Advance { upto } => w.advance(upto, &mut scratch),
            Cmd::GatherLasts => {
                let t = w.prof.start();
                let lasts = w
                    .owned
                    .iter()
                    .map(|&p| {
                        let mw = &w.mws[w.local(p)];
                        (p, mw.last_stable(), mw.incarnation())
                    })
                    .collect();
                w.reply(&reply_tx, Reply::Lasts(lasts));
                w.prof.stop("shard/global", t);
            }
            Cmd::GatherViews => {
                let t = w.prof.start();
                let views = w.views();
                w.reply(&reply_tx, Reply::Views(views));
                w.prof.stop("shard/global", t);
            }
            Cmd::Control { at, seq, info } => {
                let t = w.prof.start();
                w.control(at, seq, info.as_deref());
                w.prof.stop("shard/global", t);
            }
            Cmd::CrashGather { faulty } => {
                let t = w.prof.start();
                for k in 0..w.owned.len() {
                    if faulty.contains(&w.owned[k]) {
                        w.mws[k].crash();
                    }
                }
                let views = w.views();
                w.reply(&reply_tx, Reply::Views(views));
                w.prof.stop("shard/global", t);
            }
            Cmd::ApplyRecovery { at, seq, plan } => {
                let t = w.prof.start();
                let applied = w.apply_recovery(at, seq, &plan);
                w.reply(&reply_tx, Reply::Applied(applied));
                w.prof.stop("shard/global", t);
            }
            Cmd::Finish => {
                let t = w.prof.start();
                let (finals, logs) = w.finish();
                w.prof.stop("shard/finish", t);
                w.prof.stop("shard/wall", wall);
                let profile = std::mem::take(&mut w.prof).into_report();
                let done = FinishData {
                    finals,
                    logs,
                    profile,
                };
                w.reply(&reply_tx, Reply::Done(Box::new(done)));
                return;
            }
        }
    }
}

struct Worker {
    shard: usize,
    owned: Vec<ProcessId>,
    local_idx: Vec<u32>,
    shard_of: Arc<Vec<u32>>,
    mws: Vec<Middleware>,
    env: ShardEnv<LocalEvent>,
    logs: EventLogs,
    outboxes: Vec<Vec<RemoteMsg>>,
    out_txs: Vec<Sender<Vec<RemoteMsg>>>,
    in_rxs: Vec<Receiver<Vec<RemoteMsg>>>,
    record_trace: bool,
    record_occupancy: bool,
    manager: RecoveryManager,
    /// `(at, seq)` of the event currently being handled.
    key: (u64, u64),
    /// Next intra-event sub-key.
    sub: u64,
    /// Phase timings for this shard (disabled unless the run profiles).
    prof: rdt_obs::Profiler,
}

impl Worker {
    fn local(&self, p: ProcessId) -> usize {
        self.local_idx[p.index()] as usize
    }

    fn reply(&self, tx: &Sender<Reply>, reply: Reply) {
        tx.send(reply).expect("coordinator gone");
    }

    fn next_key(&mut self) -> LogKey {
        let sub = self.sub;
        self.sub += 1;
        (self.key.0, self.key.1, sub)
    }

    fn trace(&mut self, ev: TraceEvent) {
        if self.record_trace {
            let key = self.next_key();
            self.logs.trace.push((key, ev));
        }
    }

    fn trace_collects(&mut self, p: ProcessId, collected: &[CheckpointIndex]) {
        if self.record_trace {
            for &index in collected {
                self.trace(TraceEvent::Collect { process: p, index });
            }
        }
    }

    fn metric(&mut self, op: MetricOp) {
        let key = self.next_key();
        self.logs.metrics.push((key, op));
    }

    /// Mirrors `Simulation::sample`: the occupancy `now` is the handled
    /// event's tick — the sequential engine's `env.now()` at this point.
    fn sample(&mut self, p: ProcessId) {
        let i = self.local(p);
        let store = self.mws[i].store();
        let (len, peak) = (store.len(), store.peak());
        self.metric(MetricOp::Sample {
            p,
            retained: len,
            peak,
        });
        if self.record_occupancy {
            let at = self.key.0;
            let key = self.next_key();
            self.logs.occupancy.push((key, (at, p, len)));
        }
    }

    /// Mirrors `Simulation::tick_process`.
    fn tick_process(&mut self, p: ProcessId) {
        let i = self.local(p);
        let collected = self.mws[i].tick(self.key.0);
        if !collected.is_empty() {
            self.trace_collects(p, &collected);
            self.sample(p);
        }
    }

    fn views(&self) -> Vec<ProcessView> {
        self.mws.iter().map(ProcessView::of).collect()
    }

    fn advance(&mut self, upto: (u64, u64), scratch: &mut EventScratch) {
        let t_drain = self.prof.start();
        while let Some((at, seq, ev)) = self.env.pop_before(upto) {
            self.key = (at, seq);
            self.sub = 0;
            self.handle(ev, scratch);
        }
        self.prof.stop("shard/drain", t_drain);
        // Window barrier: ship this window's cross-shard sends, then take
        // delivery of every peer's. Batches pair up exactly because all
        // workers execute the identical Advance sequence.
        let t_send = self.prof.start();
        for j in 0..self.out_txs.len() {
            if j != self.shard {
                let batch = std::mem::take(&mut self.outboxes[j]);
                self.out_txs[j].send(batch).expect("peer shard gone");
            }
        }
        self.prof.stop("shard/exchange", t_send);
        // The receive half blocks until every peer reaches the same
        // barrier: this is where a load-imbalanced shard waits.
        let t_wait = self.prof.start();
        for j in 0..self.in_rxs.len() {
            if j != self.shard {
                let batch = self.in_rxs[j].recv().expect("peer shard gone");
                for (at, seq, to, id, pb) in batch {
                    self.env
                        .insert(at, seq, LocalEvent::DeliverRemote { to, id, pb });
                }
            }
        }
        self.prof.stop("shard/barrier_wait", t_wait);
    }

    /// Handles one owned event — a byte-exact mirror of the sequential
    /// engine's `handle_app` / `handle_deliver` bodies, with scheduling
    /// decisions read from the plan instead of the rng.
    fn handle(&mut self, ev: LocalEvent, scratch: &mut EventScratch) {
        match ev {
            LocalEvent::Checkpoint(p) => {
                self.tick_process(p);
                let i = self.local(p);
                self.mws[i]
                    .basic_checkpoint_into(&mut scratch.checkpoint)
                    .expect("processes are alive at event boundaries");
                self.trace(TraceEvent::Checkpoint {
                    process: p,
                    forced: false,
                });
                self.trace_collects(p, &scratch.checkpoint.eliminated);
                self.sample(p);
            }
            LocalEvent::Send {
                from,
                to,
                lost,
                cancelled,
                delivery,
            } => {
                self.tick_process(from);
                let i = self.local(from);
                let delivered = !lost && !cancelled;
                let to_shard = self.shard_of[to.index()] as usize;
                // Snapshot minting has no protocol-state effect (it fills
                // a private cache), so only the flavour a delivery will
                // actually consume is minted — before the send, like the
                // sequential engine.
                let pb_local =
                    (delivered && to_shard == self.shard).then(|| self.mws[i].piggyback());
                let pb_remote =
                    (delivered && to_shard != self.shard).then(|| self.mws[i].piggyback_sync());
                let (msg, forced) = self.mws[i].send_reported(to, Payload::empty());
                let id = msg.meta.id;
                self.metric(MetricOp::Sent(from));
                self.trace(TraceEvent::Send { id, to });
                if let Some(ck) = forced {
                    self.trace(TraceEvent::Checkpoint {
                        process: from,
                        forced: true,
                    });
                    self.trace_collects(from, &ck.eliminated);
                    self.sample(from);
                }
                if lost {
                    self.metric(MetricOp::Lost(to));
                    self.trace(TraceEvent::Drop { id });
                } else if let Some(pb) = pb_local {
                    self.env.insert(
                        delivery.0,
                        delivery.1,
                        LocalEvent::DeliverLocal { to, id, pb },
                    );
                } else if let Some(pb) = pb_remote {
                    self.outboxes[to_shard].push((delivery.0, delivery.1, to, id, pb));
                }
            }
            LocalEvent::DeliverLocal { to, id, pb } => {
                self.tick_process(to);
                let i = self.local(to);
                self.mws[i]
                    .receive_piggyback_into(&pb, &mut scratch.receive)
                    .expect("processes are alive at event boundaries");
                self.finish_delivery(to, id, scratch);
            }
            LocalEvent::DeliverRemote { to, id, pb } => {
                self.tick_process(to);
                let i = self.local(to);
                self.mws[i]
                    .receive_sync_piggyback_into(&pb, &mut scratch.receive)
                    .expect("processes are alive at event boundaries");
                self.finish_delivery(to, id, scratch);
            }
        }
    }

    /// The post-receive half of `handle_deliver`, shared by both
    /// piggyback flavours.
    fn finish_delivery(&mut self, to: ProcessId, id: MessageId, scratch: &mut EventScratch) {
        self.metric(MetricOp::Delivered(to));
        if scratch.receive.forced.is_some() {
            self.trace(TraceEvent::Checkpoint {
                process: to,
                forced: true,
            });
        }
        self.trace(TraceEvent::Deliver { id });
        self.trace_collects(to, &scratch.receive.eliminated);
        self.sample(to);
    }

    /// A control round's per-process share, mirroring the sequential
    /// engine's `for k in 0..n` loop for the owned processes. Fragment
    /// sub-keys make the merged logs interleave in exactly that loop's
    /// order.
    fn control(&mut self, at: u64, seq: u64, info: Option<&ControlInfo>) {
        for k in 0..self.owned.len() {
            let p = self.owned[k];
            self.key = (at, seq);
            self.sub = global_sub(p);
            if let Some(info) = info {
                let collected = self.mws[k].control(info);
                self.trace_collects(p, &collected);
            }
            self.sample(p);
        }
    }

    /// Applies a planned recovery session to the owned processes
    /// (ascending, like the sequential engine's apply loop) and samples
    /// them, logging under the session's global-event fragments.
    fn apply_recovery(&mut self, at: u64, seq: u64, plan: &RecoveryPlan) -> AppliedBatch {
        let mut out = Vec::with_capacity(self.owned.len());
        for k in 0..self.owned.len() {
            let p = self.owned[k];
            let applied = self.manager.apply_to(&mut self.mws[k], plan)?;
            out.push((p, applied.rolled_back, applied.eliminated));
        }
        for k in 0..self.owned.len() {
            let p = self.owned[k];
            self.key = (at, seq);
            self.sub = global_sub(p);
            self.sample(p);
        }
        Ok(out)
    }

    fn finish(&mut self) -> (Vec<FinalProcess>, EventLogs) {
        let finals = self
            .mws
            .iter()
            .map(|mw| FinalProcess {
                p: mw.owner(),
                dv: mw.dv().clone(),
                last_stable: mw.last_stable(),
                incarnation: mw.incarnation(),
                retained_indices: mw.store().indices().map(|i| i.value()).collect(),
                retained: mw.store().len(),
                peak: mw.store().peak(),
                total_stored: mw.store().total_stored(),
                total_collected: mw.store().total_collected(),
                basic: mw.basic_count(),
                forced: mw.forced_count(),
            })
            .collect();
        (finals, std::mem::take(&mut self.logs))
    }
}

/// Collects one outcome per worker, panicking with a uniform message when
/// a worker died before reporting — the join boilerplate shared by the
/// threaded runtime (thread join handles) and the sharded engine's
/// coordinator (reply channels).
pub(crate) fn join_outcomes<T, E: std::fmt::Debug>(
    outcomes: impl IntoIterator<Item = std::result::Result<T, E>>,
) -> Vec<T> {
    outcomes
        .into_iter()
        .map(|r| r.expect("worker thread died before reporting its outcome"))
        .collect()
}
