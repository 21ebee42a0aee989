//! The deterministic discrete-event simulator.

use rdt_base::{Incarnation, Payload, ProcessId, Result, TraceEvent};
use rdt_core::{ControlInfo, GcKind, LastIntervals};
use rdt_env::{Rng as _, SimEnv};
use rdt_protocols::{CheckpointReport, Middleware, Piggyback, ProtocolKind, ReceiveReport};
use rdt_recovery::{RecoveryManager, RecoveryMode, RecoverySessionReport};
use rdt_workloads::{AppOp, WorkloadSpec};

use crate::config::{ChannelConfig, SimConfig};
use crate::metrics::Metrics;

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Number of processes.
    pub n: usize,
    /// Final dependency vectors, one per process.
    pub final_dvs: Vec<rdt_base::DependencyVector>,
    /// Final last-stable checkpoint index per process.
    pub final_last_stable: Vec<usize>,
    /// Aggregated measurements.
    pub metrics: Metrics,
    /// The event trace, if [`SimConfig::record_trace`] was set. Crash-free
    /// traces replay into `rdt-ccp` CCPs for oracle validation.
    pub trace: Option<Vec<TraceEvent>>,
    /// Occupancy samples `(time, process, retained)`, if
    /// [`SimConfig::record_occupancy`] was set.
    pub occupancy: Option<Vec<(u64, ProcessId, usize)>>,
    /// One report per recovery session.
    pub recovery_sessions: Vec<RecoverySessionReport>,
    /// Retained checkpoint indices per process at the end of the run.
    pub final_retained: Vec<Vec<usize>>,
    /// Final incarnation number per process (number of rollbacks survived).
    pub final_incarnations: Vec<Incarnation>,
    /// Phase timings and counters, if [`SimConfig::profile`] (or
    /// `RDT_PROFILE`) was set. Deliberately excluded from the canonical
    /// replay-golden dump: wall-clock observations are not part of the
    /// deterministic output.
    pub profile: Option<rdt_obs::ProfileReport>,
}

/// Builder for a simulation run.
///
/// ```
/// use rdt_core::GcKind;
/// use rdt_protocols::ProtocolKind;
/// use rdt_sim::SimulationBuilder;
/// use rdt_workloads::WorkloadSpec;
///
/// let report = SimulationBuilder::new(WorkloadSpec::uniform_random(4, 100).with_seed(3))
///     .protocol(ProtocolKind::Fdas)
///     .garbage_collector(GcKind::RdtLgc)
///     .run()
///     .expect("simulation runs");
/// assert!(report.metrics.max_retained_per_process() <= 5);
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    pub(crate) spec: WorkloadSpec,
    pub(crate) protocol: ProtocolKind,
    pub(crate) gc: GcKind,
    pub(crate) config: SimConfig,
    pub(crate) recovery_mode: RecoveryMode,
}

impl SimulationBuilder {
    /// Starts from a workload specification.
    pub fn new(spec: WorkloadSpec) -> Self {
        Self {
            spec,
            protocol: ProtocolKind::Fdas,
            gc: GcKind::RdtLgc,
            config: SimConfig::default(),
            recovery_mode: RecoveryMode::Coordinated,
        }
    }

    /// Selects the checkpointing protocol (default FDAS).
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Selects the garbage collector (default RDT-LGC).
    pub fn garbage_collector(mut self, gc: GcKind) -> Self {
        self.gc = gc;
        self
    }

    /// Sets the full simulator configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the channel behaviour.
    pub fn channel(mut self, channel: ChannelConfig) -> Self {
        self.config.channel = channel;
        self
    }

    /// Enables coordinator control rounds every `ticks` (for the
    /// coordinated baseline collectors).
    pub fn control_every(mut self, ticks: u64) -> Self {
        self.config.control_every = Some(ticks);
        self
    }

    /// Records the event trace for offline replay.
    pub fn record_trace(mut self) -> Self {
        self.config.record_trace = true;
        self
    }

    /// Records per-event occupancy samples for timeline analyses.
    pub fn record_occupancy(mut self) -> Self {
        self.config.record_occupancy = true;
        self
    }

    /// Collects phase timings into the report (see [`SimConfig::profile`]).
    pub fn profile(mut self) -> Self {
        self.config.profile = true;
        self
    }

    /// Sets the recovery mode (default coordinated).
    pub fn recovery_mode(mut self, mode: RecoveryMode) -> Self {
        self.recovery_mode = mode;
        self
    }

    /// Partitions the run across `shards` worker shards (default 1 = the
    /// sequential engine). Output is byte-identical for a fixed seed
    /// regardless of the count; if the channel's `min_delay` is 0 the
    /// lookahead window is empty and the run falls back to the sequential
    /// engine loudly ([`crate::ZeroLookaheadFallback`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shard.shards = shards;
        self
    }

    /// Chooses the process-to-shard assignment (default contiguous).
    pub fn partitioning(mut self, partitioning: crate::Partitioning) -> Self {
        self.config.shard.partitioning = partitioning;
        self
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// [`rdt_base::Error::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`] — caught here, before construction, instead
    /// of panicking mid-run inside the channel RNG. Otherwise propagates
    /// middleware errors; none occur under the simulator's own scheduling
    /// discipline, but the signature keeps the harness honest.
    pub fn run(self) -> Result<SimulationReport> {
        self.config.validate()?;
        let shards = self.config.shard.shards.min(self.spec.n);
        if shards > 1 {
            if self.config.channel.min_delay == 0 {
                // Zero cross-shard lookahead: every window would be a
                // single tick (lockstep barriers). Degrade loudly to the
                // sequential engine instead.
                let warning = crate::ZeroLookaheadFallback { shards };
                rdt_obs::warn("rdt_sim::engine", "zero_lookahead_fallback")
                    .message(warning)
                    .u64("shards", shards as u64)
                    .u64("min_delay", self.config.channel.min_delay)
                    .emit();
                let mut report = self.run_sequential()?;
                report.metrics.sequential_fallbacks = 1;
                return Ok(report);
            }
            return crate::parallel::run_sharded(self, shards);
        }
        self.run_sequential()
    }

    /// The single-threaded engine, shard dispatch already resolved.
    pub(crate) fn run_sequential(self) -> Result<SimulationReport> {
        let ops = self.spec.generate();
        let mut sim = Simulation::new(
            self.spec.n,
            self.protocol,
            self.gc,
            self.config,
            self.recovery_mode,
            self.spec.seed,
        );
        sim.schedule_ops(&ops);
        sim.run_to_completion()?;
        Ok(sim.into_report())
    }
}

/// Reports reused across every event of a run (cleared, never
/// reallocated). Shared with the shard workers of the parallel engine,
/// whose handlers mirror the sequential ones event for event.
#[derive(Debug, Default)]
pub(crate) struct EventScratch {
    pub(crate) receive: ReceiveReport,
    pub(crate) checkpoint: CheckpointReport,
}

#[derive(Debug)]
enum EventKind {
    App(AppOp),
    Deliver {
        to: ProcessId,
        id: rdt_base::MessageId,
        /// The sender's piggyback; the vector inside is `Rc`-shared with
        /// the sender's snapshot, so queueing a delivery copies a pointer
        /// and bumps a non-atomic counter — no entries, no atomics.
        pb: Piggyback,
    },
    ControlRound,
}

/// The discrete-event simulation state.
///
/// Scheduling, virtual time and randomness live in a
/// [`SimEnv`](rdt_env::SimEnv) — the engine is a driver over the
/// environment abstraction, and a fixed seed reproduces the exact event
/// and rng stream of the pre-abstraction engine (replay-golden).
#[derive(Debug)]
pub struct Simulation {
    env: SimEnv<EventKind>,
    processes: Vec<Middleware>,
    config: SimConfig,
    manager: RecoveryManager,
    metrics: Metrics,
    trace: Vec<TraceEvent>,
    occupancy: Vec<(u64, ProcessId, usize)>,
    recovery_sessions: Vec<RecoverySessionReport>,
    /// Time of the last scheduled application op; control rounds stop
    /// rescheduling past it so the event queue drains.
    horizon: u64,
    /// Phase timings ([`SimConfig::profile`]); a disabled profiler never
    /// reads the clock, so the default run pays one branch per event.
    profiler: rdt_obs::Profiler,
}

impl Simulation {
    /// Creates a simulation over `n` fresh middleware instances.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`] (e.g. a
    /// hand-built or deserialized `loss_rate` outside `[0, 1]`) — better
    /// a clear panic at construction than a cryptic one mid-run. Fallible
    /// callers should validate first or go through
    /// [`SimulationBuilder::run`], which returns a typed error instead.
    pub fn new(
        n: usize,
        protocol: ProtocolKind,
        gc: GcKind,
        config: SimConfig,
        recovery_mode: RecoveryMode,
        seed: u64,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulator configuration: {e}");
        }
        let mut sim = Self {
            // The seed salt predates the environment split; keeping it on
            // this side of the boundary keeps historical seeds stable.
            env: SimEnv::new(seed ^ 0x5eed_c0de),
            processes: (0..n)
                .map(|i| {
                    let mut mw = Middleware::new(ProcessId::new(i), n, protocol, gc);
                    mw.set_state_size(config.state_size);
                    mw
                })
                .collect(),
            config,
            manager: RecoveryManager::with_mode(recovery_mode),
            metrics: Metrics::new(n),
            trace: Vec::new(),
            occupancy: Vec::new(),
            recovery_sessions: Vec::new(),
            horizon: 0,
            profiler: rdt_obs::Profiler::new(config.profile || rdt_obs::profile::env_enabled()),
        };
        if let Some(every) = config.control_every {
            sim.push_at(every, EventKind::ControlRound);
        }
        sim
    }

    /// Schedules an operation stream, one op per
    /// [`ticks_per_op`](SimConfig::ticks_per_op), pre-sizing the recording
    /// buffers from the op count so the hot loop never reallocates them.
    ///
    /// The ops go into the environment's script lane
    /// ([`SimEnv::script`](rdt_env::SimEnv::script)), not the bucket
    /// queue: they pop in the same `(at, seq)` order as if scheduled, but
    /// a crash's cancel never scans them. Calling this more than once, or
    /// after the run started, is legal; later streams still interleave by
    /// key.
    pub fn schedule_ops(&mut self, ops: &[AppOp]) {
        if self.config.record_trace {
            // Sends dominate: send + deliver + occasional forced
            // checkpoint/collect per op. 3x covers every observed mix.
            self.trace.reserve(ops.len() * 3 + 16);
        }
        if self.config.record_occupancy {
            // One sample per handled event: app op + delivery.
            self.occupancy.reserve(ops.len() * 2 + 16);
        }
        for (k, op) in ops.iter().enumerate() {
            let at = k as u64 * self.config.ticks_per_op;
            self.horizon = self.horizon.max(at);
            self.env.script(at, EventKind::App(*op));
        }
    }

    fn push_at(&mut self, at: u64, kind: EventKind) {
        self.env.schedule(at, kind);
    }

    /// Runs until the event queue drains.
    ///
    /// # Errors
    ///
    /// Propagates middleware errors (none occur under normal scheduling).
    pub fn run_to_completion(&mut self) -> Result<()> {
        // One report of each kind serves the whole run: the middleware's
        // `_into` entry points clear and refill them, so the per-event loop
        // performs no report allocation.
        let mut scratch = EventScratch::default();
        let wall = self.profiler.start();
        while let Some((_at, _seq, kind)) = self.env.pop() {
            match kind {
                EventKind::App(op) => {
                    // A crash op runs a whole recovery session; everything
                    // else is ordinary queue drain.
                    let phase = if matches!(op, AppOp::Crash(_)) {
                        "engine/recovery"
                    } else {
                        "engine/drain"
                    };
                    let t = self.profiler.start();
                    self.handle_app(op, &mut scratch)?;
                    self.profiler.stop(phase, t);
                }
                EventKind::Deliver { to, id, pb } => {
                    let t = self.profiler.start();
                    self.handle_deliver(to, id, pb, &mut scratch)?;
                    self.profiler.stop("engine/drain", t);
                }
                EventKind::ControlRound => {
                    let t = self.profiler.start();
                    self.handle_control_round()?;
                    self.profiler.stop("engine/control_round", t);
                }
            }
        }
        self.profiler.stop("engine/run", wall);
        Ok(())
    }

    /// Advances `p`'s garbage-collector clock to the current simulation
    /// time (only the time-based baseline reacts).
    fn tick_process(&mut self, p: ProcessId) {
        let collected = self.processes[p.index()].tick(self.env.now());
        if !collected.is_empty() {
            self.trace_collects(p, &collected);
            self.sample(p);
        }
    }

    /// Records garbage-collection eliminations in the trace, for the
    /// offline safety audit.
    fn trace_collects(&mut self, p: ProcessId, collected: &[rdt_base::CheckpointIndex]) {
        if self.config.record_trace {
            for &index in collected {
                self.trace.push(TraceEvent::Collect { process: p, index });
            }
        }
    }

    fn handle_app(&mut self, op: AppOp, scratch: &mut EventScratch) -> Result<()> {
        match op {
            AppOp::Checkpoint(p) => {
                if self.processes[p.index()].is_crashed() {
                    return Ok(());
                }
                self.tick_process(p);
                self.processes[p.index()].basic_checkpoint_into(&mut scratch.checkpoint)?;
                if self.config.record_trace {
                    self.trace.push(TraceEvent::Checkpoint {
                        process: p,
                        forced: false,
                    });
                }
                self.trace_collects(p, &scratch.checkpoint.eliminated);
                self.sample(p);
            }
            AppOp::Send { from, to } => {
                if self.processes[from.index()].is_crashed() {
                    return Ok(());
                }
                self.tick_process(from);
                let pb = self.processes[from.index()].piggyback();
                let (msg, post_send_forced) =
                    self.processes[from.index()].send_reported(to, Payload::empty());
                self.metrics.per_process[from.index()].sent += 1;
                if self.config.record_trace {
                    self.trace.push(TraceEvent::Send {
                        id: msg.meta.id,
                        to,
                    });
                    if post_send_forced.is_some() {
                        self.trace.push(TraceEvent::Checkpoint {
                            process: from,
                            forced: true,
                        });
                    }
                }
                if let Some(ck) = post_send_forced {
                    self.trace_collects(from, &ck.eliminated);
                    self.sample(from);
                }
                let lost = self.env.rng().chance(self.config.channel.loss_rate);
                if lost {
                    self.metrics.per_process[to.index()].lost += 1;
                    if self.config.record_trace {
                        self.trace.push(TraceEvent::Drop { id: msg.meta.id });
                    }
                } else {
                    let delay = self
                        .env
                        .rng()
                        .between(self.config.channel.min_delay, self.config.channel.max_delay);
                    let at = self.env.now() + delay;
                    self.push_at(
                        at,
                        EventKind::Deliver {
                            to,
                            id: msg.meta.id,
                            pb,
                        },
                    );
                }
            }
            AppOp::Crash(p) => {
                if self.processes[p.index()].is_crashed() {
                    return Ok(());
                }
                self.run_recovery_session(p)?;
            }
        }
        Ok(())
    }

    fn handle_deliver(
        &mut self,
        to: ProcessId,
        id: rdt_base::MessageId,
        pb: Piggyback,
        scratch: &mut EventScratch,
    ) -> Result<()> {
        if self.processes[to.index()].is_crashed() {
            self.metrics.per_process[to.index()].lost += 1;
            if self.config.record_trace {
                self.trace.push(TraceEvent::Drop { id });
            }
            return Ok(());
        }
        self.tick_process(to);
        self.processes[to.index()].receive_piggyback_into(&pb, &mut scratch.receive)?;
        self.metrics.per_process[to.index()].delivered += 1;
        if self.config.record_trace {
            if scratch.receive.forced.is_some() {
                self.trace.push(TraceEvent::Checkpoint {
                    process: to,
                    forced: true,
                });
            }
            self.trace.push(TraceEvent::Deliver { id });
        }
        self.trace_collects(to, &scratch.receive.eliminated);
        self.sample(to);
        Ok(())
    }

    fn handle_control_round(&mut self) -> Result<()> {
        self.metrics.control_rounds += 1;
        // Coordinator with reliable control messages: sees everyone's
        // stable-store state (the coordination RDT-LGC does *without*).
        // Each ControlInfo variant is built once per round — and only when
        // the configured collector actually consumes it — then delivered to
        // every process by reference.
        let gc_kind = self.processes[0].gc_kind();
        let info = if gc_kind.needs_control_messages() {
            match gc_kind {
                GcKind::SimpleCoordinated => {
                    let all: rdt_recovery::FaultySet =
                        (0..self.processes.len()).map(ProcessId::new).collect();
                    Some(ControlInfo::GlobalLine(
                        self.manager
                            .recovery_line(&self.processes, &all)
                            .map_err(rdt_base::Error::from)?,
                    ))
                }
                _ => {
                    let components: Vec<_> = self
                        .processes
                        .iter()
                        .map(|m| (m.last_stable(), m.incarnation()))
                        .collect();
                    Some(ControlInfo::LastIntervals(LastIntervals::from_components(
                        &components,
                    )))
                }
            }
        } else {
            None
        };
        for k in 0..self.processes.len() {
            if let Some(info) = &info {
                let collected = self.processes[k].control(info);
                self.trace_collects(ProcessId::new(k), &collected);
            }
            self.sample(ProcessId::new(k));
        }
        if let Some(every) = self.config.control_every {
            let at = self.env.now() + every;
            if at <= self.horizon {
                self.push_at(at, EventKind::ControlRound);
            }
        }
        Ok(())
    }

    /// A crash of `p` (plus correlated failures): in-transit messages are
    /// lost, the recovery manager stops the world, computes the recovery
    /// line and rolls processes back.
    fn run_recovery_session(&mut self, p: ProcessId) -> Result<()> {
        let mut faulty: rdt_recovery::FaultySet = [p].into_iter().collect();
        if self.config.correlated_crash_prob > 0.0 {
            for q in ProcessId::all(self.processes.len()) {
                if q != p
                    && !self.processes[q.index()].is_crashed()
                    && self.env.rng().chance(self.config.correlated_crash_prob)
                {
                    faulty.insert(q);
                }
            }
        }
        for &f in &faulty {
            self.processes[f.index()].crash();
            if self.config.record_trace {
                self.trace.push(TraceEvent::Crash { process: f });
            }
        }
        // All in-transit messages are lost (the recovered CCP excludes
        // them, Section 2.2): an in-place cancel over the dynamically
        // scheduled events only, dropping deliveries in deterministic
        // (at, seq) order. The pending app ops sit in the script lane and
        // are not visited, so a session costs O(in-transit events).
        let metrics = &mut self.metrics;
        let trace = &mut self.trace;
        let record_trace = self.config.record_trace;
        self.env.cancel(
            |kind| !matches!(kind, EventKind::Deliver { .. }),
            |_, kind| {
                if let EventKind::Deliver { to, id, .. } = kind {
                    metrics.per_process[to.index()].lost += 1;
                    if record_trace {
                        trace.push(TraceEvent::Drop { id });
                    }
                }
            },
        );

        let report = self
            .manager
            .recover(&mut self.processes, &faulty)
            .map_err(rdt_base::Error::from)?;
        self.metrics.recovery_sessions += 1;
        self.metrics.total_rolled_back += report.rolled_back.len() as u64;
        self.metrics.degraded_lines += report.degraded.len() as u64;
        if self.config.record_trace {
            for (proc_, to) in &report.rolled_back {
                self.trace.push(TraceEvent::Restore {
                    process: *proc_,
                    to: *to,
                });
            }
        }
        for k in 0..self.processes.len() {
            self.sample(ProcessId::new(k));
        }
        self.recovery_sessions.push(report);
        Ok(())
    }

    fn sample(&mut self, p: ProcessId) {
        let store = self.processes[p.index()].store();
        let (len, peak) = (store.len(), store.peak());
        self.metrics.sample(p, len, peak);
        if self.config.record_occupancy {
            self.occupancy.push((self.env.now(), p, len));
        }
    }

    /// Finalizes counters and produces the report.
    pub fn into_report(mut self) -> SimulationReport {
        self.metrics.ticks = self.env.now();
        for (k, mw) in self.processes.iter().enumerate() {
            let m = &mut self.metrics.per_process[k];
            m.retained = mw.store().len();
            m.peak_retained = m.peak_retained.max(mw.store().peak());
            m.total_stored = mw.store().total_stored();
            m.total_collected = mw.store().total_collected();
            m.basic = mw.basic_count();
            m.forced = mw.forced_count();
        }
        SimulationReport {
            n: self.processes.len(),
            final_dvs: self.processes.iter().map(|mw| mw.dv().clone()).collect(),
            final_last_stable: self
                .processes
                .iter()
                .map(|mw| mw.last_stable().value())
                .collect(),
            final_retained: self
                .processes
                .iter()
                .map(|mw| mw.store().indices().map(|i| i.value()).collect())
                .collect(),
            final_incarnations: self.processes.iter().map(|mw| mw.incarnation()).collect(),
            metrics: self.metrics,
            trace: if self.config.record_trace {
                Some(self.trace)
            } else {
                None
            },
            occupancy: if self.config.record_occupancy {
                Some(self.occupancy)
            } else {
                None
            },
            recovery_sessions: self.recovery_sessions,
            profile: self.profiler.into_report(),
        }
    }

    /// Read access to the processes (for integration tests).
    pub fn processes(&self) -> &[Middleware] {
        &self.processes
    }
}
