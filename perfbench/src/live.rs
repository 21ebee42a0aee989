//! `durable_live`: the `rdt serve` stack in one process. `n` `LiveNode`s,
//! each over a `DurableStore` directory on the real filesystem and its own
//! `UdsTransport` socket, run a seeded closed loop of checkpoints and
//! sends; the driver delivers pending frames on a seeded schedule. The
//! repetition ends with a crash of every node, a restart from disk and a
//! recovery session whose line must equal the `rdt-ccp` oracle's over the
//! trace recorded here.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rdt_base::{Incarnation, MessageId, ProcessId, TraceEvent};
use rdt_ccp::CcpBuilder;
use rdt_core::{CheckpointStore, GcKind};
use rdt_env::transport::MAX_FRAME;
use rdt_env::{DetRng, Rng as _, Storage, Transport as _, UdsTransport};
use rdt_obs::ProfileReport;
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_recovery::{FaultySet, RecoveryManager};
use rdt_sim::LiveNode;
use rdt_storage::{DiskSink, DurableStore};

use crate::rep::Rep;
use crate::stats::quantile;
use crate::{trace, Size};

const PROTOCOL: ProtocolKind = ProtocolKind::Fdas;
const GC: GcKind = GcKind::RdtLgc;
/// Share of closed-loop ops that are basic checkpoints, in percent (the
/// rest are sends), as in `rdt serve`.
const CHECKPOINT_PCT: u64 = 35;
/// A node's receive queue is drained once this many frames wait in it.
/// `UdsTransport::send` blocks when the receiver holds
/// `/proc/sys/net/unix/max_dgram_qlen` frames (10 by default), which in a
/// single-threaded driver would never return.
const MAX_BACKLOG: usize = 8;
/// How long a receive may wait for a frame the driver knows is queued.
const RECV_TIMEOUT: Duration = Duration::from_secs(1);

/// [`DiskSink`] plus a commit counter; each commit and incarnation
/// write-ahead is one `storage.*` span, so the durable write shows up as a
/// child of the protocol call that caused it.
#[derive(Debug)]
struct CountedSink {
    inner: DiskSink,
    commits: u64,
}

impl CountedSink {
    fn over(disk: DurableStore) -> Self {
        Self {
            inner: DiskSink::over(disk),
            commits: 0,
        }
    }
}

impl Storage for CountedSink {
    type Error = rdt_storage::Error;

    fn commit(&mut self, store: &CheckpointStore) -> Result<(), Self::Error> {
        self.commits += 1;
        let inner = &mut self.inner;
        trace::call("storage.commit", self.commits, || inner.commit(store)).0
    }

    fn wal_incarnation(&mut self, incarnation: Incarnation) -> Result<(), Self::Error> {
        let inner = &mut self.inner;
        trace::call("storage.wal", 0, || inner.wal_incarnation(incarnation)).0
    }
}

type Node = LiveNode<CountedSink>;

/// Latency samples of one repetition, in µs.
#[derive(Debug, Default)]
struct Samples {
    commit: Vec<f64>,
    deliver: Vec<f64>,
    send_frame: Vec<f64>,
    encode: Vec<f64>,
    transport_send: Vec<f64>,
    transport_recv: Vec<f64>,
    frame_bytes: Vec<f64>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The closed-loop driver's state.
struct Cluster {
    nodes: Vec<Node>,
    transports: Vec<UdsTransport>,
    /// Frames sent to each node and not yet received.
    pending: Vec<usize>,
    trace: Vec<TraceEvent>,
    samples: Samples,
    buf: Vec<u8>,
    basic: u64,
    forced: u64,
    sent: u64,
    delivered: u64,
    peak_global_retained: usize,
}

impl Cluster {
    /// Receives and delivers the oldest frame queued at node `j`.
    fn deliver_one(&mut self, j: usize, op: u64) -> Result<(), String> {
        let transport = &mut self.transports[j];
        let buf = &mut self.buf;
        let (received, recv_time) = trace::call("env.recv", op, || transport.recv(buf));
        let len = received
            .map_err(|e| format!("recv at p{j}: {e}"))?
            .ok_or_else(|| format!("p{j} expected a frame and none arrived"))?;
        let node = &mut self.nodes[j];
        let frame = &self.buf[..len];
        let (outcome, deliver_time) =
            trace::call("protocols.deliver", op, || node.deliver_frame(frame));
        let outcome = outcome
            .map_err(|e| format!("deliver at p{j}: {e}"))?
            .ok_or_else(|| format!("p{j} rejected a frame as malformed"))?;
        if let Some(e) = node.middleware_mut().take_sink_error() {
            return Err(format!("durable commit at p{j}: {e}"));
        }
        self.pending[j] -= 1;
        self.delivered += 1;
        self.samples.transport_recv.push(us(recv_time));
        self.samples.deliver.push(us(recv_time + deliver_time));
        if outcome.forced.is_some() {
            self.forced += 1;
            self.trace.push(TraceEvent::Checkpoint {
                process: ProcessId::new(j),
                forced: true,
            });
        }
        self.trace.push(TraceEvent::Deliver {
            id: MessageId::new(outcome.sender, outcome.seq),
        });
        Ok(())
    }

    /// One closed-loop op at node `i`: a basic checkpoint or a send to a
    /// peer drawn from `rng`.
    fn op(&mut self, i: usize, rng: &mut DetRng, op: u64) -> Result<(), String> {
        let n = self.nodes.len();
        if rng.between(0, 99) < CHECKPOINT_PCT {
            let node = &mut self.nodes[i];
            let (stored, took) = trace::call("protocols.checkpoint", op, || node.checkpoint());
            stored.map_err(|e| format!("checkpoint at p{i}: {e}"))?;
            self.samples.commit.push(us(took));
            self.basic += 1;
            self.trace.push(TraceEvent::Checkpoint {
                process: ProcessId::new(i),
                forced: false,
            });
        } else {
            let k = rng.between(0, n as u64 - 2) as usize;
            let j = if k >= i { k + 1 } else { k };
            let to = ProcessId::new(j);
            let node = &mut self.nodes[i];
            let ((frame, forced), took) =
                trace::call("protocols.send_frame", op, || node.send_frame(to));
            self.samples.send_frame.push(us(took));
            if forced.is_some() {
                self.forced += 1;
                self.trace.push(TraceEvent::Checkpoint {
                    process: ProcessId::new(i),
                    forced: true,
                });
            }
            self.trace.push(TraceEvent::Send {
                id: MessageId::new(ProcessId::new(i), frame.seq),
                to,
            });
            let (bytes, took) = trace::call("env.encode", op, || frame.encode());
            self.samples.encode.push(us(took));
            self.samples.frame_bytes.push(bytes.len() as f64);
            let transport = &mut self.transports[i];
            let (sent, took) = trace::call("env.send", op, || transport.send(to, &bytes));
            sent.map_err(|e| format!("send p{i} -> p{j}: {e}"))?;
            self.samples.transport_send.push(us(took));
            self.sent += 1;
            self.pending[j] += 1;
            if self.pending[j] >= MAX_BACKLOG {
                while self.pending[j] > 0 {
                    self.deliver_one(j, op)?;
                }
            }
        }
        if let Some(e) = self.nodes[i].middleware_mut().take_sink_error() {
            return Err(format!("durable commit at p{i}: {e}"));
        }
        // The seeded delivery schedule: one frame at a random node.
        let j = rng.between(0, n as u64 - 1) as usize;
        if self.pending[j] > 0 {
            self.deliver_one(j, op)?;
        }
        let retained: usize = self
            .nodes
            .iter()
            .map(|x| x.middleware().store().len())
            .sum();
        self.peak_global_retained = self.peak_global_retained.max(retained);
        Ok(())
    }
}

/// System size and closed-loop length at `size`.
fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (8, 2_000),
        Size::Tiny => (4, 400),
    }
}

fn store_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("p{i}"))
}

/// Bytes in regular files under `dir`, recursively.
fn bytes_under(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => bytes_under(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Times of one repetition's phases, in seconds.
#[derive(Debug, Default)]
struct Times {
    setup: f64,
    run: f64,
    crash: f64,
    restart: f64,
    recover: f64,
    drop: f64,
    oracle: f64,
}

/// One repetition of `durable_live` in a fresh directory.
pub fn repetition(size: Size, seed: u64, index: u64, traced: bool) -> Rep {
    let (n, ops) = shape(size);
    let mut rep = Rep {
        attempted: ops as u64,
        ..Rep::default()
    };
    let root = crate::out_dir().join(format!("live-{}", std::process::id()));
    // A leftover from an earlier process with the same pid, if any.
    let _ = std::fs::remove_dir_all(&root);
    if let Err(e) = std::fs::create_dir_all(&root) {
        rep.failed = rep.attempted;
        rep.fail(format!("creating {}: {e}", root.display()));
        return rep;
    }
    trace::set_recording(traced);
    let result = drive(&root, n, ops, seed, index, traced, &mut rep);
    trace::set_recording(false);
    if let Err(e) = result {
        rep.failed = rep.attempted;
        rep.fail(e);
    }
    if let Err(e) = std::fs::remove_dir_all(&root) {
        rep.fail(format!("removing {}: {e}", root.display()));
    }
    rep
}

fn drive(
    root: &Path,
    n: usize,
    ops: usize,
    seed: u64,
    index: u64,
    traced: bool,
    rep: &mut Rep,
) -> Result<(), String> {
    let mut t = Times::default();
    let all: FaultySet = ProcessId::all(n).collect();

    // Set-up: bind, open, construct (which commits s^0).
    let (cluster, took) = trace::call("bench.setup", index, || -> Result<Cluster, String> {
        let mut nodes = Vec::with_capacity(n);
        let mut transports = Vec::with_capacity(n);
        for i in 0..n {
            let (bound, _) = trace::call("env.bind", i as u64, || {
                UdsTransport::bind(root, i, RECV_TIMEOUT)
            });
            transports.push(bound.map_err(|e| format!("bind p{i}: {e}"))?);
            let me = ProcessId::new(i);
            let (disk, _) = trace::call("storage.open", i as u64, || {
                DurableStore::open(store_dir(root, i), me)
            });
            let disk = disk.map_err(|e| format!("open store of p{i}: {e}"))?;
            disk.set_profiling(traced);
            let (mut node, _) = trace::call("protocols.construct", i as u64, || {
                LiveNode::over(Middleware::with_storage(
                    me,
                    n,
                    PROTOCOL,
                    GC,
                    CountedSink::over(disk),
                ))
            });
            node.set_profiling(traced);
            if let Some(e) = node.middleware_mut().take_sink_error() {
                return Err(format!("initial commit of p{i}: {e}"));
            }
            nodes.push(node);
        }
        Ok(Cluster {
            nodes,
            transports,
            pending: vec![0; n],
            trace: Vec::with_capacity(ops * 3),
            samples: Samples::default(),
            buf: vec![0; MAX_FRAME],
            basic: 0,
            forced: 0,
            sent: 0,
            delivered: 0,
            peak_global_retained: n,
        })
    });
    t.setup = took.as_secs_f64();
    let mut cluster = cluster?;

    // The closed loop, then delivery of everything still queued.
    let (looped, took) = trace::call("bench.loop", index, || -> Result<(), String> {
        let mut rng = DetRng::seeded(seed);
        for op in 0..ops as u64 {
            let i = rng.between(0, n as u64 - 1) as usize;
            trace::call("bench.op", op, || cluster.op(i, &mut rng, op)).0?;
        }
        for j in 0..n {
            while cluster.pending[j] > 0 {
                cluster.deliver_one(j, ops as u64)?;
            }
        }
        Ok(())
    });
    t.run = took.as_secs_f64();
    looped?;

    // State the checks and per-layer metrics need, read before the crash.
    let max_retained = cluster
        .nodes
        .iter()
        .map(|x| x.middleware().store().peak())
        .max()
        .unwrap_or(0);
    let collected: usize = cluster
        .nodes
        .iter()
        .map(|x| x.middleware().store().total_collected())
        .sum();
    let commits: u64 = cluster
        .nodes
        .iter()
        .map(|x| x.middleware().sink().commits)
        .sum();
    let mut io = ProfileReport::new();
    for node in &cluster.nodes {
        if let Some(p) = node.middleware().sink().inner.disk().take_profile() {
            io.merge(&p);
        }
    }
    let bytes_on_disk = bytes_under(root);

    // Crash: every node and socket goes away; only the directories stay.
    let Cluster {
        nodes,
        transports,
        trace: events,
        samples,
        basic,
        forced,
        sent,
        delivered,
        peak_global_retained,
        ..
    } = cluster;
    let ((), took) = trace::call("protocols.crash", index, || {
        drop(nodes);
        drop(transports);
    });
    t.crash = took.as_secs_f64();

    // Restart every node from disk, then one recovery session (all faulty).
    let (rebuilt, took) = trace::call("recovery.restart", index, || {
        (0..n)
            .map(|i| -> Result<Middleware<CountedSink>, String> {
                let me = ProcessId::new(i);
                let (disk, _) = trace::call("storage.open", i as u64, || {
                    DurableStore::open(store_dir(root, i), me)
                });
                let disk = disk.map_err(|e| format!("reopen store of p{i}: {e}"))?;
                let (store, _) =
                    trace::call("storage.rebuild", i as u64, || disk.rebuild_reported());
                let (store, _report) = store.map_err(|e| format!("rebuild p{i}: {e}"))?;
                if store.is_empty() {
                    return Err(format!("p{i} has no checkpoint on disk"));
                }
                Ok(trace::call("protocols.from_store", i as u64, || {
                    Middleware::from_store_with(me, n, PROTOCOL, GC, store, CountedSink::over(disk))
                })
                .0)
            })
            .collect::<Result<Vec<_>, String>>()
    });
    t.restart = took.as_secs_f64();
    let mut mws = rebuilt?;
    let (session, took) = trace::call("recovery.recover", index, || {
        RecoveryManager::new().recover(&mut mws, &all)
    });
    t.recover = took.as_secs_f64();
    let session = session.map_err(|e| format!("recover: {e}"))?;
    for (i, mw) in mws.iter_mut().enumerate() {
        if let Some(e) = mw.take_sink_error() {
            rep.fail(format!("durable write during recovery of p{i}: {e}"));
        }
    }
    let ((), took) = trace::call("protocols.drop", index, || drop(mws));
    t.drop = took.as_secs_f64();

    // The oracle, outside the wall time.
    let (oracle, took) = trace::call("ccp.oracle", index, || {
        CcpBuilder::from_trace(n, &events).map(|b| b.build().recovery_line(&all).to_raw())
    });
    t.oracle = took.as_secs_f64();
    let oracle = oracle.map_err(|e| format!("oracle replay: {e}"))?;
    let online: Vec<usize> = session.line.iter().map(|c| c.value()).collect();

    // Output checks.
    if online != oracle {
        rep.fail(format!(
            "recovery line after restart {online:?} != ccp oracle {oracle:?}"
        ));
    }
    if delivered != sent {
        rep.fail(format!("{delivered} of {sent} frames delivered"));
    }
    if max_retained > n + 1 {
        rep.fail(format!(
            "a node retained {max_retained} checkpoints, above n + 1 = {}",
            n + 1
        ));
    }
    if peak_global_retained > n * (n + 1) {
        rep.fail(format!(
            "global retention peaked at {peak_global_retained}, above n(n + 1) = {}",
            n * (n + 1)
        ));
    }
    rep.count("basic", basic);
    rep.count("forced", forced);
    rep.count("collected", collected as u64);
    rep.count("sent", sent);
    rep.count("delivered", delivered);
    rep.count("lost", 0);
    rep.count("rolled_back", session.rolled_back.len() as u64);
    rep.count("max_retained", max_retained as u64);
    rep.count("peak_global_retained", peak_global_retained as u64);

    let wall = t.setup + t.run + t.crash + t.restart + t.recover + t.drop;
    rep.set("wall_s", wall);
    rep.set("setup_s", t.setup);
    rep.set("ops_per_s", ops as f64 / t.run);
    if !traced {
        return Ok(());
    }
    let p50 = |v: &[f64]| quantile(v, 0.5);
    rep.set("commit_p50_us", p50(&samples.commit));
    rep.set("commit_p90_us", quantile(&samples.commit, 0.9));
    rep.set("deliver_p50_us", p50(&samples.deliver));
    rep.set("deliver_p90_us", quantile(&samples.deliver, 0.9));
    rep.set("protocols.send_frame_p50_us", p50(&samples.send_frame));
    rep.set("env.encode_p50_us", p50(&samples.encode));
    rep.set(
        "env.frame_bytes_mean",
        samples.frame_bytes.iter().sum::<f64>() / samples.frame_bytes.len().max(1) as f64,
    );
    rep.set("env.transport_send_p50_us", p50(&samples.transport_send));
    rep.set("env.transport_recv_p50_us", p50(&samples.transport_recv));
    for op in ["write", "fsync", "fsync_dir", "rename", "remove", "list"] {
        let stats = io.phase(&format!("store/{op}"));
        rep.set(
            &format!("storage.{op}_s"),
            stats.map_or(0.0, |s| s.total_ns as f64 * 1e-9),
        );
        rep.set(
            &format!("storage.{op}_count"),
            stats.map_or(0.0, |s| s.count as f64),
        );
    }
    let count = |op: &str| io.phase(op).map_or(0, |s| s.count);
    // s^0 of every node plus the basic and forced checkpoints.
    let checkpoints = n as u64 + basic + forced;
    rep.set("storage.checkpoints", checkpoints as f64);
    rep.set(
        "storage.fsyncs_per_checkpoint",
        (count("store/fsync") + count("store/fsync_dir")) as f64 / checkpoints as f64,
    );
    rep.set("storage.commits", commits as f64);
    rep.set(
        "storage.lists_per_commit",
        count("store/list") as f64 / commits.max(1) as f64,
    );
    rep.set("storage.bytes_on_disk", bytes_on_disk as f64);
    rep.set("recovery.restart_s", t.restart);
    rep.set("recovery.recover_s", t.recover);
    rep.set("ccp.oracle_s", t.oracle);
    rep.set("protocols.basic_checkpoints", basic as f64);
    rep.set("protocols.forced_checkpoints", forced as f64);
    rep.set("core.collected", collected as f64);
    rep.set("core.max_retained", max_retained as f64);
    rep.set("sim.delivered", delivered as f64);
    rep.set("recovery.rolled_back", session.rolled_back.len() as f64);
    Ok(())
}
