//! The simulated environment: virtual clock + calendar queue + seeded rng.
//!
//! `SimEnv` is exactly the scheduling core the discrete-event engine used
//! to carry inline — the same `(at, seq)` order, the same `seq` counter
//! semantics (starts at 0, increments after each push), the same
//! time-advance rule (`now = max(now, at)`), the same single `StdRng`
//! stream behind the [`Rng`](crate::Rng) trait. Moving it behind this
//! type is a relocation, not a behaviour change: fixed-seed runs through
//! `SimEnv` are byte-identical to the pre-refactor engine, which the
//! replay goldens in `rdt-sim` pin.

use crate::clock::{Clock, VirtualClock};
use crate::queue::BucketQueue;
use crate::rng::DetRng;

/// Deterministic simulated runtime: schedule events, pop them in
/// `(at, seq)` order, advance virtual time as they are consumed.
///
/// Events enter one of two lanes, both stamped from one `seq` counter:
///
/// * [`schedule`](Self::schedule) — dynamic events (deliveries, control
///   rounds) in the bucket queue, which [`cancel`](Self::cancel) filters;
/// * [`script`](Self::script) — events known in advance (the application
///   op stream) in the queue's script lane, which `cancel` never visits:
///   a crash loses in-transit messages, never the application's future
///   ops.
///
/// [`pop`](Self::pop) merges the lanes in exact `(at, seq)` order, so
/// moving an event from `schedule` to `script` changes nothing but the
/// cost of `cancel`.
#[derive(Debug)]
pub struct SimEnv<T> {
    clock: VirtualClock,
    seq: u64,
    queue: BucketQueue<T>,
    rng: DetRng,
}

impl<T> SimEnv<T> {
    /// A fresh environment at tick 0 whose rng stream is determined by
    /// `seed`. Callers that previously mixed a salt into the seed (the
    /// engine XORs `0x5eed_c0de`) pass the mixed value here.
    pub fn new(seed: u64) -> Self {
        Self {
            clock: VirtualClock::new(),
            seq: 0,
            queue: BucketQueue::new(),
            rng: DetRng::seeded(seed),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Enqueues `item` at tick `at`, stamping it with the next sequence
    /// number (total order over equal ticks is push order).
    pub fn schedule(&mut self, at: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, item);
    }

    /// Enqueues `item` on the script lane at tick `at`, stamping it with
    /// the next sequence number exactly as [`schedule`](Self::schedule)
    /// would. Scripted events are never cancelled. Ticks given out of
    /// order, or behind the current time, still pop in `(at, seq)` order
    /// (see [`BucketQueue::script`]); the clock never moves backwards.
    pub fn script(&mut self, at: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.script(at, seq, item);
    }

    /// Dequeues the earliest event, advancing the clock to its tick
    /// (never backwards). Returns `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let (at, seq, item) = self.queue.pop()?;
        self.clock.advance_to(at);
        Some((at, seq, item))
    }

    /// In-place drain of [`schedule`](Self::schedule)d events failing
    /// `keep`; dropped events are handed to `drop_fn` with their tick in
    /// `(at, seq)` order. Scripted events are not visited, so this costs
    /// O(dynamic events pending). This is the crash-session cancel path.
    pub fn cancel(&mut self, keep: impl FnMut(&T) -> bool, drop_fn: impl FnMut(u64, T)) {
        self.queue.retain(keep, drop_fn);
    }

    /// Number of scheduled or scripted, not-yet-popped events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The environment's random stream (use through the
    /// [`Rng`](crate::Rng) trait so draw order stays explicit).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng as _;

    #[test]
    fn events_pop_in_at_seq_order_and_advance_time() {
        let mut env: SimEnv<&str> = SimEnv::new(7);
        env.schedule(5, "b");
        env.schedule(2, "a");
        env.schedule(5, "c");
        assert_eq!(env.pending(), 3);
        assert_eq!(env.pop(), Some((2, 1, "a")));
        assert_eq!(env.now(), 2);
        assert_eq!(env.pop(), Some((5, 0, "b")));
        assert_eq!(env.pop(), Some((5, 2, "c")));
        assert_eq!(env.now(), 5);
        assert_eq!(env.pop(), None);
    }

    #[test]
    fn cancel_reports_drops_in_order() {
        let mut env: SimEnv<u8> = SimEnv::new(1);
        env.schedule(1, 10);
        env.schedule(2, 20);
        env.schedule(3, 10);
        let mut dropped = Vec::new();
        env.cancel(|&v| v != 10, |at, v| dropped.push((at, v)));
        assert_eq!(dropped, vec![(1, 10), (3, 10)]);
        assert_eq!(env.pending(), 1);
    }

    #[test]
    fn scripted_events_interleave_by_key_and_survive_cancel() {
        let mut env: SimEnv<&str> = SimEnv::new(3);
        env.script(0, "op0"); // seq 0
        env.script(10, "op1"); // seq 1
        env.schedule(10, "msg"); // seq 2: same tick, after op1
        env.schedule(4, "early"); // seq 3
        env.cancel(|&v| v != "early", |_, _| {});
        assert_eq!(env.pending(), 3);
        assert_eq!(env.pop(), Some((0, 0, "op0")));
        assert_eq!(env.pop(), Some((10, 1, "op1")));
        assert_eq!(env.pop(), Some((10, 2, "msg")));
        assert_eq!(env.pop(), None);
    }

    /// Pins the crash-cost bound: `cancel` looks at each dynamic event
    /// once and at no scripted event, however many ops are still ahead.
    #[test]
    fn cancel_visits_only_dynamic_events() {
        const SCRIPTED: u64 = 10_000;
        const DYNAMIC: u64 = 37;
        let mut env: SimEnv<u64> = SimEnv::new(5);
        for k in 0..SCRIPTED {
            env.script(k * 10, k);
        }
        for k in 0..DYNAMIC {
            env.schedule(k * 3 + 1, SCRIPTED + k);
        }
        let mut calls = 0u64;
        let mut dropped = 0u64;
        env.cancel(
            |_| {
                calls += 1;
                false
            },
            |_, _| dropped += 1,
        );
        assert_eq!(calls, DYNAMIC);
        assert_eq!(dropped, DYNAMIC);
        assert_eq!(env.pending(), SCRIPTED as usize);
    }

    #[test]
    fn same_seed_same_draws() {
        let mut a: SimEnv<()> = SimEnv::new(42);
        let mut b: SimEnv<()> = SimEnv::new(42);
        for _ in 0..50 {
            assert_eq!(a.rng().chance(0.3), b.rng().chance(0.3));
            assert_eq!(a.rng().between(1, 9), b.rng().between(1, 9));
        }
    }
}
