//! Per-shard slice of the simulated environment: a virtual clock over a
//! bucket queue, **without** a generator.
//!
//! The sharded engine pre-plans every random draw in a sequential planning
//! pass (so draw order cannot depend on shard interleaving), which leaves
//! a shard worker with exactly two needs: hold its processes' events in
//! `(at, seq)` order, and advance a local clock as it consumes them.
//! The planned local events, already in key order, go into the queue's
//! script lane via [`script`](ShardEnv::script). Cross-shard deliveries
//! arrive between windows via [`insert`](BucketQueue::insert) — out of
//! global sequence order, which is why this bundle is not just a `SimEnv`
//! with the rng ignored.

use crate::clock::{Clock, VirtualClock};
use crate::queue::BucketQueue;

/// Event queue + clock for one shard of a partitioned simulation.
///
/// All events carry the *global* `(at, seq)` keys assigned by the planning
/// pass; a worker drains the ones it owns, strictly below each lookahead
/// bound, through [`pop_before`](Self::pop_before). Planned local events
/// sit in the script lane ([`script`](Self::script)), cross-shard
/// deliveries in the buckets ([`insert`](Self::insert)); `pop_before`
/// merges the two in exact `(at, seq)` order. A shard never cancels
/// events: the planning pass has already removed what crashes cancel.
#[derive(Debug, Default)]
pub struct ShardEnv<T> {
    clock: VirtualClock,
    queue: BucketQueue<T>,
}

impl<T> ShardEnv<T> {
    /// An empty shard environment at tick 0.
    pub fn new() -> Self {
        Self {
            clock: VirtualClock::new(),
            queue: BucketQueue::new(),
        }
    }

    /// The shard-local virtual time: the tick of the last popped event.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a planned event on the script lane under its global key.
    /// Keys given in `(at, seq)` order append in O(1); see
    /// [`BucketQueue::script`] for any other order.
    pub fn script(&mut self, at: u64, seq: u64, item: T) {
        self.queue.script(at, seq, item);
    }

    /// Enqueues `item` under its pre-assigned global key.
    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        self.queue.insert(at, seq, item);
    }

    /// Pops the earliest event strictly below `bound` and advances the
    /// clock to it; `None` once the window is drained.
    pub fn pop_before(&mut self, bound: (u64, u64)) -> Option<(u64, u64, T)> {
        let (at, seq, item) = self.queue.pop_before(bound)?;
        self.clock.advance_to(at);
        Some((at, seq, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_follows_popped_events_within_windows() {
        let mut env: ShardEnv<&str> = ShardEnv::new();
        env.insert(5, 2, "a");
        env.insert(9, 1, "b");
        assert_eq!(env.now(), 0);
        assert_eq!(env.pop_before((9, 1)), Some((5, 2, "a")));
        assert_eq!(env.now(), 5);
        assert_eq!(env.pop_before((9, 1)), None);
        assert_eq!(env.now(), 5, "an empty window leaves the clock alone");
        assert_eq!(env.pop_before((u64::MAX, u64::MAX)), Some((9, 1, "b")));
        assert_eq!(env.now(), 9);
        assert!(env.is_empty());
    }

    #[test]
    fn scripted_and_inserted_events_merge_by_global_key() {
        let mut env: ShardEnv<&str> = ShardEnv::new();
        env.script(2, 4, "local-a");
        env.script(6, 8, "local-b");
        // A cross-shard delivery with a smaller global seq at the same
        // tick as a planned local event pops first.
        env.insert(6, 5, "remote");
        assert_eq!(env.len(), 3);
        assert_eq!(env.pop_before((6, 8)), Some((2, 4, "local-a")));
        assert_eq!(env.pop_before((6, 8)), Some((6, 5, "remote")));
        assert_eq!(env.pop_before((6, 8)), None, "the bound excludes (6, 8)");
        assert_eq!(
            env.pop_before((u64::MAX, u64::MAX)),
            Some((6, 8, "local-b"))
        );
        assert!(env.is_empty());
    }
}
