//! Deterministic discrete-event queue.
//!
//! The datacenter-scale cluster simulation (see `vfc-cluster`) is
//! event-driven: VM arrivals and departures, and one tick per period
//! while anything is there to simulate, are *events* ordered by
//! timestamp. This module provides the core primitive: a binary-heap
//! priority queue of `(timestamp, seqno)`-ordered events.
//!
//! # Determinism contract
//!
//! * Events drain in nondecreasing timestamp order.
//! * Events scheduled for the **same** timestamp drain in FIFO order
//!   (the monotonically increasing sequence number breaks the tie), so a
//!   simulation that schedules the same events in the same order replays
//!   bit-identically — there is no dependence on heap internals, hash
//!   iteration order or wall-clock time.
//!
//! Timestamps are plain `u64`s; the caller picks the unit (the cluster
//! simulation packs `period × PHASES + phase` into one integer so that
//! intra-period ordering — departures before admissions before the
//! period's tick — is part of the timestamp itself).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queued at a timestamp with its FIFO tie-break number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Firing time (caller-defined unit).
    pub time: u64,
    /// Monotonic sequence number assigned at [`EventQueue::schedule`]
    /// time; same-timestamp events fire in sequence order (FIFO).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Inverted ordering on `(time, seq)` so `BinaryHeap` (a max-heap) pops
/// the *earliest* event first. Only the key participates in the order —
/// the payload needs no `Ord`.
struct HeapEntry<E>(Scheduled<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller (time, seq) = greater heap priority.
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// A deterministic timestamp-ordered event queue. See module docs.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    /// Timestamp of the last popped event (0 before the first pop);
    /// scheduling strictly in the past is a logic error.
    now: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Timestamp of the most recently popped event (0 initially). The
    /// simulation clock only moves when events are popped.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedule `event` at `time`, returning its sequence number.
    ///
    /// # Panics
    /// Panics if `time` lies strictly before the last popped timestamp —
    /// the past already happened and replaying it would silently corrupt
    /// determinism. Scheduling *at* the current timestamp is allowed (the
    /// event fires later in the same instant, after everything already
    /// queued there).
    pub fn schedule(&mut self, time: u64, event: E) -> u64 {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={time} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Scheduled { time, seq, event }));
        seq
    }

    /// Earliest queued timestamp, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Remove and return the earliest event (FIFO among equal
    /// timestamps), advancing [`EventQueue::now`] to its time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.0.time >= self.now, "heap yielded a past event");
        self.now = entry.0.time;
        Some(entry.0)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(7, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(1, 1u32);
        q.schedule(5, 5);
        assert_eq!(q.pop().unwrap().event, 1);
        // Scheduling at the current instant is allowed and fires after
        // everything already queued there.
        q.schedule(1, 10);
        q.schedule(3, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec![10, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(9, ());
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(42, ());
        q.pop();
        assert_eq!(q.now(), 42);
        assert_eq!(q.peek_time(), None);
    }
}
