//! A minimal deterministic discrete-event queue.
//!
//! Events carry an arbitrary payload and fire in nondecreasing time order;
//! ties break in insertion (FIFO) order, which keeps simulations fully
//! deterministic. [`crate::sim`] keeps one per master to interleave worker
//! deaths with that master's serial timeline.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Schedule `payload` at absolute time `time`.
    pub fn schedule(&mut self, time: f64, payload: E) {
        assert!(time.is_finite(), "non-finite event time");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest event, advancing the queue clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| {
            self.now = self.now.max(e.time);
            (e.time, e.payload)
        })
    }

    /// Pop every event scheduled at or before `t` (in order).
    pub fn pop_until(&mut self, t: f64) -> Vec<(f64, E)> {
        let mut out = Vec::new();
        while self.peek_time().is_some_and(|pt| pt <= t) {
            out.push(self.pop().unwrap());
        }
        out
    }

    /// Time of the most recently popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// No pending events?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_until_respects_bound() {
        let mut q = EventQueue::new();
        for t in [0.5, 1.5, 2.5, 3.5] {
            q.schedule(t, t);
        }
        let early = q.pop_until(2.0);
        assert_eq!(early.len(), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2.5));
    }

    #[test]
    fn clock_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }
}
