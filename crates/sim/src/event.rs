//! A stable, deterministic binary-heap event queue — the reference model.
//!
//! [`EventQueue`] is a min-priority queue keyed on [`SimTime`]. Ties are
//! broken by **insertion order** (a monotone sequence number), which is what
//! makes simulations deterministic — two events scheduled for the same
//! instant always fire in the order they were scheduled, regardless of heap
//! internals.
//!
//! No campaign engine runs on it: they all use the timing wheel
//! [`WheelQueue`](crate::WheelQueue). The heap stays because it is obviously
//! correct, so the wheel's property tests (`tests/wheel_props.rs`) and the
//! shard engine's serial reference (`tests/shard_props.rs`) check against it.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A timestamped entry in the queue; ordering is `(time, seq)` ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    key: Key,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic future-event list.
///
/// Events of type `E` are scheduled at absolute [`SimTime`] instants and
/// popped in non-decreasing time order; simultaneous events pop in FIFO
/// (scheduling) order.
///
/// # Examples
///
/// ```
/// use hc_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "b");
/// q.push(SimTime::from_secs(1), "a");
/// q.push(SimTime::from_secs(2), "c"); // same instant as "b", scheduled later
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let key = Key {
            time,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.popped += 1;
        Some((entry.key.time, entry.event))
    }

    /// The firing time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.key.time)
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `horizon`; otherwise leaves the queue untouched.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled.
    #[must_use]
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Total events ever popped.
    #[must_use]
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Discards all pending events (counters are retained).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Drains all events firing at or before `horizon`, in order.
    pub fn drain_through(&mut self, horizon: SimTime) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        while let Some(item) = self.pop_before(horizon) {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for s in [5u64, 1, 4, 2, 3] {
            q.push(t(s), s);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.push(t(7), label);
        }
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn peek_and_pop_before_respect_horizon() {
        let mut q = EventQueue::new();
        q.push(t(10), "late");
        q.push(t(2), "early");
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop_before(t(5)), Some((t(2), "early")));
        assert_eq!(q.pop_before(t(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_through_collects_in_order() {
        let mut q = EventQueue::new();
        for s in [3u64, 1, 2, 9] {
            q.push(t(s), s);
        }
        let drained: Vec<u64> = q.drain_through(t(3)).into_iter().map(|(_, e)| e).collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut q = EventQueue::new();
        q.push(t(1), ());
        q.push(t(2), ());
        assert_eq!(q.scheduled_count(), 2);
        q.pop();
        assert_eq!(q.popped_count(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_count(), 2);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert!(q.drain_through(SimTime::MAX).is_empty());
    }
}
