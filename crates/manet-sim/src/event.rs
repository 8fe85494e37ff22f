//! What the event queue holds. The heap orders small [`Key`]s — firing
//! time, sequence number, slab slot — and each entry sits still in its
//! slot until it is popped: a timer or lifecycle [`EventKind`], or a
//! [`Run`], the deliveries of one send at one instant with the message
//! stored once. Each kind has a slab of its own, so a timer takes a
//! timer-sized slot. A popped run becomes the run under way and is
//! handed out one recipient per step, each recipient one logical event.

use crate::{NodeId, PerfCounters, SimTime, TimerId};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// What a scheduled event other than a delivery does when it fires.
#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    /// Fire a protocol timer on `node`.
    Timer { node: NodeId, id: TimerId, tag: u64 },
    /// A dormant node becomes alive and the protocol is notified.
    Join { node: NodeId },
    /// A node leaves; graceful leaves let the protocol run its departure
    /// handshake, abrupt leaves kill the node first.
    Leave { node: NodeId, graceful: bool },
    /// Random-waypoint arrival: pick the next destination.
    Waypoint { node: NodeId, epoch: u64 },
    /// Fault plane: kill a node abruptly (no departure handshake).
    Crash { node: NodeId },
    /// Fault plane: a crashed node rejoins as a fresh, unconfigured node.
    Restart { node: NodeId },
    /// Fault plane: kill up to `count` current cluster heads.
    HeadKill { count: u32 },
}

/// The deliveries of one send that fire at one instant: one message and
/// its recipients, in the order the send decided them. Each recipient
/// gets a clone when it is handed out and the last takes `msg` itself.
/// A unicast is a run of one, its recipient held inline.
#[derive(Debug)]
pub(crate) struct Run<M> {
    pub from: NodeId,
    pub msg: M,
    /// The recipient handed out next; `None` once all are.
    pub next: Option<NodeId>,
    /// The recipients after `next`; unallocated for a run of one.
    pub rest: std::vec::IntoIter<NodeId>,
}

impl<M> Run<M> {
    pub fn new(from: NodeId, msg: M, first: NodeId, rest: Vec<NodeId>) -> Self {
        let (next, rest) = (Some(first), rest.into_iter());
        Run {
            from,
            msg,
            next,
            rest,
        }
    }

    /// Hands out the next recipient; `None` once the run is done.
    pub fn advance(&mut self) -> Option<NodeId> {
        let to = self.next.take()?;
        self.next = self.rest.next();
        Some(to)
    }
}

/// What one queue entry holds.
#[derive(Debug)]
pub(crate) enum Queued<M> {
    /// Every recipient of the run is one logical event.
    Run(Run<M>),
    Event(EventKind),
}

/// What [`World::pop_due`](crate::World) took off the queue.
#[derive(Debug)]
pub(crate) enum Due {
    /// A run, now the run under way.
    Run,
    Event(EventKind),
}

/// Where a queued entry sits: the slab of its kind, and the slot there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Event(u32),
    Run(u32),
}

/// The heap's view of a queue entry: its firing time, a deterministic
/// FIFO tiebreak, and the slab slot that holds the entry itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: Slot,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Reversed so that `BinaryHeap` pops the *earliest* event first;
    /// `seq` is unique, so `slot` never decides.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Entries of one kind by slot; the empty slots are listed in `free`
/// and filled before the slab grows.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, entry: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(entry);
            return slot;
        }
        self.slots.push(Some(entry));
        u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 queued entries")
    }

    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a queued slot is full")
    }

    /// `(entries held, slots)`.
    #[cfg(test)]
    fn shape(&self) -> (usize, usize) {
        (self.slots.len() - self.free.len(), self.slots.len())
    }
}

/// The event queue: a heap of [`Key`]s over a slab per entry kind, and
/// the count of logical events it stands for.
#[derive(Debug)]
pub(crate) struct Queue<M> {
    heap: BinaryHeap<Key>,
    seq: u64,
    events: Slab<EventKind>,
    runs: Slab<Run<M>>,
    /// Logical events not yet dispatched: every queued non-delivery
    /// event plus every recipient of every queued run and of the run
    /// under way.
    pending: usize,
}

impl<M> Default for Queue<M> {
    fn default() -> Self {
        Queue {
            heap: BinaryHeap::new(),
            seq: 0,
            events: Slab::default(),
            runs: Slab::default(),
            pending: 0,
        }
    }
}

impl<M> Queue<M> {
    pub fn push_event(&mut self, at: SimTime, kind: EventKind, perf: &mut PerfCounters) {
        let slot = Slot::Event(self.events.insert(kind));
        self.push(at, slot, 1, perf);
    }

    /// Queues `run`, each of its recipients one logical event.
    pub fn push_run(&mut self, at: SimTime, run: Run<M>, perf: &mut PerfCounters) {
        let logical = 1 + run.rest.len();
        let slot = Slot::Run(self.runs.insert(run));
        self.push(at, slot, logical, perf);
    }

    fn push(&mut self, at: SimTime, slot: Slot, logical: usize, perf: &mut PerfCounters) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Key { at, seq, slot });
        self.pending += logical;
        perf.queue_high_water = perf.queue_high_water.max(self.pending as u64);
    }

    /// Takes the earliest entry due by `until` off the queue, with its
    /// firing time.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, Queued<M>)> {
        let head = self.heap.peek_mut()?;
        if head.at > until {
            return None;
        }
        let Key { at, slot, .. } = PeekMut::pop(head);
        let entry = match slot {
            Slot::Event(slot) => Queued::Event(self.events.take(slot)),
            Slot::Run(slot) => Queued::Run(self.runs.take(slot)),
        };
        Some((at, entry))
    }

    /// Counts one logical event dispatched: a popped non-delivery event
    /// or one recipient handed out of a popped run.
    pub fn dispatched(&mut self) {
        self.pending -= 1;
    }

    /// Logical events not yet dispatched.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// `(entries held, slots)` of the event slab, then of the run slab.
    #[cfg(test)]
    pub fn shape(&self) -> [(usize, usize); 2] {
        [self.events.shape(), self.runs.shape()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(at: u64, seq: u64) -> Key {
        Key {
            at: SimTime::from_micros(at),
            seq,
            slot: Slot::Event(0),
        }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(30, 0));
        heap.push(ev(10, 1));
        heap.push(ev(20, 2));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.at.as_micros())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_is_fifo_by_seq() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(10, 5));
        heap.push(ev(10, 3));
        heap.push(ev(10, 4));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![3, 4, 5]);
    }

    #[test]
    fn timer_id_display() {
        assert_eq!(TimerId::from_raw(9).to_string(), "t9");
    }
}
