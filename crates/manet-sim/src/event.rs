//! What the event queue holds. The heap orders small [`Key`]s — firing
//! time, sequence number, slab slot — and each entry sits still in its
//! slot until it is popped: a timer or lifecycle [`EventKind`], or a
//! [`Run`], the deliveries of one send at one instant with the message
//! stored once. A popped run becomes the run under way and is handed
//! out one recipient per step, each recipient one logical event.

use crate::{NodeId, SimTime, TimerId};
use std::cmp::Ordering;

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

/// The heap's view of a queue entry: its firing time, a deterministic
/// FIFO tiebreak, and the slab slot that holds the entry itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    pub at: SimTime,
    pub seq: u64,
    pub slot: u32,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(at: u64, seq: u64) -> Key {
        Key {
            at: SimTime::from_micros(at),
            seq,
            slot: 0,
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
