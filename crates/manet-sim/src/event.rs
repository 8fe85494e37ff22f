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

/// The deliveries of one send that fire at one instant, in the order
/// the send scheduled them. A unicast is a run of one.
pub(crate) type Run<M> = std::vec::IntoIter<(NodeId, M)>;

/// What one queue entry holds.
#[derive(Debug, Clone)]
pub(crate) enum Queued<M> {
    /// Deliver a protocol message from `from` to each recipient of
    /// `run`; every recipient is one logical event.
    Deliver {
        from: NodeId,
        run: Run<M>,
    },
    Event(EventKind),
}

/// One logical event, as the driver dispatches it.
#[derive(Debug)]
pub(crate) enum Due<M> {
    /// Deliver a protocol message to `to`.
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: M,
    },
    Event(EventKind),
}

/// A queue entry with its firing time and a deterministic FIFO tiebreak.
#[derive(Debug, Clone)]
pub(crate) struct Scheduled<M> {
    pub at: SimTime,
    pub seq: u64,
    pub kind: Queued<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Scheduled<M> {
    /// Reversed so that `BinaryHeap` pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(at: u64, seq: u64) -> Scheduled<()> {
        Scheduled {
            at: SimTime::from_micros(at),
            seq,
            kind: Queued::Event(EventKind::Join {
                node: NodeId::new(0),
            }),
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
