//! Flow spans: correlation-ID-stamped protocol lifecycle records.
//!
//! A *flow* is one protocol-level undertaking — a node's attempt to
//! acquire an address, the reclamation of a vanished head's space, a
//! partition-merge reconfiguration. Protocols report lifecycle stages
//! through [`World::flow_event`](crate::World::flow_event); the
//! [`Observer`] stamps each `(kind, node)` pair with a stable
//! correlation ID so the event log's JSONL export can be
//! grouped into per-flow timelines (`jq 'select(.flow == 7)'`), and
//! tallies outcomes for run manifests.
//!
//! Like the [`EventLog`](crate::EventLog), the observer
//! is off by default: every `flow_event` call is a single branch on a
//! `bool` until [`World::enable_observer`](crate::World::enable_observer)
//! turns it on, so the hot path costs nothing in ordinary figure runs.

use crate::NodeId;
use proto_io::IdMap;

pub use proto_io::{FlowKind, FlowStage};

/// Outcome tallies for one [`FlowKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTally {
    /// Flows opened.
    pub started: u64,
    /// Flows closed with `Assigned`.
    pub assigned: u64,
    /// Flows closed with `Abandoned`.
    pub abandoned: u64,
    /// Flows closed with `Finalized`.
    pub finalized: u64,
    /// Retry stages recorded across all flows of this kind.
    pub retries: u64,
}

impl FlowTally {
    /// Flows opened but not yet closed.
    #[must_use]
    pub fn open(&self) -> u64 {
        self.started
            .saturating_sub(self.assigned + self.abandoned + self.finalized)
    }

    /// Merges another tally into this one (for aggregating independent
    /// replications or sweep shards). Destructures so a newly added
    /// counter cannot be silently dropped.
    pub fn merge(&mut self, other: &FlowTally) {
        let FlowTally {
            started,
            assigned,
            abandoned,
            finalized,
            retries,
        } = other;
        self.started += started;
        self.assigned += assigned;
        self.abandoned += abandoned;
        self.finalized += finalized;
        self.retries += retries;
    }
}

/// Correlation-ID registry and outcome tallies for flow spans.
///
/// Disabled by default; see the [module docs](self) for the cost model.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    enabled: bool,
    next_id: u64,
    open: IdMap<(FlowKind, NodeId), u64>,
    tallies: [FlowTally; 5],
}

impl Observer {
    /// Creates an enabled observer ([`Observer::default`] is disabled).
    #[must_use]
    pub fn enabled() -> Self {
        Observer {
            enabled: true,
            next_id: 0,
            open: IdMap::default(),
            tallies: [FlowTally::default(); 5],
        }
    }

    /// Returns `true` if flow events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Outcome tallies for one flow kind.
    #[must_use]
    pub fn tally(&self, kind: FlowKind) -> &FlowTally {
        &self.tallies[kind.index()]
    }

    /// Flows currently open across all kinds.
    #[must_use]
    pub fn open_flows(&self) -> usize {
        self.open.len()
    }

    /// Registers a stage for `(kind, node)` and returns the flow's
    /// correlation ID, or `None` when the event must not be recorded:
    /// the observer is disabled, or a non-`Started` stage arrived with
    /// no open flow (a stale completion — e.g. a reconfiguration that
    /// never opened a merge flow).
    ///
    /// `Started` opens a flow (re-using the ID if one is already open,
    /// so a restarted join keeps its timeline); terminal stages retire
    /// the ID and bump the outcome tally.
    pub(crate) fn observe(
        &mut self,
        kind: FlowKind,
        node: NodeId,
        stage: FlowStage,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let key = (kind, node);
        let id = match self.open.get(&key) {
            Some(&id) => id,
            None => {
                if !matches!(stage, FlowStage::Started) {
                    return None;
                }
                self.next_id += 1;
                let id = self.next_id;
                self.open.insert(key, id);
                self.tallies[kind.index()].started += 1;
                id
            }
        };
        let tally = &mut self.tallies[kind.index()];
        match stage {
            FlowStage::Retry { .. } => tally.retries += 1,
            FlowStage::Assigned => tally.assigned += 1,
            FlowStage::Abandoned => tally.abandoned += 1,
            FlowStage::Finalized => tally.finalized += 1,
            // `FlowStage` is non-exhaustive now that it lives in
            // proto-io; unknown future stages tally nothing.
            _ => {}
        }
        if stage.is_terminal() {
            self.open.remove(&key);
        }
        Some(id)
    }
}

/// Iterates all flow kinds (for manifest rendering).
#[must_use]
pub fn all_kinds() -> [FlowKind; 5] {
    FlowKind::ALL
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let mut o = Observer::default();
        assert!(!o.is_enabled());
        assert_eq!(o.observe(FlowKind::Join, n(1), FlowStage::Started), None);
        assert_eq!(o.tally(FlowKind::Join).started, 0);
        assert_eq!(o.open_flows(), 0);
    }

    #[test]
    fn flow_lifecycle_keeps_one_id() {
        let mut o = Observer::enabled();
        let id = o.observe(FlowKind::Join, n(3), FlowStage::Started).unwrap();
        let again = o
            .observe(FlowKind::Join, n(3), FlowStage::Retry { attempt: 1 })
            .unwrap();
        assert_eq!(id, again);
        let done = o
            .observe(FlowKind::Join, n(3), FlowStage::Assigned)
            .unwrap();
        assert_eq!(id, done);
        let t = o.tally(FlowKind::Join);
        assert_eq!((t.started, t.assigned, t.retries), (1, 1, 1));
        assert_eq!(t.open(), 0);
        // The flow is closed: a second Started opens a fresh ID.
        let fresh = o.observe(FlowKind::Join, n(3), FlowStage::Started).unwrap();
        assert_ne!(id, fresh);
    }

    #[test]
    fn stale_completion_without_open_flow_is_dropped() {
        let mut o = Observer::enabled();
        assert_eq!(o.observe(FlowKind::Merge, n(2), FlowStage::Finalized), None);
        assert_eq!(o.tally(FlowKind::Merge).finalized, 0);
    }

    #[test]
    fn kinds_are_tallied_independently() {
        let mut o = Observer::enabled();
        o.observe(FlowKind::Join, n(1), FlowStage::Started);
        o.observe(FlowKind::Reclaim, n(1), FlowStage::Started);
        o.observe(FlowKind::Reclaim, n(1), FlowStage::Finalized);
        assert_eq!(o.tally(FlowKind::Join).open(), 1);
        assert_eq!(o.tally(FlowKind::Reclaim).finalized, 1);
        assert_eq!(o.open_flows(), 1);
    }

    #[test]
    fn restarted_open_flow_reuses_id() {
        let mut o = Observer::enabled();
        let a = o
            .observe(FlowKind::Merge, n(7), FlowStage::Started)
            .unwrap();
        let b = o
            .observe(FlowKind::Merge, n(7), FlowStage::Started)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(o.tally(FlowKind::Merge).started, 1);
    }
}
