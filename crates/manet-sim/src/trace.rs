//! Bounded event tracing for debugging simulations.
//!
//! A [`Trace`] is a ring buffer of the most recent simulation events.
//! It is off by default (zero capacity) so the hot path stays free of
//! allocation; tests and debugging sessions enable it with
//! [`World::enable_trace`](crate::World::enable_trace).

use crate::faults::DropCause;
use crate::observer::{FlowKind, FlowStage};
use crate::{MsgCategory, NodeId, SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One traced simulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A unicast was sent (`hops` = charged path length).
    Unicast {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Traffic category.
        category: MsgCategory,
        /// Charged hops.
        hops: u32,
    },
    /// A bounded or global flood was sent.
    Broadcast {
        /// Originator.
        from: NodeId,
        /// Hop bound (`None` = component-wide flood).
        k: Option<u32>,
        /// Traffic category.
        category: MsgCategory,
        /// Number of recipients.
        recipients: usize,
        /// Charged transmissions.
        charge: u64,
    },
    /// A node joined the network.
    Join {
        /// The node.
        node: NodeId,
    },
    /// A node was removed.
    Remove {
        /// The node.
        node: NodeId,
    },
    /// The fault plane dropped a scheduled delivery.
    FaultDrop {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Traffic category.
        category: MsgCategory,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// The fault plane added extra latency to a delivery.
    FaultDelay {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Injected extra latency.
        by: SimDuration,
    },
    /// The fault plane delivered extra copies of a message.
    FaultDuplicate {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Number of extra copies.
        copies: u32,
    },
    /// A scheduled crash (or head kill) removed a node.
    Crash {
        /// The node that died.
        node: NodeId,
    },
    /// A crashed node restarted as a fresh joiner.
    Restart {
        /// The node that came back.
        node: NodeId,
    },
    /// A flow span: one lifecycle stage of a correlation-ID-stamped
    /// protocol flow (see [`crate::observer`]).
    Flow {
        /// Correlation ID shared by every stage of the flow.
        flow: u64,
        /// What the flow is doing (join, reclaim, merge).
        kind: FlowKind,
        /// The node the flow concerns.
        node: NodeId,
        /// The lifecycle stage reached.
        stage: FlowStage,
    },
}

/// A timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one line of JSON (the JSONL export format).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"at_us\":{}", self.at.as_micros());
        match &self.event {
            TraceEvent::Unicast {
                from,
                to,
                category,
                hops,
            } => {
                let _ = write!(
                    s,
                    ",\"event\":\"unicast\",\"from\":{},\"to\":{},\"category\":\"{category}\",\"hops\":{hops}",
                    from.index(),
                    to.index()
                );
            }
            TraceEvent::Broadcast {
                from,
                k,
                category,
                recipients,
                charge,
            } => {
                let _ = write!(
                    s,
                    ",\"event\":\"broadcast\",\"from\":{},\"category\":\"{category}\",\"recipients\":{recipients},\"charge\":{charge}",
                    from.index()
                );
                if let Some(k) = k {
                    let _ = write!(s, ",\"k\":{k}");
                }
            }
            TraceEvent::Join { node } => {
                let _ = write!(s, ",\"event\":\"join\",\"node\":{}", node.index());
            }
            TraceEvent::Remove { node } => {
                let _ = write!(s, ",\"event\":\"remove\",\"node\":{}", node.index());
            }
            TraceEvent::FaultDrop {
                from,
                to,
                category,
                cause,
            } => {
                let _ = write!(
                    s,
                    ",\"event\":\"fault_drop\",\"from\":{},\"to\":{},\"category\":\"{category}\",\"cause\":\"{cause}\"",
                    from.index(),
                    to.index()
                );
            }
            TraceEvent::FaultDelay { from, to, by } => {
                let _ = write!(
                    s,
                    ",\"event\":\"fault_delay\",\"from\":{},\"to\":{},\"by_us\":{}",
                    from.index(),
                    to.index(),
                    by.as_micros()
                );
            }
            TraceEvent::FaultDuplicate { from, to, copies } => {
                let _ = write!(
                    s,
                    ",\"event\":\"fault_duplicate\",\"from\":{},\"to\":{},\"copies\":{copies}",
                    from.index(),
                    to.index()
                );
            }
            TraceEvent::Crash { node } => {
                let _ = write!(s, ",\"event\":\"crash\",\"node\":{}", node.index());
            }
            TraceEvent::Restart { node } => {
                let _ = write!(s, ",\"event\":\"restart\",\"node\":{}", node.index());
            }
            TraceEvent::Flow {
                flow,
                kind,
                node,
                stage,
            } => {
                let _ = write!(
                    s,
                    ",\"event\":\"flow\",\"flow\":{flow},\"kind\":\"{kind}\",\"node\":{},\"stage\":\"{}\"",
                    node.index(),
                    stage.name()
                );
                match stage {
                    FlowStage::VotesGathered { grants, refusals } => {
                        let _ = write!(s, ",\"grants\":{grants},\"refusals\":{refusals}");
                    }
                    FlowStage::Retry { attempt } => {
                        let _ = write!(s, ",\"attempt\":{attempt}");
                    }
                    _ => {}
                }
            }
        }
        s.push('}');
        s
    }
}

/// A bounded ring buffer of recent [`TraceRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl Trace {
    /// Creates a trace retaining at most `capacity` records (0 disables).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            capacity,
            records: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Returns `true` if tracing is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event (drops the oldest when full).
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { at, event });
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the retained records as JSON Lines — one JSON object per
    /// record, oldest first, suitable for `jq` or log ingestion.
    ///
    /// # Example
    ///
    /// ```
    /// use manet_sim::trace::{Trace, TraceEvent};
    /// use manet_sim::{NodeId, SimTime};
    ///
    /// let mut t = Trace::with_capacity(8);
    /// t.record(SimTime::ZERO, TraceEvent::Join { node: NodeId::new(1) });
    /// assert_eq!(t.to_jsonl(), "{\"at_us\":0,\"event\":\"join\",\"node\":1}\n");
    /// ```
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::Join {
            node: NodeId::new(n),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        assert!(!t.is_enabled());
        t.record(SimTime::ZERO, ev(1));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Trace::with_capacity(3);
        for i in 0..5 {
            t.record(SimTime::from_micros(i), ev(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.records().next().unwrap();
        assert_eq!(first.at, SimTime::from_micros(2));
    }

    #[test]
    fn broadcast_export_carries_k_only_when_bounded() {
        let mut t = Trace::with_capacity(8);
        for k in [None, Some(2)] {
            t.record(
                SimTime::from_micros(2_000_000),
                TraceEvent::Broadcast {
                    from: NodeId::new(1),
                    k,
                    category: MsgCategory::Reclamation,
                    recipients: 9,
                    charge: 10,
                },
            );
        }
        let flood = "{\"at_us\":2000000,\"event\":\"broadcast\",\"from\":1,\"category\":\"reclamation\",\"recipients\":9,\"charge\":10";
        assert_eq!(t.to_jsonl(), format!("{flood}}}\n{flood},\"k\":2}}\n"));
    }

    #[test]
    fn fault_events_export() {
        let mut t = Trace::with_capacity(8);
        t.record(
            SimTime::from_micros(1),
            TraceEvent::FaultDrop {
                from: NodeId::new(1),
                to: NodeId::new(2),
                category: MsgCategory::Configuration,
                cause: DropCause::Jam,
            },
        );
        t.record(
            SimTime::from_micros(2),
            TraceEvent::Crash {
                node: NodeId::new(3),
            },
        );
        t.record(
            SimTime::from_micros(3),
            TraceEvent::Restart {
                node: NodeId::new(3),
            },
        );
        assert_eq!(
            t.to_jsonl(),
            "{\"at_us\":1,\"event\":\"fault_drop\",\"from\":1,\"to\":2,\"category\":\"configuration\",\"cause\":\"jam\"}\n\
             {\"at_us\":2,\"event\":\"crash\",\"node\":3}\n\
             {\"at_us\":3,\"event\":\"restart\",\"node\":3}\n"
        );
    }

    #[test]
    fn flow_events_export() {
        let mut t = Trace::with_capacity(8);
        t.record(
            SimTime::from_micros(9),
            TraceEvent::Flow {
                flow: 7,
                kind: FlowKind::Join,
                node: NodeId::new(3),
                stage: FlowStage::VotesGathered {
                    grants: 2,
                    refusals: 1,
                },
            },
        );
        t.record(
            SimTime::from_micros(11),
            TraceEvent::Flow {
                flow: 7,
                kind: FlowKind::Join,
                node: NodeId::new(3),
                stage: FlowStage::Assigned,
            },
        );
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"at_us\":9,\"event\":\"flow\",\"flow\":7,\"kind\":\"join\",\"node\":3,\"stage\":\"votes_gathered\",\"grants\":2,\"refusals\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"at_us\":11,\"event\":\"flow\",\"flow\":7,\"kind\":\"join\",\"node\":3,\"stage\":\"assigned\"}"
        );
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let mut t = Trace::with_capacity(8);
        t.record(
            SimTime::from_micros(5),
            TraceEvent::Unicast {
                from: NodeId::new(1),
                to: NodeId::new(2),
                category: MsgCategory::Configuration,
                hops: 3,
            },
        );
        t.record(
            SimTime::from_micros(7),
            TraceEvent::FaultDelay {
                from: NodeId::new(1),
                to: NodeId::new(2),
                by: crate::SimDuration::from_millis(4),
            },
        );
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"at_us\":5,\"event\":\"unicast\",\"from\":1,\"to\":2,\"category\":\"configuration\",\"hops\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"at_us\":7,\"event\":\"fault_delay\",\"from\":1,\"to\":2,\"by_us\":4000}"
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
