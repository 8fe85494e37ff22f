//! The JSONL rendering of an [`EventLog`]'s net-level records.

use crate::flow::FlowStage;
use crate::log::{Event, EventLog, Record};
use crate::NodeId;
use std::fmt;
use std::fmt::Write as _;

impl EventLog {
    /// Exports the retained net-level records as JSON Lines — one JSON
    /// object per record, oldest first, suitable for `jq` or log
    /// ingestion.
    ///
    /// # Example
    ///
    /// ```
    /// use proto_io::{Event, EventLog, NodeId, SimTime};
    ///
    /// let mut log = EventLog::default();
    /// log.enable_net(8);
    /// log.push(SimTime::ZERO, Event::Join { node: NodeId::new(1) });
    /// assert_eq!(log.to_jsonl(), "{\"at_us\":0,\"event\":\"join\",\"node\":1}\n");
    /// ```
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records().filter(|r| !r.event.is_io()) {
            write_json(r, &mut out).expect("writing to a String cannot fail");
            out.push('\n');
        }
        out
    }
}

/// Appends a net-level record as one JSON object (no newline).
fn write_json(r: &Record, s: &mut String) -> fmt::Result {
    let id = NodeId::index;
    write!(s, "{{\"at_us\":{},\"event\":", r.at.as_micros())?;
    match r.event {
        Event::Unicast {
            from,
            to,
            category,
            hops,
        } => write!(
            s,
            "\"unicast\",\"from\":{},\"to\":{},\"category\":\"{category}\",\"hops\":{hops}",
            id(from),
            id(to)
        )?,
        Event::Broadcast {
            from,
            k,
            category,
            recipients,
            charge,
        } => {
            write!(
                s,
                "\"broadcast\",\"from\":{},\"category\":\"{category}\",\"recipients\":{recipients},\"charge\":{charge}",
                id(from)
            )?;
            if let Some(k) = k {
                write!(s, ",\"k\":{k}")?;
            }
        }
        Event::Join { node } => write!(s, "\"join\",\"node\":{}", id(node))?,
        Event::Remove { node } => write!(s, "\"remove\",\"node\":{}", id(node))?,
        Event::FaultDrop {
            from,
            to,
            category,
            cause,
        } => write!(
            s,
            "\"fault_drop\",\"from\":{},\"to\":{},\"category\":\"{category}\",\"cause\":\"{cause}\"",
            id(from),
            id(to)
        )?,
        Event::FaultDelay { from, to, by } => write!(
            s,
            "\"fault_delay\",\"from\":{},\"to\":{},\"by_us\":{}",
            id(from),
            id(to),
            by.as_micros()
        )?,
        Event::FaultDuplicate { from, to, copies } => write!(
            s,
            "\"fault_duplicate\",\"from\":{},\"to\":{},\"copies\":{copies}",
            id(from),
            id(to)
        )?,
        Event::Crash { node } => write!(s, "\"crash\",\"node\":{}", id(node))?,
        Event::Restart { node } => write!(s, "\"restart\",\"node\":{}", id(node))?,
        Event::Flow {
            flow,
            kind,
            node,
            stage,
        } => {
            write!(
                s,
                "\"flow\",\"flow\":{flow},\"kind\":\"{kind}\",\"node\":{},\"stage\":\"{}\"",
                id(node),
                stage.name()
            )?;
            match stage {
                FlowStage::VotesGathered { grants, refusals } => {
                    write!(s, ",\"grants\":{grants},\"refusals\":{refusals}")?;
                }
                FlowStage::Retry { attempt } => write!(s, ",\"attempt\":{attempt}")?,
                _ => {}
            }
        }
        _ => unreachable!("a protocol-I/O record has no JSONL form"),
    }
    s.push('}');
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DropCause, FlowKind, MsgCategory, SimDuration, SimTime};

    const CFG: MsgCategory = MsgCategory::Configuration;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    /// A trace-only log of `capacity` fed `events`, stamped 1, 2, ….
    fn trace<const N: usize>(capacity: usize, events: [Event; N]) -> EventLog {
        let mut log = EventLog::default();
        log.enable_net(capacity);
        for (at, event) in (1..).zip(events) {
            log.push(SimTime::from_micros(at), event);
        }
        log
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let log = trace(0, [Event::Join { node: n(1) }]);
        assert!(!log.is_enabled());
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let log = trace(3, [1, 2, 3, 4, 5].map(|i| Event::Join { node: n(i) }));
        assert_eq!((log.len(), log.dropped()), (3, 2));
        assert_eq!(log.records().next().unwrap().at, SimTime::from_micros(3));
        assert_eq!(
            log.to_jsonl(),
            "{\"at_us\":3,\"event\":\"join\",\"node\":3}\n\
             {\"at_us\":4,\"event\":\"join\",\"node\":4}\n\
             {\"at_us\":5,\"event\":\"join\",\"node\":5}\n"
        );
    }

    #[test]
    fn broadcast_export_carries_k_only_when_bounded() {
        let flood = |k| Event::Broadcast {
            from: n(1),
            k,
            category: MsgCategory::Reclamation,
            recipients: 9,
            charge: 10,
        };
        let body = "\"event\":\"broadcast\",\"from\":1,\"category\":\"reclamation\",\"recipients\":9,\"charge\":10";
        assert_eq!(
            trace(8, [flood(None), flood(Some(2))]).to_jsonl(),
            format!("{{\"at_us\":1,{body}}}\n{{\"at_us\":2,{body},\"k\":2}}\n")
        );
    }

    #[test]
    fn fault_events_export() {
        let (from, to) = (n(1), n(2));
        #[rustfmt::skip]
        let log = trace(8, [
            Event::FaultDrop { from, to, category: CFG, cause: DropCause::Jam },
            Event::FaultDuplicate { from, to, copies: 2 },
            Event::Crash { node: n(3) },
            Event::Remove { node: n(3) },
            Event::Restart { node: n(3) },
        ]);
        assert_eq!(
            log.to_jsonl(),
            "{\"at_us\":1,\"event\":\"fault_drop\",\"from\":1,\"to\":2,\"category\":\"configuration\",\"cause\":\"jam\"}\n\
             {\"at_us\":2,\"event\":\"fault_duplicate\",\"from\":1,\"to\":2,\"copies\":2}\n\
             {\"at_us\":3,\"event\":\"crash\",\"node\":3}\n\
             {\"at_us\":4,\"event\":\"remove\",\"node\":3}\n\
             {\"at_us\":5,\"event\":\"restart\",\"node\":3}\n"
        );
    }

    #[test]
    fn flow_events_export() {
        #[rustfmt::skip]
        let stages = [
            FlowStage::VotesGathered { grants: 2, refusals: 1 },
            FlowStage::Retry { attempt: 1 },
            FlowStage::Assigned,
        ];
        let log = trace(
            8,
            stages.map(|stage| Event::Flow {
                flow: 7,
                kind: FlowKind::Join,
                node: n(3),
                stage,
            }),
        );
        let flow = "\"event\":\"flow\",\"flow\":7,\"kind\":\"join\",\"node\":3";
        assert_eq!(
            log.to_jsonl(),
            format!(
                "{{\"at_us\":1,{flow},\"stage\":\"votes_gathered\",\"grants\":2,\"refusals\":1}}\n\
                 {{\"at_us\":2,{flow},\"stage\":\"retry\",\"attempt\":1}}\n\
                 {{\"at_us\":3,{flow},\"stage\":\"assigned\"}}\n"
            )
        );
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let (from, to) = (n(1), n(2));
        #[rustfmt::skip]
        let log = trace(8, [
            Event::Unicast { from, to, category: CFG, hops: 3 },
            Event::FaultDelay { from, to, by: SimDuration::from_millis(4) },
        ]);
        assert_eq!(
            log.to_jsonl(),
            "{\"at_us\":1,\"event\":\"unicast\",\"from\":1,\"to\":2,\"category\":\"configuration\",\"hops\":3}\n\
             {\"at_us\":2,\"event\":\"fault_delay\",\"from\":1,\"to\":2,\"by_us\":4000}\n"
        );
    }
}
