//! The canonical-line rendering of an [`EventLog`]'s protocol-I/O
//! records: the transcript, its fingerprint and its diff.

use crate::fnv::{fnv1a_extend, FNV1A_INIT};
use crate::io::Input;
use crate::log::{Event, EventLog, Record, Span};
use crate::net::SendError;
use crate::NodeId;
use std::fmt;
use std::fmt::Write as _;

impl EventLog {
    fn io_records(&self) -> impl Iterator<Item = &Record> {
        self.records().filter(|r| r.event.is_io())
    }

    /// The transcript's lines, in order.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.render().lines().map(str::to_owned).collect()
    }

    /// The transcript as one newline-terminated string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in self.io_records() {
            self.write_line(r, &mut out);
            out.push('\n');
        }
        out
    }

    /// FNV-1a fingerprint of [`render`](EventLog::render), formatted
    /// `fnv1a:<16 hex digits>`.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut line = String::new();
        let mut h = FNV1A_INIT;
        for r in self.io_records() {
            line.clear();
            self.write_line(r, &mut line);
            line.push('\n');
            h = fnv1a_extend(h, line.as_bytes());
        }
        format!("fnv1a:{h:016x}")
    }

    /// Compares this transcript (`L`) against another's (`R`); `None`
    /// when byte-identical, otherwise a minimized report: the first
    /// line where they disagree, after up to three common lines of
    /// context. Records are compared by value and rendered only where
    /// they differ, and a difference that renders to one line is none.
    #[must_use]
    pub fn diff(&self, other: &EventLog) -> Option<String> {
        const CONTEXT: usize = 3;
        let (mut ours, mut theirs) = (self.io_records(), other.io_records());
        let (mut left, mut right) = (String::new(), String::new());
        for index in 0.. {
            let (l, r) = (ours.next(), theirs.next());
            match (l, r) {
                (None, None) => break,
                (Some(l), Some(r)) if self.parts(l) == other.parts(r) => continue,
                _ => {}
            }
            for (log, record, line) in [(self, l, &mut left), (other, r, &mut right)] {
                line.clear();
                match record {
                    Some(record) => log.write_line(record, line),
                    None => line.push_str("<end of transcript>"),
                }
            }
            if left == right {
                continue;
            }
            let mut report = format!(
                "transcripts diverge at record {index} (left {} lines, right {} lines)\n",
                self.io_records().count(),
                other.io_records().count()
            );
            let before = index.min(CONTEXT);
            for common in self.io_records().skip(index - before).take(before) {
                report.push_str("    ");
                self.write_line(common, &mut report);
                report.push('\n');
            }
            report += &format!("  L {left}\n  R {right}\n");
            return Some(report);
        }
        None
    }

    /// `r` with its spans blanked, and the payload bytes and node list
    /// they name in this log: what its transcript line is rendered from.
    fn parts(&self, r: &Record) -> (Record, &[u8], &[NodeId]) {
        let mut r = *r;
        let (mut bytes, mut nodes) = (Span::default(), Span::default());
        match &mut r.event {
            Event::Fed {
                input: Input::Message { msg: b, .. },
                ..
            }
            | Event::SendUnicast { bytes: b, .. } => bytes = std::mem::take(b),
            Event::Fed {
                input: Input::LinkChange { neighbors },
                ..
            } => nodes = std::mem::take(neighbors),
            Event::SendFlood {
                bytes: b,
                recipients,
                ..
            } => {
                bytes = std::mem::take(b);
                if let Ok(to) = recipients {
                    nodes = std::mem::take(to);
                }
            }
            _ => {}
        }
        (r, self.payload(bytes), self.node_list(nodes))
    }

    /// Appends the canonical transcript line of a protocol-I/O record.
    fn write_line(&self, r: &Record, line: &mut String) {
        self.fmt_line(r, line)
            .expect("writing to a String cannot fail");
    }

    fn fmt_line(&self, r: &Record, line: &mut String) -> fmt::Result {
        let failed = |line: &mut String, e: SendError| write!(line, " result=err:{e:?}");
        write!(line, "@{} ", r.at.as_micros())?;
        match r.event {
            Event::Fed { node, input } => {
                write!(line, "<{node} ")?;
                match input {
                    Input::Join => line.push_str("join"),
                    Input::Message { from, msg } => {
                        write!(line, "msg from={from} bytes=")?;
                        push_hex(line, self.payload(msg));
                    }
                    Input::TimerFired { tag } => write!(line, "timer tag={tag:#x}")?,
                    Input::LinkChange { neighbors } => {
                        line.push_str("link neighbors=");
                        push_nodes(line, self.node_list(neighbors))?;
                    }
                    Input::Leave { graceful } => write!(line, "leave graceful={graceful}")?,
                }
                Ok(())
            }
            Event::SendUnicast {
                from,
                to,
                category,
                bytes,
                hops,
            } => {
                write!(
                    line,
                    ">send from={from} cast=uni:{to} cat={category} bytes="
                )?;
                push_hex(line, self.payload(bytes));
                match hops {
                    Ok(h) => write!(line, " result=hops:{h}"),
                    Err(e) => failed(line, e),
                }
            }
            Event::SendFlood {
                from,
                k,
                category,
                bytes,
                recipients,
            } => {
                match k {
                    Some(k) => write!(line, ">send from={from} cast=within:{k}")?,
                    None => write!(line, ">send from={from} cast=flood")?,
                }
                write!(line, " cat={category} bytes=")?;
                push_hex(line, self.payload(bytes));
                match recipients {
                    Ok(to) => {
                        line.push_str(" result=recipients:");
                        push_nodes(line, self.node_list(to))
                    }
                    Err(e) => failed(line, e),
                }
            }
            Event::SetTimer {
                node,
                id,
                delay,
                tag,
            } => write!(
                line,
                ">timer+ node={node} id={id} delay={}us tag={tag:#x}",
                delay.as_micros()
            ),
            Event::CancelTimer { id } => write!(line, ">timer- id={id}"),
            Event::FlowEvent { node, kind, stage } => {
                write!(line, ">flow node={node} kind={kind} stage={stage}")
            }
            Event::Configured { node } => write!(line, ">configured node={node}"),
            Event::Removed { node } => write!(line, ">removed node={node}"),
            _ => unreachable!("a net-level record has no transcript line"),
        }
    }
}

fn push_hex(line: &mut String, bytes: &[u8]) {
    if bytes.is_empty() {
        line.push('-');
        return;
    }
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    line.reserve(2 * bytes.len());
    for &b in bytes {
        line.push(DIGITS[usize::from(b >> 4)] as char);
        line.push(DIGITS[usize::from(b & 0xf)] as char);
    }
}

fn push_nodes(line: &mut String, nodes: &[NodeId]) -> fmt::Result {
    line.push('[');
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        write!(line, "{n}")?;
    }
    line.push(']');
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowKind, FlowStage, SimDuration, SimTime, TimerId};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    /// The fixture protocol's two messages.
    #[derive(Debug, Clone, Copy)]
    enum Say {
        Hi,
        Ho,
    }

    crate::wire_codec! { Say { Hi = 0x01, Ho = 0x02 } }

    /// A transcript-only log fed one join per entry of `joins`, to the
    /// node and at the microsecond of that number.
    fn transcript(joins: std::ops::Range<u64>) -> EventLog {
        let mut log = EventLog::default();
        log.enable_io();
        for i in joins {
            log.push_input(t(i), n(i), &Input::<Say>::Join);
        }
        log
    }

    #[test]
    fn canonical_lines_are_stable() {
        let mut log = transcript(10..11);
        let node = n(3);
        log.push_input(
            t(20),
            node,
            &Input::Message {
                from: n(1),
                msg: Say::Hi,
            },
        );
        #[rustfmt::skip]
        let effects = [
            (20, Event::SetTimer { node, id: TimerId::from_raw(7), delay: SimDuration::from_millis(5), tag: 0x2 }),
            (25, Event::FlowEvent { node, kind: FlowKind::Join, stage: FlowStage::Started }),
        ];
        for (at, effect) in effects {
            log.push(t(at), effect);
        }
        let neighbors = vec![n(1), n(4)];
        log.push_input(t(30), node, &Input::<Say>::LinkChange { neighbors });
        assert_eq!(
            log.lines(),
            &[
                "@10 <n10 join",
                "@20 <n3 msg from=n1 bytes=01",
                "@20 >timer+ node=n3 id=t7 delay=5000us tag=0x2",
                "@25 >flow node=n3 kind=join stage=started",
                "@30 <n3 link neighbors=[n1 n4]",
            ]
        );
    }

    #[test]
    fn identical_transcripts_have_no_diff_and_equal_fingerprints() {
        let (a, b) = (transcript(0..3), transcript(0..3));
        assert_eq!(a.diff(&b), None);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            format!("fnv1a:{:016x}", crate::fnv1a(a.render().as_bytes()))
        );
    }

    #[test]
    fn diff_reports_first_divergence_with_context() {
        let (mut a, mut b) = (transcript(0..5), transcript(0..5));
        a.push(t(5), Event::Configured { node: n(0) });
        b.push(t(5), Event::Removed { node: n(0) });
        assert_eq!(
            a.diff(&b).expect("diverges"),
            "transcripts diverge at record 5 (left 6 lines, right 6 lines)\n    \
             @2 <n2 join\n    @3 <n3 join\n    @4 <n4 join\n  \
             L @5 >configured node=n0\n  R @5 >removed node=n0\n"
        );
    }

    /// The report `diff` promises, taken the slow way: every line of
    /// both sides rendered, the first unequal pair reported.
    fn rendered_diff(a: &EventLog, b: &EventLog) -> Option<String> {
        let (l, r) = (a.lines(), b.lines());
        let index = (0..l.len().max(r.len())).find(|&i| l.get(i) != r.get(i))?;
        let end = "<end of transcript>".to_owned();
        let mut report = format!(
            "transcripts diverge at record {index} (left {} lines, right {} lines)\n",
            l.len(),
            r.len()
        );
        for line in &l[index.saturating_sub(3)..index] {
            report += &format!("    {line}\n");
        }
        let (lo, ro) = (l.get(index).unwrap_or(&end), r.get(index).unwrap_or(&end));
        Some(report + &format!("  L {lo}\n  R {ro}\n"))
    }

    /// Four joins, a message, a one-hop flood to `to`, a timer, and
    /// `extra` trailing records; `skew` arena bytes and nodes no record
    /// names come first, so equal spans sit at different offsets.
    fn session(msg: Say, to: &[NodeId], extra: u64, skew: bool) -> EventLog {
        let mut log = transcript(0..4);
        if skew {
            log.intern_msg(&Say::Ho);
            log.intern_nodes([n(9)]);
        }
        log.push_input(t(4), n(1), &Input::Message { from: n(0), msg });
        let bytes = log.intern_msg(&msg).expect("recording");
        let recipients = Ok(log.intern_nodes(to.iter().copied()));
        #[rustfmt::skip]
        log.push(t(4), Event::SendFlood { from: n(1), k: Some(1), category: crate::MsgCategory::Hello, bytes, recipients });
        #[rustfmt::skip]
        log.push(t(4), Event::SetTimer { node: n(1), id: TimerId::from_raw(1), delay: SimDuration::from_millis(5), tag: 1 });
        for i in 0..extra {
            log.push(t(5 + i), Event::Configured { node: n(i) });
        }
        log
    }

    #[test]
    fn diff_reports_what_rendering_every_line_reports() {
        let to = [n(0), n(2), n(3)];
        let base = session(Say::Hi, &to, 0, false);
        let cases = [
            (
                "equal at other arena offsets",
                session(Say::Hi, &to, 0, true),
            ),
            ("one payload byte", session(Say::Ho, &to, 0, true)),
            (
                "one recipient",
                session(Say::Hi, &[n(0), n(2), n(4)], 0, false),
            ),
            ("a trailing record", session(Say::Hi, &to, 1, true)),
            ("trailing records", session(Say::Hi, &to, 5, false)),
        ];
        for (what, other) in cases {
            for (a, b) in [(&base, &other), (&other, &base)] {
                assert_eq!(a.diff(b), rendered_diff(a, b), "{what}");
            }
        }
        assert_eq!(base.diff(&session(Say::Hi, &to, 0, true)), None);
        assert!(base.diff(&session(Say::Ho, &to, 0, false)).is_some());
    }

    #[test]
    fn length_mismatch_diverges_at_shorter_end() {
        assert_eq!(
            transcript(1..2).diff(&transcript(1..3)).expect("diverges"),
            "transcripts diverge at record 1 (left 1 lines, right 2 lines)\n    \
             @1 <n1 join\n  L <end of transcript>\n  R @2 <n2 join\n"
        );
    }
}
