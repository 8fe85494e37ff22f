use crate::fnv::{fnv1a_extend, FNV1A_INIT};
use crate::io::{Cast, Input, Output, SendResult};
use crate::msg::ProtoMsg;
use crate::time::SimTime;
use crate::NodeId;
use std::fmt;
use std::fmt::Write as _;

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

fn push_nodes(line: &mut String, nodes: &[NodeId]) {
    line.push('[');
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        let _ = write!(line, "{n}");
    }
    line.push(']');
}

/// The canonical, wall-clock-free record of one run's protocol I/O.
///
/// Each line is either an input record (`<`, written by the driver as it
/// feeds the core) or an output record (`>`, written by the
/// [`NetBackend`] as the core performs effects), prefixed with virtual
/// time in microseconds.
/// Nothing host- or transport-specific appears in a line — no wall
/// clock, no socket addresses, no thread ids — so two backends running
/// the same scenario produce byte-identical transcripts exactly when
/// they drove the protocol identically.
///
/// # Canonicalization rules
///
/// * Timestamps are virtual microseconds (`@123456`).
/// * Message payloads appear as [`ProtoMsg::canon`] bytes in lowercase
///   hex (`-` when empty). Cores with a wire codec canonicalize to the
///   encoded bytes, so the mesh (recording what it decoded off the
///   socket) and the simulator (recording what it passed in memory)
///   agree only if the codec round-trips.
/// * Node lists (flood recipients, link-change neighborhoods) are
///   recorded in the backend's deterministic order.
/// * Timer ids appear verbatim: both backends allocate them from a
///   single monotonic counter, so id equality is part of the proof.
///
/// [`NetBackend`]: crate::NetBackend
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    lines: Vec<String>,
    /// Scratch for one message's [`ProtoMsg::canon`] bytes, kept so a
    /// record costs no allocation beyond its line.
    canon: Vec<u8>,
}

impl Transcript {
    /// An empty transcript.
    #[must_use]
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Records one input fed to the core.
    pub fn push_input<M: ProtoMsg>(&mut self, now: SimTime, node: NodeId, input: &Input<M>) {
        let mut line = String::with_capacity(48);
        let _ = write!(line, "@{} <{node} ", now.as_micros());
        match input {
            Input::Join => line.push_str("join"),
            Input::Message { from, msg } => {
                let _ = write!(line, "msg from={from} bytes=");
                self.canon.clear();
                msg.canon(&mut self.canon);
                push_hex(&mut line, &self.canon);
            }
            Input::TimerFired { tag } => {
                let _ = write!(line, "timer tag={tag:#x}");
            }
            Input::LinkChange { neighbors } => {
                line.push_str("link neighbors=");
                push_nodes(&mut line, neighbors);
            }
            Input::Leave { graceful } => {
                let _ = write!(line, "leave graceful={graceful}");
            }
        }
        self.lines.push(line);
    }

    /// Records one effect the core performed.
    pub fn push_output(&mut self, now: SimTime, output: &Output) {
        let mut line = String::with_capacity(48);
        let _ = write!(line, "@{} >", now.as_micros());
        match output {
            Output::Send {
                from,
                cast,
                category,
                msg,
                result,
            } => {
                let _ = write!(line, "send from={from} cast=");
                match cast {
                    Cast::Unicast(to) => {
                        let _ = write!(line, "uni:{to}");
                    }
                    Cast::Within(k) => {
                        let _ = write!(line, "within:{k}");
                    }
                    Cast::Flood => line.push_str("flood"),
                }
                let _ = write!(line, " cat={category} bytes=");
                push_hex(&mut line, msg);
                line.push_str(" result=");
                match result {
                    SendResult::Hops(h) => {
                        let _ = write!(line, "hops:{h}");
                    }
                    SendResult::Recipients(nodes) => {
                        line.push_str("recipients:");
                        push_nodes(&mut line, nodes);
                    }
                    SendResult::Failed(e) => {
                        let _ = write!(line, "err:{e:?}");
                    }
                }
            }
            Output::SetTimer {
                node,
                id,
                delay,
                tag,
            } => {
                let _ = write!(
                    line,
                    "timer+ node={node} id={id} delay={}us tag={tag:#x}",
                    delay.as_micros()
                );
            }
            Output::CancelTimer { id } => {
                let _ = write!(line, "timer- id={id}");
            }
            Output::FlowEvent { node, kind, stage } => {
                let _ = write!(line, "flow node={node} kind={kind} stage={stage}");
            }
            Output::Configured { node } => {
                let _ = write!(line, "configured node={node}");
            }
            Output::Removed { node } => {
                let _ = write!(line, "removed node={node}");
            }
        }
        self.lines.push(line);
    }

    /// The recorded lines, in order.
    #[must_use]
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Number of recorded lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The full transcript as one newline-terminated string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// FNV-1a fingerprint of [`render`](Transcript::render), formatted
    /// `fnv1a:<16 hex digits>`.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let h = self.lines.iter().fold(FNV1A_INIT, |h, line| {
            fnv1a_extend(fnv1a_extend(h, line.as_bytes()), b"\n")
        });
        format!("fnv1a:{h:016x}")
    }

    /// Compares against another transcript; `None` when byte-identical,
    /// otherwise a minimized first-divergence report.
    #[must_use]
    pub fn diff(&self, other: &Transcript) -> Option<TranscriptDiff> {
        let n = self.lines.len().min(other.lines.len());
        for i in 0..n {
            if self.lines[i] != other.lines[i] {
                return Some(self.diff_at(other, i));
            }
        }
        if self.lines.len() != other.lines.len() {
            return Some(self.diff_at(other, n));
        }
        None
    }

    fn diff_at(&self, other: &Transcript, index: usize) -> TranscriptDiff {
        const CONTEXT: usize = 3;
        let start = index.saturating_sub(CONTEXT);
        TranscriptDiff {
            index,
            left_len: self.lines.len(),
            right_len: other.lines.len(),
            context: self.lines[start..index].to_vec(),
            left: self.lines.get(index).cloned(),
            right: other.lines.get(index).cloned(),
        }
    }
}

/// A minimized divergence report: the first record where two transcripts
/// disagree, with a little common context before it.
#[derive(Debug, Clone)]
pub struct TranscriptDiff {
    /// Index of the first diverging line.
    pub index: usize,
    /// Total lines in the left transcript.
    pub left_len: usize,
    /// Total lines in the right transcript.
    pub right_len: usize,
    /// Up to three common lines immediately before the divergence.
    pub context: Vec<String>,
    /// The left transcript's line at `index` (`None` = ended early).
    pub left: Option<String>,
    /// The right transcript's line at `index` (`None` = ended early).
    pub right: Option<String>,
}

impl fmt::Display for TranscriptDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "transcripts diverge at record {} (left {} lines, right {} lines)",
            self.index, self.left_len, self.right_len
        )?;
        for line in &self.context {
            writeln!(f, "    {line}")?;
        }
        match &self.left {
            Some(l) => writeln!(f, "  L {l}")?,
            None => writeln!(f, "  L <end of transcript>")?,
        }
        match &self.right {
            Some(r) => writeln!(f, "  R {r}")?,
            None => writeln!(f, "  R <end of transcript>")?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowKind, FlowStage, SimDuration, TimerId};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn canonical_lines_are_stable() {
        let mut tr = Transcript::new();
        tr.push_input(t(10), NodeId::new(3), &Input::<&'static str>::Join);
        tr.push_input(
            t(20),
            NodeId::new(3),
            &Input::Message {
                from: NodeId::new(1),
                msg: "hi",
            },
        );
        tr.push_output(
            t(20),
            &Output::SetTimer {
                node: NodeId::new(3),
                id: TimerId::from_raw(7),
                delay: SimDuration::from_millis(5),
                tag: 0x2,
            },
        );
        tr.push_output(
            t(25),
            &Output::FlowEvent {
                node: NodeId::new(3),
                kind: FlowKind::Join,
                stage: FlowStage::Started,
            },
        );
        assert_eq!(
            tr.lines(),
            &[
                "@10 <n3 join",
                "@20 <n3 msg from=n1 bytes=22686922",
                "@20 >timer+ node=n3 id=t7 delay=5000us tag=0x2",
                "@25 >flow node=n3 kind=join stage=started",
            ]
        );
    }

    #[test]
    fn identical_transcripts_have_no_diff_and_equal_fingerprints() {
        let mut a = Transcript::new();
        let mut b = Transcript::new();
        for tr in [&mut a, &mut b] {
            tr.push_input(t(1), NodeId::new(0), &Input::<&'static str>::Join);
            tr.push_output(
                t(1),
                &Output::Configured {
                    node: NodeId::new(0),
                },
            );
        }
        assert!(a.diff(&b).is_none());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            format!("fnv1a:{:016x}", crate::fnv1a(a.render().as_bytes()))
        );
    }

    #[test]
    fn diff_reports_first_divergence_with_context() {
        let mut a = Transcript::new();
        let mut b = Transcript::new();
        for tr in [&mut a, &mut b] {
            tr.push_input(t(1), NodeId::new(0), &Input::<&'static str>::Join);
            tr.push_input(t(2), NodeId::new(1), &Input::<&'static str>::Join);
        }
        a.push_output(
            t(3),
            &Output::Configured {
                node: NodeId::new(0),
            },
        );
        b.push_output(
            t(3),
            &Output::Removed {
                node: NodeId::new(0),
            },
        );
        let d = a.diff(&b).expect("diverges");
        assert_eq!(d.index, 2);
        assert_eq!(d.context.len(), 2);
        assert!(d.left.as_deref().unwrap().contains("configured"));
        assert!(d.right.as_deref().unwrap().contains("removed"));
        let report = d.to_string();
        assert!(report.contains("diverge at record 2"));
    }

    #[test]
    fn length_mismatch_diverges_at_shorter_end() {
        let mut a = Transcript::new();
        let mut b = Transcript::new();
        a.push_input(t(1), NodeId::new(0), &Input::<&'static str>::Join);
        b.push_input(t(1), NodeId::new(0), &Input::<&'static str>::Join);
        b.push_input(t(2), NodeId::new(1), &Input::<&'static str>::Join);
        let d = a.diff(&b).expect("diverges");
        assert_eq!(d.index, 1);
        assert!(d.left.is_none());
        assert_eq!(d.right.as_deref(), Some("@2 <n1 join"));
    }
}
