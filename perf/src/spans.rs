//! In-memory spans for the traced pass.
//!
//! The benchmark touches no file of the program, so every span is
//! recorded from outside, around a call into a public function. The tree
//! is workload → unit → {handler busy by input kind, checker busy, mesh
//! leg, sim leg}. A storm rep is millions of handler calls, so handler
//! and checker time is *aggregated* per unit and kind: one span whose
//! length is the summed busy time and whose `count` is the number of
//! calls. A layer's self time is its span minus what its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `unit`, `handler.timer`, `checker`.
    pub name: String,
    /// The span that caused this one (`None` for the workload root).
    pub parent: Option<SpanId>,
    /// Unit the span belongs to; spans of one unit share it.
    pub unit: u32,
    /// Start, nanoseconds since the log was opened.
    pub start_ns: u64,
    /// End, nanoseconds since the log was opened.
    pub end_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub count: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store: append-only, kept in memory, rendered at exit.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log was opened.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, unit: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            unit,
            start_ns: now,
            end_ns: now,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `count` calls that were busy for `busy_ns` in total under
    /// `parent`, as one span starting where the parent starts. Nothing
    /// is recorded for zero calls.
    pub fn aggregate(&mut self, name: &str, parent: SpanId, busy_ns: u64, count: u64) {
        if count == 0 {
            return;
        }
        let (start_ns, unit) = (self.spans[parent].start_ns, self.spans[parent].unit);
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            unit,
            start_ns,
            end_ns: start_ns + busy_ns,
            count,
        });
    }

    /// All spans in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time and call count per span name. A span's self time
    /// is its length minus its direct children's, saturating at zero
    /// (aggregated children are summed clock reads and may overshoot a
    /// short parent by a few nanoseconds).
    #[must_use]
    pub fn self_by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(children) {
            let slot = out.entry(s.name.clone()).or_default();
            slot.0 += s.duration_ns().saturating_sub(covered);
            slot.1 += s.count;
        }
        out
    }

    /// Length in seconds summed over every span called `name`.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Renders every span as one JSON array (the `--spans FILE` dump).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns, s.count
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a log with fixed clock values so the arithmetic is exact.
    fn fixed(spans: &[(&str, Option<SpanId>, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::default();
        for &(name, parent, start_ns, end_ns) in spans {
            log.spans.push(Span {
                name: name.to_string(),
                parent,
                unit: 0,
                start_ns,
                end_ns,
                count: 1,
            });
        }
        log
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let log = fixed(&[
            ("workload", None, 0, 1000),
            ("unit", Some(0), 10, 400),
            ("unit", Some(0), 400, 990),
            ("handler.timer", Some(1), 10, 110),
            ("handler.msg", Some(1), 10, 210),
            ("checker", Some(2), 400, 900),
        ]);
        let by_name = log.self_by_name();
        assert_eq!(by_name["workload"], (1000 - 390 - 590, 1));
        assert_eq!(by_name["unit"], ((390 - 100 - 200) + (590 - 500), 2));
        assert_eq!(by_name["checker"], (500, 1));
        // Self times partition the root exactly.
        let total: u64 = by_name.values().map(|(ns, _)| ns).sum();
        assert_eq!(total, 1000);
        assert!((log.total_s("unit") - 980e-9).abs() < 1e-15);
    }

    #[test]
    fn aggregate_folds_calls_and_skips_empty_kinds() {
        let mut log = fixed(&[("unit", None, 100, 1100)]);
        log.aggregate("handler.timer", 0, 600, 42);
        log.aggregate("handler.join", 0, 0, 0);
        assert_eq!(log.spans().len(), 2);
        let agg = &log.spans()[1];
        assert_eq!((agg.start_ns, agg.end_ns, agg.count), (100, 700, 42));
        assert_eq!(log.self_by_name()["unit"], (400, 1));
    }

    #[test]
    fn overshooting_children_saturate_instead_of_wrapping() {
        let mut log = fixed(&[("unit", None, 0, 100)]);
        log.aggregate("checker", 0, 130, 3);
        assert_eq!(log.self_by_name()["unit"], (0, 1));
    }

    #[test]
    fn json_lists_every_span_with_parent_and_unit() {
        let mut log = SpanLog::default();
        let root = log.open("workload", None, 0);
        let unit = log.open("unit", Some(root), 7);
        log.close(unit);
        log.close(root);
        let v = harness::Value::parse(&log.to_json()).expect("valid JSON");
        let items = v.as_array().expect("array");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("parent"), Some(&harness::Value::Null));
        assert_eq!(
            items[1].get("parent").and_then(harness::Value::as_u64),
            Some(0)
        );
        assert_eq!(
            items[1].get("unit").and_then(harness::Value::as_u64),
            Some(7)
        );
    }
}
