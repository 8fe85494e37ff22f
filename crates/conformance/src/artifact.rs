//! Replayable failing-schedule artifacts.
//!
//! An artifact is a small plain-text file that pins everything needed
//! to reproduce one invariant violation byte-for-byte: the protocol
//! name, the node count, the world seed, the (shrunk) fault plan in
//! canonical [`FaultPlan::to_text`] form, and the violation the run is
//! expected to end in. `repro replay <file>` re-runs the
//! schedule and fails unless the regenerated artifact is identical.

use crate::checker::Invariant;
use manet_sim::faults::FaultPlan;
use manet_sim::MobilityConfig;
use std::fmt;

/// Artifact header line; bump the trailing version on format changes.
pub const HEADER: &str = "# qbac conformance failing-schedule artifact v1";

/// A self-contained, replayable description of one conformance failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Registry name of the checked protocol.
    pub protocol: String,
    /// Nodes spawned by the workload.
    pub nodes: usize,
    /// World seed.
    pub seed: u64,
    /// Node speed in m/s (`0.0` — the canonical static workload — is
    /// omitted from the text form, so pre-mobility artifacts replay
    /// byte-identically).
    pub speed: f64,
    /// Mobility model (the default is likewise omitted from the text
    /// form, and irrelevant at speed 0).
    pub mobility: MobilityConfig,
    /// The invariant that broke.
    pub invariant: Invariant,
    /// Simulator event count at which the violation was observed.
    pub step: u64,
    /// Human-readable single-line description of the violation.
    pub detail: String,
    /// The minimized fault plan.
    pub plan: FaultPlan,
}

impl Artifact {
    /// Canonical text form — what gets written to disk and compared
    /// byte-for-byte on replay.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(HEADER);
        s.push('\n');
        s.push_str(&format!("protocol: {}\n", self.protocol));
        s.push_str(&format!("nodes: {}\n", self.nodes));
        s.push_str(&format!("seed: {}\n", self.seed));
        if self.speed != 0.0 {
            s.push_str(&format!("speed: {}\n", self.speed));
        }
        if self.mobility != MobilityConfig::default() {
            s.push_str(&format!("mobility: {}\n", self.mobility));
        }
        s.push_str(&format!("invariant: {}\n", self.invariant));
        s.push_str(&format!("step: {}\n", self.step));
        s.push_str(&format!("detail: {}\n", self.detail.replace('\n', " ")));
        s.push_str("plan:\n");
        s.push_str(&self.plan.to_text());
        s
    }

    /// Parses the canonical text form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Artifact, ArtifactError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header.trim() != HEADER {
            return Err(ArtifactError(format!("bad header {header:?}")));
        }

        let mut protocol = None;
        let mut nodes = None;
        let mut seed = None;
        let mut speed = 0.0f64;
        let mut mobility = MobilityConfig::default();
        let mut invariant = None;
        let mut step = None;
        let mut detail = None;
        for line in lines.by_ref() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == "plan:" {
                break;
            }
            let Some((key, value)) = line.split_once(':') else {
                return Err(ArtifactError(format!(
                    "expected `key: value`, got {line:?}"
                )));
            };
            let value = value.trim();
            let bad = |what: &str| ArtifactError(format!("bad {what}: {value:?}"));
            match key.trim() {
                "protocol" => protocol = Some(value.to_string()),
                "nodes" => nodes = Some(value.parse().map_err(|_| bad("node count"))?),
                "seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
                "speed" => {
                    speed = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("speed"))?;
                }
                "mobility" => {
                    mobility = MobilityConfig::parse(value).map_err(|_| bad("mobility"))?;
                }
                "invariant" => {
                    invariant = Some(Invariant::from_name(value).ok_or_else(|| bad("invariant"))?);
                }
                "step" => step = Some(value.parse().map_err(|_| bad("step"))?),
                "detail" => detail = Some(value.to_string()),
                other => return Err(ArtifactError(format!("unknown field {other:?}"))),
            }
        }

        let plan_text: String = lines.map(|l| format!("{l}\n")).collect();
        let plan =
            FaultPlan::parse(&plan_text).map_err(|e| ArtifactError(format!("bad plan: {e}")))?;
        let missing = |what: &str| ArtifactError(format!("missing field `{what}`"));
        Ok(Artifact {
            protocol: protocol.ok_or_else(|| missing("protocol"))?,
            nodes: nodes.ok_or_else(|| missing("nodes"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            speed,
            mobility,
            invariant: invariant.ok_or_else(|| missing("invariant"))?,
            step: step.ok_or_else(|| missing("step"))?,
            detail: detail.ok_or_else(|| missing("detail"))?,
            plan,
        })
    }
}

/// Why an artifact failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError(pub String);

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArtifactError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact {
            protocol: "broken-doublegrant".into(),
            nodes: 10,
            seed: 1,
            speed: 0.0,
            mobility: MobilityConfig::default(),
            invariant: Invariant::AddrUnique,
            step: 42,
            detail: "address 10.0.0.1 held by nodes 2 and 5 in one partition".into(),
            plan: FaultPlan::parse("seed 9\nloss 0.3\nheadkill 1 at 12s\n").unwrap(),
        }
    }

    #[test]
    fn text_round_trips() {
        let a = sample();
        let text = a.to_text();
        let back = Artifact::parse(&text).unwrap();
        assert_eq!(back, a);
        // Fixed point: re-serialization is byte-identical.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn rejects_bad_header_and_fields() {
        assert!(Artifact::parse("nonsense\n").is_err());
        let mangled = sample()
            .to_text()
            .replace("invariant: addr-unique", "invariant: nope");
        assert!(Artifact::parse(&mangled).is_err());
        let truncated = sample().to_text().replace("seed: 1\n", "");
        assert!(Artifact::parse(&truncated).is_err());
    }

    #[test]
    fn default_workload_omits_speed_and_mobility_lines() {
        let text = sample().to_text();
        assert!(
            !text.contains("speed:"),
            "static runs stay pre-mobility: {text}"
        );
        assert!(
            !text.contains("mobility:"),
            "default model is implicit: {text}"
        );
    }

    #[test]
    fn mobile_workload_round_trips() {
        let mut a = sample();
        a.speed = 12.5;
        a.mobility = MobilityConfig::Manhattan { spacing: 100.0 };
        let text = a.to_text();
        assert!(text.contains("speed: 12.5\n"));
        assert!(text.contains("mobility: manhattan:100\n"));
        let back = Artifact::parse(&text).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.to_text(), text);
        let mangled = text.replace("mobility: manhattan:100", "mobility: warp:9");
        assert!(Artifact::parse(&mangled).is_err());
    }

    #[test]
    fn multiline_detail_is_flattened() {
        let mut a = sample();
        a.detail = "line one\nline two".into();
        let back = Artifact::parse(&a.to_text()).unwrap();
        assert_eq!(back.detail, "line one line two");
    }
}
