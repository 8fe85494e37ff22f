//! The protocol registry — which protocols exist, the sets of them a
//! caller dispatches over ([`CHECKABLE`], [`PROTOCOLS`], [`AUDITED`],
//! [`MESH`]) and the one name-to-type dispatch over a set
//! ([`for_protocol!`](crate::for_protocol)) — plus the canned chaos
//! schedules and the artifact replay entry point.
//!
//! Adding a protocol is one [`ConformanceAdapter`](crate::ConformanceAdapter)
//! impl, whose `name()` is the one place its name is written, and its
//! type in the macro's line and its name in the const of each set that
//! reaches it.

use crate::artifact::Artifact;
use crate::drive::{run_check, CheckConfig, CheckOutcome};
use crate::shrink::shrink;
use manet_sim::faults::FaultPlan;

// The registered types, at the paths `for_protocol!` names them by.
#[doc(hidden)]
pub use baselines::{buddy::Buddy, ctree::CTree, dad::QueryDad, manetconf::ManetConf};
#[doc(hidden)]
pub use {crate::DoubleGrant, crate::HardenedQbac, qbac_core::Qbac};

/// Evaluates `$body` with the type alias `$P` bound to the type of
/// `SET` (`CHECKABLE`, `PROTOCOLS`, `AUDITED` or `MESH`) whose
/// [`ConformanceAdapter::name`](crate::ConformanceAdapter::name) is
/// `$name` (a `&str`): `Some($body)`, or `None` outside the set.
///
/// It expands to one `if`/`else` chain with a monomorphised copy of
/// `$body` per type of the set, so the name is compared once per call,
/// never inside the run `$body` drives, and a caller compiles runs only
/// for the protocols it can reach. `$P::fresh()` builds the instance.
///
/// ```
/// use conformance::{for_protocol, ConformanceAdapter};
///
/// assert_eq!(for_protocol!(CHECKABLE: "ctree", P => P::name()), Some("ctree"));
/// assert_eq!(for_protocol!(CHECKABLE: "bogus", P => P::name()), None);
/// // Registered, but not in the chaos suite's set.
/// assert_eq!(for_protocol!(AUDITED: "dad", P => P::name()), None);
/// ```
#[macro_export]
macro_rules! for_protocol {
    (CHECKABLE: $($call:tt)*) => {
        $crate::for_protocol!(@in [Qbac, HardenedQbac, ManetConf, Buddy, CTree, QueryDad, DoubleGrant] $($call)*)
    };
    (PROTOCOLS: $($call:tt)*) => {
        $crate::for_protocol!(@in [Qbac, ManetConf, Buddy, CTree, QueryDad] $($call)*)
    };
    (AUDITED: $($call:tt)*) => {
        $crate::for_protocol!(@in [Qbac, ManetConf, Buddy, CTree] $($call)*)
    };
    (MESH: $($call:tt)*) => {
        $crate::for_protocol!(@in [Qbac, HardenedQbac, QueryDad] $($call)*)
    };
    (@in [$($T:ident),*] $name:expr, $P:ident => $body:expr) => {{
        let name: &str = $name;
        $(if name == <$crate::registry::$T as $crate::ConformanceAdapter>::name() {
            type $P = $crate::registry::$T;
            Some($body)
        } else)* { None }
    }};
}

/// The five real protocols, by registry name.
pub const PROTOCOLS: [&str; 5] = ["quorum", "manetconf", "buddy", "ctree", "dad"];

/// Every name [`run_named`] accepts: the five protocols, the hardened
/// quorum variant the attack canaries certify, and the intentionally
/// broken allocator used for oracle self-tests.
pub const CHECKABLE: [&str; 7] = [
    "quorum",
    "quorum-hardened",
    "manetconf",
    "buddy",
    "ctree",
    "dad",
    "broken-doublegrant",
];

/// The pool owners the chaos suite audits: a head kill can strand their leaks.
pub const AUDITED: [&str; 4] = ["quorum", "manetconf", "buddy", "ctree"];

/// The protocols `repro mesh` runs; its quick matrix takes the first two.
pub const MESH: [&str; 3] = ["quorum", "quorum-hardened", "dad"];

/// A canned chaos schedule: a name, the world seed it runs under, and
/// its fault plan.
#[derive(Debug, Clone)]
pub struct NamedSchedule {
    /// Short name used in reports and artifact file names.
    pub name: &'static str,
    /// World seed for the conformance run.
    pub world_seed: u64,
    /// The fault plan.
    pub plan: FaultPlan,
}

/// The standing chaos schedules the conformance smoke runs under.
///
/// * `storm` — lossy, duplicating links plus two head kills: the §IV
///   quorum-safety claim under unreliable delivery.
/// * `splitbrain` — delay jitter, a scripted partition that heals, and
///   crashes with one restart: merge and reclamation flows under
///   reordering.
/// * `reaper` — clean links, pure churn (crashes, a restart, two head
///   kills): the one schedule whose envelope holds *every* protocol to
///   address uniqueness, baselines included.
#[must_use]
pub fn chaos_schedules() -> Vec<NamedSchedule> {
    let parse = |text: &str| FaultPlan::parse(text).expect("static schedule parses");
    vec![
        NamedSchedule {
            name: "storm",
            world_seed: 11,
            plan: parse(
                "seed 11\nloss 0.15\ndup 0.05\nheadkill 1 at 12s\nheadkill 1 at 20s\n",
            ),
        },
        NamedSchedule {
            name: "splitbrain",
            world_seed: 13,
            plan: parse(
                "seed 13\ndelay 0.2 5ms 40ms\ncrash 2 at 8s restart 16s\ncrash 5 at 10s\npartition x=500 from 9s heal 14s\nheadkill 1 at 15s\n",
            ),
        },
        NamedSchedule {
            name: "reaper",
            world_seed: 17,
            plan: parse(
                "seed 17\ncrash 3 at 6s\ncrash 7 at 9s restart 18s\nheadkill 1 at 12s\nheadkill 1 at 18s\n",
            ),
        },
    ]
}

/// Runs the conformance check for the protocol registered under
/// `protocol`, or `None` for an unknown name.
#[must_use]
pub fn run_named(protocol: &str, cfg: &CheckConfig) -> Option<CheckOutcome> {
    for_protocol!(CHECKABLE: protocol, P => run_check::<P>(cfg))
}

/// Shrinks a failing run of `protocol` under `cfg` to a minimal
/// replayable [`Artifact`].
///
/// Returns `None` if the name is unknown or the run does not fail
/// (there is nothing to shrink).
#[must_use]
pub fn shrink_named(protocol: &str, cfg: &CheckConfig) -> Option<Artifact> {
    let fails = |c: &CheckConfig| run_named(protocol, c).and_then(|o| o.violation);
    fails(cfg)?;
    let (small, v) = shrink(cfg, fails);
    Some(Artifact {
        protocol: protocol.to_string(),
        nodes: small.nn,
        seed: small.seed,
        speed: small.speed,
        mobility: small.mobility,
        invariant: v.invariant,
        step: v.step,
        detail: v.detail,
        plan: small.plan,
    })
}

/// Replays an artifact's schedule and demands a byte-for-byte
/// reproduction: the re-run must fail, and the artifact regenerated
/// from the re-run's violation must serialize to exactly `text`.
///
/// # Errors
///
/// Describes the first divergence: parse failure, unknown protocol, a
/// clean re-run, or a mismatching regenerated artifact.
pub fn replay_check(text: &str) -> Result<Artifact, String> {
    let a = Artifact::parse(text).map_err(|e| format!("artifact does not parse: {e}"))?;
    let cfg = CheckConfig {
        speed: a.speed,
        mobility: a.mobility,
        ..CheckConfig::new(a.nodes, a.seed, a.plan.clone())
    };
    let out =
        run_named(&a.protocol, &cfg).ok_or_else(|| format!("unknown protocol {:?}", a.protocol))?;
    let v = out.violation.ok_or_else(|| {
        format!(
            "replay ran clean for {} steps — violation did not reproduce",
            out.steps
        )
    })?;
    let regenerated = Artifact {
        invariant: v.invariant,
        step: v.step,
        detail: v.detail,
        ..a
    };
    if regenerated.to_text() != text {
        return Err(format!(
            "replay diverged:\n--- artifact ---\n{text}--- regenerated ---\n{}",
            regenerated.to_text()
        ));
    }
    Ok(regenerated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{clean_links, ConformanceAdapter};

    #[test]
    fn schedules_are_well_formed() {
        let schedules = chaos_schedules();
        assert!(schedules.len() >= 2, "acceptance demands at least two");
        let mut names: Vec<_> = schedules.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), schedules.len(), "schedule names are unique");
        // Every schedule text is canonical (round-trips through to_text),
        // so shrunk artifacts stay in the same grammar the schedules use.
        for s in &schedules {
            assert_eq!(
                FaultPlan::parse(&s.plan.to_text()).unwrap().to_text(),
                s.plan.to_text(),
                "{} is canonical",
                s.name
            );
        }
        assert!(
            schedules.iter().any(|s| clean_links(&s.plan)),
            "at least one schedule holds the baselines to uniqueness"
        );
    }

    #[test]
    fn run_named_rejects_unknown_protocols() {
        let cfg = CheckConfig::new(4, 1, FaultPlan::new(1));
        assert!(run_named("bogus", &cfg).is_none());
        assert!(shrink_named("bogus", &cfg).is_none());
        for name in CHECKABLE {
            assert!(run_named(name, &cfg).is_some(), "{name} dispatches");
        }
    }

    /// Each set's type list in `for_protocol!` and its name const agree:
    /// a checkable name dispatches in a set, to an adapter that calls
    /// itself by that name, exactly when the const lists it; and every
    /// set is checkable.
    #[test]
    fn every_registry_key_names_its_adapter() {
        type Dispatch = fn(&str) -> Option<&'static str>;
        let sets: [(&str, &[&str], Dispatch); 4] = [
            (
                "CHECKABLE",
                &CHECKABLE,
                |n| for_protocol!(CHECKABLE: n, P => P::name()),
            ),
            (
                "PROTOCOLS",
                &PROTOCOLS,
                |n| for_protocol!(PROTOCOLS: n, P => P::name()),
            ),
            (
                "AUDITED",
                &AUDITED,
                |n| for_protocol!(AUDITED: n, P => P::name()),
            ),
            ("MESH", &MESH, |n| for_protocol!(MESH: n, P => P::name())),
        ];
        for (set, names, dispatch) in sets {
            for name in names {
                assert!(
                    CHECKABLE.contains(name),
                    "{set} lists {name}, not checkable"
                );
            }
            for name in CHECKABLE {
                let want = names.contains(&name).then_some(name);
                assert_eq!(dispatch(name), want, "{set} dispatch of {name}");
            }
            assert_eq!(dispatch("bogus"), None, "{set}");
        }
    }

    /// A hand-edited artifact whose mobility no model can build is
    /// refused by name, not replayed into a panic.
    #[test]
    fn replay_of_an_out_of_domain_mobility_is_an_error() {
        for mobility in ["manhattan:0", "group:4,NaN"] {
            let text = format!(
                "# qbac conformance failing-schedule artifact v1\nprotocol: quorum\nnodes: 3\n\
                 seed: 11\nspeed: 5\nmobility: {mobility}\ninvariant: addr-unique\nstep: 26\n\
                 detail: -\nplan:\nloss 0.15\n"
            );
            let err = replay_check(&text).expect_err(mobility);
            assert!(
                err.contains(&format!("bad mobility: \"{mobility}\"")),
                "{err}"
            );
        }
    }

    #[test]
    fn shrink_named_returns_none_for_passing_runs() {
        let cfg = CheckConfig::new(4, 1, FaultPlan::new(1));
        assert!(shrink_named("quorum", &cfg).is_none());
    }
}
