//! The transcript-differential acceptance suite.
//!
//! Every scenario here runs twice: once on backend #1 (the pure
//! discrete-event simulator) and once on backend #2 (the same
//! simulator with the UDP mesh shadow installed, so every delivery
//! physically transits localhost sockets as wire-encoded datagrams,
//! relayed hop-by-hop along the link map). Both runs record the
//! canonical sans-io transcript — every `Input` fed to the protocol
//! core and every effect it performed, stamped with virtual
//! time only — and the suite demands the two transcripts be
//! **byte-identical**.
//!
//! That single equality proves a lot at once:
//!
//! * the protocol core is genuinely sans-io (nothing it observes
//!   depends on which transport ran underneath),
//! * the wire codec round-trips every reachable message (the mesh
//!   delivers what it *decoded*, so a lossy codec changes behaviour and
//!   the transcripts fork at the first bad message),
//! * the mesh's hop-by-hop relay respects the simulator's link map
//!   (a mis-routed datagram is dropped by the topology filter and the
//!   delivery never happens — an immediate divergence).
//!
//! On failure the assert prints the minimized first-divergence report
//! ([`EventLog::diff`]), not two walls of text.

use baselines::{buddy::Buddy, ctree::CTree, dad::QueryDad, manetconf::ManetConf};
use conformance::{ConformanceAdapter, HardenedQbac};
use harness::scenario::{run_scenario_with, Scenario};
use manet_sim::{EventLog, FaultPlan, ProtocolCore};
use proptest::prelude::*;
use proto_io::WireMsg;
use qbac_core::Qbac;
use transport_mesh::MeshShadow;

/// Runs `protocol` through `scenario` on one backend and returns the
/// transcript (plus mesh datagram count when the mesh backend ran).
fn transcript_on<P>(scenario: &Scenario, protocol: P, mesh: bool) -> EventLog
where
    P: ProtocolCore,
    P::Msg: WireMsg + 'static,
{
    let mut report = run_scenario_with(scenario, protocol, |sim| {
        sim.world_mut().enable_transcript();
        if mesh {
            sim.world_mut()
                .set_wire_shadow(Box::new(MeshShadow::<P::Msg>::new()));
        }
    });
    report
        .sim_mut()
        .world_mut()
        .take_transcript()
        .expect("transcript was enabled")
}

/// Asserts byte-identical transcripts of `P` across the two backends,
/// with a minimized divergence report on failure.
fn assert_equivalent<P>(what: &str, scenario: &Scenario)
where
    P: ConformanceAdapter,
    P::Msg: 'static,
{
    let label = format!("{}/{what}", P::name());
    let sim_side = transcript_on(scenario, P::fresh(), false);
    let mesh_side = transcript_on(scenario, P::fresh(), true);
    assert!(
        !sim_side.is_empty(),
        "{label}: scenario produced no protocol I/O"
    );
    if let Some(diff) = sim_side.diff(&mesh_side) {
        panic!(
            "{label}: sim and mesh transcripts diverge \
             (sim {}, mesh {})\n{diff}",
            sim_side.fingerprint(),
            mesh_side.fingerprint(),
        );
    }
    assert_eq!(
        sim_side.fingerprint(),
        mesh_side.fingerprint(),
        "{label}: fingerprints must match when no line diverges"
    );
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Fault-free arrivals, mobility on, modest churn.
fn clean_scenario() -> Scenario {
    Scenario::builder()
        .nn(12)
        .settle_secs(4)
        .depart_fraction(0.25)
        .abrupt_ratio(0.0)
        .depart_window_secs(4)
        .cooldown_secs(4)
        .seed(7)
        .build()
        .expect("clean scenario is in-domain")
}

/// The storm-style chaos mix: delay jitter, loss, crashes with a
/// restart, a healing partition, and a head kill.
fn chaos_scenario() -> Scenario {
    let plan = FaultPlan::parse(
        "seed 13\n\
         delay 0.2 5ms 40ms\n\
         loss 0.1\n\
         crash 2 at 6s restart 12s\n\
         crash 5 at 8s\n\
         partition x=500 from 7s heal 11s\n\
         headkill 1 at 12s\n",
    )
    .expect("chaos plan parses");
    Scenario::builder()
        .nn(14)
        .settle_secs(4)
        .depart_fraction(0.25)
        .abrupt_ratio(0.5)
        .depart_window_secs(6)
        .cooldown_secs(6)
        .post_arrivals(1)
        .seed(23)
        .fault_plan(plan)
        .build()
        .expect("chaos scenario is in-domain")
}

/// An attack canary: a Byzantine squatter activates mid-run (the PR 7
/// canary schedule, scaled to suite size).
fn attack_scenario() -> Scenario {
    let plan = FaultPlan::parse("seed 5\nattack 3 squat at 3s\n").expect("attack plan parses");
    Scenario::builder()
        .nn(14)
        .settle_secs(5)
        .depart_fraction(0.2)
        .abrupt_ratio(0.5)
        .depart_window_secs(4)
        .cooldown_secs(4)
        .seed(5)
        .fault_plan(plan)
        .build()
        .expect("attack scenario is in-domain")
}

// ---------------------------------------------------------------------
// QBAC (open) — clean, chaos, attack
// ---------------------------------------------------------------------

#[test]
fn qbac_open_clean_transcripts_match() {
    assert_equivalent::<Qbac>("clean", &clean_scenario());
}

#[test]
fn qbac_open_chaos_transcripts_match() {
    assert_equivalent::<Qbac>("chaos", &chaos_scenario());
}

#[test]
fn qbac_open_attack_transcripts_match() {
    assert_equivalent::<Qbac>("attack", &attack_scenario());
}

// ---------------------------------------------------------------------
// QBAC (hardened) — clean, chaos, attack
// ---------------------------------------------------------------------

#[test]
fn qbac_hardened_clean_transcripts_match() {
    assert_equivalent::<HardenedQbac>("clean", &clean_scenario());
}

#[test]
fn qbac_hardened_chaos_transcripts_match() {
    assert_equivalent::<HardenedQbac>("chaos", &chaos_scenario());
}

#[test]
fn qbac_hardened_attack_transcripts_match() {
    assert_equivalent::<HardenedQbac>("attack", &attack_scenario());
}

// ---------------------------------------------------------------------
// The four baselines — clean and chaos
// ---------------------------------------------------------------------

#[test]
fn dad_clean_transcripts_match() {
    assert_equivalent::<QueryDad>("clean", &clean_scenario());
}

#[test]
fn dad_chaos_transcripts_match() {
    assert_equivalent::<QueryDad>("chaos", &chaos_scenario());
}

#[test]
fn buddy_clean_transcripts_match() {
    assert_equivalent::<Buddy>("clean", &clean_scenario());
}

#[test]
fn buddy_chaos_transcripts_match() {
    assert_equivalent::<Buddy>("chaos", &chaos_scenario());
}

#[test]
fn ctree_clean_transcripts_match() {
    assert_equivalent::<CTree>("clean", &clean_scenario());
}

#[test]
fn ctree_chaos_transcripts_match() {
    assert_equivalent::<CTree>("chaos", &chaos_scenario());
}

#[test]
fn manetconf_clean_transcripts_match() {
    assert_equivalent::<ManetConf>("clean", &clean_scenario());
}

#[test]
fn manetconf_chaos_transcripts_match() {
    assert_equivalent::<ManetConf>("chaos", &chaos_scenario());
}

// ---------------------------------------------------------------------
// Cross-checks on the recorder itself
// ---------------------------------------------------------------------

/// A transcript is not vacuous: it must contain input records, send
/// effects, and timer effects for a protocol this chatty.
#[test]
fn transcripts_cover_all_record_kinds() {
    let t = transcript_on(&clean_scenario(), Qbac::fresh(), false);
    let rendered = t.render();
    for needle in ["<", ">send", ">timer+", " join", " msg "] {
        assert!(
            rendered.contains(needle),
            "transcript lacks any {needle:?} record"
        );
    }
}

// ---------------------------------------------------------------------
// Property: equivalence holds across the whole scenario space
// ---------------------------------------------------------------------

proptest! {
    /// Transcript equivalence is not a property of the hand-picked
    /// scenarios above: for *any* in-domain combination of swarm size,
    /// mobility speed, loss rate, churn, and seed, the simulator and
    /// the UDP mesh produce byte-identical protocol transcripts. Kept
    /// per-case small (the shim runs its full case budget); divergence
    /// reports the minimized first-difference, not two dumps.
    #[test]
    fn qbac_transcripts_match_on_random_scenarios(
        nn in 4usize..33,
        seed in 1u64..1 << 16,
        speed_tenths in 0u32..31,
        loss_pct in 0u32..16,
        depart_pct in 0u32..41,
        harden in any::<bool>(),
    ) {
        let scenario = Scenario::builder()
            .nn(nn)
            .speed_mps(f64::from(speed_tenths) / 10.0)
            .loss_rate(f64::from(loss_pct) / 100.0)
            .depart_fraction(f64::from(depart_pct) / 100.0)
            .abrupt_ratio(0.5)
            .settle_secs(2)
            .depart_window_secs(2)
            .cooldown_secs(2)
            .seed(seed)
            .build()
            .expect("knob ranges stay in the scenario domain");
        let fresh = || {
            Qbac::new(qbac_core::ProtocolConfig {
                harden,
                ..qbac_core::ProtocolConfig::default()
            })
        };
        let sim_side = transcript_on(&scenario, fresh(), false);
        let mesh_side = transcript_on(&scenario, fresh(), true);
        if let Some(diff) = sim_side.diff(&mesh_side) {
            prop_assert!(
                false,
                "nn={nn} seed={seed} speed={speed_tenths}e-1 loss={loss_pct}% \
                 depart={depart_pct}% harden={harden}: transcripts diverge \
                 (sim {}, mesh {})\n{diff}",
                sim_side.fingerprint(),
                mesh_side.fingerprint(),
            );
        }
    }
}

/// The differential is not trivially true: corrupting one delivered
/// message's bytes must fork the transcripts. (Runs the mesh with a
/// shadow that flips a payload byte — the decoded message differs, so
/// behaviour and transcript must too.)
#[test]
fn a_lying_transport_is_caught() {
    use proto_io::{MsgCategory, NodeId};

    /// Delivers a *different* message than the one sent: after a fixed
    /// number of faithful carries, one Areq address bit is flipped.
    #[derive(Debug)]
    struct ByteFlipper {
        remaining_faithful: u32,
    }

    impl manet_sim::WireShadow<baselines::dad::DadMsg> for ByteFlipper {
        fn carry(
            &mut self,
            _path: &[NodeId],
            _category: MsgCategory,
            msg: &baselines::dad::DadMsg,
        ) -> baselines::dad::DadMsg {
            use baselines::dad::DadMsg;
            if self.remaining_faithful > 0 {
                self.remaining_faithful -= 1;
                return msg.clone();
            }
            match msg {
                DadMsg::Areq { addr } => DadMsg::Areq {
                    addr: addrspace::Addr::new(addr.bits() ^ 1),
                },
                other => other.clone(),
            }
        }
    }

    let scenario = clean_scenario();
    let honest = transcript_on(&scenario, QueryDad::default(), false);
    let mut report = run_scenario_with(&scenario, QueryDad::default(), |sim| {
        sim.world_mut().enable_transcript();
        sim.world_mut().set_wire_shadow(Box::new(ByteFlipper {
            remaining_faithful: 3,
        }));
    });
    let lying = report
        .sim_mut()
        .world_mut()
        .take_transcript()
        .expect("transcript was enabled");
    assert!(
        honest.diff(&lying).is_some(),
        "flipping a delivered payload byte must fork the transcript"
    );
}
