//! End-to-end tests of the quorum-based autoconfiguration protocol over
//! the discrete-event simulator.

use addrspace::{Addr, AddrBlock};
use manet_sim::{NodeId, Point, Sim, SimDuration, SimTime, WorldConfig};
use qbac_core::{AllocatorChoice, NodeRole, ProtocolConfig, Qbac, UpdatePolicy, MAX_R};

fn still_world() -> WorldConfig {
    WorldConfig {
        speed: 0.0,
        ..WorldConfig::default()
    }
}

fn small_cfg() -> ProtocolConfig {
    ProtocolConfig {
        space: AddrBlock::new(Addr::new(0x0A00_0000), 1 << 10).unwrap(),
        ..ProtocolConfig::default()
    }
}

fn new_sim() -> Sim<Qbac> {
    Sim::new(still_world(), Qbac::new(small_cfg()))
}

/// Spawns `n` nodes in a rough grid covering the arena, one per second.
fn grid_arrivals(sim: &mut Sim<Qbac>, n: usize, pitch: f64) -> Vec<NodeId> {
    let cols = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let x = (i % cols) as f64 * pitch + 50.0;
            let y = (i / cols) as f64 * pitch + 50.0;
            let at = SimTime::from_micros(i as u64 * 1_000_000);
            sim.schedule_spawn_at(at, Point::new(x, y))
        })
        .collect()
}

#[test]
fn first_node_becomes_head_with_whole_space() {
    let mut sim = new_sim();
    let first = sim.spawn_at(Point::new(500.0, 500.0));
    sim.run_for(SimDuration::from_secs(5));

    let role = sim.protocol().role(first).unwrap();
    assert!(role.is_head(), "lone node must become the first head");
    let head = sim.protocol().head(first).unwrap();
    assert_eq!(head.pool.total_len(), 1 << 10);
    // The founder takes a random address of the space; the network ID is
    // that address.
    assert!(head.pool.owns(head.ip));
    assert_eq!(head.network_id, head.ip);
    assert_eq!(head.pool.free_count(), (1 << 10) - 1);
    assert!(sim.world().is_configured(first));
}

#[test]
fn nearby_joiner_becomes_common_node() {
    let mut sim = new_sim();
    let first = sim.spawn_at(Point::new(500.0, 500.0));
    sim.run_for(SimDuration::from_secs(3));
    let second = sim.spawn_at(Point::new(560.0, 500.0));
    sim.run_for(SimDuration::from_secs(3));

    let head_state = sim.protocol().head(first).unwrap();
    let (head_ip, net_id) = (head_state.ip, head_state.network_id);
    match sim.protocol().role(second).unwrap() {
        NodeRole::Common(c) => {
            assert_eq!(c.configurer, first);
            assert_ne!(c.ip, head_ip, "must not reuse the head's address");
            assert_eq!(c.network_id, net_id);
        }
        other => panic!("expected common node, got {other:?}"),
    }
    assert_eq!(sim.world().metrics().configured_nodes(), 2);
}

#[test]
fn distant_joiner_becomes_cluster_head_with_half_block() {
    let mut sim = new_sim();
    let first = sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    // ~400 m away: multi-hop impossible (no relay), so give it a relay.
    let relay = sim.spawn_at(Point::new(240.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    let far = sim.spawn_at(Point::new(380.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));

    // relay is within 2 hops of `first` → common; far is 2 hops from the
    // head → still common per the 2-hop rule. Move further:
    let farther = sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));

    let p = sim.protocol();
    assert!(p.role(first).unwrap().is_head());
    assert!(matches!(p.role(relay).unwrap(), NodeRole::Common(_)));
    assert!(matches!(p.role(far).unwrap(), NodeRole::Common(_)));
    let farther_role = p.role(farther).unwrap();
    assert!(
        farther_role.is_head(),
        "node >2 hops from any head must become a head, got {farther_role:?}"
    );
    let head = p.head(farther).unwrap();
    assert_eq!(head.pool.total_len(), 1 << 9, "half the space");
    assert_eq!(head.configurer, Some(first));
    // The new head knows its allocator in its QDSet and holds a replica.
    assert!(head.qd_set.contains_key(&first));
    assert!(head.quorum_space.contains_key(&first));
    // And symmetrically.
    let first_head = p.head(first).unwrap();
    assert!(first_head.qd_set.contains_key(&farther));
}

#[test]
fn fifty_sequential_arrivals_all_unique() {
    let mut sim = new_sim();
    grid_arrivals(&mut sim, 50, 130.0);
    sim.run_until(SimTime::from_micros(80_000_000));

    let configured = sim.world().metrics().configured_nodes();
    assert!(
        configured >= 48,
        "expected nearly all of 50 configured, got {configured}"
    );
    let (w, p) = sim.parts_mut();
    p.audit_unique(w).expect("no duplicate addresses");
}

#[test]
fn dense_arrivals_all_configured_by_one_head() {
    let mut sim = new_sim();
    // All within radio range of each other.
    for i in 0..10 {
        let at = SimTime::from_micros(i * 2_000_000);
        sim.schedule_spawn_at(at, Point::new(480.0 + (i as f64) * 8.0, 500.0));
    }
    sim.run_until(SimTime::from_micros(40_000_000));
    let heads = sim.protocol().heads(sim.world());
    assert_eq!(heads.len(), 1, "a single cluster suffices: {heads:?}");
    assert_eq!(sim.world().metrics().configured_nodes(), 10);
    let (w, p) = sim.parts_mut();
    p.audit_unique(w).unwrap();
}

#[test]
fn graceful_departure_returns_address_for_reuse() {
    let mut sim = new_sim();
    let _first = sim.spawn_at(Point::new(500.0, 500.0));
    sim.run_for(SimDuration::from_secs(3));
    let second = sim.spawn_at(Point::new(560.0, 500.0));
    sim.run_for(SimDuration::from_secs(3));
    let ip2 = sim.protocol().role(second).unwrap().ip().unwrap();

    sim.leave_now(second, true);
    sim.run_for(SimDuration::from_secs(2));
    assert!(
        !sim.world().is_alive(second),
        "departure handshake completes"
    );

    // The returned address is handed to the next joiner.
    let third = sim.spawn_at(Point::new(540.0, 500.0));
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(sim.protocol().role(third).unwrap().ip(), Some(ip2));
}

#[test]
fn head_graceful_departure_hands_space_to_successor() {
    let mut sim = new_sim();
    let first = sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    // Build a second head 3 hops away via two relays.
    let r1 = sim.spawn_at(Point::new(240.0, 100.0));
    sim.run_for(SimDuration::from_secs(2));
    let r2 = sim.spawn_at(Point::new(380.0, 100.0));
    sim.run_for(SimDuration::from_secs(2));
    let second_head = sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim.protocol().role(second_head).unwrap().is_head());
    let handed = sim.protocol().head(second_head).unwrap().pool.total_len();

    sim.leave_now(second_head, true);
    sim.run_for(SimDuration::from_secs(3));
    assert!(!sim.world().is_alive(second_head));

    // Its configurer (first) should own the space again.
    let first_head = sim.protocol().head(first).unwrap();
    assert_eq!(
        first_head.pool.total_len(),
        1 << 10,
        "space reunified after handback (handed {handed})"
    );
    assert!(!first_head.qd_set.contains_key(&second_head));
    let _ = (r1, r2);
}

#[test]
fn members_learn_new_allocator_after_head_departure() {
    let mut sim = new_sim();
    let first = sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    for x in [240.0, 380.0] {
        sim.spawn_at(Point::new(x, 100.0));
        sim.run_for(SimDuration::from_secs(2));
    }
    let second_head = sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));
    // A member of the second head.
    let member = sim.spawn_at(Point::new(560.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    match sim.protocol().role(member).unwrap() {
        NodeRole::Common(c) => assert_eq!(c.configurer, second_head),
        r => panic!("expected common, got {r:?}"),
    }

    sim.leave_now(second_head, true);
    sim.run_for(SimDuration::from_secs(3));

    match sim.protocol().role(member).unwrap() {
        NodeRole::Common(c) => assert_eq!(
            c.configurer, first,
            "member must learn the successor allocator"
        ),
        r => panic!("expected common, got {r:?}"),
    }
}

#[test]
fn abrupt_head_departure_is_reclaimed() {
    let mut sim = new_sim();
    let first = sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    for x in [240.0, 380.0] {
        sim.spawn_at(Point::new(x, 100.0));
        sim.run_for(SimDuration::from_secs(2));
    }
    let second_head = sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim.protocol().role(second_head).unwrap().is_head());
    // A member of the vanished head that survives it — placed so it stays
    // connected through the relay chain once the head dies.
    let member = sim.spawn_at(Point::new(500.0, 140.0));
    sim.run_for(SimDuration::from_secs(3));
    let member_ip = sim.protocol().role(member).unwrap().ip().unwrap();

    sim.leave_now(second_head, false); // abrupt
    sim.run_for(SimDuration::from_secs(2));

    // Trigger detection: a new node asks `first` for an address; the vote
    // to the dead member times out, probes fire, reclamation runs.
    let trigger = sim.spawn_at(Point::new(140.0, 100.0));
    sim.run_for(SimDuration::from_secs(10));

    let p = sim.protocol();
    assert!(p.stats().reclamations >= 1, "reclamation must run");
    let first_head = p.head(first).unwrap();
    assert_eq!(
        first_head.pool.total_len(),
        1 << 10,
        "vanished head's space absorbed by the initiator"
    );
    // The surviving member's address must still be recorded allocated.
    assert_eq!(
        first_head.pool.table().status(member_ip),
        addrspace::AddrStatus::Allocated(member.index()),
        "surviving member's REC_REP preserved its address"
    );
    // And the member adopted the initiator.
    match p.role(member).unwrap() {
        NodeRole::Common(c) => assert_eq!(c.configurer, first),
        r => panic!("expected common, got {r:?}"),
    }
    let _ = trigger;
    let (w, p) = sim.parts_mut();
    p.audit_unique(w).unwrap();
}

#[test]
fn borrowing_extends_a_depleted_head() {
    let mut sim = Sim::new(
        still_world(),
        Qbac::new(ProtocolConfig {
            // Tiny space: first head owns 8 addresses, hands half away.
            space: AddrBlock::new(Addr::new(0), 8).unwrap(),
            ..ProtocolConfig::default()
        }),
    );
    let first = sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    for x in [240.0, 380.0] {
        sim.spawn_at(Point::new(x, 100.0));
        sim.run_for(SimDuration::from_secs(2));
    }
    let second_head = sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim.protocol().role(second_head).unwrap().is_head());
    // second head owns 4 addresses (one for itself) → 3 free. Fill them.
    for i in 0..3 {
        sim.spawn_at(Point::new(540.0 + i as f64 * 10.0, 100.0));
        sim.run_for(SimDuration::from_secs(3));
    }
    assert_eq!(
        sim.protocol().head(second_head).unwrap().pool.free_count(),
        0
    );

    // Next joiner near the depleted head must be served from QuorumSpace.
    let extra = sim.spawn_at(Point::new(585.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));
    let role = sim.protocol().role(extra).unwrap();
    assert!(
        role.is_configured(),
        "borrowing must configure the joiner: {role:?}"
    );
    assert!(sim.protocol().stats().borrows >= 1, "a borrow must occur");
    let (w, p) = sim.parts_mut();
    p.audit_unique(w).unwrap();
    let _ = first;
}

#[test]
fn quorum_replicas_stay_consistent_with_owner() {
    let mut sim = new_sim();
    let first = sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    for x in [240.0, 380.0] {
        sim.spawn_at(Point::new(x, 100.0));
        sim.run_for(SimDuration::from_secs(2));
    }
    let second_head = sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));
    // Configure members under the first head → commits flow to replicas.
    for dx in [30.0, 60.0] {
        sim.spawn_at(Point::new(100.0 + dx, 130.0));
        sim.run_for(SimDuration::from_secs(3));
    }

    let p = sim.protocol();
    let owner = p.head(first).unwrap();
    let replica = p
        .head(second_head)
        .unwrap()
        .quorum_space
        .get(&first)
        .expect("second head replicates the first");
    for (addr, rec) in owner.pool.table().iter() {
        let rep_rec = replica.table.record(addr);
        assert_eq!(
            rep_rec.status, rec.status,
            "replica of {addr} diverged: owner {rec:?}, replica {rep_rec:?}"
        );
    }
}

#[test]
fn update_policy_upon_leave_sends_no_location_updates() {
    let run = |policy: UpdatePolicy| {
        let world = WorldConfig {
            speed: 20.0,
            seed: 11,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(
            world,
            Qbac::new(ProtocolConfig {
                update_policy: policy,
                ..small_cfg()
            }),
        );
        for i in 0..30 {
            sim.schedule_spawn_random(SimTime::from_micros(i * 1_000_000));
        }
        sim.run_until(SimTime::from_micros(120_000_000));
        sim.world()
            .metrics()
            .hops(manet_sim::MsgCategory::Maintenance)
    };
    let periodic = run(UpdatePolicy::Periodic);
    let upon_leave = run(UpdatePolicy::UponLeave);
    assert!(
        upon_leave <= periodic,
        "upon-leave must not exceed periodic maintenance ({upon_leave} vs {periodic})"
    );
}

#[test]
fn largest_block_policy_configures_correctly() {
    let mut sim = Sim::new(
        still_world(),
        Qbac::new(ProtocolConfig {
            allocator_choice: AllocatorChoice::LargestBlock,
            ..small_cfg()
        }),
    );
    grid_arrivals(&mut sim, 25, 140.0);
    sim.run_until(SimTime::from_micros(40_000_000));
    assert!(sim.world().metrics().configured_nodes() >= 23);
    let (w, p) = sim.parts_mut();
    p.audit_unique(w).unwrap();
}

#[test]
fn latency_recorded_for_every_configured_node() {
    let mut sim = new_sim();
    grid_arrivals(&mut sim, 16, 140.0);
    sim.run_until(SimTime::from_micros(30_000_000));
    let m = sim.world().metrics();
    assert_eq!(
        m.config_latency().count(),
        m.configured_nodes(),
        "one latency sample per configured node"
    );
    assert!(m.mean_config_latency().unwrap() > 0.0);
}

#[test]
fn partition_merge_rejoins_higher_network() {
    // Two independent networks form out of radio range; their IDs (the
    // founders' random addresses) differ. A relay chain then connects
    // them: hellos reveal the mismatch and the higher-ID network
    // reconfigures into the lower-ID one (§V-C).
    let mut sim = new_sim();
    let a = sim.spawn_at(Point::new(50.0, 50.0));
    sim.run_for(SimDuration::from_secs(5));
    let b = sim.spawn_at(Point::new(950.0, 950.0));
    sim.run_for(SimDuration::from_secs(5));
    let pa = sim.protocol();
    assert!(pa.role(a).unwrap().is_head());
    assert!(pa.role(b).unwrap().is_head());
    let net_a = pa.role(a).unwrap().network_id().unwrap();
    let net_b = pa.role(b).unwrap().network_id().unwrap();
    assert_ne!(net_a, net_b, "independent networks carry distinct IDs");
    let winner = net_a.min(net_b);

    // Bridge the diagonal with relays ~130 m apart.
    for i in 1..=9 {
        let t = f64::from(i) / 10.0;
        sim.spawn_at(Point::new(50.0 + 900.0 * t, 50.0 + 900.0 * t));
        sim.run_for(SimDuration::from_secs(2));
    }
    // Let hellos flow and the merge settle.
    sim.run_for(SimDuration::from_secs(30));

    let p = sim.protocol();
    for n in [a, b] {
        let role = p.role(n).unwrap();
        assert!(
            role.is_configured(),
            "{n} must be reconfigured after the merge: {role:?}"
        );
        assert_eq!(
            role.network_id(),
            Some(winner),
            "{n} must end in the lower-ID network"
        );
    }
    assert!(
        p.stats().merges >= 1,
        "at least one side must have rejoined"
    );
    let (w, pr) = sim.parts_mut();
    pr.audit_unique(w).unwrap();
}

#[test]
fn deterministic_across_identical_runs() {
    let run = |seed: u64| {
        let world = WorldConfig {
            seed,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(world, Qbac::new(small_cfg()));
        for i in 0..40 {
            sim.schedule_spawn_random(SimTime::from_micros(i * 800_000));
        }
        sim.run_until(SimTime::from_micros(60_000_000));
        let m = sim.world().metrics();
        (
            m.total_hops(),
            m.configured_nodes(),
            m.mean_config_latency(),
        )
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn config_latency_lower_without_quorum_overhead_for_first_nodes() {
    // Sanity on latency accounting: the first node's latency reflects
    // only its Max_r broadcasts.
    let mut sim = new_sim();
    sim.spawn_at(Point::new(500.0, 500.0));
    sim.run_for(SimDuration::from_secs(5));
    let lat = sim.world().metrics().config_latency();
    assert_eq!(lat.count(), 1);
    assert_eq!(lat.min(), Some(u64::from(MAX_R)));
    assert_eq!(
        lat.max(),
        Some(u64::from(MAX_R)),
        "one hop charged per probe broadcast"
    );
}

#[test]
fn flow_spans_track_every_join_to_completion() {
    use manet_sim::FlowKind;
    let mut sim = new_sim();
    sim.world_mut().enable_observer();
    sim.world_mut().enable_trace(65_536);
    grid_arrivals(&mut sim, 16, 140.0);
    sim.run_until(SimTime::from_micros(30_000_000));

    let w = sim.world();
    let t = w.observer().tally(FlowKind::Join);
    assert_eq!(t.started, 16, "one join flow per arriving node");
    assert_eq!(
        t.assigned,
        w.metrics().configured_nodes(),
        "every configured node closed its join flow with `assigned`"
    );
    assert_eq!(
        t.open(),
        t.started - t.assigned - t.abandoned,
        "tally bookkeeping is consistent"
    );

    // Span records land in the trace with correlation IDs.
    let jsonl = w.trace().to_jsonl();
    assert!(jsonl.contains("\"event\":\"flow\""));
    assert!(jsonl.contains("\"kind\":\"join\""));
    assert!(jsonl.contains("\"stage\":\"started\""));
    assert!(jsonl.contains("\"stage\":\"assigned\""));

    // The new distributions fill alongside: at least one quorum vote ran
    // and every completed join recorded its retry count.
    assert!(w.metrics().vote_rounds().count() > 0);
    assert!(w.metrics().retries().count() >= w.metrics().configured_nodes());
}

#[test]
fn disabled_observer_emits_no_flow_records() {
    let mut sim = new_sim();
    sim.world_mut().enable_trace(8192);
    grid_arrivals(&mut sim, 4, 160.0);
    sim.run_until(SimTime::from_micros(10_000_000));
    let w = sim.world();
    assert_eq!(w.observer().tally(manet_sim::FlowKind::Join).started, 0);
    assert!(!w.trace().to_jsonl().contains("\"event\":\"flow\""));
}
