//! Verifies Table 1 of the paper: the cluster-head configuration
//! message exchange
//!
//! ```text
//! CH_REQ → CH_PRP → CH_CNF → QUORUM_CLT → QUORUM_CFM → CH_CFG → CH_ACK
//! ```
//!
//! using a wrapper protocol that records every delivered message.

use qbac::core::{Msg, ProtocolConfig, Qbac};
use qbac::sim::{Net, NodeId, Point, ProtocolCore, Sim, SimDuration, WorldConfig};

/// Records `(to, from, variant)` for every delivered message, then
/// delegates to the real protocol.
struct Recorder {
    inner: Qbac,
    log: Vec<(NodeId, NodeId, &'static str)>,
}

fn variant(msg: &Msg) -> &'static str {
    match msg {
        Msg::Hello { .. } => "HELLO",
        Msg::ComReq => "COM_REQ",
        Msg::ComReqFwd { .. } => "COM_REQ_FWD",
        Msg::ComCfg { .. } => "COM_CFG",
        Msg::ComAck => "COM_ACK",
        Msg::ComRej => "COM_REJ",
        Msg::ChReq => "CH_REQ",
        Msg::ChPrp { .. } => "CH_PRP",
        Msg::ChCnf => "CH_CNF",
        Msg::ChCfg { .. } => "CH_CFG",
        Msg::ChAck => "CH_ACK",
        Msg::ChRej => "CH_REJ",
        Msg::QuorumClt { .. } => "QUORUM_CLT",
        Msg::QuorumCfm { .. } => "QUORUM_CFM",
        Msg::QuorumCommit { .. } => "QUORUM_COMMIT",
        Msg::ReplicaPush { .. } => "REPLICA_PUSH",
        Msg::UpdateLoc { .. } => "UPDATE_LOC",
        Msg::ReturnAddr { .. } => "RETURN_ADDR",
        Msg::ReturnAddrAck => "RETURN_ADDR_ACK",
        Msg::ReturnBlock { .. } => "RETURN_BLOCK",
        Msg::ReturnBlockAck => "RETURN_BLOCK_ACK",
        Msg::Resign => "RESIGN",
        Msg::AllocatorChange { .. } => "ALLOCATOR_CHANGE",
        Msg::AddrRec { .. } => "ADDR_REC",
        Msg::RecRep { .. } => "REC_REP",
        Msg::RepReq => "REP_REQ",
        Msg::RepAck => "REP_ACK",
        Msg::Reinit { .. } => "REINIT",
        Msg::OwnClaim { .. } => "OWN_CLAIM",
        Msg::OwnGrant { .. } => "OWN_GRANT",
    }
}

impl ProtocolCore for Recorder {
    type Msg = Msg;
    fn on_join(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        self.inner.on_join(w, node);
    }
    fn on_message(&mut self, w: &mut Net<'_, Msg>, to: NodeId, from: NodeId, msg: Msg) {
        self.log.push((to, from, variant(&msg)));
        self.inner.on_message(w, to, from, msg);
    }
    fn on_timer(&mut self, w: &mut Net<'_, Msg>, node: NodeId, tag: u64) {
        self.inner.on_timer(w, node, tag);
    }
    fn on_leave(&mut self, w: &mut Net<'_, Msg>, node: NodeId, graceful: bool) {
        self.inner.on_leave(w, node, graceful);
    }
}

fn still() -> WorldConfig {
    WorldConfig {
        speed: 0.0,
        ..WorldConfig::default()
    }
}

/// Extracts the subsequence of `names` seen involving `node` (as either
/// endpoint), in delivery order.
fn exchanges_with(log: &[(NodeId, NodeId, &'static str)], node: NodeId) -> Vec<&'static str> {
    log.iter()
        .filter(|(to, from, _)| *to == node || *from == node)
        .map(|(_, _, v)| *v)
        .collect()
}

/// Checks that `needle` appears as a (not necessarily contiguous)
/// subsequence of `haystack`.
fn is_subsequence(haystack: &[&str], needle: &[&str]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

#[test]
fn cluster_head_configuration_follows_table_1() {
    let mut sim = Sim::new(
        still(),
        Recorder {
            inner: Qbac::new(ProtocolConfig::default()),
            log: Vec::new(),
        },
    );
    // Founder, relays, and a second head — so the allocator of the
    // *measured* configuration has a non-trivial QDSet and must collect
    // an actual quorum (a lone head's vote is local).
    sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(2));
    for x in [240.0, 380.0] {
        sim.spawn_at(Point::new(x, 100.0));
        sim.run_for(SimDuration::from_secs(2));
    }
    let second_head = sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim.protocol().inner.role(second_head).unwrap().is_head());

    // Extend the chain; the next distant joiner asks `second_head`,
    // whose QDSet now holds the founder.
    for x in [660.0, 800.0] {
        sim.spawn_at(Point::new(x, 100.0));
        sim.run_for(SimDuration::from_secs(2));
    }
    sim.protocol_mut().log.clear();
    let new_head = sim.spawn_at(Point::new(940.0, 100.0));
    sim.run_for(SimDuration::from_secs(5));
    assert!(
        sim.protocol().inner.role(new_head).unwrap().is_head(),
        "the distant joiner must become a cluster head"
    );

    let seq = exchanges_with(&sim.protocol().log, new_head);
    assert!(
        is_subsequence(&seq, &["CH_REQ", "CH_PRP", "CH_CNF", "CH_CFG", "CH_ACK"]),
        "Table 1 sequence missing from {seq:?}"
    );
    // The split vote happened at the allocator between CH_CNF and CH_CFG.
    let all: Vec<&str> = sim.protocol().log.iter().map(|(_, _, v)| *v).collect();
    assert!(
        is_subsequence(&all, &["CH_CNF", "QUORUM_CLT", "QUORUM_CFM", "CH_CFG"]),
        "quorum collection must sit between CH_CNF and CH_CFG: {all:?}"
    );
}

#[test]
fn common_node_configuration_follows_figure_2() {
    let mut sim = Sim::new(
        still(),
        Recorder {
            inner: Qbac::new(ProtocolConfig::default()),
            log: Vec::new(),
        },
    );
    sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(2));
    // Second head so the first's quorum is non-trivial.
    for x in [240.0, 380.0] {
        sim.spawn_at(Point::new(x, 100.0));
        sim.run_for(SimDuration::from_secs(2));
    }
    sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(3));
    sim.protocol_mut().log.clear();

    let joiner = sim.spawn_at(Point::new(140.0, 130.0));
    sim.run_for(SimDuration::from_secs(3));
    assert!(sim.protocol().inner.role(joiner).unwrap().is_configured());

    let all: Vec<&str> = sim.protocol().log.iter().map(|(_, _, v)| *v).collect();
    assert!(
        is_subsequence(
            &all,
            &["COM_REQ", "QUORUM_CLT", "QUORUM_CFM", "COM_CFG", "COM_ACK"]
        ),
        "Figure 2 sequence missing from {all:?}"
    );
    // The quorum update (commit) follows the configuration.
    let cfg_pos = all.iter().position(|v| *v == "COM_CFG").unwrap();
    assert!(
        all[cfg_pos..].contains(&"QUORUM_COMMIT"),
        "state update must follow configuration: {all:?}"
    );
}
