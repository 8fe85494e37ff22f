//! Query-based duplicate address detection (Perkins et al.,
//! `draft-ietf-manet-autoconf-01`): the *stateless* baseline.
//!
//! No node keeps allocation state. A newcomer picks a random candidate
//! address and floods an Address Request (`AREQ`); any node already
//! using the address answers with an Address Reply (`AREP`). After
//! `AREQ_RETRIES` silent rounds the newcomer adopts the candidate.
//!
//! The paper's §III critique, reproduced measurably here: latency is
//! `retries × timeout` and every configuration floods the network
//! `retries` times, yet a partitioned twin can still slip through
//! (stateless schemes only make duplicates unlikely, not impossible).

use addrspace::{Addr, AddrBlock, STOCK_SPACE};
use proto_io::{
    FlowKind, FlowStage, IdMap, MsgCategory, Net, NetBackend, NodeId, ProtocolCore, SimDuration,
    Versioned,
};

/// `AREQ_RETRIES`: how many silent flood rounds confirm a candidate.
const AREQ_RETRIES: u32 = 3;
/// How long each round waits for an `AREP`.
const AREP_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Parameters of the stateless DAD baseline.
#[derive(Debug, Clone)]
pub struct DadConfig {
    /// The address range candidates are drawn from.
    pub space: AddrBlock,
}

impl Default for DadConfig {
    fn default() -> Self {
        DadConfig { space: STOCK_SPACE }
    }
}

/// Wire messages of the stateless DAD baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DadMsg {
    /// Flooded address request: "is anyone using `addr`?"
    Areq {
        /// The candidate address.
        addr: Addr,
    },
    /// Unicast reply from the current holder: "yes, I am."
    Arep {
        /// The contested address.
        addr: Addr,
    },
}

// One tag byte, then the big-endian address. Having a wire form lets
// the UDP-mesh backend carry this baseline.
proto_io::wire_codec! {
    DadMsg {
        Areq = 0x01 { addr: addr },
        Arep = 0x02 { addr: addr },
    }
}

#[derive(Debug)]
struct Probe {
    addr: Addr,
    round: u32,
    conflicted: bool,
    hops: u32,
    candidates_tried: u32,
}

const TAG_ROUND: u64 = 1;

/// The stateless DAD protocol state over all simulated nodes.
#[derive(Debug)]
pub struct QueryDad {
    cfg: DadConfig,
    /// Every configured node's address: all the conformance view reads.
    configured: Versioned<IdMap<NodeId, Addr>>,
    probing: IdMap<NodeId, Probe>,
}

impl QueryDad {
    /// Creates the protocol with the given parameters.
    #[must_use]
    pub fn new(cfg: DadConfig) -> Self {
        QueryDad {
            cfg,
            configured: Versioned::default(),
            probing: IdMap::default(),
        }
    }

    /// The address of `node`, if configured.
    #[must_use]
    pub fn ip_of(&self, node: NodeId) -> Option<Addr> {
        self.configured.get(&node).copied()
    }

    /// Moves whenever the state [`assigned`](Self::assigned) reads may
    /// have changed.
    #[must_use]
    pub fn allocation_version(&self) -> u64 {
        self.configured.version()
    }

    /// Addresses of every alive configured node.
    #[must_use]
    pub fn assigned<B: NetBackend<DadMsg> + ?Sized>(&self, w: &B) -> Vec<(NodeId, Addr)> {
        let mut v: Vec<(NodeId, Addr)> = self
            .configured
            .iter()
            .filter(|(n, _)| w.is_alive(**n))
            .map(|(n, a)| (*n, *a))
            .collect();
        v.sort_unstable();
        v
    }

    /// Duplicate pairs among alive nodes — stateless DAD cannot rule
    /// them out, so the harness can count how often they happen.
    #[must_use]
    pub fn duplicates<B: NetBackend<DadMsg> + ?Sized>(&self, w: &B) -> Vec<(Addr, NodeId, NodeId)> {
        let mut by_addr: IdMap<Addr, Vec<NodeId>> = IdMap::default();
        for (n, a) in self.assigned(w) {
            by_addr.entry(a).or_default().push(n);
        }
        let mut dups: Vec<(Addr, NodeId, NodeId)> = by_addr
            .into_iter()
            .filter(|(_, nodes)| nodes.len() > 1)
            .map(|(a, nodes)| (a, nodes[0], nodes[1]))
            .collect();
        dups.sort_unstable();
        dups
    }

    fn pick_candidate(&mut self, w: &mut Net<'_, DadMsg>) -> Addr {
        let len = u64::from(self.cfg.space.len());
        let offset = w.rng_range_u64(0..len) as u32;
        self.cfg.space.base().offset(offset)
    }

    fn start_probe(&mut self, w: &mut Net<'_, DadMsg>, node: NodeId, candidates_tried: u32) {
        let addr = self.pick_candidate(w);
        let _ = w.flood(node, MsgCategory::Configuration, DadMsg::Areq { addr });
        self.probing.insert(
            node,
            Probe {
                addr,
                round: 1,
                conflicted: false,
                hops: 1,
                candidates_tried,
            },
        );
        w.set_timer(node, AREP_TIMEOUT, TAG_ROUND);
    }
}

impl Default for QueryDad {
    fn default() -> Self {
        QueryDad::new(DadConfig::default())
    }
}

impl ProtocolCore for QueryDad {
    type Msg = DadMsg;

    fn on_join(&mut self, w: &mut Net<'_, DadMsg>, node: NodeId) {
        w.flow_event(FlowKind::Join, node, FlowStage::Started);
        self.start_probe(w, node, 0);
    }

    fn on_message(&mut self, w: &mut Net<'_, DadMsg>, to: NodeId, from: NodeId, msg: DadMsg) {
        match msg {
            DadMsg::Areq { addr } => {
                // The holder defends its address.
                if self.configured.get(&to) == Some(&addr) {
                    let _ = w.unicast(to, from, MsgCategory::Configuration, DadMsg::Arep { addr });
                }
                // A prober that sees its own candidate requested by
                // someone else also defends (first-probe-wins heuristic).
                if let Some(p) = self.probing.get(&to) {
                    if p.addr == addr && to != from {
                        let _ =
                            w.unicast(to, from, MsgCategory::Configuration, DadMsg::Arep { addr });
                    }
                }
            }
            DadMsg::Arep { addr } => {
                if let Some(p) = self.probing.get_mut(&to) {
                    if p.addr == addr {
                        p.conflicted = true;
                        if let Some(h) = w.hops_between(from, to) {
                            p.hops += h;
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, w: &mut Net<'_, DadMsg>, node: NodeId, tag: u64) {
        if tag != TAG_ROUND {
            return;
        }
        let Some(p) = self.probing.get(&node) else {
            return;
        };
        if p.conflicted {
            // Contested: draw a fresh candidate.
            let tried = p.candidates_tried + 1;
            self.probing.remove(&node);
            w.flow_event(FlowKind::Join, node, FlowStage::Retry { attempt: tried });
            if tried >= 8 {
                w.metrics_mut().record_config_failure();
                w.metrics_mut().record_join_retries(u64::from(tried));
                w.flow_event(FlowKind::Join, node, FlowStage::Abandoned);
                return;
            }
            self.start_probe(w, node, tried);
            return;
        }
        if p.round >= AREQ_RETRIES {
            // Silent after all rounds: adopt the candidate.
            let p = self.probing.remove(&node).expect("probe checked above");
            self.configured.insert(node, p.addr);
            w.metrics_mut().record_config_latency(p.hops);
            w.metrics_mut()
                .record_join_retries(u64::from(p.candidates_tried));
            w.flow_event(FlowKind::Join, node, FlowStage::Assigned);
            w.mark_configured(node);
            return;
        }
        // Next round: flood again.
        let Some(p) = self.probing.get_mut(&node) else {
            return;
        };
        let addr = p.addr;
        p.round += 1;
        p.hops += 1;
        let _ = w.flood(node, MsgCategory::Configuration, DadMsg::Areq { addr });
        w.set_timer(node, AREP_TIMEOUT, TAG_ROUND);
    }

    fn on_leave(&mut self, w: &mut Net<'_, DadMsg>, node: NodeId, graceful: bool) {
        // Stateless: nothing to return, nothing to clean up anywhere.
        if graceful {
            w.remove_node(node);
        }
        self.configured.remove(&node);
        self.probing.remove(&node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{Point, Sim, WorldConfig};

    fn still() -> WorldConfig {
        WorldConfig {
            speed: 0.0,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn lone_node_configures_after_retries() {
        let mut sim = Sim::new(still(), QueryDad::default());
        let a = sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(3));
        assert!(sim.protocol().ip_of(a).is_some());
        // Latency = one hop charged per silent flood round.
        let lat = sim.world().metrics().config_latency();
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.min(), Some(3));
        assert_eq!(lat.max(), Some(3));
    }

    #[test]
    fn conflicting_candidate_is_rejected_and_retried() {
        // Force a collision by shrinking the space to one address: the
        // second node must fail (every candidate is defended).
        let cfg = DadConfig {
            space: AddrBlock::new(Addr::new(1), 1).unwrap(),
        };
        let mut sim = Sim::new(still(), QueryDad::new(cfg));
        let a = sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.protocol().ip_of(a), Some(Addr::new(1)));
        let b = sim.spawn_at(Point::new(550.0, 500.0));
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(sim.protocol().ip_of(b), None, "sole address is defended");
        assert!(sim.world().metrics().failed_configurations() >= 1);
    }

    #[test]
    fn chain_configures_uniquely_when_connected() {
        let mut sim = Sim::new(still(), QueryDad::default());
        for i in 0..8 {
            sim.spawn_at(Point::new(100.0 + 100.0 * f64::from(i), 500.0));
            sim.run_for(SimDuration::from_secs(3));
        }
        let assigned = sim.protocol().assigned(sim.world());
        assert_eq!(assigned.len(), 8);
        assert!(sim.protocol().duplicates(sim.world()).is_empty());
    }

    #[test]
    fn partitioned_twins_can_collide() {
        // Two isolated nodes with a two-address space: collisions are
        // possible and undetectable until merge — the stateless flaw.
        let cfg = DadConfig {
            space: AddrBlock::new(Addr::new(0), 2).unwrap(),
        };
        let mut found_collision = false;
        for seed in 0..8 {
            let world = WorldConfig {
                speed: 0.0,
                seed,
                ..WorldConfig::default()
            };
            let mut sim = Sim::new(world, QueryDad::new(cfg.clone()));
            sim.spawn_at(Point::new(0.0, 0.0));
            sim.spawn_at(Point::new(1000.0, 1000.0));
            sim.run_for(SimDuration::from_secs(10));
            if !sim.protocol().duplicates(sim.world()).is_empty() {
                found_collision = true;
                break;
            }
        }
        assert!(
            found_collision,
            "with a 2-address space, 8 seeds must produce a partitioned collision"
        );
    }

    #[test]
    fn flooding_dominates_overhead() {
        let mut sim = Sim::new(still(), QueryDad::default());
        for i in 0..6 {
            sim.spawn_at(Point::new(300.0 + 80.0 * f64::from(i), 500.0));
            sim.run_for(SimDuration::from_secs(3));
        }
        let hops = sim.world().metrics().hops(MsgCategory::Configuration);
        // Each node floods `retries` times over a growing component.
        assert!(hops >= 6 * 3, "flood rounds must dominate: {hops}");
    }
}
