//! MANETconf (Nesargi & Prakash, INFOCOM 2002): full replication.
//!
//! Every configured node keeps the allocation table of the whole network.
//! A newcomer asks a one-hop neighbor to act as *initiator*; the
//! initiator picks a candidate address, floods an `Initiator_Request`,
//! and may assign only after every known node confirms the address is
//! unused. Commits and departures are likewise flooded so all replicas
//! stay identical — the price of full replication that the quorum
//! protocol's partial replication avoids.

use addrspace::{Addr, AddrStatus, AllocationTable, STOCK_SPACE};
use proto_io::{
    FlowKind, FlowStage, IdMap, IdSet, MsgCategory, Net, NetBackend, NodeId, ProtocolCore,
    SimDuration, SimTime, Versioned,
};

/// How long an initiator waits for confirmations before deciding.
const REPLY_WAIT: SimDuration = SimDuration::from_millis(250);
/// Retry pause for a newcomer that found no configured neighbor yet.
const JOIN_RETRY: SimDuration = SimDuration::from_millis(400);
/// Maximum candidate addresses an initiator tries per requestor.
const MAX_CANDIDATES: u32 = 4;

/// Wire messages of the MANETconf baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum McMsg {
    /// Newcomer → one-hop neighbor: please act as my initiator.
    Req,
    /// Initiator floods the candidate address for confirmation.
    InitReq {
        /// Candidate address.
        addr: Addr,
        /// The node being configured.
        requestor: NodeId,
    },
    /// Configured node → initiator: the candidate is fine by my table.
    InitOk {
        /// Candidate being confirmed.
        addr: Addr,
    },
    /// Configured node → initiator: conflict, candidate in use.
    InitNo {
        /// Candidate being rejected.
        addr: Addr,
    },
    /// Initiator → newcomer: you are configured.
    Assign {
        /// The assigned address.
        addr: Addr,
        /// Critical-path hops the initiator spent on this configuration.
        spent_hops: u32,
    },
    /// Flooded after assignment so every table records the allocation.
    Commit {
        /// The committed address.
        addr: Addr,
        /// Its owner.
        owner: NodeId,
    },
    /// Flooded on graceful departure so every table frees the address.
    Cleanup {
        /// The released address.
        addr: Addr,
    },
}

proto_io::wire_codec! {
    McMsg {
        Req = 0x01,
        InitReq = 0x02 { addr: addr, requestor: node },
        InitOk = 0x03 { addr: addr },
        InitNo = 0x04 { addr: addr },
        Assign = 0x05 { addr: addr, spent_hops: u32 },
        Commit = 0x06 { addr: addr, owner: node },
        Cleanup = 0x07 { addr: addr },
    }
}

#[derive(Debug, Clone)]
enum McRole {
    Unconfigured { attempts: u32, hops: u32 },
    Configured { ip: Addr },
}

#[derive(Debug)]
struct PendingInit {
    requestor: NodeId,
    /// Requestors waiting for this initiator to free up.
    queue: Vec<NodeId>,
    addr: Addr,
    expected: IdSet<NodeId>,
    oks: IdSet<NodeId>,
    refused: bool,
    candidates_tried: u32,
    /// Critical-path hops so far (request + flood depth + worst reply).
    hops: u32,
    max_reply: u32,
}

const TAG_REPLY_WAIT: u64 = 1;
const TAG_JOIN_RETRY: u64 = 2;

/// The lowest address of [`STOCK_SPACE`] that `table` holds free.
fn first_free(table: &AllocationTable) -> Option<Addr> {
    STOCK_SPACE.iter().find(|a| table.status(*a).is_available())
}

/// The MANETconf protocol state over all simulated nodes, allocating
/// from [`STOCK_SPACE`].
#[derive(Debug, Default)]
pub struct ManetConf {
    /// Every node's role and address: all the conformance view reads.
    roles: Versioned<IdMap<NodeId, McRole>>,
    tables: IdMap<NodeId, AllocationTable>,
    pending: IdMap<NodeId, PendingInit>, // keyed by initiator
    /// Tentative per-node reservations: a confirmed `Initiator_Request`
    /// blocks the candidate until the expiry, so two concurrent
    /// initiators cannot both collect all-OK for one address.
    reservations: IdMap<NodeId, IdMap<Addr, SimTime>>,
}

impl ManetConf {
    /// The address of `node`, if configured.
    #[must_use]
    pub fn ip_of(&self, node: NodeId) -> Option<Addr> {
        match self.roles.get(&node) {
            Some(McRole::Configured { ip }) => Some(*ip),
            _ => None,
        }
    }

    /// Address-leak audit for chaos studies: in a surviving replica of
    /// the (fully replicated) allocation table, how many allocated
    /// entries belong to nodes that are no longer alive? Those
    /// addresses stay blocked until a departure flood cleans them up.
    ///
    /// Returns `(leaked, tracked)` entry counts; `(0, 0)` if no
    /// configured node survives.
    #[must_use]
    pub fn leak_audit<B: NetBackend<McMsg> + ?Sized>(&self, w: &B) -> (u64, u64) {
        // Lowest-id survivor, so the audit is deterministic even if the
        // replicas diverged under message loss.
        let Some(table) = self
            .tables
            .iter()
            .filter(|(n, _)| w.is_alive(**n))
            .min_by_key(|(n, _)| **n)
            .map(|(_, t)| t)
        else {
            return (0, 0);
        };
        let mut leaked = 0;
        let mut tracked = 0;
        for (_, owner) in table.allocated() {
            tracked += 1;
            if !w.is_alive(NodeId::new(owner)) {
                leaked += 1;
            }
        }
        (leaked, tracked)
    }

    /// Moves whenever the state [`assigned`](Self::assigned) reads may
    /// have changed.
    #[must_use]
    pub fn allocation_version(&self) -> u64 {
        self.roles.version()
    }

    /// Addresses of every alive configured node.
    #[must_use]
    pub fn assigned<B: NetBackend<McMsg> + ?Sized>(&self, w: &B) -> Vec<(NodeId, Addr)> {
        let mut v: Vec<(NodeId, Addr)> = self
            .roles
            .iter()
            .filter(|(n, _)| w.is_alive(**n))
            .filter_map(|(n, r)| match r {
                McRole::Configured { ip } => Some((*n, *ip)),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    fn configured_neighbor(&self, w: &mut Net<'_, McMsg>, node: NodeId) -> Option<NodeId> {
        // Prefer a one-hop initiator (the protocol as published), chosen
        // uniformly so initiator load spreads instead of piling onto one
        // hot node; fall back to the nearest configured node via
        // multi-hop routing so sparse arrival orders still converge.
        let candidates: Vec<NodeId> = w
            .neighbors(node)
            .into_iter()
            .filter(|n| matches!(self.roles.get(n), Some(McRole::Configured { .. })))
            .collect();
        w.rng_choose(&candidates).copied().or_else(|| {
            w.nearest(node, &mut |n| {
                matches!(self.roles.get(&n), Some(McRole::Configured { .. }))
            })
            .map(|(n, _)| n)
        })
    }

    fn attempt_join(&mut self, w: &mut Net<'_, McMsg>, node: NodeId) {
        if let Some(initiator) = self.configured_neighbor(w, node) {
            if let Ok(h) = w.unicast(node, initiator, MsgCategory::Configuration, McMsg::Req) {
                if let Some(McRole::Unconfigured { hops, attempts }) = self.roles.get_mut(&node) {
                    *hops += h;
                    *attempts += 1;
                }
                // Queued at the initiator; re-check with growing backoff
                // in case the initiator died or the reply was lost.
                let attempts_now = match self.roles.get(&node) {
                    Some(McRole::Unconfigured { attempts, .. }) => *attempts,
                    _ => 0,
                };
                let retry = JOIN_RETRY * u64::from(attempts_now.min(8) + 1);
                w.set_timer(node, retry, TAG_JOIN_RETRY);
                return;
            }
        }
        // Nobody reachable in this component: bootstrap it (the first
        // node of each partition self-configures after a probe, matching
        // MANETconf's partition support).
        if self.configured_neighbor(w, node).is_none() {
            // Probe broadcast then self-assign (one round, to keep the
            // baseline comparable with the quorum protocol's Max_r loop).
            let _ = w.broadcast_within(node, 1, MsgCategory::Configuration, McMsg::Req);
            let ip = STOCK_SPACE.base();
            self.configure(w, node, ip, 1, None);
            return;
        }
        let Some(McRole::Unconfigured { attempts, .. }) = self.roles.get_mut(&node) else {
            return;
        };
        *attempts += 1;
        let tries = *attempts;
        w.flow_event(FlowKind::Join, node, FlowStage::Retry { attempt: tries });
        if tries < 16 {
            w.set_timer(node, JOIN_RETRY, TAG_JOIN_RETRY);
        } else {
            w.metrics_mut().record_config_failure();
            w.metrics_mut().record_join_retries(u64::from(tries));
            w.flow_event(FlowKind::Join, node, FlowStage::Abandoned);
        }
    }

    fn configure(
        &mut self,
        w: &mut Net<'_, McMsg>,
        node: NodeId,
        ip: Addr,
        latency: u32,
        basis: Option<NodeId>,
    ) {
        // A newly configured node adopts the full table — the assigning
        // initiator's copy (full replication keeps them all equal).
        let attempts = match self.roles.get(&node) {
            Some(McRole::Unconfigured { attempts, .. }) => *attempts,
            _ => 0,
        };
        let mut table = basis
            .and_then(|b| self.tables.get(&b))
            .cloned()
            .unwrap_or_default();
        table.set(ip, AddrStatus::Allocated(node.index()));
        self.tables.insert(node, table);
        self.roles.insert(node, McRole::Configured { ip });
        w.metrics_mut().record_config_latency(latency);
        w.metrics_mut().record_join_retries(u64::from(attempts));
        w.flow_event(FlowKind::Join, node, FlowStage::Assigned);
        w.mark_configured(node);
    }

    fn start_init(&mut self, w: &mut Net<'_, McMsg>, initiator: NodeId, requestor: NodeId) {
        if let Some(p) = self.pending.get_mut(&initiator) {
            // An initiator serves one request at a time; later requestors
            // queue instead of being dropped (and re-flooding retries).
            if p.requestor != requestor && !p.queue.contains(&requestor) {
                p.queue.push(requestor);
            }
            return;
        }
        let Some(table) = self.tables.get(&initiator) else {
            return;
        };
        let Some(addr) = first_free(table) else {
            return; // space exhausted
        };
        self.flood_init(w, initiator, requestor, addr, 0);
    }

    fn flood_init(
        &mut self,
        w: &mut Net<'_, McMsg>,
        initiator: NodeId,
        requestor: NodeId,
        addr: Addr,
        candidates_tried: u32,
    ) {
        // The flood reaches the rest of the initiator's component, in
        // `(depth, id)` order: every configured node in it but the
        // requestor must confirm, and the last one's depth dominates
        // this phase's latency.
        let reach = w.nodes_within(initiator, u32::MAX);
        let expected: IdSet<NodeId> = reach
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| {
                *n != requestor && matches!(self.roles.get(n), Some(McRole::Configured { .. }))
            })
            .collect();
        let depth = reach.last().map_or(0, |&(_, d)| d);
        let _ = w.flood(
            initiator,
            MsgCategory::Configuration,
            McMsg::InitReq { addr, requestor },
        );

        let queue = self
            .pending
            .remove(&initiator)
            .map(|p| p.queue)
            .unwrap_or_default();
        self.pending.insert(
            initiator,
            PendingInit {
                requestor,
                queue,
                addr,
                expected,
                oks: IdSet::default(),
                refused: false,
                candidates_tried,
                hops: depth,
                max_reply: 0,
            },
        );
        w.set_timer(initiator, REPLY_WAIT, TAG_REPLY_WAIT);
    }

    fn decide(&mut self, w: &mut Net<'_, McMsg>, initiator: NodeId) {
        let Some(p) = self.pending.remove(&initiator) else {
            return;
        };
        let queue = p.queue.clone();
        let all_confirmed = !p.refused && p.expected.is_subset(&p.oks);
        if all_confirmed {
            let latency_so_far = 1 + p.hops + p.max_reply; // Req + flood + worst reply
            let assign = McMsg::Assign {
                addr: p.addr,
                spent_hops: latency_so_far,
            };
            if w.unicast(initiator, p.requestor, MsgCategory::Configuration, assign)
                .is_ok()
            {
                // Commit the allocation everywhere.
                let _ = w.flood(
                    initiator,
                    MsgCategory::Configuration,
                    McMsg::Commit {
                        addr: p.addr,
                        owner: p.requestor,
                    },
                );
                if let Some(t) = self.tables.get_mut(&initiator) {
                    t.set(p.addr, AddrStatus::Allocated(p.requestor.index()));
                }
            }
            self.serve_queue(w, initiator, queue);
            return;
        }
        // Conflict or missing confirmations: try the next candidate.
        if p.candidates_tried + 1 < MAX_CANDIDATES {
            let next = self.tables.get(&initiator).and_then(|t| {
                STOCK_SPACE
                    .iter()
                    .find(|a| *a > p.addr && t.status(*a).is_available())
            });
            if let Some(addr) = next {
                self.flood_init(w, initiator, p.requestor, addr, p.candidates_tried + 1);
                return;
            }
        }
        w.metrics_mut().record_config_failure();
        self.serve_queue(w, initiator, queue);
    }

    /// Starts serving the next still-unconfigured queued requestor.
    fn serve_queue(&mut self, w: &mut Net<'_, McMsg>, initiator: NodeId, queue: Vec<NodeId>) {
        let mut rest = queue.into_iter();
        for next in rest.by_ref() {
            if matches!(self.roles.get(&next), Some(McRole::Unconfigured { .. }))
                && w.is_alive(next)
            {
                self.start_init(w, initiator, next);
                // Re-attach the remaining queue.
                if let Some(p) = self.pending.get_mut(&initiator) {
                    for q in rest {
                        if !p.queue.contains(&q) {
                            p.queue.push(q);
                        }
                    }
                }
                return;
            }
        }
    }
}

impl ProtocolCore for ManetConf {
    type Msg = McMsg;

    fn on_join(&mut self, w: &mut Net<'_, McMsg>, node: NodeId) {
        self.roles.insert(
            node,
            McRole::Unconfigured {
                attempts: 0,
                hops: 0,
            },
        );
        w.flow_event(FlowKind::Join, node, FlowStage::Started);
        self.attempt_join(w, node);
    }

    fn on_message(&mut self, w: &mut Net<'_, McMsg>, to: NodeId, from: NodeId, msg: McMsg) {
        match msg {
            McMsg::Req => {
                if matches!(self.roles.get(&to), Some(McRole::Configured { .. })) {
                    self.start_init(w, to, from);
                }
            }
            McMsg::InitReq { addr, requestor } => {
                let Some(McRole::Configured { .. }) = self.roles.get(&to) else {
                    return;
                };
                if to == requestor {
                    return;
                }
                let now = w.now();
                let free_in_table = self
                    .tables
                    .get(&to)
                    .is_none_or(|t| t.status(addr).is_available());
                let reserved = self
                    .reservations
                    .get(&to)
                    .and_then(|r| r.get(&addr))
                    .is_some_and(|expiry| *expiry > now);
                let ok = free_in_table && !reserved;
                if ok {
                    // Tentatively reserve until well past the decision.
                    let expiry = now + REPLY_WAIT * 4;
                    self.reservations
                        .entry(to)
                        .or_default()
                        .insert(addr, expiry);
                }
                let reply = if ok {
                    McMsg::InitOk { addr }
                } else {
                    McMsg::InitNo { addr }
                };
                let _ = w.unicast(to, from, MsgCategory::Configuration, reply);
            }
            McMsg::InitOk { addr } => {
                if let Some(p) = self.pending.get_mut(&to) {
                    if p.addr == addr {
                        p.oks.insert(from);
                        if let Some(h) = w.hops_between(from, to) {
                            p.max_reply = p.max_reply.max(h);
                        }
                        if p.expected.is_subset(&p.oks) {
                            self.decide(w, to);
                        }
                    }
                }
            }
            McMsg::InitNo { addr } => {
                if let Some(p) = self.pending.get_mut(&to) {
                    if p.addr == addr {
                        p.refused = true;
                        self.decide(w, to);
                    }
                }
            }
            McMsg::Assign { addr, spent_hops } => {
                if matches!(self.roles.get(&to), Some(McRole::Unconfigured { .. })) {
                    let base = match self.roles.get(&to) {
                        Some(McRole::Unconfigured { hops, .. }) => *hops,
                        _ => 0,
                    };
                    let assign_hop = w.hops_between(from, to).unwrap_or(1);
                    self.configure(w, to, addr, base + spent_hops + assign_hop, Some(from));
                }
            }
            McMsg::Commit { addr, owner } => {
                if let Some(t) = self.tables.get_mut(&to) {
                    t.set(addr, AddrStatus::Allocated(owner.index()));
                }
            }
            McMsg::Cleanup { addr } => {
                if let Some(t) = self.tables.get_mut(&to) {
                    if matches!(t.status(addr), AddrStatus::Allocated(_)) {
                        t.set(addr, AddrStatus::Vacant);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, w: &mut Net<'_, McMsg>, node: NodeId, tag: u64) {
        match tag {
            TAG_REPLY_WAIT => self.decide(w, node),
            TAG_JOIN_RETRY => {
                if matches!(self.roles.get(&node), Some(McRole::Unconfigured { .. })) {
                    self.attempt_join(w, node);
                }
            }
            _ => {}
        }
    }

    fn on_leave(&mut self, w: &mut Net<'_, McMsg>, node: NodeId, graceful: bool) {
        if graceful {
            if let Some(McRole::Configured { ip }) = self.roles.get(&node) {
                // Full replication: the departure is flooded so every
                // table frees the address.
                let _ = w.flood(node, MsgCategory::Maintenance, McMsg::Cleanup { addr: *ip });
            }
            w.remove_node(node);
        }
        // Abrupt: the address leaks until a later initiator's flood fails
        // to gather this node's confirmation (modeled by the reply-wait
        // decision accepting missing votes only from departed nodes).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{Point, Sim, SimDuration, WorldConfig};

    fn still() -> WorldConfig {
        WorldConfig {
            speed: 0.0,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn first_node_self_configures() {
        let mut sim = Sim::new(still(), ManetConf::default());
        let a = sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.protocol().ip_of(a), Some(Addr::new(0x0A00_0000)));
    }

    #[test]
    fn second_node_configured_by_flooded_confirmation() {
        let mut sim = Sim::new(still(), ManetConf::default());
        sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        let b = sim.spawn_at(Point::new(560.0, 500.0));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.protocol().ip_of(b), Some(Addr::new(0x0A00_0001)));
        assert_eq!(sim.world().metrics().configured_nodes(), 2);
    }

    #[test]
    fn chain_of_nodes_all_unique() {
        let mut sim = Sim::new(still(), ManetConf::default());
        for i in 0..12 {
            sim.spawn_at(Point::new(100.0 + 90.0 * i as f64, 500.0));
            sim.run_for(SimDuration::from_secs(2));
        }
        let assigned = sim.protocol().assigned(sim.world());
        assert_eq!(assigned.len(), 12);
        let mut ips: Vec<Addr> = assigned.iter().map(|(_, ip)| *ip).collect();
        ips.dedup();
        assert_eq!(ips.len(), 12, "all addresses unique");
    }

    #[test]
    fn graceful_departure_frees_address_everywhere() {
        let mut sim = Sim::new(still(), ManetConf::default());
        sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        let b = sim.spawn_at(Point::new(560.0, 500.0));
        sim.run_for(SimDuration::from_secs(2));
        let ip_b = sim.protocol().ip_of(b).unwrap();
        sim.leave_now(b, true);
        sim.run_for(SimDuration::from_secs(1));
        // The freed address is reassigned to the next joiner.
        let c = sim.spawn_at(Point::new(540.0, 500.0));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.protocol().ip_of(c), Some(ip_b));
    }

    #[test]
    fn confirmation_round_expects_the_configured_component_and_its_depth() {
        let mut sim = Sim::new(still(), ManetConf::default());
        // Component A: a four-node chain, 100 m apart at 150 m range.
        let chain: Vec<NodeId> = (0..4)
            .map(|i| {
                let n = sim.spawn_at(Point::new(100.0 + 100.0 * f64::from(i), 100.0));
                sim.run_for(SimDuration::from_secs(2));
                n
            })
            .collect();
        // Component B, out of A's reach.
        for x in [100.0, 200.0] {
            sim.spawn_at(Point::new(x, 900.0));
            sim.run_for(SimDuration::from_secs(2));
        }
        // Two joiners in A, still unconfigured: one past the chain's far
        // end, and the requestor beside the initiator.
        let far = sim.spawn_at(Point::new(500.0, 100.0));
        let requestor = sim.spawn_at(Point::new(100.0, 200.0));
        let initiator = chain[0];

        let (w, p) = sim.parts_mut();
        let component = w.component_of(initiator);
        let want: IdSet<NodeId> = component
            .iter()
            .copied()
            .filter(|n| *n != initiator && *n != requestor && p.ip_of(*n).is_some())
            .collect();
        let depth = component
            .iter()
            .filter_map(|n| w.hops_between(initiator, *n))
            .max();
        assert!(component.contains(&far) && p.ip_of(far).is_none());
        assert_eq!(want, chain[1..].iter().copied().collect());
        assert_eq!(depth, Some(4));

        let addr = first_free(&p.tables[&initiator]).expect("space left");
        p.flood_init(w, initiator, requestor, addr, 0);
        let pending = &p.pending[&initiator];
        assert_eq!(pending.expected, want);
        assert_eq!(Some(pending.hops), depth);
    }

    #[test]
    fn config_flood_charges_component_size() {
        let mut sim = Sim::new(still(), ManetConf::default());
        for i in 0..5 {
            sim.spawn_at(Point::new(100.0 + 100.0 * i as f64, 500.0));
            sim.run_for(SimDuration::from_secs(2));
        }
        // Every configuration after the first flooded the network at
        // least once (InitReq) plus once more (Commit).
        let m = sim.world().metrics();
        assert!(
            m.hops(MsgCategory::Configuration) > 20,
            "full-replication flooding must dominate: {} hops",
            m.hops(MsgCategory::Configuration)
        );
    }

    #[test]
    fn latency_grows_with_distance_from_initiator() {
        let mut sim = Sim::new(still(), ManetConf::default());
        for i in 0..8 {
            sim.spawn_at(Point::new(100.0 + 120.0 * i as f64, 500.0));
            sim.run_for(SimDuration::from_secs(2));
        }
        let lat = sim.world().metrics().config_latency();
        assert_eq!(lat.count(), 8);
        assert!(
            lat.max().unwrap() > lat.min().unwrap(),
            "late joiners in a long chain wait longer: {lat:?}"
        );
    }
}
