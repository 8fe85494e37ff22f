//! The Mohsin–Prakash buddy protocol (MILCOM 2002): disjoint blocks with
//! periodic global synchronization.
//!
//! Every configured node owns a disjoint address block and can configure
//! a newcomer on its own by handing over half its block (binary-buddy
//! split) — configuration is therefore fast and local. The cost moves
//! elsewhere: all nodes maintain the global allocation table, kept
//! consistent by periodic network-wide synchronization floods, and
//! departures are announced network-wide so the departing block returns
//! to circulation. Those floods are what Figures 8–9 of the paper show
//! growing with network size.

use addrspace::{Addr, AddrBlock, AddressPool, PoolView, STOCK_SPACE};
use proto_io::{
    FlowKind, FlowStage, IdMap, MsgCategory, Net, NetBackend, NodeId, ProtocolCore, SimDuration,
    Versioned,
};

/// Interval of the periodic global table synchronization.
pub const SYNC_INTERVAL: SimDuration = SimDuration::from_secs(4);
/// Retry pause for joiners that found nobody.
const JOIN_RETRY: SimDuration = SimDuration::from_millis(400);

/// Wire messages of the buddy baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum BuddyMsg {
    /// Newcomer → configured neighbor: configure me.
    Req,
    /// Allocator → newcomer: here is your half of my block.
    Assign {
        /// The delegated block; the newcomer takes its first address.
        block: AddrBlock,
        /// Allocator-side hops spent (for latency accounting).
        spent_hops: u32,
    },
    /// Allocator cannot split (single address left).
    Reject,
    /// Periodic global synchronization of a node's view (flooded).
    Sync {
        /// The sender's address.
        ip: Addr,
        /// Size of the sender's block, for borrow decisions.
        free: u64,
    },
    /// Flooded on graceful departure: the block returns to the buddy.
    Departure {
        /// The departing node's address.
        ip: Addr,
        /// The blocks being released.
        blocks: Vec<AddrBlock>,
        /// The buddy that should absorb them.
        heir: NodeId,
    },
}

proto_io::wire_codec! {
    BuddyMsg {
        Req = 0x01,
        Assign = 0x02 { block: block, spent_hops: u32 },
        Reject = 0x03,
        Sync = 0x04 { ip: addr, free: u64 },
        Departure = 0x05 { ip: addr, blocks: [u16; block], heir: node },
    }
}

#[derive(Debug)]
struct BuddyNode {
    pool: AddressPool,
    ip: Addr,
    /// The node we split from — inherits our space when we leave.
    buddy: Option<NodeId>,
}

const TAG_SYNC: u64 = 1;
const TAG_JOIN_RETRY: u64 = 2;

/// The buddy protocol state over all simulated nodes, allocating from
/// [`STOCK_SPACE`].
#[derive(Debug, Default)]
pub struct Buddy {
    /// Every configured node's address and pool: all the conformance
    /// views read.
    nodes: Versioned<IdMap<NodeId, BuddyNode>>,
    joining: IdMap<NodeId, (u32, u32)>, // (attempts, hops)
}

impl Buddy {
    /// The address of `node`, if configured.
    #[must_use]
    pub fn ip_of(&self, node: NodeId) -> Option<Addr> {
        self.nodes.get(&node).map(|n| n.ip)
    }

    /// Moves whenever the state [`assigned`](Self::assigned) and
    /// [`pool_views`](Self::pool_views) read may have changed.
    #[must_use]
    pub fn allocation_version(&self) -> u64 {
        self.nodes.version()
    }

    /// Addresses of every alive configured node.
    #[must_use]
    pub fn assigned<B: NetBackend<BuddyMsg> + ?Sized>(&self, w: &B) -> Vec<(NodeId, Addr)> {
        let mut v: Vec<(NodeId, Addr)> = self
            .nodes
            .iter()
            .filter(|(n, _)| w.is_alive(**n))
            .map(|(n, s)| (*n, s.ip))
            .collect();
        v.sort_unstable();
        v
    }

    /// Address-leak audit for chaos studies: how much of the address
    /// space is held by blocks whose owner is no longer alive? In the
    /// buddy scheme that space is lost until the heir absorbs it
    /// (graceful) or the next sync notices (abrupt).
    ///
    /// Returns `(leaked, total)` address counts; `(0, 0)` before the
    /// first node claims the space.
    #[must_use]
    pub fn leak_audit<B: NetBackend<BuddyMsg> + ?Sized>(&self, w: &B) -> (u64, u64) {
        if self.nodes.is_empty() {
            return (0, 0);
        }
        let total = u64::from(STOCK_SPACE.len());
        let alive: u64 = self
            .nodes
            .iter()
            .filter(|(n, _)| w.is_alive(**n))
            .map(|(_, s)| s.pool.total_len())
            .sum();
        (total.saturating_sub(alive), total)
    }

    /// Accounting snapshots of every alive node's buddy pool, for the
    /// conformance oracle's leak-freedom invariant.
    #[must_use]
    pub fn pool_views<B: NetBackend<BuddyMsg> + ?Sized>(&self, w: &B) -> Vec<(NodeId, PoolView)> {
        let mut v: Vec<(NodeId, PoolView)> = self
            .nodes
            .iter()
            .filter(|(n, _)| w.is_alive(**n))
            .map(|(n, s)| (*n, s.pool.view()))
            .collect();
        v.sort_unstable_by_key(|(n, _)| *n);
        v
    }

    /// The block sizes of all alive nodes (fragmentation studies).
    #[must_use]
    pub fn block_sizes<B: NetBackend<BuddyMsg> + ?Sized>(&self, w: &B) -> Vec<u64> {
        self.nodes
            .iter()
            .filter(|(n, _)| w.is_alive(**n))
            .map(|(_, s)| s.pool.total_len())
            .collect()
    }

    fn attempt_join(&mut self, w: &mut Net<'_, BuddyMsg>, node: NodeId) {
        // Any configured neighbor can allocate; prefer the one with the
        // largest block (the paper's [2] borrows from the largest
        // holder). Fall back to the nearest configured node via
        // multi-hop routing when no neighbor is configured yet.
        let one_hop = w
            .neighbors(node)
            .into_iter()
            .filter(|n| self.nodes.contains_key(n))
            .max_by_key(|n| self.nodes[n].pool.total_len());
        let neighbor = one_hop.or_else(|| {
            w.nearest(node, &mut |n| self.nodes.contains_key(&n))
                .map(|(n, _)| n)
        });
        if let Some(alloc) = neighbor {
            if let Ok(h) = w.unicast(node, alloc, MsgCategory::Configuration, BuddyMsg::Req) {
                if let Some(j) = self.joining.get_mut(&node) {
                    j.1 += h;
                }
                return;
            }
        }
        // Nobody reachable in this component: bootstrap it (mirrors the
        // quorum protocol's first-node procedure so per-component network
        // formation is comparable).
        if neighbor.is_none() {
            let _ = w.broadcast_within(node, 1, MsgCategory::Configuration, BuddyMsg::Req);
            let mut pool = AddressPool::from_block(STOCK_SPACE);
            let ip = pool.allocate_first(node.index()).expect("space non-empty");
            self.nodes.insert(
                node,
                BuddyNode {
                    pool,
                    ip,
                    buddy: None,
                },
            );
            let attempts = self.joining.remove(&node).map_or(0, |j| j.0);
            w.metrics_mut().record_config_latency(1);
            w.metrics_mut().record_join_retries(u64::from(attempts));
            w.flow_event(FlowKind::Join, node, FlowStage::Assigned);
            w.mark_configured(node);
            w.set_timer(node, SYNC_INTERVAL, TAG_SYNC);
            return;
        }
        let Some(j) = self.joining.get_mut(&node) else {
            return;
        };
        j.0 += 1;
        let tries = j.0;
        w.flow_event(FlowKind::Join, node, FlowStage::Retry { attempt: tries });
        if tries < 8 {
            w.set_timer(node, JOIN_RETRY, TAG_JOIN_RETRY);
        } else {
            w.metrics_mut().record_config_failure();
            w.metrics_mut().record_join_retries(u64::from(tries));
            w.flow_event(FlowKind::Join, node, FlowStage::Abandoned);
        }
    }
}

impl ProtocolCore for Buddy {
    type Msg = BuddyMsg;

    fn on_join(&mut self, w: &mut Net<'_, BuddyMsg>, node: NodeId) {
        self.joining.insert(node, (0, 0));
        w.flow_event(FlowKind::Join, node, FlowStage::Started);
        self.attempt_join(w, node);
    }

    fn on_message(&mut self, w: &mut Net<'_, BuddyMsg>, to: NodeId, from: NodeId, msg: BuddyMsg) {
        match msg {
            BuddyMsg::Req => {
                let Some(alloc) = self.nodes.get_mut(&to) else {
                    return;
                };
                match alloc.pool.split_half() {
                    Ok(block) => {
                        let reply_hops = w.hops_between(to, from).unwrap_or(1);
                        if w.unicast(
                            to,
                            from,
                            MsgCategory::Configuration,
                            BuddyMsg::Assign {
                                block,
                                spent_hops: reply_hops,
                            },
                        )
                        .is_err()
                        {
                            // Take the block back if the joiner vanished.
                            if let Some(a) = self.nodes.get_mut(&to) {
                                let _ = a.pool.absorb(block);
                            }
                        }
                    }
                    Err(_) => {
                        let _ = w.unicast(to, from, MsgCategory::Configuration, BuddyMsg::Reject);
                    }
                }
            }
            BuddyMsg::Assign { block, spent_hops } => {
                let Some((attempts, req_hops)) = self.joining.remove(&to) else {
                    return;
                };
                let mut pool = AddressPool::from_block(block);
                let ip = pool.allocate_first(to.index()).expect("block non-empty");
                self.nodes.insert(
                    to,
                    BuddyNode {
                        pool,
                        ip,
                        buddy: Some(from),
                    },
                );
                w.metrics_mut().record_config_latency(req_hops + spent_hops);
                w.metrics_mut().record_join_retries(u64::from(attempts));
                w.flow_event(FlowKind::Join, to, FlowStage::Assigned);
                w.mark_configured(to);
                w.set_timer(to, SYNC_INTERVAL, TAG_SYNC);
            }
            BuddyMsg::Reject => {
                if self.joining.contains_key(&to) {
                    w.set_timer(to, JOIN_RETRY, TAG_JOIN_RETRY);
                }
            }
            BuddyMsg::Sync { .. } => {
                // Tables are logically merged; cost is what matters here.
            }
            BuddyMsg::Departure {
                ip: _,
                blocks,
                heir,
            } => {
                if to == heir {
                    if let Some(me) = self.nodes.get_mut(&to) {
                        for b in blocks {
                            let _ = me.pool.absorb(b);
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, w: &mut Net<'_, BuddyMsg>, node: NodeId, tag: u64) {
        match tag {
            TAG_SYNC => {
                let Some(me) = self.nodes.get(&node) else {
                    return;
                };
                // Periodic global synchronization (the protocol's defining
                // overhead).
                let msg = BuddyMsg::Sync {
                    ip: me.ip,
                    free: me.pool.free_count(),
                };
                let _ = w.flood(node, MsgCategory::Sync, msg);
                w.set_timer(node, SYNC_INTERVAL, TAG_SYNC);
            }
            TAG_JOIN_RETRY if self.joining.contains_key(&node) => {
                self.attempt_join(w, node);
            }
            _ => {}
        }
    }

    fn on_leave(&mut self, w: &mut Net<'_, BuddyMsg>, node: NodeId, graceful: bool) {
        if graceful {
            if let Some(me) = self.nodes.get(&node) {
                let heir = me
                    .buddy
                    .filter(|b| w.is_alive(*b) && self.nodes.contains_key(b))
                    .or_else(|| {
                        // Lowest id, so the pick does not depend on
                        // hash-map iteration order.
                        self.nodes
                            .keys()
                            .filter(|n| **n != node && w.is_alive(**n))
                            .min()
                            .copied()
                    });
                if let Some(heir) = heir {
                    // The whole network must learn the departure so the
                    // global tables stay consistent — a flood (Figure 9's
                    // cost driver).
                    let msg = BuddyMsg::Departure {
                        ip: me.ip,
                        blocks: me.pool.blocks().to_vec(),
                        heir,
                    };
                    let _ = w.flood(node, MsgCategory::Maintenance, msg);
                }
            }
            w.remove_node(node);
        }
        // Abrupt: the buddy notices the loss at the next sync; the block
        // leaks until then (the paper's address-leak discussion).
    }

    fn is_cluster_head(&self, node: NodeId) -> bool {
        // Every configured node holding spare space is an allocator, so
        // a targeted head-kill hits exactly the nodes that can still
        // hand out addresses.
        self.nodes
            .get(&node)
            .is_some_and(|n| n.pool.free_count() > 0)
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
    fn blocks_halve_down_the_chain() {
        let mut sim = Sim::new(still(), Buddy::default());
        let a = sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        let b = sim.spawn_at(Point::new(560.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        let c = sim.spawn_at(Point::new(540.0, 540.0));
        sim.run_for(SimDuration::from_secs(1));

        let p = sim.protocol();
        let total: u64 = p.block_sizes(sim.world()).iter().sum();
        assert_eq!(total, 1 << 16, "no addresses lost by splitting");
        assert!(p.ip_of(a).is_some() && p.ip_of(b).is_some() && p.ip_of(c).is_some());
    }

    #[test]
    fn configuration_is_local_and_fast() {
        let mut sim = Sim::new(still(), Buddy::default());
        sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        sim.spawn_at(Point::new(560.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        let lat = sim.world().metrics().config_latency();
        assert!(
            lat.max().unwrap() <= 3,
            "one-hop request + assign must stay local: {lat:?}"
        );
    }

    #[test]
    fn sync_floods_accumulate() {
        let mut sim = Sim::new(still(), Buddy::default());
        for i in 0..6 {
            sim.spawn_at(Point::new(300.0 + 60.0 * i as f64, 500.0));
        }
        sim.run_for(SimDuration::from_secs(20));
        let sync = sim.world().metrics().hops(MsgCategory::Sync);
        // 6 nodes × ~5 sync rounds × component size 6.
        assert!(sync >= 100, "periodic sync must dominate: {sync}");
    }

    #[test]
    fn departure_returns_block_to_buddy() {
        let mut sim = Sim::new(still(), Buddy::default());
        let a = sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        let b = sim.spawn_at(Point::new(560.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        let a_before = sim.protocol().nodes[&a].pool.total_len();
        sim.leave_now(b, true);
        sim.run_for(SimDuration::from_secs(1));
        let a_after = sim.protocol().nodes[&a].pool.total_len();
        assert!(a_after > a_before, "buddy inherits the departed block");
        assert_eq!(a_after, 1 << 16);
    }

    #[test]
    fn unique_addresses_under_load() {
        let mut sim = Sim::new(still(), Buddy::default());
        for i in 0..20 {
            sim.spawn_at(Point::new(
                200.0 + 120.0 * (i % 6) as f64,
                300.0 + 120.0 * (i / 6) as f64,
            ));
            sim.run_for(SimDuration::from_secs(1));
        }
        let assigned = sim.protocol().assigned(sim.world());
        assert_eq!(assigned.len(), 20);
        let mut ips: Vec<Addr> = assigned.iter().map(|(_, ip)| *ip).collect();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), 20);
    }
}
