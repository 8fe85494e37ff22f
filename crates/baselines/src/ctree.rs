//! The Sheu–Tu–Chan distributed assignment scheme (ICPADS 2005).
//!
//! Only *coordinators* maintain IP address pools; ordinary nodes get a
//! single address from a coordinator within two hops (mirroring the
//! quorum protocol's clustering rule so the comparison is apples to
//! apples). Coordinators form a virtual tree rooted at the *C-root* —
//! the first node — and periodically report their allocation state to
//! it. The C-root holds the only global view: it detects coordinators
//! that stop reporting and reclaims their space by flooding. There is no
//! replication; if the C-root dies, the global state is gone (the
//! paper's "mainstay but also bottleneck"), and departed addresses are
//! kept by whichever coordinator received them, fragmenting the space.

use addrspace::fragmentation::{self, FragmentationReport};
use addrspace::{Addr, AddrBlock, AddressPool, PoolView, STOCK_SPACE};
use proto_io::{
    FlowKind, FlowStage, IdMap, MsgCategory, Net, NetBackend, NodeId, ProtocolCore, SimDuration,
    Versioned,
};

/// Interval of the periodic coordinator → C-root reports.
const REPORT_INTERVAL: SimDuration = SimDuration::from_secs(4);
/// Reports a coordinator may miss before the C-root reclaims it.
const MISSED_REPORTS: u32 = 2;
/// Retry pause for joiners that found nobody.
const JOIN_RETRY: SimDuration = SimDuration::from_millis(400);

/// Wire messages of the C-tree baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum CtMsg {
    /// Newcomer → coordinator within two hops: give me one address.
    Req,
    /// Newcomer → nearest coordinator: make me a coordinator.
    CoordReq,
    /// Coordinator → newcomer: one address.
    Assign {
        /// The assigned address.
        addr: Addr,
        /// Allocator-side hops (latency accounting).
        spent_hops: u32,
    },
    /// Coordinator → newcomer: half my block; you are a coordinator now.
    CoordAssign {
        /// The delegated block.
        block: AddrBlock,
        /// Allocator-side hops.
        spent_hops: u32,
    },
    /// No space to give.
    Reject,
    /// Periodic coordinator → C-root allocation report.
    Report {
        /// The reporting coordinator's address.
        ip: Addr,
        /// Its current pool size (the C-root's global view).
        pool_len: u64,
        /// Its current free count.
        free: u64,
    },
    /// Departing node → nearest coordinator: keep my address.
    ReturnAddr {
        /// The address being returned (kept by the *receiving*
        /// coordinator — not the original allocator, hence
        /// fragmentation).
        addr: Addr,
    },
    /// Acknowledgement; the departing node may leave.
    ReturnAck,
    /// C-root floods reclamation of a silent coordinator's space.
    Reclaim {
        /// The silent coordinator.
        target: NodeId,
    },
    /// Surviving member of a reclaimed coordinator reports its address.
    ReclaimRep {
        /// The member's address.
        addr: Addr,
        /// The member.
        node: NodeId,
        /// The vanished coordinator being reclaimed.
        coordinator: NodeId,
    },
}

proto_io::wire_codec! {
    CtMsg {
        Req = 0x01,
        CoordReq = 0x02,
        Assign = 0x03 { addr: addr, spent_hops: u32 },
        CoordAssign = 0x04 { block: block, spent_hops: u32 },
        Reject = 0x05,
        Report = 0x06 { ip: addr, pool_len: u64, free: u64 },
        ReturnAddr = 0x07 { addr: addr },
        ReturnAck = 0x08,
        Reclaim = 0x09 { target: node },
        ReclaimRep = 0x0a { addr: addr, node: node, coordinator: node },
    }
}

#[derive(Debug)]
enum CtRole {
    Joining { attempts: u32, hops: u32 },
    Member { ip: Addr, coordinator: NodeId },
    Coordinator { pool: AddressPool, ip: Addr },
}

#[derive(Debug, Default)]
struct RootView {
    /// Last-heard report counter per coordinator.
    reports: IdMap<NodeId, (u64, u64)>, // (pool_len, free)
    missed: IdMap<NodeId, u32>,
}

const TAG_REPORT: u64 = 1;
const TAG_JOIN_RETRY: u64 = 2;
const TAG_ROOT_SCAN: u64 = 3;

/// The C-tree protocol state over all simulated nodes, allocating from
/// [`STOCK_SPACE`].
#[derive(Debug, Default)]
pub struct CTree {
    /// Every node's role, coordinators' pools included: all the
    /// conformance views read.
    roles: Versioned<IdMap<NodeId, CtRole>>,
    root: Option<NodeId>,
    root_view: RootView,
    reclaiming: IdMap<NodeId, Vec<(Addr, NodeId)>>,
}

impl CTree {
    /// The C-root, if the network formed.
    #[must_use]
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// The address of `node`, if configured.
    #[must_use]
    pub fn ip_of(&self, node: NodeId) -> Option<Addr> {
        match self.roles.get(&node) {
            Some(CtRole::Member { ip, .. }) | Some(CtRole::Coordinator { ip, .. }) => Some(*ip),
            _ => None,
        }
    }

    /// Moves whenever the state [`assigned`](Self::assigned) and
    /// [`pool_views`](Self::pool_views) read may have changed.
    #[must_use]
    pub fn allocation_version(&self) -> u64 {
        self.roles.version()
    }

    /// Addresses of every alive configured node.
    #[must_use]
    pub fn assigned<B: NetBackend<CtMsg> + ?Sized>(&self, w: &B) -> Vec<(NodeId, Addr)> {
        let mut v: Vec<(NodeId, Addr)> = self
            .roles
            .iter()
            .filter(|(n, _)| w.is_alive(**n))
            .filter_map(|(n, _)| self.ip_of(*n).map(|ip| (*n, ip)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Address-leak audit for chaos studies: how much coordinator space
    /// belongs to dead coordinators whose reclamation has not started?
    /// The C-root only notices a vanished coordinator after it misses
    /// enough reports, so that space leaks in the meantime.
    ///
    /// Returns `(leaked, tracked)` address counts over all coordinator
    /// pools ever created.
    #[must_use]
    pub fn leak_audit<B: NetBackend<CtMsg> + ?Sized>(&self, w: &B) -> (u64, u64) {
        let mut leaked = 0;
        let mut tracked = 0;
        for (n, role) in self.roles.iter() {
            if let CtRole::Coordinator { pool, .. } = role {
                tracked += pool.total_len();
                if !w.is_alive(*n) && !self.reclaiming.contains_key(n) {
                    leaked += pool.total_len();
                }
            }
        }
        (leaked, tracked)
    }

    /// Alive coordinators.
    #[must_use]
    pub fn coordinators<B: NetBackend<CtMsg> + ?Sized>(&self, w: &B) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .roles
            .iter()
            .filter(|(n, r)| w.is_alive(**n) && matches!(r, CtRole::Coordinator { .. }))
            .map(|(n, _)| *n)
            .collect();
        v.sort_unstable();
        v
    }

    /// Accounting snapshots of every alive coordinator's pool, for the
    /// conformance oracle's leak-freedom invariant.
    #[must_use]
    pub fn pool_views<B: NetBackend<CtMsg> + ?Sized>(&self, w: &B) -> Vec<(NodeId, PoolView)> {
        self.coordinators(w)
            .into_iter()
            .filter_map(|c| match self.roles.get(&c) {
                Some(CtRole::Coordinator { pool, .. }) => Some((c, pool.view())),
                _ => None,
            })
            .collect()
    }

    /// Fragmentation report of each alive coordinator's pool (§VI-C
    /// study: returned addresses stay wherever they were handed in,
    /// scattering singleton blocks).
    #[must_use]
    pub fn coordinator_fragmentation<B: NetBackend<CtMsg> + ?Sized>(
        &self,
        w: &B,
    ) -> Vec<FragmentationReport> {
        self.coordinators(w)
            .into_iter()
            .filter_map(|c| match self.roles.get(&c) {
                Some(CtRole::Coordinator { pool, .. }) => Some(fragmentation::report(pool)),
                _ => None,
            })
            .collect()
    }

    /// Figure 13's preservation rule for the C-tree: a vanished
    /// coordinator's allocation state survives only at the C-root, so it
    /// is preserved iff the C-root is alive (and is not itself the
    /// vanished node). Returns `(preserved, lost)`.
    #[must_use]
    pub fn preservation_audit<B: NetBackend<CtMsg> + ?Sized>(
        &self,
        w: &B,
        departed: &[NodeId],
    ) -> (usize, usize) {
        let root_alive = self.root.is_some_and(|r| w.is_alive(r));
        let mut preserved = 0;
        let mut lost = 0;
        for d in departed {
            let was_coordinator = matches!(self.roles.get(d), Some(CtRole::Coordinator { .. }));
            if !was_coordinator {
                continue;
            }
            let reported = self.root_view.reports.contains_key(d);
            if root_alive && Some(*d) != self.root && reported {
                preserved += 1;
            } else {
                lost += 1;
            }
        }
        (preserved, lost)
    }

    fn coordinator_within(&self, w: &mut Net<'_, CtMsg>, node: NodeId, k: u32) -> Option<NodeId> {
        w.nodes_within(node, k)
            .into_iter()
            .map(|(n, _)| n)
            .find(|n| matches!(self.roles.get(n), Some(CtRole::Coordinator { .. })))
    }

    fn nearest_coordinator(&self, w: &mut Net<'_, CtMsg>, node: NodeId) -> Option<NodeId> {
        w.nearest(node, &mut |n| {
            matches!(self.roles.get(&n), Some(CtRole::Coordinator { .. }))
        })
        .map(|(n, _)| n)
    }

    fn attempt_join(&mut self, w: &mut Net<'_, CtMsg>, node: NodeId) {
        if let Some(coord) = self.coordinator_within(w, node, 2) {
            if let Ok(h) = w.unicast(node, coord, MsgCategory::Configuration, CtMsg::Req) {
                if let Some(CtRole::Joining { hops, .. }) = self.roles.get_mut(&node) {
                    *hops += h;
                }
                return;
            }
        }
        if let Some(coord) = self.nearest_coordinator(w, node) {
            if let Ok(h) = w.unicast(node, coord, MsgCategory::Configuration, CtMsg::CoordReq) {
                if let Some(CtRole::Joining { hops, .. }) = self.roles.get_mut(&node) {
                    *hops += h;
                }
                return;
            }
        }
        // Nobody reachable in this component: become its C-root. (The
        // global `root` pointer tracks the first root; per-component
        // roots mirror how partitions bootstrap.)
        if self.nearest_coordinator(w, node).is_none() {
            let attempts = match self.roles.get(&node) {
                Some(CtRole::Joining { attempts, .. }) => *attempts,
                _ => 0,
            };
            let _ = w.broadcast_within(node, 1, MsgCategory::Configuration, CtMsg::Req);
            let mut pool = AddressPool::from_block(STOCK_SPACE);
            let ip = pool.allocate_first(node.index()).expect("space non-empty");
            self.roles.insert(node, CtRole::Coordinator { pool, ip });
            if self.root.is_none_or(|r| !w.is_alive(r)) {
                self.root = Some(node);
            }
            w.metrics_mut().record_config_latency(1);
            w.metrics_mut().record_join_retries(u64::from(attempts));
            w.flow_event(FlowKind::Join, node, FlowStage::Assigned);
            w.mark_configured(node);
            w.set_timer(node, REPORT_INTERVAL, TAG_ROOT_SCAN);
            return;
        }
        let Some(CtRole::Joining { attempts, .. }) = self.roles.get_mut(&node) else {
            return;
        };
        *attempts += 1;
        let tries = *attempts;
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

impl ProtocolCore for CTree {
    type Msg = CtMsg;

    fn on_join(&mut self, w: &mut Net<'_, CtMsg>, node: NodeId) {
        self.roles.insert(
            node,
            CtRole::Joining {
                attempts: 0,
                hops: 0,
            },
        );
        w.flow_event(FlowKind::Join, node, FlowStage::Started);
        self.attempt_join(w, node);
    }

    fn on_message(&mut self, w: &mut Net<'_, CtMsg>, to: NodeId, from: NodeId, msg: CtMsg) {
        match msg {
            CtMsg::Req => {
                let Some(CtRole::Coordinator { pool, .. }) = self.roles.get_mut(&to) else {
                    return;
                };
                match pool.allocate_first(from.index()) {
                    Ok(addr) => {
                        let h = w.hops_between(to, from).unwrap_or(1);
                        if w.unicast(
                            to,
                            from,
                            MsgCategory::Configuration,
                            CtMsg::Assign {
                                addr,
                                spent_hops: h,
                            },
                        )
                        .is_err()
                        {
                            if let Some(CtRole::Coordinator { pool, .. }) = self.roles.get_mut(&to)
                            {
                                let _ = pool.release(addr);
                            }
                        }
                    }
                    Err(_) => {
                        let _ = w.unicast(to, from, MsgCategory::Configuration, CtMsg::Reject);
                    }
                }
            }
            CtMsg::CoordReq => {
                let Some(CtRole::Coordinator { pool, .. }) = self.roles.get_mut(&to) else {
                    return;
                };
                match pool.split_half() {
                    Ok(block) => {
                        let h = w.hops_between(to, from).unwrap_or(1);
                        if w.unicast(
                            to,
                            from,
                            MsgCategory::Configuration,
                            CtMsg::CoordAssign {
                                block,
                                spent_hops: h,
                            },
                        )
                        .is_err()
                        {
                            if let Some(CtRole::Coordinator { pool, .. }) = self.roles.get_mut(&to)
                            {
                                let _ = pool.absorb(block);
                            }
                        }
                    }
                    Err(_) => {
                        let _ = w.unicast(to, from, MsgCategory::Configuration, CtMsg::Reject);
                    }
                }
            }
            CtMsg::Assign { addr, spent_hops } => {
                let Some(CtRole::Joining { hops, attempts }) = self.roles.get(&to) else {
                    return;
                };
                let total = *hops + spent_hops;
                let attempts = *attempts;
                self.roles.insert(
                    to,
                    CtRole::Member {
                        ip: addr,
                        coordinator: from,
                    },
                );
                w.metrics_mut().record_config_latency(total);
                w.metrics_mut().record_join_retries(u64::from(attempts));
                w.flow_event(FlowKind::Join, to, FlowStage::Assigned);
                w.mark_configured(to);
            }
            CtMsg::CoordAssign { block, spent_hops } => {
                let Some(CtRole::Joining { hops, attempts }) = self.roles.get(&to) else {
                    return;
                };
                let total = *hops + spent_hops;
                let attempts = *attempts;
                let mut pool = AddressPool::from_block(block);
                let ip = pool.allocate_first(to.index()).expect("block non-empty");
                self.roles.insert(to, CtRole::Coordinator { pool, ip });
                w.metrics_mut().record_config_latency(total);
                w.metrics_mut().record_join_retries(u64::from(attempts));
                w.flow_event(FlowKind::Join, to, FlowStage::Assigned);
                w.mark_configured(to);
                // Join the C-tree: first report registers us at the root.
                w.set_timer(to, REPORT_INTERVAL, TAG_REPORT);
            }
            CtMsg::Reject => {
                if matches!(self.roles.get(&to), Some(CtRole::Joining { .. })) {
                    w.set_timer(to, JOIN_RETRY, TAG_JOIN_RETRY);
                }
            }
            CtMsg::Report {
                ip: _,
                pool_len,
                free,
            } => {
                if Some(to) == self.root {
                    self.root_view.reports.insert(from, (pool_len, free));
                    self.root_view.missed.insert(from, 0);
                }
            }
            CtMsg::ReturnAddr { addr } => {
                let _ = w.unicast(to, from, MsgCategory::Maintenance, CtMsg::ReturnAck);
                // The receiving coordinator keeps the address — it is NOT
                // routed back to the original allocator (the paper's
                // fragmentation criticism of [3]).
                if let Some(CtRole::Coordinator { pool, .. }) = self.roles.get_mut(&to) {
                    if pool.owns(addr) {
                        let _ = pool.release(addr);
                    } else if let Ok(b) = AddrBlock::new(addr, 1) {
                        let _ = pool.absorb(b);
                    }
                }
            }
            CtMsg::ReturnAck => {
                w.remove_node(to);
            }
            CtMsg::Reclaim { target } => {
                // Members of the vanished coordinator report in to the
                // C-root.
                if let Some(CtRole::Member { ip, coordinator }) = self.roles.get(&to) {
                    if *coordinator == target {
                        let my_ip = *ip;
                        if let Some(root) = self.root {
                            let _ = w.unicast(
                                to,
                                root,
                                MsgCategory::Reclamation,
                                CtMsg::ReclaimRep {
                                    addr: my_ip,
                                    node: to,
                                    coordinator: target,
                                },
                            );
                        }
                    }
                }
            }
            CtMsg::ReclaimRep {
                addr,
                node,
                coordinator,
            } => {
                if Some(to) == self.root {
                    if let Some(list) = self.reclaiming.get_mut(&coordinator) {
                        list.push((addr, node));
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, w: &mut Net<'_, CtMsg>, node: NodeId, tag: u64) {
        match tag {
            TAG_REPORT => {
                let Some(CtRole::Coordinator { pool, ip }) = self.roles.get(&node) else {
                    return;
                };
                if let Some(root) = self.root.filter(|r| *r != node) {
                    let msg = CtMsg::Report {
                        ip: *ip,
                        pool_len: pool.total_len(),
                        free: pool.free_count(),
                    };
                    let _ = w.unicast(node, root, MsgCategory::Sync, msg);
                }
                w.set_timer(node, REPORT_INTERVAL, TAG_REPORT);
            }
            TAG_ROOT_SCAN => {
                if Some(node) != self.root {
                    return;
                }
                // Missed-report accounting: any registered coordinator
                // that did not report since the last scan gets a strike;
                // enough strikes trigger reclamation by flooding.
                let mut known: Vec<NodeId> = self.root_view.reports.keys().copied().collect();
                known.sort_unstable(); // deterministic reclamation order
                for c in known {
                    let counter = self.root_view.missed.entry(c).or_insert(0);
                    *counter += 1;
                    if *counter > MISSED_REPORTS {
                        self.root_view.missed.remove(&c);
                        self.root_view.reports.remove(&c);
                        self.reclaiming.insert(c, Vec::new());
                        let _ =
                            w.flood(node, MsgCategory::Reclamation, CtMsg::Reclaim { target: c });
                    }
                }
                w.set_timer(node, REPORT_INTERVAL, TAG_ROOT_SCAN);
            }
            TAG_JOIN_RETRY => {
                if matches!(self.roles.get(&node), Some(CtRole::Joining { .. })) {
                    self.attempt_join(w, node);
                }
            }
            _ => {}
        }
    }

    fn on_leave(&mut self, w: &mut Net<'_, CtMsg>, node: NodeId, graceful: bool) {
        if graceful {
            if let Some(CtRole::Member { ip, .. }) = self.roles.get(&node) {
                let my_ip = *ip;
                if let Some(coord) = self.nearest_coordinator(w, node) {
                    if w.unicast(
                        node,
                        coord,
                        MsgCategory::Maintenance,
                        CtMsg::ReturnAddr { addr: my_ip },
                    )
                    .is_ok()
                    {
                        return; // leaves on ReturnAck
                    }
                }
            }
            // Coordinators hand nothing back in [3]; their space is
            // recovered by C-root reclamation.
            w.remove_node(node);
        }
    }

    fn is_cluster_head(&self, node: NodeId) -> bool {
        // Coordinators (including the C-root) are the allocator roles a
        // targeted head-kill should hit.
        matches!(self.roles.get(&node), Some(CtRole::Coordinator { .. }))
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
    fn first_node_is_root_coordinator() {
        let mut sim = Sim::new(still(), CTree::default());
        let a = sim.spawn_at(Point::new(500.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().root(), Some(a));
        assert_eq!(sim.protocol().coordinators(sim.world()), vec![a]);
    }

    #[test]
    fn near_node_is_member_far_node_is_coordinator() {
        let mut sim = Sim::new(still(), CTree::default());
        let root = sim.spawn_at(Point::new(100.0, 100.0));
        sim.run_for(SimDuration::from_secs(1));
        let near = sim.spawn_at(Point::new(160.0, 100.0));
        sim.run_for(SimDuration::from_secs(1));
        for x in [240.0, 380.0] {
            sim.spawn_at(Point::new(x, 100.0));
            sim.run_for(SimDuration::from_secs(1));
        }
        let far = sim.spawn_at(Point::new(520.0, 100.0));
        sim.run_for(SimDuration::from_secs(2));
        let p = sim.protocol();
        assert_eq!(p.root(), Some(root));
        assert!(p.coordinators(sim.world()).contains(&far));
        assert!(p.ip_of(near).is_some());
        assert!(p.ip_of(far).is_some());
    }

    #[test]
    fn coordinators_report_to_root_periodically() {
        let mut sim = Sim::new(still(), CTree::default());
        sim.spawn_at(Point::new(100.0, 100.0));
        sim.run_for(SimDuration::from_secs(1));
        for x in [240.0, 380.0] {
            sim.spawn_at(Point::new(x, 100.0));
            sim.run_for(SimDuration::from_secs(1));
        }
        sim.spawn_at(Point::new(520.0, 100.0));
        sim.run_for(SimDuration::from_secs(20));
        let sync = sim.world().metrics().hops(MsgCategory::Sync);
        assert!(sync > 0, "periodic reports must flow to the root");
    }

    #[test]
    fn root_reclaims_silent_coordinator() {
        let mut sim = Sim::new(still(), CTree::default());
        let root = sim.spawn_at(Point::new(100.0, 100.0));
        sim.run_for(SimDuration::from_secs(1));
        for x in [240.0, 380.0] {
            sim.spawn_at(Point::new(x, 100.0));
            sim.run_for(SimDuration::from_secs(1));
        }
        let coord = sim.spawn_at(Point::new(520.0, 100.0));
        // Let it report at least once.
        sim.run_for(SimDuration::from_secs(10));
        sim.leave_now(coord, false);
        sim.run_for(SimDuration::from_secs(30));
        let recl = sim.world().metrics().hops(MsgCategory::Reclamation);
        assert!(recl > 0, "C-root must flood reclamation: {recl}");
        let _ = root;
    }

    #[test]
    fn departure_fragments_receiving_coordinator() {
        let mut sim = Sim::new(still(), CTree::default());
        let root = sim.spawn_at(Point::new(100.0, 100.0));
        sim.run_for(SimDuration::from_secs(1));
        let member = sim.spawn_at(Point::new(160.0, 100.0));
        sim.run_for(SimDuration::from_secs(1));
        let ip = sim.protocol().ip_of(member).unwrap();
        sim.leave_now(member, true);
        sim.run_for(SimDuration::from_secs(1));
        assert!(!sim.world().is_alive(member));
        // Root kept the address (it was the nearest coordinator).
        if let Some(CtRole::Coordinator { pool, .. }) = sim.protocol().roles.get(&root) {
            assert!(pool.owns(ip));
            assert!(pool.table().status(ip).is_available());
        } else {
            panic!("root must be a coordinator");
        }
    }

    #[test]
    fn preservation_depends_on_root() {
        let mut sim = Sim::new(still(), CTree::default());
        let root = sim.spawn_at(Point::new(100.0, 100.0));
        sim.run_for(SimDuration::from_secs(1));
        for x in [240.0, 380.0] {
            sim.spawn_at(Point::new(x, 100.0));
            sim.run_for(SimDuration::from_secs(1));
        }
        let coord = sim.spawn_at(Point::new(520.0, 100.0));
        sim.run_for(SimDuration::from_secs(10)); // reports flow

        // Root alive: the coordinator's state is preserved.
        let (p, l) = sim.protocol().preservation_audit(sim.world(), &[coord]);
        assert_eq!((p, l), (1, 0));

        // Root dead: everything is lost.
        sim.leave_now(root, false);
        let (p, l) = sim.protocol().preservation_audit(sim.world(), &[coord]);
        assert_eq!((p, l), (0, 1));
    }
}
