//! An intentionally broken allocator used to prove the oracle catches
//! real safety bugs (and to exercise the shrinker end-to-end).
//!
//! `DoubleGrant` is a naive central allocator with a classic
//! lost-acknowledgement bug: the server advances its next-address
//! cursor only when the client's `Ack` arrives. Under reliable links
//! the protocol looks perfectly healthy — grants are acknowledged
//! before the next request shows up, every run passes. Drop a single
//! `Ack` and the cursor stalls, so the *next* requester is granted the
//! same address and two alive nodes end up configured identically —
//! exactly the class of schedule-dependent violation the conformance
//! oracle exists to hunt, shrink, and replay.

use crate::adapter::{ConformanceAdapter, Guarantees};
use addrspace::{Addr, STOCK_SPACE};
use manet_sim::faults::FaultPlan;
use manet_sim::{MsgCategory, NodeId, ProtocolCore, SimDuration, World};
use proto_io::{IdMap, Net, Versioned};

/// Wire messages of the broken allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DgMsg {
    /// Client asks the server for an address.
    Req,
    /// Server grants one.
    Grant {
        /// The granted address.
        addr: Addr,
    },
    /// Client acknowledges — only now does the server advance its
    /// cursor (the bug).
    Ack,
}

proto_io::wire_codec! {
    DgMsg {
        Req = 0x01,
        Grant = 0x02 { addr: addr },
        Ack = 0x03,
    }
}

/// The broken central allocator. See the [module docs](self).
#[derive(Debug)]
pub struct DoubleGrant {
    server: Option<NodeId>,
    /// Offset of the next address to hand out; advanced on `Ack` only.
    cursor: u32,
    assigned: Versioned<IdMap<NodeId, Addr>>,
}

const RETRY: SimDuration = SimDuration::from_micros(600_000);

impl DoubleGrant {
    /// A fresh instance over [`STOCK_SPACE`].
    #[must_use]
    pub fn new() -> Self {
        DoubleGrant {
            server: None,
            cursor: 1,
            assigned: Versioned::default(),
        }
    }

    fn request(&self, w: &mut Net<'_, DgMsg>, node: NodeId) {
        if let Some(server) = self.server {
            let _ = w.unicast(node, server, MsgCategory::Configuration, DgMsg::Req);
        }
        w.set_timer(node, RETRY, 0);
    }
}

impl Default for DoubleGrant {
    fn default() -> Self {
        DoubleGrant::new()
    }
}

impl ProtocolCore for DoubleGrant {
    type Msg = DgMsg;

    fn on_join(&mut self, w: &mut Net<'_, DgMsg>, node: NodeId) {
        if self.server.is_none() {
            self.server = Some(node);
            self.assigned.insert(node, STOCK_SPACE.base());
            w.mark_configured(node);
        } else {
            self.request(w, node);
        }
    }

    fn on_message(&mut self, w: &mut Net<'_, DgMsg>, to: NodeId, from: NodeId, msg: DgMsg) {
        match msg {
            DgMsg::Req => {
                if Some(to) == self.server {
                    let addr = STOCK_SPACE.base().offset(self.cursor % STOCK_SPACE.len());
                    let _ = w.unicast(to, from, MsgCategory::Configuration, DgMsg::Grant { addr });
                    // BUG: `cursor` is not advanced here — only the Ack
                    // moves it, so a lost Ack re-grants `addr`.
                }
            }
            DgMsg::Grant { addr } => {
                if let std::collections::hash_map::Entry::Vacant(e) = self.assigned.entry(to) {
                    e.insert(addr);
                    w.mark_configured(to);
                    let _ = w.unicast(to, from, MsgCategory::Configuration, DgMsg::Ack);
                }
            }
            DgMsg::Ack => {
                if Some(to) == self.server {
                    self.cursor += 1;
                }
            }
        }
    }

    fn on_timer(&mut self, w: &mut Net<'_, DgMsg>, node: NodeId, _tag: u64) {
        if !self.assigned.contains_key(&node) && w.is_alive(node) {
            self.request(w, node);
        }
    }

    fn is_cluster_head(&self, node: NodeId) -> bool {
        Some(node) == self.server
    }
}

impl ConformanceAdapter for DoubleGrant {
    fn fresh() -> Self {
        DoubleGrant::new()
    }

    fn name() -> &'static str {
        "broken-doublegrant"
    }

    fn guarantees(_plan: &FaultPlan) -> Guarantees {
        // It *claims* to be a safe allocator under any schedule — the
        // oracle's job is to show the claim false.
        Guarantees {
            unique: true,
            grant_stable: true,
            ..Guarantees::none()
        }
    }

    fn assigned_pairs(&self, w: &World<DgMsg>) -> Vec<(NodeId, Addr)> {
        let mut v: Vec<(NodeId, Addr)> = self
            .assigned
            .iter()
            .filter(|(n, _)| w.is_configured(**n))
            .map(|(n, a)| (*n, *a))
            .collect();
        v.sort_unstable();
        v
    }

    fn views_generation(&self) -> Option<u64> {
        Some(self.assigned.version())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{run_check, CheckConfig};
    use proto_io::{WireError, WireMsg};

    #[test]
    fn every_variant_round_trips() {
        let addr = STOCK_SPACE.base();
        for (tag, msg) in [(1, DgMsg::Req), (2, DgMsg::Grant { addr }), (3, DgMsg::Ack)] {
            let mut bytes = Vec::new();
            msg.wire_encode(&mut bytes);
            assert_eq!((bytes[0], DgMsg::wire_decode(&bytes)), (tag, Ok(msg)));
        }
        assert_eq!(DgMsg::wire_decode(&[4]), Err(WireError::BadTag(4)));
    }

    #[test]
    fn clean_run_passes() {
        let out = run_check::<DoubleGrant>(&CheckConfig::new(8, 1, FaultPlan::new(1)));
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert_eq!(out.configured, 8, "all nodes configure without faults");
    }

    #[test]
    fn lost_acks_double_grant() {
        let plan = FaultPlan::new(9).with_loss(0.3);
        let out = run_check::<DoubleGrant>(&CheckConfig::new(10, 1, plan));
        let v = out.violation.expect("30% loss must stall the cursor");
        assert_eq!(v.invariant, crate::Invariant::AddrUnique);
    }
}
