//! Chaos scenario suite: allocation safety under injected faults.
//!
//! The paper's evaluation assumes reliable in-range delivery (§IV-B).
//! This suite deliberately breaks that assumption with the simulator's
//! fault plane ([`manet_sim::faults`]) — probabilistic message loss plus
//! scheduled cluster-head kills — and checks the *safety* invariants the
//! protocols are supposed to keep rather than the cost curves:
//!
//! * **duplicate addresses** — two alive configured nodes in one
//!   connected component sharing an address (must stay zero for the
//!   quorum protocol);
//! * **address-leak rate** — the fraction of tracked allocation state
//!   still pointing at dead holders (crashed heads leak until
//!   reclamation catches up);
//! * **join-latency inflation** — how much the mean configuration
//!   latency grows versus a fault-free run of the same workload.
//!
//! The protocols are the pool-owning ones, the registry's [`AUDITED`]
//! set, picked by name ([`conformance::for_protocol!`]) and read
//! through their [`ConformanceAdapter`]: `assigned_pairs` for the
//! duplicates, `leak_audit` for the leak rate.

use crate::figures::FigOpts;
use crate::scenario::{parallel_rounds, run_scenario, Scenario};
use crate::stats::mean;
use crate::Table;
use addrspace::Addr;
use conformance::registry::AUDITED;
use conformance::{for_protocol, ConformanceAdapter};
use manet_sim::{FaultPlan, NodeId, SimDuration, World};
use proto_io::IdMap;

/// Options of the chaos suite.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Replication / seed / quick-mode options shared with the figures.
    pub fig: FigOpts,
    /// Run only this loss rate instead of the default sweep.
    pub loss: Option<f64>,
    /// Scheduled cluster-head kills per run.
    pub head_kills: u32,
    /// Extra user-supplied fault plan merged into every generated plan
    /// (e.g. from `repro chaos --fault-plan FILE`).
    pub extra_plan: Option<FaultPlan>,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            fig: FigOpts::default(),
            loss: None,
            head_kills: 2,
            extra_plan: None,
        }
    }
}

impl ChaosOpts {
    fn loss_sweep(&self) -> Vec<f64> {
        match self.loss {
            Some(l) => vec![l],
            None if self.fig.quick => vec![0.0, 0.2],
            None => vec![0.0, 0.1, 0.2, 0.3],
        }
    }
}

/// The table column label of each [`AUDITED`] protocol, in its order.
const LABELS: [&str; AUDITED.len()] = ["quorum", "MANETconf", "buddy", "C-tree"];

/// What one chaos run measured.
struct CellOutcome {
    duplicates: f64,
    leak_pct: f64,
    latency: Option<f64>,
}

/// Duplicate addresses among alive configured nodes, counted per
/// connected component (nodes that cannot hear each other are allowed
/// to collide — the paper's merge scheme resolves that on contact).
fn count_duplicates<M: Clone + std::fmt::Debug>(
    w: &mut World<M>,
    assigned: &[(NodeId, Addr)],
) -> usize {
    let mut seen: IdMap<(usize, Addr), NodeId> = IdMap::default();
    let mut dups = 0;
    for (n, ip) in assigned {
        let Some(comp) = w.component_id(*n) else {
            continue;
        };
        match seen.insert((comp, *ip), *n) {
            Some(prev) if prev != *n => dups += 1,
            _ => {}
        }
    }
    dups
}

/// The chaos workload: sequential arrivals, settle, a storm of head
/// kills, fresh arrivals that must configure through the carnage, then
/// a cooldown for reclamation to catch up.
fn chaos_scenario(opts: &ChaosOpts, loss: f64, seed: u64) -> Scenario {
    let quick = opts.fig.quick;
    let nn = if quick { 40 } else { 100 };
    let mut s = Scenario::builder()
        .nn(nn)
        .speed_mps(0.0)
        .settle_secs(if quick { 5 } else { 10 })
        // `run_scenario` only runs the post-departure phase when nodes
        // depart; a zero-fraction would end at `settled`. One graceful
        // departure keeps the workload comparable while unlocking the
        // post-arrival + cooldown phases.
        .depart_fraction(1.0 / nn as f64)
        .abrupt_ratio(0.0)
        .post_arrivals(nn / 10)
        .cooldown_secs(if quick { 15 } else { 30 })
        .seed(seed)
        .build()
        .expect("chaos scenario is in-domain");

    // Head kills land after the network has settled, spaced out so the
    // protocols face them one at a time. The kill times derive from the
    // built scenario's timeline, so the plan is attached afterwards.
    let mut plan = match &opts.extra_plan {
        Some(p) => p.clone(),
        None => FaultPlan::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(loss.to_bits())),
    };
    if loss > 0.0 {
        plan = plan.with_loss(loss);
    }
    let settled = s.arrivals_done() + s.settle;
    for k in 0..opts.head_kills {
        plan = plan.with_head_kill(settled + SimDuration::from_secs(2) * u64::from(k + 1), 1);
    }
    s.fault_plan = plan;
    s
}

fn run_cell<P: ConformanceAdapter>(opts: &ChaosOpts, loss: f64, seed: u64) -> CellOutcome {
    let mut report = run_scenario(&chaos_scenario(opts, loss, seed), P::fresh());
    let assigned = report.protocol().assigned_pairs(report.world());
    let (leaked, tracked) = report.protocol().leak_audit(report.world());
    let duplicates = count_duplicates(report.sim_mut().world_mut(), &assigned) as f64;
    CellOutcome {
        duplicates,
        leak_pct: if tracked == 0 {
            0.0
        } else {
            100.0 * leaked as f64 / tracked as f64
        },
        latency: report.metrics().mean_config_latency(),
    }
}

/// Runs the chaos suite: one table per invariant, protocols as columns,
/// loss rate as the x axis, `opts.head_kills` scheduled head kills in
/// every run.
#[must_use]
pub fn chaos_suite(opts: &ChaosOpts) -> Vec<Table> {
    let columns: Vec<String> = LABELS.iter().map(|l| l.to_string()).collect();
    let kills = opts.head_kills;

    let mut dup_table = Table::new(
        format!("Chaos — duplicate-address violations vs loss rate ({kills} head kills)"),
        "loss_%",
        columns.clone(),
    );
    let mut leak_table = Table::new(
        format!("Chaos — address-leak rate (% of tracked state) vs loss rate ({kills} head kills)"),
        "loss_%",
        columns.clone(),
    );
    let mut lat_table = Table::new(
        format!("Chaos — join-latency inflation (× fault-free) vs loss rate ({kills} head kills)"),
        "loss_%",
        columns,
    );

    // Fault-free latency baseline per protocol (loss 0, no kills).
    let baseline = {
        let quiet = ChaosOpts {
            head_kills: 0,
            extra_plan: None,
            ..opts.clone()
        };
        AUDITED.map(|name| mean(&cells_over_rounds(name, &quiet, 0.0).2))
    };

    for loss in opts.loss_sweep() {
        let cells = AUDITED.map(|name| cells_over_rounds(name, opts, loss));
        let x = format!("{:.0}", loss * 100.0);
        dup_table.push_row(x.clone(), cells.iter().map(|c| mean(&c.0)).collect());
        leak_table.push_row(x.clone(), cells.iter().map(|c| mean(&c.1)).collect());
        lat_table.push_row(
            x,
            cells
                .iter()
                .zip(baseline)
                .map(|(c, b)| {
                    if b > 0.0 && !c.2.is_empty() {
                        mean(&c.2) / b
                    } else {
                        0.0
                    }
                })
                .collect(),
        );
    }

    let note = format!(
        "uniform message loss + {kills} scheduled cluster-head kills; \
         leak = tracked allocation state held by dead nodes at run end"
    );
    for t in [&mut dup_table, &mut leak_table, &mut lat_table] {
        t.note(note.clone());
        t.note("duplicates counted per connected component (quorum must stay at 0)");
    }
    vec![dup_table, leak_table, lat_table]
}

/// Per-round `(duplicates, leak%, latencies)` samples for the protocol
/// registered as `name` at one loss rate.
fn cells_over_rounds(name: &str, opts: &ChaosOpts, loss: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let outcomes =
        for_protocol!(AUDITED: name, P => parallel_rounds(opts.fig.rounds, opts.fig.seed, |s| {
            run_cell::<P>(opts, loss, s)
        }))
        .unwrap_or_else(|| panic!("{name} is not registered"));
    let mut dups = Vec::new();
    let mut leaks = Vec::new();
    let mut lats = Vec::new();
    for o in outcomes {
        dups.push(o.duplicates);
        leaks.push(o.leak_pct);
        if let Some(l) = o.latency {
            lats.push(l);
        }
    }
    (dups, leaks, lats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{buddy::Buddy, ctree::CTree, manetconf::ManetConf};
    use qbac_core::Qbac;

    fn quick_opts() -> ChaosOpts {
        ChaosOpts {
            fig: FigOpts {
                rounds: 2,
                quick: true,
                seed: 7,
            },
            ..ChaosOpts::default()
        }
    }

    #[test]
    fn suite_covers_all_protocols_and_loss_points() {
        let tables = chaos_suite(&quick_opts());
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.columns.len(), 4);
            assert_eq!(t.rows.len(), 2, "quick sweep is {{0, 0.2}}");
        }
    }

    #[test]
    fn quorum_has_no_duplicates_under_chaos() {
        let opts = ChaosOpts {
            loss: Some(0.2),
            ..quick_opts()
        };
        let dup = &chaos_suite(&opts)[0];
        for (x, vals) in &dup.rows {
            assert_eq!(vals[0], 0.0, "quorum duplicated an address at loss {x}%");
        }
    }

    #[test]
    fn chaos_runs_are_reproducible() {
        let opts = ChaosOpts {
            loss: Some(0.2),
            ..quick_opts()
        };
        let a = chaos_suite(&opts);
        let b = chaos_suite(&opts);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.rows, tb.rows);
        }
    }

    /// What the leak table reads through the adapter is the protocol's
    /// own audit, on a lossy run with head kills.
    fn audit_matches<P: ConformanceAdapter>(own: fn(&P, &World<P::Msg>) -> (u64, u64)) {
        let report = run_scenario(&chaos_scenario(&quick_opts(), 0.2, 7), P::fresh());
        let (p, w) = (report.protocol(), report.world());
        let audit = p.leak_audit(w);
        assert!(audit.1 > 0, "{} tracks allocation state", P::name());
        assert_eq!(audit, own(p, w), "{}", P::name());
    }

    #[test]
    fn adapters_report_the_protocols_own_leak_audit() {
        audit_matches::<Qbac>(Qbac::leak_audit);
        audit_matches::<ManetConf>(ManetConf::leak_audit);
        audit_matches::<Buddy>(Buddy::leak_audit);
        audit_matches::<CTree>(CTree::leak_audit);
    }

    #[test]
    fn head_kills_leak_state_somewhere() {
        // With heads dying and traffic lost, at least one protocol
        // shows a non-zero leak at the highest loss point.
        let opts = quick_opts();
        let leak = &chaos_suite(&opts)[1];
        let any = leak
            .rows
            .iter()
            .any(|(_, vals)| vals.iter().any(|v| *v > 0.0));
        assert!(any, "no leaked state at all: {:?}", leak.rows);
    }
}
