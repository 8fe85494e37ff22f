//! Timer semantics at the sans-io boundary.
//!
//! The `ProtocolCore` contract leaves timers almost entirely to the
//! backend: `set_timer` returns a fresh [`TimerId`], `cancel_timer` is
//! "no-op if already fired or cancelled". These tests pin the exact
//! semantics every backend must honour, because QBAC's reclamation and
//! partition logic depends on them:
//!
//! * **no coalescing** — two `SetTimer`s with identical `(node, delay,
//!   tag)` are two independent timers with distinct ids; each fires, and
//!   cancelling one never cancels its twin;
//! * **cancel-after-fire is inert** — cancelling an id whose timer has
//!   already fired must not suppress any later timer (ids are never
//!   reused);
//! * **zero-delay timers fire** — `set_timer(.., ZERO, ..)` schedules
//!   for *now* but still goes through the queue: the handler that armed
//!   it returns before the timer input arrives (no reentrancy);
//! * **cancel-before-fire wins races at the same instant** — a cancel
//!   issued while handling an earlier event at time T suppresses a
//!   timer due at that same T.
//!
//! The table runs each script through the simulator backend and checks
//! the fired-tag sequence; a separate differential test (in `harness`)
//! proves the mesh transport preserves the same observable order.

use manet_sim::{Net, NodeId, Point, ProtocolCore, Sim, SimDuration, TimerId, WorldConfig};

/// One scripted timer operation, executed in order from `on_join`.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Arm a timer; remember its id at the next free slot.
    Set { delay_ms: u64, tag: u64 },
    /// Cancel the id remembered by the `Set` at `slot` (0-based).
    Cancel { slot: usize },
}

/// Executes a script of timer ops at join time and records firings.
#[derive(Default)]
struct Scripted {
    script: Vec<Op>,
    ids: Vec<TimerId>,
    /// `(tag, fired_at_ms)` in firing order.
    fired: Vec<(u64, u64)>,
    /// Ops to run (once) from inside the first timer handler.
    on_first_fire: Vec<Op>,
    in_handler_ran: bool,
}

impl Scripted {
    fn new(script: &[Op]) -> Self {
        Scripted {
            script: script.to_vec(),
            ..Scripted::default()
        }
    }

    fn run_ops(&mut self, w: &mut Net<'_, ()>, node: NodeId, which: usize) {
        let ops = if which == 0 {
            self.script.clone()
        } else {
            self.on_first_fire.clone()
        };
        for op in ops {
            match op {
                Op::Set { delay_ms, tag } => {
                    let id = w.set_timer(node, SimDuration::from_millis(delay_ms), tag);
                    self.ids.push(id);
                }
                Op::Cancel { slot } => {
                    let id = self.ids[slot];
                    w.cancel_timer(id);
                }
            }
        }
    }
}

impl ProtocolCore for Scripted {
    type Msg = ();

    fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
        self.run_ops(w, node, 0);
    }

    fn on_message(&mut self, _w: &mut Net<'_, ()>, _to: NodeId, _from: NodeId, _msg: ()) {}

    fn on_timer(&mut self, w: &mut Net<'_, ()>, node: NodeId, tag: u64) {
        let at_ms = w.now().as_micros() / 1000;
        self.fired.push((tag, at_ms));
        if !self.in_handler_ran && !self.on_first_fire.is_empty() {
            self.in_handler_ran = true;
            self.run_ops(w, node, 1);
        }
    }
}

fn still_config() -> WorldConfig {
    WorldConfig {
        speed: 0.0,
        ..WorldConfig::default()
    }
}

/// Runs one script and returns the fired `(tag, at_ms)` sequence.
fn run_script(script: &[Op]) -> Vec<(u64, u64)> {
    run_protocol(Scripted::new(script))
}

fn run_protocol(protocol: Scripted) -> Vec<(u64, u64)> {
    let mut sim = Sim::new(still_config(), protocol);
    sim.spawn_at(Point::new(0.0, 0.0));
    sim.run_for(SimDuration::from_secs(2));
    sim.protocol().fired.clone()
}

/// The join event fires at this offset (arrival scheduling), so a timer
/// armed at join with delay D fires at `JOIN_MS + D`.
fn join_ms() -> u64 {
    let fired = run_script(&[Op::Set {
        delay_ms: 0,
        tag: 99,
    }]);
    assert_eq!(fired.len(), 1, "probe timer must fire exactly once");
    fired[0].1
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

#[test]
fn timer_semantics_table() {
    /// `(name, script, expected fired tags relative to join time)`.
    type Case = (&'static str, &'static [Op], &'static [(u64, u64)]);
    let j = join_ms();
    let table: &[Case] = &[
        (
            "single timer fires once at its delay",
            &[Op::Set {
                delay_ms: 10,
                tag: 1,
            }],
            &[(1, 10)],
        ),
        (
            "zero-delay timer fires (not dropped, not reentrant)",
            &[Op::Set {
                delay_ms: 0,
                tag: 7,
            }],
            &[(7, 0)],
        ),
        (
            "duplicate SetTimer does not coalesce: both twins fire",
            &[
                Op::Set {
                    delay_ms: 10,
                    tag: 5,
                },
                Op::Set {
                    delay_ms: 10,
                    tag: 5,
                },
            ],
            &[(5, 10), (5, 10)],
        ),
        (
            "cancelling one twin leaves the other armed",
            &[
                Op::Set {
                    delay_ms: 10,
                    tag: 5,
                },
                Op::Set {
                    delay_ms: 10,
                    tag: 5,
                },
                Op::Cancel { slot: 0 },
            ],
            &[(5, 10)],
        ),
        (
            "cancel suppresses only the named id",
            &[
                Op::Set {
                    delay_ms: 10,
                    tag: 1,
                },
                Op::Set {
                    delay_ms: 20,
                    tag: 2,
                },
                Op::Set {
                    delay_ms: 30,
                    tag: 3,
                },
                Op::Cancel { slot: 1 },
            ],
            &[(1, 10), (3, 30)],
        ),
        (
            "double cancel of one id is idempotent",
            &[
                Op::Set {
                    delay_ms: 10,
                    tag: 1,
                },
                Op::Set {
                    delay_ms: 20,
                    tag: 2,
                },
                Op::Cancel { slot: 0 },
                Op::Cancel { slot: 0 },
            ],
            &[(2, 20)],
        ),
        (
            "same-instant timers fire in arming order",
            &[
                Op::Set {
                    delay_ms: 10,
                    tag: 1,
                },
                Op::Set {
                    delay_ms: 10,
                    tag: 2,
                },
                Op::Set {
                    delay_ms: 10,
                    tag: 3,
                },
            ],
            &[(1, 10), (2, 10), (3, 10)],
        ),
    ];

    for (name, script, want) in table {
        let got = run_script(script);
        let want_abs: Vec<(u64, u64)> = want.iter().map(|&(tag, at)| (tag, j + at)).collect();
        assert_eq!(got, want_abs, "case failed: {name}");
    }
}

// ---------------------------------------------------------------------
// Races that need an in-handler step (not expressible in the table)
// ---------------------------------------------------------------------

/// Cancelling an id *after* its timer fired must be a no-op — and must
/// never suppress a different, still-pending timer (ids are unique and
/// never reused).
#[test]
fn cancel_after_fire_is_inert() {
    let mut p = Scripted::new(&[
        Op::Set {
            delay_ms: 10,
            tag: 1,
        },
        Op::Set {
            delay_ms: 30,
            tag: 2,
        },
    ]);
    // From inside tag 1's handler: cancel tag 1's own (already fired)
    // id, then arm a third timer to prove the machinery still works.
    p.on_first_fire = vec![
        Op::Cancel { slot: 0 },
        Op::Set {
            delay_ms: 10,
            tag: 3,
        },
    ];
    let fired: Vec<u64> = run_protocol(p).into_iter().map(|(tag, _)| tag).collect();
    assert_eq!(
        fired,
        vec![1, 3, 2],
        "stale cancel must not eat any later firing"
    );
}

/// A cancel issued while handling an event at time T beats a timer due
/// at that same instant T: the pending same-tick firing is suppressed.
#[test]
fn same_instant_cancel_wins_the_race() {
    let mut p = Scripted::new(&[
        Op::Set {
            delay_ms: 10,
            tag: 1,
        },
        // Due at the same instant as tag 1, armed later so it is
        // dispatched after tag 1's handler runs.
        Op::Set {
            delay_ms: 10,
            tag: 2,
        },
    ]);
    // Tag 1's handler cancels tag 2's timer, which is due *now*.
    p.on_first_fire = vec![Op::Cancel { slot: 1 }];
    let fired: Vec<u64> = run_protocol(p).into_iter().map(|(tag, _)| tag).collect();
    assert_eq!(
        fired,
        vec![1],
        "a cancel during the same instant must suppress the pending fire"
    );
}

/// Zero-delay timers armed from inside a timer handler still fire, and
/// fire after the current handler returns (queue discipline, never
/// reentrant dispatch).
#[test]
fn zero_delay_from_handler_fires_later_same_instant() {
    let mut p = Scripted::new(&[Op::Set {
        delay_ms: 10,
        tag: 1,
    }]);
    p.on_first_fire = vec![
        Op::Set {
            delay_ms: 0,
            tag: 2,
        },
        Op::Set {
            delay_ms: 0,
            tag: 3,
        },
    ];
    let fired = run_protocol(p);
    let tags: Vec<u64> = fired.iter().map(|&(tag, _)| tag).collect();
    assert_eq!(
        tags,
        vec![1, 2, 3],
        "zero-delay chain must run to completion"
    );
    assert_eq!(
        fired[0].1, fired[1].1,
        "zero-delay timer fires at the same virtual instant it was armed"
    );
    assert_eq!(fired[1].1, fired[2].1);
}

/// Timer ids from one node's perspective are globally unique: arming
/// the same script on two nodes yields disjoint id sets, so a cancel on
/// one node can never hit the other's timer.
#[test]
fn timer_ids_are_globally_unique_across_nodes() {
    #[derive(Default)]
    struct TwoNodes {
        ids: Vec<TimerId>,
        fired: u32,
    }
    impl ProtocolCore for TwoNodes {
        type Msg = ();
        fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
            self.ids
                .push(w.set_timer(node, SimDuration::from_millis(10), 1));
        }
        fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
        fn on_timer(&mut self, _w: &mut Net<'_, ()>, _n: NodeId, _tag: u64) {
            self.fired += 1;
        }
    }
    let mut sim = Sim::new(still_config(), TwoNodes::default());
    sim.spawn_at(Point::new(0.0, 0.0));
    sim.spawn_at(Point::new(10.0, 0.0));
    sim.run_for(SimDuration::from_secs(2));
    let ids = &sim.protocol().ids;
    assert_eq!(ids.len(), 2);
    assert_ne!(ids[0], ids[1], "two nodes must never share a timer id");
    assert_eq!(sim.protocol().fired, 2);
}
