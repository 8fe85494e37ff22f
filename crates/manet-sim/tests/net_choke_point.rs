//! The transcript is written where a protocol enters the world:
//! `impl NetBackend for World`. These tests pin that choke point — what
//! it records, what it costs when off, and that `World`'s inherent
//! methods (the harness, oracle and test entry points) stay silent.

use manet_sim::{
    FlowKind, FlowStage, MsgCategory, Net, NetBackend, NodeId, Point, ProtocolCore, SendError, Sim,
    SimDuration, WireError, WireMsg, WorldConfig,
};

#[derive(Debug, Clone)]
struct Probe(u8);

impl WireMsg for Probe {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&[0xab, self.0]);
    }

    fn wire_take(cur: &mut &[u8]) -> Result<Self, WireError> {
        match proto_io::wire::take(cur)? {
            [0xab, n] => Ok(Probe(n)),
            [tag, _] => Err(WireError::BadTag(tag)),
        }
    }
}

struct Idle;

impl ProtocolCore for Idle {
    type Msg = Probe;
    fn on_join(&mut self, _w: &mut Net<'_, Probe>, _node: NodeId) {}
    fn on_message(&mut self, _w: &mut Net<'_, Probe>, _to: NodeId, _from: NodeId, _msg: Probe) {}
}

/// A three-node chain n0 – n1 – n2 plus an unreachable n3, already
/// joined, half a second in, with transcription switched on.
fn chain() -> Sim<Idle> {
    let mut sim = Sim::new(
        WorldConfig {
            speed: 0.0,
            seed: 1,
            ..WorldConfig::default()
        },
        Idle,
    );
    for x in [100.0, 200.0, 300.0] {
        sim.spawn_at(Point::new(x, 100.0));
    }
    sim.spawn_at(Point::new(900.0, 900.0));
    sim.run_for(SimDuration::from_millis(500));
    sim.world_mut().enable_transcript();
    sim
}

/// One of each recorded effect, spelled so that it compiles against both
/// `World`'s inherent methods and `dyn NetBackend`.
macro_rules! every_effect {
    ($w:expr) => {{
        let [n0, n1, n2, n3] = [0, 1, 2, 3].map(NodeId::new);
        let cfg = MsgCategory::Configuration;
        assert_eq!($w.unicast(n0, n2, cfg, Probe(1)), Ok(2));
        assert_eq!(
            $w.broadcast_within(n0, 1, MsgCategory::Hello, Probe(2)),
            Ok(1)
        );
        assert_eq!(
            $w.unicast(n0, n3, cfg, Probe(3)),
            Err(SendError::Unreachable)
        );
        let id = $w.set_timer(n1, SimDuration::from_millis(250), 0xbeef);
        $w.cancel_timer(id);
        $w.flow_event(FlowKind::Join, n1, FlowStage::Started);
        $w.mark_configured(n1);
        $w.remove_node(n2);
        assert_eq!(
            $w.unicast(n2, n0, cfg, Probe(4)),
            Err(SendError::SenderDead)
        );
    }};
}

/// The lines were recorded at the parent commit, where the deleted `Net`
/// struct wrote them from `proto-io`.
#[test]
fn effects_through_the_backend_are_transcribed() {
    let mut sim = chain();
    let w: &mut dyn NetBackend<Probe> = sim.world_mut();
    every_effect!(w);
    let transcript = sim.world_mut().take_transcript().expect("enabled");
    assert_eq!(transcript.lines(), PARENT_LINES);
}

const PARENT_LINES: &[&str] = &[
    "@500000 >send from=n0 cast=uni:n2 cat=configuration bytes=ab01 result=hops:2",
    "@500000 >send from=n0 cast=within:1 cat=hello bytes=ab02 result=recipients:[n1]",
    "@500000 >send from=n0 cast=uni:n3 cat=configuration bytes=ab03 result=err:Unreachable",
    "@500000 >timer+ node=n1 id=t0 delay=250000us tag=0xbeef",
    "@500000 >timer- id=t0",
    "@500000 >flow node=n1 kind=join stage=started",
    "@500000 >configured node=n1",
    "@500000 >removed node=n2",
    "@500000 >send from=n2 cast=uni:n0 cat=configuration bytes=ab04 result=err:SenderDead",
];

#[test]
fn inherent_world_methods_are_not_transcribed() {
    let mut sim = chain();
    let w = sim.world_mut();
    every_effect!(w);
    assert!(w.transcript().expect("enabled").is_empty());
}

/// A message that cannot be encoded: transcribing it panics.
#[derive(Debug, Clone)]
struct Opaque;

impl WireMsg for Opaque {
    fn wire_encode(&self, _out: &mut Vec<u8>) {
        panic!("canon called");
    }

    fn wire_take(_cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Opaque)
    }
}

/// Every node arms a timer on joining, greets its two-hop neighbourhood
/// and floods when it fires; lower ids answer a greeting by unicast.
struct Chatter;

impl ProtocolCore for Chatter {
    type Msg = Opaque;
    fn on_join(&mut self, w: &mut Net<'_, Opaque>, node: NodeId) {
        w.set_timer(node, SimDuration::from_millis(300), 0);
    }
    fn on_message(&mut self, w: &mut Net<'_, Opaque>, to: NodeId, from: NodeId, _msg: Opaque) {
        if to < from {
            let _ = w.unicast(to, from, MsgCategory::Configuration, Opaque);
        }
    }
    fn on_timer(&mut self, w: &mut Net<'_, Opaque>, node: NodeId, _tag: u64) {
        let _ = w.broadcast_within(node, 2, MsgCategory::Hello, Opaque);
        let _ = w.flood(node, MsgCategory::Maintenance, Opaque);
    }
}

fn twenty_chatterers(transcribe: bool) -> u64 {
    let mut sim = Sim::new(
        WorldConfig {
            speed: 0.0,
            seed: 7,
            ..WorldConfig::default()
        },
        Chatter,
    );
    if transcribe {
        sim.world_mut().enable_transcript();
    }
    for i in 0..20 {
        sim.spawn_at(Point::new(100.0 + 40.0 * f64::from(i), 500.0));
    }
    sim.run_for(SimDuration::from_secs(1));
    sim.world().metrics().perf().deliveries
}

#[test]
fn transcription_off_never_canonicalises_a_message() {
    assert!(twenty_chatterers(false) > 100);
}

#[test]
#[should_panic(expected = "canon called")]
fn transcription_on_canonicalises_every_send() {
    twenty_chatterers(true);
}
