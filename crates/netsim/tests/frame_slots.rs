//! Packet conservation at the storage level: the engine keeps every data
//! packet and control message it holds in a slot from the moment it is
//! scheduled or sent until it is delivered or lost, so a run that drains
//! its calendar must hold none, whatever happened to the frames.

use std::rc::Rc;

use netsim::ident::NodeId;
use netsim::impairment::Impairment;
use netsim::link::LinkConfig;
use netsim::packet::DropReason;
use netsim::protocol::{Payload, RoutingProtocol};
use netsim::simulator::{CbrSource, ProtocolContext, Simulator, SimulatorBuilder};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::TraceEvent;
use proptest::prelude::*;

/// A control message passed on while it has hops left.
#[derive(Debug)]
struct Chat {
    hops_left: u8,
}

impl Payload for Chat {
    fn size_bytes(&self) -> usize {
        40 + 100 * usize::from(self.hops_left)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Static routes on a ring of `n` nodes, with one destination routed into
/// a forwarding loop and one left without a route, plus a finite amount of
/// control chatter in datagram and reliable sends.
///
/// Routes go the shorter way round; `looped` is routed to the next node
/// from even nodes and to the previous one from odd nodes, so a packet
/// for it bounces between two nodes until its TTL expires. Routes through
/// a neighbor are withdrawn while the link to it is down. On start and on
/// every link event the node sends one message to each up peer; a message
/// with hops left goes on to the receiver's first up peer.
struct Chatty {
    n: u32,
    looped: u32,
    unrouted: u32,
}

impl Chatty {
    fn next_hop(&self, me: u32, dest: u32) -> NodeId {
        let n = self.n;
        let next = if dest == self.looped {
            if me.is_multiple_of(2) {
                (me + 1) % n
            } else {
                (me + n - 1) % n
            }
        } else if (dest + n - me) % n <= n / 2 {
            (me + 1) % n
        } else {
            (me + n - 1) % n
        };
        NodeId::new(next)
    }

    fn install_routes(&self, ctx: &mut ProtocolContext<'_>) {
        let me = ctx.node().index() as u32;
        for dest in (0..self.n).filter(|&d| d != me && d != self.unrouted) {
            let next = self.next_hop(me, dest);
            let up = ctx.peers().iter().any(|p| p.neighbor == next && p.up);
            if up {
                ctx.install_route(NodeId::new(dest), next);
            } else {
                ctx.remove_route(NodeId::new(dest));
            }
        }
    }

    fn chat(ctx: &mut ProtocolContext<'_>, hops_left: u8) {
        let peers: Vec<NodeId> = ctx
            .peers()
            .iter()
            .filter(|p| p.up)
            .map(|p| p.neighbor)
            .collect();
        for to in peers {
            let payload = Rc::new(Chat { hops_left });
            if hops_left.is_multiple_of(2) {
                ctx.send_reliable(to, payload);
            } else {
                ctx.send(to, payload);
            }
        }
    }
}

impl RoutingProtocol for Chatty {
    fn name(&self) -> &'static str {
        "chatty"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.install_routes(ctx);
        Self::chat(ctx, 3);
    }

    fn on_message(&mut self, ctx: &mut ProtocolContext<'_>, _from: NodeId, payload: &dyn Payload) {
        let Some(chat) = payload.as_any().downcast_ref::<Chat>() else {
            return;
        };
        if chat.hops_left == 0 {
            return;
        }
        if let Some(to) = ctx.peers().iter().find(|p| p.up).map(|p| p.neighbor) {
            let payload = Rc::new(Chat {
                hops_left: chat.hops_left - 1,
            });
            if chat.hops_left.is_multiple_of(2) {
                ctx.send(to, payload);
            } else {
                ctx.send_reliable(to, payload);
            }
        }
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, _neighbor: NodeId) {
        self.install_routes(ctx);
        Self::chat(ctx, 2);
    }

    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, _neighbor: NodeId) {
        self.install_routes(ctx);
        Self::chat(ctx, 2);
    }
}

/// One generated run. Times are in µs after one second of warm-up.
#[derive(Debug, Clone)]
struct Scenario {
    n: u32,
    seed: u64,
    queue_capacity: usize,
    /// A flow from node 0 with this gap, to the far side of the ring.
    gap_us: u64,
    /// Single packets from node 0: (time, destination, TTL).
    packets: Vec<(u64, u32, u8)>,
    /// Link failures: (time, link, down for).
    failures: Vec<(u64, u32, u64)>,
    /// Lossy periods: (time, link, loss %, lasting).
    lossy: Vec<(u64, u32, u8, u64)>,
    /// Crash-restarts: (time, node, down for).
    crashes: Vec<(u64, u32, u64)>,
}

const WARM_UP: SimTime = SimTime::from_secs(1);

fn at(us: u64) -> SimTime {
    WARM_UP + SimDuration::from_micros(us)
}

/// Runs `scenario` to completion and returns the simulator.
fn run(s: &Scenario) -> Simulator {
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(s.n as usize);
    let config = LinkConfig {
        queue_capacity: s.queue_capacity,
        ..LinkConfig::default()
    };
    for i in 0..s.n {
        b.add_link(nodes[i as usize], nodes[((i + 1) % s.n) as usize], config)
            .unwrap();
    }
    b.seed(s.seed);
    let mut sim = b.build().unwrap();
    let protocol = || Chatty {
        n: s.n,
        looped: s.n - 1,
        unrouted: s.n / 2 + 1,
    };
    for &node in &nodes {
        sim.install_protocol(node, Box::new(protocol())).unwrap();
    }
    sim.start();
    sim.run_until(WARM_UP);
    let far = NodeId::new(s.n / 2);
    sim.schedule_cbr(CbrSource {
        src: nodes[0],
        dst: far,
        start: at(0),
        end: at(40_000),
        gap: SimDuration::from_micros(s.gap_us),
        size_bytes: 1000,
        ttl: 16,
    })
    .unwrap();
    for &(t, dest, ttl) in &s.packets {
        let dest = NodeId::new(dest % s.n);
        sim.schedule_packet(at(t), nodes[0], dest, 1000, ttl)
            .unwrap();
    }
    let link =
        |l: u32| sim.link_between(nodes[(l % s.n) as usize], nodes[((l + 1) % s.n) as usize]);
    let failures: Vec<_> = s
        .failures
        .iter()
        .map(|&(t, l, down)| (t, link(l).unwrap(), down))
        .collect();
    let lossy: Vec<_> = s
        .lossy
        .iter()
        .map(|&(t, l, pct, lasting)| (t, link(l).unwrap(), pct, lasting))
        .collect();
    for (t, link, down) in failures {
        sim.schedule_link_failure(at(t), link).unwrap();
        sim.schedule_link_recovery(at(t + down), link).unwrap();
    }
    for (t, link, pct, lasting) in lossy {
        let impairment =
            Impairment::lossy(f64::from(pct) / 100.0).with_jitter(SimDuration::from_micros(300));
        sim.schedule_link_impairment(at(t), link, impairment)
            .unwrap();
        sim.schedule_link_impairment(at(t + lasting), link, Impairment::NONE)
            .unwrap();
    }
    for &(t, node, down) in &s.crashes {
        let fresh = Box::new(protocol());
        sim.schedule_node_crash_restart(
            at(t),
            nodes[(node % s.n) as usize],
            SimDuration::from_micros(down),
            fresh,
        )
        .unwrap();
    }
    sim.run_to_completion();
    sim
}

/// Checks that `sim` holds no frame and that the packet counters balance.
fn assert_drained(sim: &Simulator) {
    assert_eq!(
        sim.frames_in_flight(),
        (0, 0),
        "a drained run holds no packet or control message"
    );
    let stats = sim.stats();
    assert_eq!(
        stats.packets_injected,
        stats.packets_delivered + stats.packets_dropped
    );
}

/// One run that meets every fate a frame can have: delivery, TTL expiry,
/// no route, queue overflow, loss on a failed link both while serializing
/// and while propagating, impairment loss (datagram) and retransmission
/// (reliable), and a crash-restart.
#[test]
fn a_drained_run_holds_no_frame() {
    let scenario = Scenario {
        n: 6,
        seed: 7,
        queue_capacity: 3,
        gap_us: 900,
        packets: (0..40)
            .map(|i| (i * 700 + 13, [3, 5, 4, 2][i as usize % 4], 12))
            .collect(),
        // The failure at 10.3 ms catches frames on the wire and in the
        // transmitter; frames offered to the link before its detection
        // 50 ms later are lost as their serialization ends.
        failures: vec![(10_300, 2, 30_000), (21_250, 1, 5_000)],
        lossy: vec![(2_000, 1, 40, 80_000)],
        crashes: vec![(25_000, 4, 8_000)],
    };
    let sim = run(&scenario);
    assert_drained(&sim);

    let trace = sim.trace().unwrap();
    let mut reasons: Vec<DropReason> = trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PacketDropped { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    reasons.sort_by_key(|r| DropReason::ALL.iter().position(|x| x == r));
    reasons.dedup();
    assert_eq!(reasons, DropReason::ALL, "every drop reason occurs");
    let stats = sim.stats();
    assert!(stats.packets_delivered > 0);
    assert!(stats.control_messages_lost > 0);
    assert!(stats.control_retransmits > 0);
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::NodeRestarted { .. })));
}

/// A packet holds its slot from the moment it is scheduled, and frames
/// in flight mid-run hold theirs.
#[test]
fn frames_hold_slots_while_in_flight() {
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(2);
    b.add_link(nodes[0], nodes[1], LinkConfig::default())
        .unwrap();
    let mut sim = b.build().unwrap();
    sim.start();
    sim.schedule_default_packet(SimTime::from_secs(1), nodes[0], nodes[1])
        .unwrap();
    assert_eq!(sim.frames_in_flight(), (1, 0), "held from scheduling on");
    sim.run_to_completion();
    // No route was installed: the packet was dropped and its slot freed.
    assert_eq!(sim.frames_in_flight(), (0, 0));
    assert_eq!(sim.stats().packets_dropped, 1);

    // Mid-run, a 2,000 pkt/s flow has packets queued and on the wire, and
    // the chatter has control messages out.
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(4);
    for i in 0..4 {
        b.add_link(nodes[i], nodes[(i + 1) % 4], LinkConfig::default())
            .unwrap();
    }
    let mut sim = b.build().unwrap();
    for &node in &nodes {
        let chatty = Chatty {
            n: 4,
            looped: 3,
            unrouted: 3,
        };
        sim.install_protocol(node, Box::new(chatty)).unwrap();
    }
    sim.start();
    sim.run_until(SimTime::ZERO + SimDuration::from_micros(100));
    assert!(sim.frames_in_flight().1 > 0, "start-up chatter in flight");
    sim.schedule_cbr(CbrSource {
        src: nodes[0],
        dst: nodes[2],
        start: at(0),
        end: at(10_000),
        gap: SimDuration::from_micros(500),
        size_bytes: 1000,
        ttl: 16,
    })
    .unwrap();
    sim.run_until(at(5_000));
    assert!(
        sim.frames_in_flight().0 > 1,
        "packets queued and on the wire"
    );
    sim.run_to_completion();
    assert_drained(&sim);
    assert_eq!(sim.stats().packets_delivered, 20);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever mix of traffic, failures, loss and crashes a run meets,
    /// once it drains it holds no packet and no control message.
    #[test]
    fn generated_runs_free_every_frame(
        shape in (4u32..9, 0u64..1000, 1usize..6),
        gap_us in 200u64..2_000,
        packets in prop::collection::vec((0u64..40_000, 0u32..9, 2u8..20), 0..30),
        failures in prop::collection::vec((0u64..40_000, 0u32..9, 1u64..60_000), 0..4),
        lossy in prop::collection::vec(((0u64..40_000, 0u32..9), (1u8..100, 1u64..30_000)), 0..3),
        crashes in prop::collection::vec((0u64..40_000, 0u32..9, 1u64..30_000), 0..2),
    ) {
        let (n, seed, queue_capacity) = shape;
        let s = Scenario {
            n,
            seed,
            queue_capacity,
            gap_us,
            packets,
            failures,
            lossy: lossy
                .into_iter()
                .map(|((t, link), (pct, lasting))| (t, link, pct, lasting))
                .collect(),
            crashes,
        };
        let sim = run(&s);
        prop_assert_eq!(sim.frames_in_flight(), (0, 0), "{:?}", s);
        let stats = sim.stats();
        prop_assert_eq!(
            stats.packets_injected,
            stats.packets_delivered + stats.packets_dropped
        );
    }
}
