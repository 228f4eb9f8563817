//! End-to-end tests of the application-agent layer.

use netsim::app::AppAgent;
use netsim::ident::NodeId;
use netsim::link::LinkConfig;
use netsim::packet::Packet;
use netsim::protocol::{RoutingProtocol, TimerToken};
use netsim::simulator::{AppContext, ProtocolContext, Simulator, SimulatorBuilder};
use netsim::time::{SimDuration, SimTime};

/// Static next-hop routes along a line toward both ends.
struct LineRoutes {
    nodes: Vec<NodeId>,
    index: usize,
}

impl RoutingProtocol for LineRoutes {
    fn name(&self) -> &'static str {
        "line"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        for (d, &dest) in self.nodes.iter().enumerate() {
            if d == self.index {
                continue;
            }
            let next = if d > self.index {
                self.nodes[self.index + 1]
            } else {
                self.nodes[self.index - 1]
            };
            ctx.install_route(dest, next);
        }
    }
}

fn line_with_routes(k: usize) -> (Simulator, Vec<NodeId>) {
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(k);
    for w in nodes.windows(2) {
        b.add_link(w[0], w[1], LinkConfig::default()).unwrap();
    }
    let mut sim = b.build().unwrap();
    for (index, &node) in nodes.iter().enumerate() {
        sim.install_protocol(
            node,
            Box::new(LineRoutes {
                nodes: nodes.clone(),
                index,
            }),
        )
        .unwrap();
    }
    (sim, nodes)
}

/// Replies to every received packet with a same-size packet tagged +1.
struct Echo {
    received: Vec<u64>,
}

impl AppAgent for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn on_packet(&mut self, ctx: &mut AppContext<'_>, packet: &Packet) {
        self.received.push(packet.tag);
        if packet.tag < 100 {
            // Reply once (tags >= 100 are replies).
            ctx.send_data(packet.src, packet.size_bytes, 64, packet.tag + 100);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Sends `count` pings to a peer at start, records replies.
struct Pinger {
    peer: NodeId,
    count: u64,
    replies: Vec<u64>,
}

impl AppAgent for Pinger {
    fn name(&self) -> &'static str {
        "pinger"
    }

    fn on_start(&mut self, ctx: &mut AppContext<'_>) {
        for i in 0..self.count {
            ctx.send_data(self.peer, 500, 64, i);
        }
    }

    fn on_packet(&mut self, _ctx: &mut AppContext<'_>, packet: &Packet) {
        self.replies.push(packet.tag);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn request_reply_round_trip() {
    let (mut sim, nodes) = line_with_routes(4);
    sim.install_app(
        nodes[0],
        Box::new(Pinger {
            peer: nodes[3],
            count: 5,
            replies: Vec::new(),
        }),
    )
    .unwrap();
    sim.install_app(
        nodes[3],
        Box::new(Echo {
            received: Vec::new(),
        }),
    )
    .unwrap();
    sim.start();
    sim.run_to_completion();

    let pinger = sim.take_app(nodes[0]).unwrap();
    let pinger = pinger.as_any().downcast_ref::<Pinger>().unwrap();
    assert_eq!(pinger.replies, vec![100, 101, 102, 103, 104]);

    let echo = sim.take_app(nodes[3]).unwrap();
    let echo = echo.as_any().downcast_ref::<Echo>().unwrap();
    assert_eq!(echo.received, vec![0, 1, 2, 3, 4]);

    // 5 pings + 5 replies, all counted as data packets.
    assert_eq!(sim.stats().packets_injected, 10);
    assert_eq!(sim.stats().packets_delivered, 10);
}

#[test]
fn mid_run_installation_starts_immediately() {
    struct StartStamp {
        at: Option<SimTime>,
    }
    impl AppAgent for StartStamp {
        fn name(&self) -> &'static str {
            "stamp"
        }
        fn on_start(&mut self, ctx: &mut AppContext<'_>) {
            self.at = Some(ctx.now());
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    let (mut sim, nodes) = line_with_routes(2);
    sim.start();
    sim.run_until(SimTime::from_secs(7));
    sim.install_app(nodes[0], Box::new(StartStamp { at: None }))
        .unwrap();
    let agent = sim.take_app(nodes[0]).unwrap();
    let stamp = agent.as_any().downcast_ref::<StartStamp>().unwrap();
    assert_eq!(stamp.at, Some(SimTime::from_secs(7)));
}

#[test]
fn app_timers_are_separate_from_protocol_timers() {
    // A protocol and an app on the same node arm timers with the SAME
    // token; each must receive only its own.
    struct TimerProto {
        fired: u32,
    }
    impl RoutingProtocol for TimerProto {
        fn name(&self) -> &'static str {
            "timer-proto"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), TimerToken::compose(7, 7));
        }
        fn on_timer(&mut self, _ctx: &mut ProtocolContext<'_>, token: TimerToken) {
            assert_eq!(token, TimerToken::compose(7, 7));
            self.fired += 1;
        }
    }
    struct TimerApp {
        fired: u32,
    }
    impl AppAgent for TimerApp {
        fn name(&self) -> &'static str {
            "timer-app"
        }
        fn on_start(&mut self, ctx: &mut AppContext<'_>) {
            ctx.set_timer(SimDuration::from_secs(2), TimerToken::compose(7, 7));
        }
        fn on_timer(&mut self, _ctx: &mut AppContext<'_>, token: TimerToken) {
            assert_eq!(token, TimerToken::compose(7, 7));
            self.fired += 1;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    let mut b = SimulatorBuilder::new();
    let node = b.add_node();
    let mut sim = b.build().unwrap();
    sim.install_protocol(node, Box::new(TimerProto { fired: 0 }))
        .unwrap();
    sim.install_app(node, Box::new(TimerApp { fired: 0 }))
        .unwrap();
    sim.start();
    sim.run_to_completion();

    let proto = sim.protocol(node).unwrap();
    assert_eq!(
        proto.as_any().downcast_ref::<TimerProto>().unwrap().fired,
        1
    );
    let app = sim.take_app(node).unwrap();
    assert_eq!(app.as_any().downcast_ref::<TimerApp>().unwrap().fired, 1);
}

#[test]
fn app_cancel_timer_prevents_firing() {
    struct CancelApp {
        fired: bool,
    }
    impl AppAgent for CancelApp {
        fn name(&self) -> &'static str {
            "cancel"
        }
        fn on_start(&mut self, ctx: &mut AppContext<'_>) {
            let id = ctx.set_timer(SimDuration::from_secs(1), TimerToken::compose(1, 1));
            ctx.cancel_timer(id);
        }
        fn on_timer(&mut self, _ctx: &mut AppContext<'_>, _token: TimerToken) {
            self.fired = true;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let mut b = SimulatorBuilder::new();
    let node = b.add_node();
    let mut sim = b.build().unwrap();
    sim.install_app(node, Box::new(CancelApp { fired: false }))
        .unwrap();
    sim.start();
    sim.run_to_completion();
    let app = sim.take_app(node).unwrap();
    assert!(!app.as_any().downcast_ref::<CancelApp>().unwrap().fired);
}

#[test]
fn app_packets_respect_the_forwarding_plane() {
    // An app on a node whose FIB lacks the destination sees its packet
    // dropped NoRoute, not silently teleported.
    struct Blind {
        peer: NodeId,
    }
    impl AppAgent for Blind {
        fn name(&self) -> &'static str {
            "blind"
        }
        fn on_start(&mut self, ctx: &mut AppContext<'_>) {
            ctx.send_data(self.peer, 100, 64, 0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(2);
    b.add_link(nodes[0], nodes[1], LinkConfig::default())
        .unwrap();
    let mut sim = b.build().unwrap();
    // No routing protocol installed: empty FIBs.
    sim.install_app(nodes[0], Box::new(Blind { peer: nodes[1] }))
        .unwrap();
    sim.start();
    sim.run_to_completion();
    assert_eq!(sim.stats().packets_dropped, 1);
    assert_eq!(sim.stats().packets_delivered, 0);
}
