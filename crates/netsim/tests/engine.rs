//! End-to-end tests of the simulation engine using small static-routing
//! protocols.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::ident::NodeId;
use netsim::link::LinkConfig;
use netsim::packet::DropReason;
use netsim::protocol::{Payload, RoutingProtocol, TimerToken};
use netsim::simulator::{ForwardingPath, Peer, ProtocolContext, Simulator, SimulatorBuilder};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{Trace, TraceCensus, TraceEvent};
use netsim::EventBudgetExceeded;

/// Routes every destination via a fixed next hop chosen by a routing map
/// provided at construction; removes routes via a neighbor when the link to
/// it goes down.
struct StaticRoutes {
    routes: Vec<(NodeId, NodeId)>,
}

impl RoutingProtocol for StaticRoutes {
    fn name(&self) -> &'static str {
        "static"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        for &(dest, next) in &self.routes {
            ctx.install_route(dest, next);
        }
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        let via: Vec<NodeId> = self
            .routes
            .iter()
            .filter(|&&(_, nh)| nh == neighbor)
            .map(|&(d, _)| d)
            .collect();
        for dest in via {
            ctx.remove_route(dest);
        }
    }
}

/// Builds a line topology n0 - n1 - ... - n{k-1} with static shortest-path
/// routes toward the last node.
fn line(k: usize, config: LinkConfig) -> (Simulator, Vec<NodeId>) {
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(k);
    for w in nodes.windows(2) {
        b.add_link(w[0], w[1], config).unwrap();
    }
    let mut sim = b.build().unwrap();
    let last = *nodes.last().unwrap();
    for (i, &n) in nodes.iter().enumerate() {
        let mut routes = Vec::new();
        if n != last {
            routes.push((last, nodes[i + 1]));
        }
        if i > 0 {
            routes.push((nodes[0], nodes[i - 1]));
        }
        sim.install_protocol(n, Box::new(StaticRoutes { routes }))
            .unwrap();
    }
    (sim, nodes)
}

fn drops_by_reason(sim: &Simulator, reason: DropReason) -> usize {
    sim.trace()
        .unwrap()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PacketDropped { reason: r, .. } if *r == reason))
        .count()
}

/// Records go to whichever sink is attached when they happen, and the
/// code that attached a sink takes it back as its concrete type.
#[test]
fn trace_records_go_to_the_attached_sink() {
    let run = |sink: Option<(TraceCensus, Trace)>| {
        let (mut sim, nodes) = line(3, LinkConfig::default());
        let census = sink.map(|sink| sim.replace_trace_sink(Box::new(sink)));
        sim.start();
        for ms in [10, 20, 30] {
            sim.schedule_default_packet(SimTime::from_millis(ms), nodes[0], nodes[2])
                .unwrap();
        }
        sim.run_to_completion();
        (sim, census.is_some())
    };
    let (plain, _) = run(None);
    let kept = plain.trace().unwrap();
    let (mut fanned, replaced) = run(Some((TraceCensus::default(), Trace::new())));
    assert!(replaced);
    // The default `Trace` sink is gone; asking for another type leaves the
    // fan-out attached.
    assert!(fanned.trace().is_none());
    assert!(fanned.take_trace_sink::<Trace>().is_none());
    let (census, trace) = fanned
        .take_trace_sink::<(TraceCensus, Trace)>()
        .expect("the fan-out");
    assert_eq!(trace.render_lines(), kept.render_lines());
    assert_eq!(census.records(), kept.len() as u64);
    assert_eq!(
        (census.injected, census.delivered, census.forwarded),
        (3, 3, 6)
    );
    // What is left attached keeps nothing.
    assert!(fanned.take_trace_sink::<(TraceCensus, Trace)>().is_none());
    assert!(fanned.take_trace_sink::<()>().is_some());
}

#[test]
fn packets_cross_a_line_with_correct_latency() {
    let (mut sim, nodes) = line(5, LinkConfig::default());
    sim.start();
    let t0 = SimTime::from_secs(1);
    sim.schedule_default_packet(t0, nodes[0], nodes[4]).unwrap();
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.stats().packets_delivered, 1);
    let delivered = sim
        .trace()
        .unwrap()
        .iter()
        .find_map(|e| match e {
            TraceEvent::PacketDelivered { time, hops, .. } => Some((time, hops)),
            _ => None,
        })
        .expect("delivery event");
    assert_eq!(delivered.1, 4);
    // 4 hops x (0.8 ms serialization of 1000 B at 10 Mb/s + 1 ms propagation).
    let per_hop = SimDuration::from_micros(800) + SimDuration::from_millis(1);
    assert_eq!(delivered.0, t0 + per_hop * 4);
}

/// The event budget trips only when an event at or before `until` is
/// due: an exhausted budget with nothing due by `until` is `Ok`, and a
/// budget of exactly the events due by `until` finishes the window.
#[test]
fn event_budget_binds_only_when_an_event_is_due() {
    let t0 = SimTime::from_secs(1);
    let end = SimTime::from_secs(2);
    let packet_on_a_line = || {
        let (mut sim, nodes) = line(3, LinkConfig::default());
        sim.start();
        sim.schedule_default_packet(t0, nodes[0], nodes[2]).unwrap();
        sim
    };
    let mut reference = packet_on_a_line();
    let spent = reference.stats().events_processed;
    reference.run_until(end);
    let total = reference.stats().events_processed;
    assert!(total > spent, "the packet's hops are events");

    let mut sim = packet_on_a_line();
    // Nothing is due by `early`: the exhausted budget is not exceeded.
    let early = SimTime::from_millis(500);
    assert_eq!(sim.run_until_budgeted(early, spent), Ok(()));
    assert_eq!(sim.now(), early);
    // The injection is due exactly at `t0`, so the same budget trips.
    assert_eq!(
        sim.run_until_budgeted(t0, spent),
        Err(EventBudgetExceeded {
            events: spent,
            at: early
        })
    );
    assert_eq!(sim.stats().events_processed, spent);
    // One event short of the window trips with the last hop still due.
    let short = sim.run_until_budgeted(end, total - 1).unwrap_err();
    assert_eq!(short.events, total - 1);
    assert!(short.at < end);
    assert_eq!(sim.stats().packets_delivered, 0);
    // Exactly the window's events finish it, and an exhausted budget
    // past the last event is not exceeded.
    assert_eq!(sim.run_until_budgeted(end, total), Ok(()));
    assert_eq!(sim.stats().packets_delivered, 1);
    assert_eq!(sim.run_until_budgeted(SimTime::from_secs(3), total), Ok(()));
    assert_eq!(sim.now(), SimTime::from_secs(3));
}

#[test]
fn ttl_expires_in_forwarding_loop() {
    // Two nodes pointing at each other for an unreachable destination.
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(3);
    b.add_link(nodes[0], nodes[1], LinkConfig::default())
        .unwrap();
    // nodes[2] is disconnected; n0 and n1 each think the other reaches it.
    let mut sim = b.build().unwrap();
    sim.install_protocol(
        nodes[0],
        Box::new(StaticRoutes {
            routes: vec![(nodes[2], nodes[1])],
        }),
    )
    .unwrap();
    sim.install_protocol(
        nodes[1],
        Box::new(StaticRoutes {
            routes: vec![(nodes[2], nodes[0])],
        }),
    )
    .unwrap();
    sim.start();
    sim.schedule_packet(SimTime::from_millis(1), nodes[0], nodes[2], 1000, 64)
        .unwrap();
    sim.run_to_completion();
    assert_eq!(drops_by_reason(&sim, DropReason::TtlExpired), 1);
    // The packet bounced until its TTL ran out: 63 forwards recorded.
    let hops = sim
        .trace()
        .unwrap()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PacketForwarded { .. }))
        .count();
    assert_eq!(hops, 63);
}

#[test]
fn no_route_drop_when_fib_is_empty() {
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(2);
    b.add_link(nodes[0], nodes[1], LinkConfig::default())
        .unwrap();
    let mut sim = b.build().unwrap();
    sim.install_protocol(nodes[0], Box::new(StaticRoutes { routes: vec![] }))
        .unwrap();
    sim.install_protocol(nodes[1], Box::new(StaticRoutes { routes: vec![] }))
        .unwrap();
    sim.start();
    sim.schedule_default_packet(SimTime::from_millis(1), nodes[0], nodes[1])
        .unwrap();
    sim.run_to_completion();
    assert_eq!(drops_by_reason(&sim, DropReason::NoRoute), 1);
    assert_eq!(sim.stats().packets_delivered, 0);
}

#[test]
fn link_failure_loses_in_flight_packets_until_detected() {
    let config = LinkConfig::default();
    let (mut sim, nodes) = line(2, config);
    sim.start();
    let link = sim.link_between(nodes[0], nodes[1]).unwrap();
    let t_fail = SimTime::from_secs(1);
    sim.schedule_link_failure(t_fail, link).unwrap();
    // One packet before the failure, several during the detection window,
    // one after detection.
    sim.schedule_default_packet(SimTime::from_millis(500), nodes[0], nodes[1])
        .unwrap();
    for ms in [1010u64, 1020, 1030, 1040] {
        sim.schedule_default_packet(SimTime::from_millis(ms), nodes[0], nodes[1])
            .unwrap();
    }
    sim.schedule_default_packet(SimTime::from_millis(1500), nodes[0], nodes[1])
        .unwrap();
    sim.run_to_completion();
    assert_eq!(sim.stats().packets_delivered, 1);
    assert_eq!(drops_by_reason(&sim, DropReason::LinkDown), 4);
    // After 50 ms detection the static protocol removed the route.
    assert_eq!(drops_by_reason(&sim, DropReason::NoRoute), 1);
}

#[test]
fn detection_events_fire_on_both_endpoints() {
    let (mut sim, nodes) = line(2, LinkConfig::default());
    sim.start();
    let link = sim.link_between(nodes[0], nodes[1]).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(1), link)
        .unwrap();
    sim.run_to_completion();
    let detections: Vec<(NodeId, bool)> = sim
        .trace()
        .unwrap()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::LinkStateDetected { node, up, time, .. } => {
                assert_eq!(time, SimTime::from_millis(1050));
                Some((node, up))
            }
            _ => None,
        })
        .collect();
    assert_eq!(detections, vec![(nodes[0], false), (nodes[1], false)]);
}

#[test]
fn recovery_restores_forwarding() {
    let (mut sim, nodes) = line(2, LinkConfig::default());
    sim.start();
    let link = sim.link_between(nodes[0], nodes[1]).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(1), link)
        .unwrap();
    sim.schedule_link_recovery(SimTime::from_secs(2), link)
        .unwrap();
    sim.schedule_default_packet(SimTime::from_secs(3), nodes[0], nodes[1])
        .unwrap();
    sim.run_to_completion();
    // StaticRoutes removed the route on link-down and never reinstalls it,
    // so the packet is dropped NoRoute — but the physical link recovered.
    assert_eq!(drops_by_reason(&sim, DropReason::NoRoute), 1);
    let recovered = sim
        .trace()
        .unwrap()
        .iter()
        .any(|e| matches!(e, TraceEvent::LinkRecovered { .. }));
    assert!(recovered);
}

/// Installs fixed routes at start and keeps them through link failures.
struct PinnedRoutes(Vec<(NodeId, NodeId)>);

impl RoutingProtocol for PinnedRoutes {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        for &(dest, next) in &self.0 {
            ctx.install_route(dest, next);
        }
    }
}

#[test]
fn last_route_change_is_the_last_route_changed_record() {
    let last_recorded = |sim: &Simulator| {
        sim.trace()
            .unwrap()
            .iter()
            .filter(|e| matches!(e, TraceEvent::RouteChanged { .. }))
            .map(|e| e.time())
            .last()
            .unwrap_or(SimTime::ZERO)
    };
    let (mut sim, nodes) = line(3, LinkConfig::default());
    // Node 0 keeps its route through the crash, so only the restart's FIB
    // wipe at 4 s changes it; the fresh instance installs nothing.
    sim.install_protocol(nodes[0], Box::new(PinnedRoutes(vec![(nodes[2], nodes[1])])))
        .unwrap();
    let link = sim.link_between(nodes[1], nodes[2]).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(1), link)
        .unwrap();
    sim.schedule_node_crash_restart(
        SimTime::from_secs(3),
        nodes[0],
        SimDuration::from_secs(1),
        Box::new(PinnedRoutes(Vec::new())),
    )
    .unwrap();
    assert_eq!(sim.last_route_change(), SimTime::ZERO);
    sim.start();
    for until in [2, 3, 6] {
        sim.run_until(SimTime::from_secs(until));
        assert_eq!(sim.last_route_change(), last_recorded(&sim));
    }
    assert_eq!(sim.last_route_change(), SimTime::from_secs(4));
}

#[test]
fn queue_overflow_drops_excess_packets() {
    let config = LinkConfig {
        bandwidth_bps: 10_000, // 0.8 s to serialize one 1000 B packet
        queue_capacity: 2,
        ..LinkConfig::default()
    };
    let (mut sim, nodes) = line(2, config);
    sim.start();
    // 6 packets injected back-to-back: 1 transmitting + 2 queued + 3 dropped.
    for i in 0..6u64 {
        sim.schedule_default_packet(SimTime::from_millis(100 + i), nodes[0], nodes[1])
            .unwrap();
    }
    sim.run_to_completion();
    assert_eq!(drops_by_reason(&sim, DropReason::QueueOverflow), 3);
    assert_eq!(sim.stats().packets_delivered, 3);
}

#[test]
fn forwarding_path_walks_fibs() {
    let (mut sim, nodes) = line(4, LinkConfig::default());
    sim.start();
    sim.run_until(SimTime::from_millis(1));
    match sim.forwarding_path(nodes[0], nodes[3]) {
        ForwardingPath::Complete(p) => assert_eq!(p, nodes),
        other => panic!("expected complete path, got {other:?}"),
    }
}

#[test]
fn same_seed_reproduces_identical_traces() {
    let run = |seed: u64| {
        let mut b = SimulatorBuilder::new();
        let nodes = b.add_nodes(3);
        b.add_link(nodes[0], nodes[1], LinkConfig::default())
            .unwrap();
        b.add_link(nodes[1], nodes[2], LinkConfig::default())
            .unwrap();
        b.seed(seed);
        let mut sim = b.build().unwrap();
        for (i, &n) in nodes.iter().enumerate() {
            let mut routes = Vec::new();
            if i < 2 {
                routes.push((nodes[2], nodes[i + 1]));
            }
            sim.install_protocol(n, Box::new(StaticRoutes { routes }))
                .unwrap();
        }
        sim.start();
        for i in 0..50u64 {
            sim.schedule_default_packet(SimTime::from_millis(10 * i), nodes[0], nodes[2])
                .unwrap();
        }
        sim.run_to_completion();
        format!("{:?}", sim.trace().unwrap())
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(9), run(9));
}

/// A protocol that pings itself with timers and floods a counter message.
#[derive(Default)]
struct TimerEcho {
    fired: Vec<u64>,
}

#[derive(Debug)]
struct Ping(u64);

impl Payload for Ping {
    fn size_bytes(&self) -> usize {
        8
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl RoutingProtocol for TimerEcho {
    fn name(&self) -> &'static str {
        "timer-echo"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken::compose(1, 11));
        let cancelled = ctx.set_timer(SimDuration::from_secs(2), TimerToken::compose(1, 22));
        ctx.cancel_timer(cancelled);
        ctx.set_timer(SimDuration::from_secs(3), TimerToken::compose(1, 33));
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        self.fired.push(token.arg());
        for slot in 0..ctx.peers().len() {
            let n = ctx.peers()[slot].neighbor;
            ctx.send(n, std::rc::Rc::new(Ping(token.arg())));
        }
    }

    fn on_message(&mut self, _ctx: &mut ProtocolContext<'_>, _from: NodeId, payload: &dyn Payload) {
        let ping = payload.as_any().downcast_ref::<Ping>().expect("ping");
        self.fired.push(1000 + ping.0);
    }
}

#[test]
fn timers_fire_and_cancelled_timers_do_not() {
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(2);
    b.add_link(nodes[0], nodes[1], LinkConfig::default())
        .unwrap();
    let mut sim = b.build().unwrap();
    sim.install_protocol(nodes[0], Box::new(TimerEcho::default()))
        .unwrap();
    sim.install_protocol(nodes[1], Box::new(TimerEcho::default()))
        .unwrap();
    sim.start();
    sim.run_to_completion();
    // Each node fired timers 11 and 33 (22 was cancelled) and received the
    // neighbor's two pings.
    assert_eq!(sim.stats().control_messages_sent, 4);
    assert_eq!(sim.stats().control_messages_lost, 0);
}

/// Re-arms one timer later, then earlier, from `on_start`, and records
/// the ids `reset_timer` returned and when the timer fired.
#[derive(Default)]
struct Refresher {
    ids: Vec<netsim::protocol::TimerId>,
    fired: Vec<(SimTime, u64)>,
}

impl RoutingProtocol for Refresher {
    fn name(&self) -> &'static str {
        "refresher"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        let id = ctx.set_timer(SimDuration::from_secs(10), TimerToken::compose(1, 1));
        let later = ctx.reset_timer(
            Some(id),
            SimDuration::from_secs(20),
            TimerToken::compose(1, 2),
        );
        let earlier = ctx.reset_timer(
            Some(id),
            SimDuration::from_secs(5),
            TimerToken::compose(1, 3),
        );
        self.ids = vec![id, later, earlier];
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        self.fired.push((ctx.now(), token.arg()));
    }
}

#[test]
fn reset_timer_moves_the_deadline_in_place() {
    let mut b = SimulatorBuilder::new();
    let node = b.add_node();
    let mut sim = b.build().unwrap();
    sim.install_protocol(node, Box::new(Refresher::default()))
        .unwrap();
    sim.start();
    sim.run_to_completion();
    let stats = sim.stats();
    let proto = sim
        .protocol(node)
        .unwrap()
        .as_any()
        .downcast_ref::<Refresher>()
        .unwrap();
    assert!(
        proto.ids.iter().all(|&id| id == proto.ids[0]),
        "the id is kept"
    );
    assert_eq!(
        proto.fired,
        [(SimTime::from_secs(5), 3)],
        "fires once, at the last deadline"
    );
    // Moving the deadline earlier pushed a second event; the first one
    // (at 10 s) pops stale. Cancel-and-set would have left two stale ones.
    assert_eq!(stats.events_processed, 2);
    assert_eq!(stats.stale_timer_pops, 1);
    assert_eq!(stats.queue_high_water, 2);
}

#[test]
fn control_messages_are_counted_and_sized() {
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(2);
    b.add_link(nodes[0], nodes[1], LinkConfig::default())
        .unwrap();
    let mut sim = b.build().unwrap();
    sim.install_protocol(nodes[0], Box::new(TimerEcho::default()))
        .unwrap();
    sim.install_protocol(nodes[1], Box::new(TimerEcho::default()))
        .unwrap();
    sim.start();
    sim.run_to_completion();
    // 4 messages x (8-byte payload + 20-byte header).
    assert_eq!(sim.stats().control_bytes_sent, 4 * 28);
    let traced: u64 = sim
        .trace()
        .unwrap()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ControlSent { bytes, .. } => Some(u64::from(bytes)),
            _ => None,
        })
        .sum();
    assert_eq!(traced, 4 * 28);
}

#[test]
fn builder_rejects_malformed_topologies() {
    use netsim::error::BuildError;
    let mut b = SimulatorBuilder::new();
    let n0 = b.add_node();
    let n1 = b.add_node();
    assert_eq!(
        b.add_link(n0, n0, LinkConfig::default()),
        Err(BuildError::SelfLoop(n0))
    );
    assert_eq!(
        b.add_link(n0, NodeId::new(99), LinkConfig::default()),
        Err(BuildError::UnknownNode(NodeId::new(99)))
    );
    b.add_link(n0, n1, LinkConfig::default()).unwrap();
    assert_eq!(
        b.add_link(n1, n0, LinkConfig::default()),
        Err(BuildError::DuplicateLink(n1, n0))
    );
    assert!(SimulatorBuilder::new().build().is_err());
}

#[test]
fn packet_conservation_holds() {
    // sent = delivered + dropped when the run drains completely.
    let (mut sim, nodes) = line(6, LinkConfig::default());
    sim.start();
    let link = sim.link_between(nodes[2], nodes[3]).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(1), link)
        .unwrap();
    for i in 0..200u64 {
        sim.schedule_default_packet(SimTime::from_millis(900 + i), nodes[0], nodes[5])
            .unwrap();
    }
    sim.run_to_completion();
    let s = sim.stats();
    assert_eq!(s.packets_injected, 200);
    assert_eq!(s.packets_injected, s.packets_delivered + s.packets_dropped);
}

/// Records the peer slice it sees at start and on every link event.
#[derive(Default)]
struct PeerLog {
    seen: Vec<Vec<Peer>>,
}

impl RoutingProtocol for PeerLog {
    fn name(&self) -> &'static str {
        "peer-log"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.seen.push(ctx.peers().to_vec());
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, _neighbor: NodeId) {
        self.seen.push(ctx.peers().to_vec());
    }

    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, _neighbor: NodeId) {
        self.seen.push(ctx.peers().to_vec());
    }
}

#[test]
fn peers_follow_link_order_and_perceived_state() {
    let mut b = SimulatorBuilder::new();
    let n = b.add_nodes(4);
    let cheap = LinkConfig::default();
    let dear = LinkConfig {
        cost: 7,
        ..LinkConfig::default()
    };
    b.add_link(n[0], n[2], cheap).unwrap();
    let failing = b.add_link(n[1], n[0], dear).unwrap();
    b.add_link(n[0], n[3], cheap).unwrap();
    let mut sim = b.build().unwrap();
    sim.install_protocol(n[0], Box::new(PeerLog::default()))
        .unwrap();
    sim.start();
    sim.schedule_link_failure(SimTime::from_secs(1), failing)
        .unwrap();
    sim.schedule_link_recovery(SimTime::from_secs(2), failing)
        .unwrap();
    sim.run_until(SimTime::from_secs(3));

    let peer = |node: NodeId, cost, up| Peer {
        neighbor: node,
        cost,
        up,
    };
    let with_n1 = |up| vec![peer(n[2], 1, true), peer(n[1], 7, up), peer(n[3], 1, true)];
    let log = sim
        .protocol(n[0])
        .and_then(|p| p.as_any().downcast_ref::<PeerLog>())
        .unwrap();
    // Start, detected down, detected back up: add_link order throughout,
    // only the failed link's `up` changing.
    assert_eq!(log.seen, vec![with_n1(true), with_n1(false), with_n1(true)]);
}

/// Takes the simulator's shared `Vec<NodeId>` on start, appends its node
/// and keeps the handle.
#[derive(Default)]
struct SharedLog {
    shared: Option<Rc<RefCell<Vec<NodeId>>>>,
}

impl RoutingProtocol for SharedLog {
    fn name(&self) -> &'static str {
        "shared-log"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        let shared = ctx.shared::<Vec<NodeId>>();
        shared.borrow_mut().push(ctx.node());
        self.shared = Some(shared);
    }
}

/// A started three-node line whose every router runs [`SharedLog`].
fn shared_log_line() -> (Simulator, Vec<NodeId>) {
    let mut b = SimulatorBuilder::new();
    let n = b.add_nodes(3);
    b.add_link(n[0], n[1], LinkConfig::default()).unwrap();
    b.add_link(n[1], n[2], LinkConfig::default()).unwrap();
    let mut sim = b.build().unwrap();
    for &node in &n {
        sim.install_protocol(node, Box::new(SharedLog::default()))
            .unwrap();
    }
    sim.start();
    (sim, n)
}

fn shared_of(sim: &Simulator, node: NodeId) -> Rc<RefCell<Vec<NodeId>>> {
    let log = sim
        .protocol(node)
        .and_then(|p| p.as_any().downcast_ref::<SharedLog>())
        .unwrap();
    Rc::clone(log.shared.as_ref().unwrap())
}

#[test]
fn every_protocol_of_a_simulator_shares_one_value() {
    let (sim, n) = shared_log_line();
    let first = shared_of(&sim, n[0]);
    for &node in &n[1..] {
        assert!(Rc::ptr_eq(&first, &shared_of(&sim, node)));
    }
    assert_eq!(*first.borrow(), n, "each start appended to the one value");
}

#[test]
fn a_restarted_node_gets_the_same_shared_value() {
    let (mut sim, n) = shared_log_line();
    let before = shared_of(&sim, n[1]);
    sim.schedule_node_crash_restart(
        SimTime::from_secs(1),
        n[1],
        SimDuration::from_secs(1),
        Box::new(SharedLog::default()),
    )
    .unwrap();
    sim.run_until(SimTime::from_secs(3));
    let after = shared_of(&sim, n[1]);
    assert!(Rc::ptr_eq(&before, &after));
    assert_eq!(*after.borrow(), vec![n[0], n[1], n[2], n[1]]);
}

#[test]
fn another_simulator_has_its_own_shared_value() {
    let (one, n) = shared_log_line();
    let (two, _) = shared_log_line();
    let (a, b) = (shared_of(&one, n[0]), shared_of(&two, n[0]));
    assert!(!Rc::ptr_eq(&a, &b));
    assert_eq!(*a.borrow(), n);
    assert_eq!(*b.borrow(), n);
}
