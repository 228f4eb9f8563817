//! A speaker compares AS paths by content, not by handle.
//!
//! Every prepend stores a new run in the run's shared path table, so a
//! neighbor whose best route flaps away and back re-announces the same
//! hops under a fresh handle. The receiving speaker must treat that as no
//! change: no new decision, no new announcement.
//!
//! A scripted neighbor n0 announces itself to a BGP-3 speaker n1 at
//! start and announces again at t = 60 s, long after n1 has settled. n2
//! is silent. The test counts n1's control messages after the second
//! announcement.

use std::rc::Rc;

use bgp::{Bgp, BgpUpdate};
use netsim::ident::NodeId;
use netsim::link::LinkConfig;
use netsim::protocol::{RoutingProtocol, TimerToken};
use netsim::simulator::{ProtocolContext, SimulatorBuilder};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::TraceEvent;
use routing_core::path::PathTable;

const AGAIN_AT: u64 = 60;

/// Announces `[self]` for itself at start, then `again` (hops, most
/// recent first) under a fresh handle at [`AGAIN_AT`].
struct Scripted {
    peer: NodeId,
    again: Vec<NodeId>,
}

impl Scripted {
    fn announce(&self, ctx: &mut ProtocolContext<'_>, hops: &[NodeId]) {
        let table = ctx.shared::<PathTable>();
        let path = table.borrow_mut().from_hops(hops).unwrap();
        let update = BgpUpdate::announce(path, vec![ctx.node()]);
        ctx.send_reliable(self.peer, Rc::new(update));
    }
}

impl RoutingProtocol for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.announce(ctx, &[ctx.node()]);
        ctx.set_timer(SimDuration::from_secs(AGAIN_AT), TimerToken::compose(1, 0));
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, _token: TimerToken) {
        let again = self.again.clone();
        self.announce(ctx, &again);
    }
}

struct Silent;

impl RoutingProtocol for Silent {
    fn name(&self) -> &'static str {
        "silent"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// n1's control messages after n0 announces `again` at [`AGAIN_AT`].
fn sends_after_second_announcement(again: &[u32]) -> usize {
    let mut b = SimulatorBuilder::new();
    let n = b.add_nodes(3);
    b.add_link(n[0], n[1], LinkConfig::default()).unwrap();
    b.add_link(n[1], n[2], LinkConfig::default()).unwrap();
    let mut sim = b.build().unwrap();
    let again = again.iter().map(|&i| NodeId::new(i)).collect();
    sim.install_protocol(n[0], Box::new(Scripted { peer: n[1], again }))
        .unwrap();
    sim.install_protocol(n[1], Box::new(Bgp::bgp3())).unwrap();
    sim.install_protocol(n[2], Box::new(Silent)).unwrap();
    sim.start();
    sim.run_until(SimTime::from_secs(3 * AGAIN_AT));
    let installed = sim.fib(n[1]).next_hop(n[0]);
    assert_eq!(installed, Some(n[0]), "n1 routes to n0 directly");
    sim.trace()
        .unwrap()
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::ControlSent { time, from, .. }
                if *from == n[1] && *time >= SimTime::from_secs(AGAIN_AT))
        })
        .count()
}

#[test]
fn equal_reannouncement_under_a_fresh_handle_changes_nothing() {
    assert_eq!(sends_after_second_announcement(&[0]), 0);
}

#[test]
fn a_changed_reannouncement_is_passed_on() {
    assert!(sends_after_second_announcement(&[0, 2]) > 0);
}
