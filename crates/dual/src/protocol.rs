//! The DUAL protocol engine (diffusing computations, loop-free by
//! construction).

use std::rc::Rc;

use netsim::dense::{DenseMap, DenseSet};
use netsim::ident::NodeId;
use netsim::protocol::{Payload, RoutingProtocol, SharedPayload, TimerToken};
use netsim::simulator::{Peer, ProtocolContext};
use netsim::time::SimDuration;
use routing_core::metric::Metric;
use routing_core::select_best;
use serde::{Deserialize, Serialize};

use crate::message::{DualEntry, DualKind, DualMessage};
use crate::table::{DualRoute, DualState};

mod timer {
    /// Stuck-in-active guard. arg = destination index.
    pub const SIA: u64 = 1;
}

/// Tunable DUAL parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DualConfig {
    /// Stuck-in-active timeout: a diffusing computation that has not
    /// completed by then is forcibly resolved with the information at
    /// hand (EIGRP's SIA reset, simplified).
    pub sia_timeout: SimDuration,
}

impl Default for DualConfig {
    fn default() -> Self {
        DualConfig {
            sia_timeout: SimDuration::from_secs(10),
        }
    }
}

/// A DUAL instance for one router.
///
/// Messages travel over the reliable in-order session service (EIGRP runs
/// DUAL over its Reliable Transport Protocol for the same reason: the
/// algorithm is event-driven with no periodic refresh, so a lost update
/// would leave permanent state gaps).
///
/// This is the comparator the paper's §2/§6 discuss (Garcia-Luna-Aceves):
/// a distance vector that *never* forms transient forwarding loops, paying
/// for it by freezing routes during diffusing computations — affected
/// destinations are unreachable until the diffusion completes. On the
/// study's unit-cost topologies the implementation's passive distance is
/// non-increasing between diffusions, so the feasibility condition
/// (reported distance < feasible distance) is exactly the classic SNC and
/// the protocol converges to shortest paths.
#[derive(Debug)]
pub struct Dual {
    config: DualConfig,
    routes: Vec<DualRoute>,
    /// `(dest, new_distance)` updates accumulated during the current event.
    update_batch: DenseMap<Metric>,
}

impl Dual {
    /// Creates an instance with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Dual::with_config(DualConfig::default())
    }

    /// Creates an instance with explicit parameters.
    #[must_use]
    pub fn with_config(config: DualConfig) -> Self {
        Dual {
            config,
            routes: Vec::new(),
            update_batch: DenseMap::new(),
        }
    }

    /// Read access to a destination's DUAL state (tests/forensics).
    #[must_use]
    pub fn route(&self, dest: NodeId) -> Option<&DualRoute> {
        self.routes.get(dest.index())
    }

    /// Cost closure: the link cost to perceived-up neighbors only.
    fn up_cost(peers: &[Peer], n: NodeId) -> Option<u32> {
        peers
            .iter()
            .find(|p| p.neighbor == n && p.up)
            .map(|p| p.cost)
    }

    /// Passive-state local computation for one destination.
    fn local_compute(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        if dest == ctx.node() || self.routes[dest.index()].is_active() {
            return;
        }
        let best_feasible = {
            let route = &self.routes[dest.index()];
            let peers = ctx.peers();
            select_best(route.feasible_successors(|n| Self::up_cost(peers, n)))
        };
        match best_feasible {
            Some((successor, distance)) => {
                let route = &mut self.routes[dest.index()];
                let changed = route.successor != Some(successor) || route.distance != distance;
                route.successor = Some(successor);
                route.distance = distance;
                route.feasible_distance = route.feasible_distance.min(distance);
                if changed {
                    ctx.install_route(dest, successor);
                    self.update_batch.insert(dest, distance);
                }
            }
            None => {
                let any_up_report = {
                    let route = &self.routes[dest.index()];
                    route
                        .reported
                        .keys()
                        .any(|n| Self::up_cost(ctx.peers(), n).is_some())
                };
                if any_up_report {
                    self.go_active(ctx, dest);
                } else {
                    // Nobody reachable knows this destination at all.
                    let route = &mut self.routes[dest.index()];
                    let changed = route.distance.is_finite() || route.successor.is_some();
                    route.distance = Metric::INFINITY;
                    route.feasible_distance = Metric::INFINITY;
                    route.successor = None;
                    if changed {
                        ctx.remove_route(dest);
                        self.update_batch.insert(dest, Metric::INFINITY);
                    }
                }
            }
        }
    }

    /// Starts a diffusing computation: freeze (unreachable), query all up
    /// neighbors, await their replies.
    fn go_active(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        let pending: DenseSet = ctx
            .peers()
            .iter()
            .filter(|p| p.up)
            .map(|p| p.neighbor)
            .collect();
        {
            let route = &mut self.routes[dest.index()];
            route.distance = Metric::INFINITY;
            route.successor = None;
        }
        ctx.remove_route(dest);
        if pending.is_empty() {
            let route = &mut self.routes[dest.index()];
            route.feasible_distance = Metric::INFINITY;
            self.update_batch.insert(dest, Metric::INFINITY);
            return;
        }
        let sia = ctx.set_timer(
            self.config.sia_timeout,
            TimerToken::compose(timer::SIA, dest.index() as u64),
        );
        self.routes[dest.index()].state = DualState::Active {
            pending: pending.clone(),
            deferred: DenseSet::new(),
            sia_timer: Some(sia),
        };
        let query: SharedPayload = Rc::new(DualMessage::new(
            DualKind::Query,
            vec![DualEntry {
                dest,
                metric: Metric::INFINITY,
            }],
        ));
        for n in pending.iter() {
            ctx.send_reliable(n, Rc::clone(&query));
        }
    }

    /// Finishes a diffusion: reselect freely (the feasible distance
    /// resets), answer deferred queries, announce the outcome.
    fn complete_diffusion(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        let (deferred, sia) = match &mut self.routes[dest.index()].state {
            DualState::Active {
                deferred,
                sia_timer,
                ..
            } => (std::mem::take(deferred), sia_timer.take()),
            DualState::Passive => return,
        };
        if let Some(t) = sia {
            ctx.cancel_timer(t);
        }
        let peers = ctx.peers();
        let best = self.routes[dest.index()].best_any(|n| Self::up_cost(peers, n));
        let route = &mut self.routes[dest.index()];
        route.state = DualState::Passive;
        match best {
            Some((successor, distance)) => {
                route.distance = distance;
                route.feasible_distance = distance;
                route.successor = Some(successor);
                ctx.install_route(dest, successor);
            }
            None => {
                route.distance = Metric::INFINITY;
                route.feasible_distance = Metric::INFINITY;
                route.successor = None;
                ctx.remove_route(dest);
            }
        }
        let distance = self.routes[dest.index()].distance;
        let reply: SharedPayload = Rc::new(DualMessage::new(
            DualKind::Reply,
            vec![DualEntry {
                dest,
                metric: distance,
            }],
        ));
        for n in deferred.iter() {
            if Self::up_cost(ctx.peers(), n).is_some() {
                ctx.send_reliable(n, Rc::clone(&reply));
            }
        }
        self.update_batch.insert(dest, distance);
    }

    /// Sends the batched distance changes of this event to all up
    /// neighbors (no damping: DUAL's delay lives in the diffusion freeze,
    /// not in timers).
    fn flush_updates(&mut self, ctx: &mut ProtocolContext<'_>) {
        if self.update_batch.is_empty() {
            return;
        }
        let entries: Vec<DualEntry> = self
            .update_batch
            .iter()
            .map(|(dest, &metric)| DualEntry { dest, metric })
            .collect();
        self.update_batch.clear();
        let message: SharedPayload = Rc::new(DualMessage::new(DualKind::Update, entries));
        for slot in 0..ctx.peers().len() {
            let peer = ctx.peers()[slot];
            if peer.up {
                ctx.send_reliable(peer.neighbor, Rc::clone(&message));
            }
        }
    }
}

impl Default for Dual {
    fn default() -> Self {
        Dual::new()
    }
}

impl RoutingProtocol for Dual {
    fn name(&self) -> &'static str {
        "dual"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.routes = (0..ctx.num_nodes()).map(|_| DualRoute::unknown()).collect();
        let me = &mut self.routes[ctx.node().index()];
        me.distance = Metric::ZERO;
        me.feasible_distance = Metric::ZERO;
        self.update_batch.insert(ctx.node(), Metric::ZERO);
        self.flush_updates(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProtocolContext<'_>, from: NodeId, payload: &dyn Payload) {
        let Some(message) = payload.as_any().downcast_ref::<DualMessage>() else {
            debug_assert!(false, "DUAL received a foreign payload");
            return;
        };
        for entry in &message.entries {
            let dest = entry.dest;
            if dest == ctx.node() {
                continue;
            }
            self.routes[dest.index()]
                .reported
                .insert(from, entry.metric);
            match message.kind {
                DualKind::Update => self.local_compute(ctx, dest),
                DualKind::Query => {
                    if self.routes[dest.index()].is_active() {
                        // Already diffusing ourselves: our distance is
                        // frozen at infinity, which is always a safe reply.
                        let reply = DualMessage::new(
                            DualKind::Reply,
                            vec![DualEntry {
                                dest,
                                metric: Metric::INFINITY,
                            }],
                        );
                        ctx.send_reliable(from, Rc::new(reply));
                    } else {
                        self.local_compute(ctx, dest);
                        if let DualState::Active { deferred, .. } =
                            &mut self.routes[dest.index()].state
                        {
                            // The query tipped us into our own diffusion:
                            // answer the querier once we are done.
                            deferred.insert(from);
                        } else {
                            let reply = DualMessage::new(
                                DualKind::Reply,
                                vec![DualEntry {
                                    dest,
                                    metric: self.routes[dest.index()].distance,
                                }],
                            );
                            ctx.send_reliable(from, Rc::new(reply));
                        }
                    }
                }
                DualKind::Reply => {
                    let complete = match &mut self.routes[dest.index()].state {
                        DualState::Active { pending, .. } => {
                            pending.remove(from);
                            pending.is_empty()
                        }
                        DualState::Passive => false,
                    };
                    if complete {
                        self.complete_diffusion(ctx, dest);
                    } else if !self.routes[dest.index()].is_active() {
                        self.local_compute(ctx, dest);
                    }
                }
            }
        }
        self.flush_updates(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        debug_assert_eq!(token.kind(), timer::SIA);
        let dest = NodeId::new(token.arg() as u32);
        if let DualState::Active {
            pending, sia_timer, ..
        } = &mut self.routes[dest.index()].state
        {
            // Stuck in active: give up on the silent neighbors and resolve
            // with what we have.
            *sia_timer = None;
            let silent: Vec<NodeId> = pending.iter().collect();
            for n in silent {
                self.routes[dest.index()].reported.remove(n);
            }
            self.complete_diffusion(ctx, dest);
            self.flush_updates(ctx);
        }
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        for i in 0..self.routes.len() {
            let dest = NodeId::new(i as u32);
            if dest == ctx.node() {
                continue;
            }
            self.routes[i].reported.remove(neighbor);
            match &mut self.routes[i].state {
                DualState::Active {
                    pending, deferred, ..
                } => {
                    deferred.remove(neighbor);
                    // A dead neighbor counts as an (infinite) reply.
                    if pending.remove(neighbor) && pending.is_empty() {
                        self.complete_diffusion(ctx, dest);
                    }
                }
                DualState::Passive => {
                    if self.routes[i].successor == Some(neighbor) {
                        self.local_compute(ctx, dest);
                    }
                }
            }
        }
        self.flush_updates(ctx);
    }

    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        // Fresh adjacency: full table exchange.
        let entries: Vec<DualEntry> = self
            .routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.distance.is_finite())
            .map(|(i, r)| DualEntry {
                dest: NodeId::new(i as u32),
                metric: r.distance,
            })
            .collect();
        if !entries.is_empty() {
            ctx.send_reliable(
                neighbor,
                Rc::new(DualMessage::new(DualKind::Update, entries)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let d = Dual::new();
        assert_eq!(d.name(), "dual");
        assert_eq!(d.config.sia_timeout, SimDuration::from_secs(10));
        assert!(d.route(NodeId::new(0)).is_none());
    }
}
