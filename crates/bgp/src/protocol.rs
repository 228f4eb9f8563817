//! The BGP protocol engine.

use std::sync::Arc;

use netsim::dense::{DenseMap, DenseSet};
use netsim::ident::NodeId;
use netsim::protocol::{Payload, RoutingProtocol, TimerToken};
use netsim::simulator::{Peer, ProtocolContext};
use routing_core::damping::{DampAction, Damper};
use routing_core::inline::InlineVec;
use routing_core::path::AsPath;

use crate::config::{BgpConfig, MraiScope};
use crate::flap::{FlapDamper, FlapEvent, ReuseOutcome};
use crate::message::{BgpUpdate, INLINE_DESTS};
use crate::rib::{AdjRibIn, AnnounceTable, BestRoute};

mod timer {
    use netsim::ident::NodeId;
    use netsim::protocol::TimerToken;

    /// MRAI expiry, per-neighbor scope ([`neighbor_token`]).
    pub const MRAI_NEIGHBOR: u64 = 1;
    /// MRAI expiry, per-(neighbor, destination) scope ([`pair_token`]).
    pub const MRAI_PAIR: u64 = 2;
    /// Flap-damping reuse evaluation ([`pair_token`]).
    pub const FLAP_REUSE: u64 = 3;

    const NEIGHBOR_BITS: u32 = 24;
    const PAIR_BITS: u32 = 20;

    /// A `kind` timer for `neighbor`: `arg = epoch << 24 | neighbor`.
    pub fn neighbor_token(kind: u64, epoch: u64, neighbor: NodeId) -> TimerToken {
        debug_assert!(neighbor.index() < 1 << NEIGHBOR_BITS, "{neighbor} aliases");
        TimerToken::compose(kind, (epoch << NEIGHBOR_BITS) | neighbor.index() as u64)
    }

    /// The `(epoch, neighbor)` packed by [`neighbor_token`].
    pub fn unpack_neighbor(token: TimerToken) -> (u64, NodeId) {
        let arg = token.arg();
        let neighbor = arg & ((1 << NEIGHBOR_BITS) - 1);
        (arg >> NEIGHBOR_BITS, NodeId::new(neighbor as u32))
    }

    /// A `kind` timer for the `(neighbor, dest)` pair:
    /// `arg = epoch << 40 | neighbor << 20 | dest`.
    pub fn pair_token(kind: u64, epoch: u64, neighbor: NodeId, dest: NodeId) -> TimerToken {
        debug_assert!(neighbor.index() < 1 << PAIR_BITS, "{neighbor} aliases");
        debug_assert!(dest.index() < 1 << PAIR_BITS, "{dest} aliases");
        let arg = (epoch << (2 * PAIR_BITS))
            | ((neighbor.index() as u64) << PAIR_BITS)
            | dest.index() as u64;
        TimerToken::compose(kind, arg)
    }

    /// The `(epoch, neighbor, dest)` packed by [`pair_token`].
    pub fn unpack_pair(token: TimerToken) -> (u64, NodeId, NodeId) {
        let arg = token.arg();
        let field = |shift: u32| NodeId::new(((arg >> shift) & ((1 << PAIR_BITS) - 1)) as u32);
        (arg >> (2 * PAIR_BITS), field(PAIR_BITS), field(0))
    }
}

/// A BGP speaker for one router (= one AS, as in the paper).
///
/// Implements the §3 subset: shortest-AS-path policy, reliable in-order
/// sessions, updates only on change, explicit withdrawals that bypass the
/// MRAI timer, receive-side loop detection ("a path containing myself is a
/// withdrawal"), and a per-neighbor MRAI timer whose scope and mean are
/// configurable ([`BgpConfig::standard`] vs [`BgpConfig::bgp3`]).
///
/// The decision process is incremental. For every destination not marked
/// unsettled, the Loc-RIB entry is what [`AdjRibIn::best`] selects from
/// the stored paths, the current peer slice and the flap-suppression
/// state, so an update that leaves its Adj-RIB-In slot unchanged needs no
/// new decision. Suppression changes only with a changed slot, on a reuse
/// timer (which re-decides) or on a session reset (which re-decides
/// everything). The only handler that changes the peer slice without
/// re-deciding is [`on_link_up`](RoutingProtocol::on_link_up); it marks
/// every destination unsettled, and the next decision for a destination
/// clears its mark.
#[derive(Debug)]
pub struct Bgp {
    config: BgpConfig,
    adj_in: AdjRibIn,
    loc_rib: Vec<Option<BestRoute>>,
    /// Destinations whose Loc-RIB entry may differ from the decision
    /// process's outcome.
    unsettled: Vec<bool>,
    /// The loc-RIB routes prepended with the local AS, computed once per
    /// best-route *change* (not per announcement) so MRAI rounds and
    /// per-neighbor fan-out only bump a refcount.
    announce: AnnounceTable,
    dampers: DenseMap<Damper>,
    pending: DenseMap<DenseSet>,
    /// `pair_dampers[neighbor][dest]`.
    pair_dampers: DenseMap<DenseMap<Damper>>,
    /// `pair_pending[neighbor]` = destinations awaiting the pair MRAI.
    pair_pending: DenseMap<DenseSet>,
    /// Bumped when a session resets so stale MRAI timers are ignored.
    epochs: DenseMap<u64>,
    /// RFC 2439 figure-of-merit state (inert when damping is disabled).
    flap: FlapDamper,
    /// Destinations whose best route changed during the current event.
    changed_batch: Vec<NodeId>,
    /// Destinations that became unreachable during the current event.
    withdrawn_batch: Vec<NodeId>,
    /// The destinations a per-neighbor MRAI expiry releases, kept between
    /// expiries.
    released: Vec<NodeId>,
}

impl Bgp {
    /// A speaker with the RFC-recommended 30 s average MRAI.
    #[must_use]
    pub fn new() -> Self {
        Bgp::from_valid(BgpConfig::standard())
    }

    /// The study's BGP-3 parameterization (3 s average MRAI).
    #[must_use]
    pub fn bgp3() -> Self {
        Bgp::from_valid(BgpConfig::bgp3())
    }

    /// A speaker with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for an invalid
    /// configuration.
    pub fn with_config(config: BgpConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Bgp::from_valid(config))
    }

    /// Builds a speaker from an already-validated configuration (the
    /// flap-damping parameters were checked by `BgpConfig::validate`).
    fn from_valid(config: BgpConfig) -> Self {
        Bgp {
            flap: FlapDamper::from_valid(config.flap_damping),
            config,
            adj_in: AdjRibIn::default(),
            loc_rib: Vec::new(),
            unsettled: Vec::new(),
            announce: AnnounceTable::new(NodeId::new(0), 0),
            dampers: DenseMap::new(),
            pending: DenseMap::new(),
            pair_dampers: DenseMap::new(),
            pair_pending: DenseMap::new(),
            epochs: DenseMap::new(),
            changed_batch: Vec::new(),
            withdrawn_batch: Vec::new(),
            released: Vec::new(),
        }
    }

    /// The selected best route for `dest` (for tests and forensics).
    #[must_use]
    pub fn best(&self, dest: NodeId) -> Option<&BestRoute> {
        self.loc_rib.get(dest.index())?.as_ref()
    }

    fn epoch(&self, neighbor: NodeId) -> u64 {
        self.epochs.get(neighbor).copied().unwrap_or(0)
    }

    /// Re-runs the decision process for `dest` and settles it; best-route
    /// changes are collected into the event batches flushed by
    /// [`Bgp::after_changes`].
    fn re_decide(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        self.unsettled[dest.index()] = false;
        if dest == ctx.node() {
            return;
        }
        let selected = decide(&self.adj_in, &self.flap, dest, ctx.peers());
        if is_installed(self.loc_rib[dest.index()].as_ref(), selected) {
            return;
        }
        match selected {
            Some((next, _)) => {
                ctx.install_route(dest, next);
                self.changed_batch.push(dest);
            }
            // No candidate means withdrawal.
            None => {
                ctx.remove_route(dest);
                if self.config.damp_withdrawals {
                    self.changed_batch.push(dest);
                } else {
                    self.withdrawn_batch.push(dest);
                }
            }
        }
        self.announce
            .set(dest, selected.map(|(_, path)| path.prepended(ctx.node())));
        self.loc_rib[dest.index()] = selected.map(|(neighbor, path)| BestRoute {
            path: path.clone(),
            next_hop: Some(neighbor),
        });
    }

    /// Re-decides `dest` after an update for it, unless the update left
    /// its Adj-RIB-In slot unchanged (`!slot_changed`) and `dest` is
    /// settled: then the decision would return what it returned last time.
    /// Debug builds check exactly that.
    fn re_decide_if_needed(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        dest: NodeId,
        slot_changed: bool,
    ) {
        if slot_changed || self.unsettled[dest.index()] {
            self.re_decide(ctx, dest);
        } else {
            debug_assert!(
                is_installed(
                    self.loc_rib[dest.index()].as_ref(),
                    decide(&self.adj_in, &self.flap, dest, ctx.peers())
                ),
                "BGP at {} skipped re-deciding settled {}",
                ctx.node(),
                dest
            );
        }
    }

    /// Sends the current state of `dests` to `neighbor`: announcements
    /// grouped by path (one update per distinct path, as BGP requires) and
    /// a withdrawal for anything with no best route, in the order
    /// [`AnnounceTable::updates_for`] gives.
    fn send_routes(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId, dests: &[NodeId]) {
        self.announce.updates_for(neighbor, dests, |update| {
            ctx.send_reliable(neighbor, Arc::new(update));
        });
    }

    /// Flushes the event's batches: withdrawals immediately, announcements
    /// through the MRAI state machine. The emptied batches are kept for
    /// the next event.
    fn after_changes(&mut self, ctx: &mut ProtocolContext<'_>) {
        if !self.withdrawn_batch.is_empty() {
            for slot in 0..ctx.peers().len() {
                let peer = ctx.peers()[slot];
                if peer.up {
                    let for_peer: InlineVec<NodeId, INLINE_DESTS> = self
                        .withdrawn_batch
                        .iter()
                        .copied()
                        .filter(|&d| d != peer.neighbor)
                        .collect();
                    if !for_peer.is_empty() {
                        ctx.send_reliable(peer.neighbor, Arc::new(BgpUpdate::withdraw(for_peer)));
                    }
                }
            }
            self.withdrawn_batch.clear();
        }
        if self.changed_batch.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.changed_batch);
        for slot in 0..ctx.peers().len() {
            let peer = ctx.peers()[slot];
            if !peer.up {
                continue;
            }
            match self.config.mrai_scope {
                MraiScope::PerNeighbor => self.offer_batch_per_neighbor(ctx, peer.neighbor, &batch),
                MraiScope::PerNeighborDestination => {
                    for &dest in &batch {
                        self.offer_one_per_pair(ctx, peer.neighbor, dest);
                    }
                }
            }
        }
        batch.clear();
        self.changed_batch = batch;
    }

    fn offer_batch_per_neighbor(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        neighbor: NodeId,
        batch: &[NodeId],
    ) {
        let config = &self.config;
        let damper = self
            .dampers
            .get_or_insert_with(neighbor, || Damper::new(config.mrai_min(), config.mrai_max()));
        match damper.on_change(ctx.rng()) {
            DampAction::SendNow(window) => {
                self.send_routes(ctx, neighbor, batch);
                let epoch = self.epoch(neighbor);
                let token = timer::neighbor_token(timer::MRAI_NEIGHBOR, epoch, neighbor);
                ctx.set_timer(window, token);
            }
            DampAction::Deferred => {
                let set = self.pending.get_or_insert_with(neighbor, DenseSet::new);
                for &dest in batch {
                    set.insert(dest);
                }
            }
        }
    }

    fn offer_one_per_pair(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        neighbor: NodeId,
        dest: NodeId,
    ) {
        let config = &self.config;
        let damper = self
            .pair_dampers
            .get_or_insert_with(neighbor, DenseMap::new)
            .get_or_insert_with(dest, || Damper::new(config.mrai_min(), config.mrai_max()));
        match damper.on_change(ctx.rng()) {
            DampAction::SendNow(window) => {
                self.send_routes(ctx, neighbor, &[dest]);
                let epoch = self.epoch(neighbor);
                let token = timer::pair_token(timer::MRAI_PAIR, epoch, neighbor, dest);
                ctx.set_timer(window, token);
            }
            DampAction::Deferred => {
                self.pair_pending
                    .get_or_insert_with(neighbor, DenseSet::new)
                    .insert(dest);
            }
        }
    }
}

impl Bgp {
    /// Records a flap event; on a fresh suppression arms the reuse timer.
    fn record_flap(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        peer: NodeId,
        dest: NodeId,
        event: FlapEvent,
    ) {
        let outcome = self.flap.record(peer, dest, event, ctx.now());
        if let Some(reuse_in) = outcome.reuse_in {
            let epoch = self.epoch(peer);
            let token = timer::pair_token(timer::FLAP_REUSE, epoch, peer, dest);
            ctx.set_timer(reuse_in, token);
        }
    }
}

/// The decision process for `dest`: the best stored path from a
/// perceived-up peer whose route is not flap-suppressed.
fn decide<'a>(
    adj_in: &'a AdjRibIn,
    flap: &FlapDamper,
    dest: NodeId,
    peers: &[Peer],
) -> Option<(NodeId, &'a AsPath)> {
    adj_in.best(dest, peers, |n| !flap.is_suppressed(n, dest))
}

/// Whether the Loc-RIB entry `current` is the decision `selected`.
fn is_installed(current: Option<&BestRoute>, selected: Option<(NodeId, &AsPath)>) -> bool {
    current.map(|r| (r.next_hop, &r.path)) == selected.map(|(n, path)| (Some(n), path))
}

/// Whether this router perceives its link to `neighbor` as up.
fn peer_up(ctx: &ProtocolContext<'_>, neighbor: NodeId) -> bool {
    ctx.peers().iter().any(|p| p.neighbor == neighbor && p.up)
}

impl Default for Bgp {
    fn default() -> Self {
        Bgp::new()
    }
}

impl RoutingProtocol for Bgp {
    fn name(&self) -> &'static str {
        "bgp"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        let n = ctx.num_nodes();
        self.adj_in = AdjRibIn::new(n, ctx.peers().len());
        self.loc_rib = vec![None; n];
        self.unsettled = vec![false; n];
        self.announce = AnnounceTable::new(ctx.node(), n);
        let origin = AsPath::origin(ctx.node());
        self.announce.set(ctx.node(), Some(origin.clone()));
        self.loc_rib[ctx.node().index()] = Some(BestRoute {
            path: origin,
            next_hop: None,
        });
        self.changed_batch.push(ctx.node());
        self.after_changes(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProtocolContext<'_>, from: NodeId, payload: &dyn Payload) {
        let Some(update) = payload.as_any().downcast_ref::<BgpUpdate>() else {
            debug_assert!(false, "BGP received a non-BGP payload");
            return;
        };
        let Some(slot) = ctx.peers().iter().position(|p| p.neighbor == from) else {
            debug_assert!(false, "BGP update from non-neighbor {from}");
            return;
        };
        for &dest in &update.withdrawn {
            if dest == ctx.node() {
                continue;
            }
            if self.adj_in.get(slot, dest).is_some() {
                self.record_flap(ctx, from, dest, FlapEvent::Withdrawal);
            }
            let slot_changed = self.adj_in.set(slot, dest, None);
            self.re_decide_if_needed(ctx, dest, slot_changed);
        }
        if let Some(path) = &update.path {
            debug_assert_eq!(path.first(), Some(from), "announced path must start at peer");
            // Receive-side loop detection: a path containing this AS is
            // treated as a withdrawal (the split-horizon analog of §3).
            // The stored path is a refcount clone of the sender's hop
            // sequence — the whole Adj-RIB-In fan-in for one announcement
            // shares a single allocation.
            let filtered = if path.contains(ctx.node()) {
                None
            } else {
                Some(path.clone())
            };
            for &dest in &update.announced {
                if dest == ctx.node() {
                    continue;
                }
                if self.flap.is_enabled() {
                    let previous = self.adj_in.get(slot, dest);
                    match (&filtered, previous) {
                        // The loop-filtered "withdrawal" of a stored path.
                        (None, Some(_)) => {
                            self.record_flap(ctx, from, dest, FlapEvent::Withdrawal);
                        }
                        (Some(_), _) if self.flap.is_withdrawn(from, dest) => {
                            self.record_flap(ctx, from, dest, FlapEvent::Reannounce);
                        }
                        (Some(new), Some(old)) if old != new => {
                            self.record_flap(ctx, from, dest, FlapEvent::AttributeChange);
                        }
                        _ => {}
                    }
                }
                let slot_changed = self.adj_in.set(slot, dest, filtered.clone());
                self.re_decide_if_needed(ctx, dest, slot_changed);
            }
        }
        self.after_changes(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        match token.kind() {
            timer::MRAI_NEIGHBOR => {
                let (epoch, neighbor) = timer::unpack_neighbor(token);
                if epoch != self.epoch(neighbor) {
                    return; // session reset since this timer was armed
                }
                let Some(damper) = self.dampers.get_mut(neighbor) else {
                    return;
                };
                let _ = damper.on_window_expired();
                let mut released = std::mem::take(&mut self.released);
                if let Some(set) = self.pending.get_mut(neighbor) {
                    released.extend(set.iter());
                    set.clear();
                }
                if !released.is_empty() && peer_up(ctx, neighbor) {
                    self.send_routes(ctx, neighbor, &released);
                    if let Some(damper) = self.dampers.get_mut(neighbor) {
                        let window = damper.reopen(ctx.rng());
                        let token = timer::neighbor_token(timer::MRAI_NEIGHBOR, epoch, neighbor);
                        ctx.set_timer(window, token);
                    }
                }
                released.clear();
                self.released = released;
            }
            timer::MRAI_PAIR => {
                let (epoch, neighbor, dest) = timer::unpack_pair(token);
                if epoch != self.epoch(neighbor) {
                    return;
                }
                let Some(damper) = self
                    .pair_dampers
                    .get_mut(neighbor)
                    .and_then(|m| m.get_mut(dest))
                else {
                    return;
                };
                let _ = damper.on_window_expired();
                let was_pending = self
                    .pair_pending
                    .get_mut(neighbor)
                    .is_some_and(|s| s.remove(dest));
                if was_pending && peer_up(ctx, neighbor) {
                    self.send_routes(ctx, neighbor, &[dest]);
                    if let Some(damper) =
                        self.pair_dampers.get_mut(neighbor).and_then(|m| m.get_mut(dest))
                    {
                        let window = damper.reopen(ctx.rng());
                        let token = timer::pair_token(timer::MRAI_PAIR, epoch, neighbor, dest);
                        ctx.set_timer(window, token);
                    }
                }
            }
            timer::FLAP_REUSE => {
                let (epoch, neighbor, dest) = timer::unpack_pair(token);
                if epoch != self.epoch(neighbor) {
                    return;
                }
                match self.flap.try_reuse(neighbor, dest, ctx.now()) {
                    ReuseOutcome::Released => {
                        self.re_decide(ctx, dest);
                        self.after_changes(ctx);
                    }
                    ReuseOutcome::StillSuppressed(delay) => {
                        let token = timer::pair_token(timer::FLAP_REUSE, epoch, neighbor, dest);
                        ctx.set_timer(delay, token);
                    }
                }
            }
            other => debug_assert!(false, "unknown BGP timer kind {other}"),
        }
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        // Session reset: forget everything the peer told us and everything
        // we owed it.
        *self.epochs.get_or_insert_with(neighbor, || 0) += 1;
        if let Some(slot) = ctx.peers().iter().position(|p| p.neighbor == neighbor) {
            self.adj_in.clear_neighbor(slot);
        }
        self.dampers.remove(neighbor);
        self.pending.remove(neighbor);
        self.pair_dampers.remove(neighbor);
        self.pair_pending.remove(neighbor);
        self.flap.clear_peer(neighbor);
        for i in 0..self.loc_rib.len() {
            self.re_decide(ctx, NodeId::new(i as u32));
        }
        self.after_changes(ctx);
    }

    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        // Fresh session: initial RIB exchange is not MRAI-throttled.
        *self.epochs.get_or_insert_with(neighbor, || 0) += 1;
        // The peer is usable again, so any path it left in the Adj-RIB-In
        // (one that arrived while the link was perceived down) may now win
        // a decision that stays as it was until the destination is
        // re-decided.
        self.unsettled.fill(true);
        let all: Vec<NodeId> = self
            .loc_rib
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| NodeId::new(i as u32))
            .collect();
        self.send_routes(ctx, neighbor, &all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_expected_configs() {
        let std = Bgp::new();
        let fast = Bgp::bgp3();
        assert_eq!(std.config.mrai_mean, netsim::time::SimDuration::from_secs(30));
        assert_eq!(fast.config.mrai_mean, netsim::time::SimDuration::from_secs(3));
        assert_eq!(std.name(), "bgp");
    }

    #[test]
    fn timer_tokens_round_trip() {
        let (neighbor, dest) = (NodeId::new((1 << 20) - 1), NodeId::new(7));
        let widest = NodeId::new((1 << 24) - 1);
        let token = timer::neighbor_token(timer::MRAI_NEIGHBOR, 5, widest);
        assert_eq!(token.kind(), timer::MRAI_NEIGHBOR);
        assert_eq!(timer::unpack_neighbor(token), (5, widest));
        for kind in [timer::MRAI_PAIR, timer::FLAP_REUSE] {
            let token = timer::pair_token(kind, 255, neighbor, dest);
            assert_eq!(token.kind(), kind);
            assert_eq!(timer::unpack_pair(token), (255, neighbor, dest));
            let token = timer::pair_token(kind, 0, dest, neighbor);
            assert_eq!(timer::unpack_pair(token), (0, dest, neighbor));
        }
    }

    #[test]
    fn best_is_none_before_start() {
        let bgp = Bgp::new();
        assert!(bgp.best(NodeId::new(0)).is_none());
    }
}
