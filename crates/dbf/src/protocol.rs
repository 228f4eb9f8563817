//! The DBF protocol engine.

use netsim::dense::DenseSet;
use netsim::ident::NodeId;
use netsim::protocol::{Payload, RoutingProtocol, TimerId, TimerToken};
use netsim::simulator::{Peer, ProtocolContext};
use netsim::time::SimDuration;
use rip::config::SplitHorizon;
use routing_core::damping::{TriggerAction, TriggeredScheduler};
use routing_core::message::{send_packed, DvEntry, DvMessage};
use routing_core::metric::Metric;
use routing_core::{reselect, Reselection};
use std::rc::Rc;

use crate::cache::NeighborCache;
use crate::config::DbfConfig;

mod timer {
    pub const PERIODIC: u64 = 1;
    pub const TRIGGERED_WINDOW: u64 = 2;
    pub const NEIGHBOR_TIMEOUT: u64 = 3;
}

/// The selected route for one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectedRoute {
    /// Distance through the selected next hop.
    pub metric: Metric,
    /// The selected next hop (`None` for the self route).
    pub next_hop: Option<NodeId>,
}

/// A Distributed Bellman-Ford instance for one router.
///
/// Identical to [`rip::Rip`] except for the per-neighbor vector cache: when
/// the current next hop to a destination is lost, DBF *instantly* selects
/// the best alternate from the cache instead of waiting for the next
/// periodic update — the paper's "zero time path switch-over" (§4.1).
///
/// Selection is incremental. For every destination not marked unsettled
/// (the *settled* invariant), `selected[dest]` is what
/// [`NeighborCache::best`] selects from the cache and the current peer
/// slice. So an advertisement that leaves its cache entry unchanged needs
/// no re-selection, and one that changes it is decided from the current
/// selection and that one entry ([`reselect`]): a better offer from another
/// neighbor wins, a no-better one changes nothing, and a no-worse offer
/// from the selected neighbor keeps it with the new metric. Only a worse
/// or infinite offer from the selected neighbor falls back to a full
/// selection. The only handler that changes the peer slice without
/// re-selecting everything is [`on_link_up`](RoutingProtocol::on_link_up);
/// it marks every destination unsettled, and the next selection for a
/// destination, always a full one, clears its mark.
///
/// The destinations whose selection changed since the last update went
/// out are one [`DenseSet`], so checking for changes after a message is
/// one comparison and a triggered update walks only the changed ones.
#[derive(Debug)]
pub struct Dbf {
    config: DbfConfig,
    cache: NeighborCache,
    selected: Vec<Option<SelectedRoute>>,
    /// Destinations whose selection changed since the last update.
    changed: DenseSet,
    /// Destinations whose selection may differ from the cache's best.
    unsettled: Vec<bool>,
    /// Staleness timer per neighbor slot.
    neighbor_timers: Vec<Option<TimerId>>,
    scheduler: TriggeredScheduler,
}

impl Dbf {
    /// Creates an instance with the paper's default parameters.
    #[must_use]
    pub fn new() -> Self {
        Dbf::from_valid(DbfConfig::default())
    }

    /// Creates an instance with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for an invalid
    /// configuration.
    pub fn with_config(config: DbfConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Dbf::from_valid(config))
    }

    /// Builds an instance from an already-validated configuration.
    fn from_valid(config: DbfConfig) -> Self {
        Dbf {
            scheduler: TriggeredScheduler::new(
                config.damping_mode,
                config.triggered_min,
                config.triggered_max,
            ),
            config,
            cache: NeighborCache::default(),
            selected: Vec::new(),
            changed: DenseSet::new(),
            unsettled: Vec::new(),
            neighbor_timers: Vec::new(),
        }
    }

    /// The currently selected route for `dest` (for tests and forensics).
    #[must_use]
    pub fn selected(&self, dest: NodeId) -> Option<SelectedRoute> {
        self.selected.get(dest.index()).copied().flatten()
    }

    /// The route selection for `dest` from the cache and `peers`.
    fn select(&self, dest: NodeId, peers: &[Peer]) -> Option<SelectedRoute> {
        self.cache
            .best(dest, peers)
            .map(|(next_hop, metric)| SelectedRoute {
                metric,
                next_hop: Some(next_hop),
            })
    }

    /// Re-runs route selection for `dest` against the cache and settles
    /// `dest`.
    fn recompute(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        self.unsettled[dest.index()] = false;
        if dest == ctx.node() {
            return;
        }
        let best = self.select(dest, ctx.peers());
        self.install(ctx, dest, best);
    }

    /// Makes `best` the selection for `dest`, updating the FIB and the
    /// change set when it differs from the current one.
    fn install(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        dest: NodeId,
        best: Option<SelectedRoute>,
    ) {
        let slot = &mut self.selected[dest.index()];
        if *slot == best {
            return;
        }
        *slot = best;
        self.changed.insert(dest);
        match best {
            Some(SelectedRoute {
                next_hop: Some(next),
                ..
            }) => ctx.install_route(dest, next),
            // No candidate — or (unreachably, self routes never get here)
            // one without a next hop, which cannot be forwarded to either.
            _ => ctx.remove_route(dest),
        }
    }

    /// Re-selects `dest` after an advertisement for it. `changed_slot` is
    /// the slot whose cache entry the advertisement changed, or `None` if
    /// it left the entry as it was.
    ///
    /// An unsettled `dest` gets a full selection. A settled one with an
    /// unchanged entry keeps its selection, and a changed entry is
    /// decided from the current selection and that entry alone, falling
    /// back to a full selection only when [`reselect`] asks for one. Debug
    /// builds check every outcome short of a full selection against one.
    fn recompute_if_needed(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        dest: NodeId,
        changed_slot: Option<usize>,
    ) {
        if self.unsettled[dest.index()] {
            self.recompute(ctx, dest);
            return;
        }
        if let Some(slot) = changed_slot {
            let peer = ctx.peers()[slot];
            let offer = self.cache.offer(slot, dest, &peer);
            let current =
                self.selected[dest.index()].and_then(|route| Some((route.metric, route.next_hop?)));
            match reselect(current, peer.neighbor, offer) {
                Reselection::Keep => {}
                Reselection::TakeOffer => {
                    let best = offer.map(|metric| SelectedRoute {
                        metric,
                        next_hop: Some(peer.neighbor),
                    });
                    self.install(ctx, dest, best);
                }
                Reselection::Rescan => {
                    self.recompute(ctx, dest);
                    return;
                }
            }
        }
        debug_assert_eq!(
            self.selected[dest.index()],
            self.select(dest, ctx.peers()),
            "DBF at {} re-selected settled {} without a full selection",
            ctx.node(),
            dest
        );
    }

    /// The advertisement for one neighbor under split horizon, as a lazy
    /// iterator — entries stream straight into the inline message
    /// storage of [`send_packed`] without an intermediate `Vec`.
    ///
    /// Unlike RIP's table dump, DBF advertises the *full vector*: a
    /// destination with no selected route is announced with an infinite
    /// metric, which is how withdrawals reach neighbors whose caches would
    /// otherwise hold the stale finite entry forever.
    ///
    /// With `changed_only` (a triggered update) the advertisement carries
    /// only the changed destinations: it walks the change set instead of
    /// the whole table, in ascending destination order.
    fn build_entries(
        &self,
        neighbor: NodeId,
        changed_only: bool,
    ) -> impl Iterator<Item = DvEntry> + '_ {
        let all = (!changed_only)
            .then(|| (0..self.selected.len()).map(|i| NodeId::new(i as u32)))
            .into_iter()
            .flatten();
        let chosen = changed_only
            .then(|| self.changed.iter())
            .into_iter()
            .flatten();
        all.chain(chosen).filter_map(move |dest| {
            let metric = match self.selected.get(dest.index())? {
                None => Metric::INFINITY,
                Some(route) => {
                    let toward_neighbor = route.next_hop == Some(neighbor);
                    match (toward_neighbor, self.config.split_horizon) {
                        (true, SplitHorizon::Simple) => return None,
                        (true, SplitHorizon::PoisonReverse) => Metric::INFINITY,
                        _ => route.metric,
                    }
                }
            };
            Some(DvEntry { dest, metric })
        })
    }

    fn send_update(&self, ctx: &mut ProtocolContext<'_>, to: NodeId, changed_only: bool) {
        send_packed(self.build_entries(to, changed_only), |message| {
            ctx.send(to, Rc::new(message));
        });
    }

    fn send_to_all_up(&self, ctx: &mut ProtocolContext<'_>, changed_only: bool) {
        for slot in 0..ctx.peers().len() {
            let peer = ctx.peers()[slot];
            if peer.up {
                self.send_update(ctx, peer.neighbor, changed_only);
            }
        }
    }

    fn after_changes(&mut self, ctx: &mut ProtocolContext<'_>) {
        if self.changed.is_empty() {
            return;
        }
        match self.scheduler.on_change(ctx.rng()) {
            TriggerAction::SendNowThenHold(window) => {
                self.flush_changed(ctx);
                ctx.set_timer(window, TimerToken::compose(timer::TRIGGERED_WINDOW, 0));
            }
            TriggerAction::HoldFor(window) => {
                ctx.set_timer(window, TimerToken::compose(timer::TRIGGERED_WINDOW, 0));
            }
            TriggerAction::AlreadyPending => {}
        }
    }

    fn flush_changed(&mut self, ctx: &mut ProtocolContext<'_>) {
        if !self.changed.is_empty() {
            self.send_to_all_up(ctx, true);
            self.changed.clear();
        }
    }

    fn refresh_neighbor_timer(&mut self, ctx: &mut ProtocolContext<'_>, slot: usize) {
        let id = ctx.reset_timer(
            self.neighbor_timers[slot],
            self.config.neighbor_timeout,
            TimerToken::compose(timer::NEIGHBOR_TIMEOUT, slot as u64),
        );
        self.neighbor_timers[slot] = Some(id);
    }

    /// Forgets the neighbor in `slot` and re-selects every destination from
    /// the remaining cached vectors.
    fn forget_neighbor(&mut self, ctx: &mut ProtocolContext<'_>, slot: usize) {
        self.cache.invalidate(slot);
        for i in 0..self.selected.len() {
            self.recompute(ctx, NodeId::new(i as u32));
        }
        self.after_changes(ctx);
    }
}

impl Default for Dbf {
    fn default() -> Self {
        Dbf::new()
    }
}

impl RoutingProtocol for Dbf {
    fn name(&self) -> &'static str {
        "dbf"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        let n = ctx.num_nodes();
        let degree = ctx.peers().len();
        self.cache = NeighborCache::new(n, degree);
        self.neighbor_timers = vec![None; degree];
        self.selected = vec![None; n];
        self.changed = DenseSet::new();
        self.unsettled = vec![false; n];
        // Self route, announced like any change.
        self.selected[ctx.node().index()] = Some(SelectedRoute {
            metric: Metric::ZERO,
            next_hop: None,
        });
        self.changed.insert(ctx.node());
        let first = ctx
            .rng()
            .gen_duration(SimDuration::ZERO, self.config.periodic_interval);
        ctx.set_timer(first, TimerToken::compose(timer::PERIODIC, 0));
        self.after_changes(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProtocolContext<'_>, from: NodeId, payload: &dyn Payload) {
        let Some(message) = payload.as_any().downcast_ref::<DvMessage>() else {
            debug_assert!(false, "DBF received a non-DV payload");
            return;
        };
        let Some(slot) = ctx.peers().iter().position(|p| p.neighbor == from) else {
            debug_assert!(false, "DBF message from non-neighbor {from}");
            return;
        };
        self.refresh_neighbor_timer(ctx, slot);
        for &entry in &message.entries {
            if entry.dest == ctx.node() {
                continue;
            }
            let changed = self.cache.update(slot, entry.dest, entry.metric);
            self.recompute_if_needed(ctx, entry.dest, changed.then_some(slot));
        }
        self.after_changes(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        match token.kind() {
            timer::PERIODIC => {
                self.send_to_all_up(ctx, false);
                self.changed.clear();
                let jitter = self.config.periodic_jitter;
                let next = ctx.rng().gen_duration(
                    self.config.periodic_interval.saturating_sub(jitter),
                    self.config.periodic_interval + jitter,
                );
                ctx.set_timer(next, TimerToken::compose(timer::PERIODIC, 0));
            }
            timer::TRIGGERED_WINDOW => {
                let has_changes = !self.changed.is_empty();
                let (flush, rearm) = self.scheduler.on_timer_expired(ctx.rng(), has_changes);
                if flush {
                    self.flush_changed(ctx);
                }
                if let Some(window) = rearm {
                    ctx.set_timer(window, TimerToken::compose(timer::TRIGGERED_WINDOW, 0));
                }
            }
            timer::NEIGHBOR_TIMEOUT => {
                let slot = token.arg() as usize;
                if let Some(timer) = self.neighbor_timers.get_mut(slot) {
                    *timer = None;
                }
                self.forget_neighbor(ctx, slot);
            }
            other => debug_assert!(false, "unknown DBF timer kind {other}"),
        }
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        // The instant switch-over: invalidate the neighbor and re-select
        // every destination from the remaining cached vectors, updating the
        // FIB in the same event.
        let Some(slot) = ctx.peers().iter().position(|p| p.neighbor == neighbor) else {
            return;
        };
        if let Some(t) = self.neighbor_timers[slot].take() {
            ctx.cancel_timer(t);
        }
        self.forget_neighbor(ctx, slot);
    }

    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        // The peer is usable again, so any entry it left in the cache
        // (one that arrived while the link was perceived down) may now win
        // a selection that stays as it was until the destination is
        // re-selected.
        self.unsettled.fill(true);
        self.send_update(ctx, neighbor, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selected_route_equality_drives_change_detection() {
        let a = SelectedRoute {
            metric: Metric::new(2),
            next_hop: Some(NodeId::new(1)),
        };
        let b = SelectedRoute {
            metric: Metric::new(2),
            next_hop: Some(NodeId::new(1)),
        };
        let c = SelectedRoute {
            metric: Metric::new(2),
            next_hop: Some(NodeId::new(3)),
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn triggered_filter_restricts_destinations() {
        let n = NodeId::new;
        let route = |metric, next| {
            Some(SelectedRoute {
                metric: Metric::new(metric),
                next_hop: Some(n(next)),
            })
        };
        let mut dbf = Dbf::new();
        dbf.selected = vec![None, route(2, 5), route(1, 6), route(4, 6)];
        let only = [n(0), n(2), n(3)];
        dbf.changed = [n(3), n(0), n(2)].into_iter().collect();
        let entries: Vec<DvEntry> = dbf.build_entries(n(6), true).collect();
        let dests: Vec<NodeId> = entries.iter().map(|e| e.dest).collect();
        assert_eq!(dests, only);
        // The same entries, in the same order, as filtering the full
        // advertisement.
        let filtered: Vec<DvEntry> = dbf
            .build_entries(n(6), false)
            .filter(|e| only.contains(&e.dest))
            .collect();
        assert_eq!(entries, filtered);
    }

    #[test]
    fn new_instance_has_empty_state() {
        let dbf = Dbf::new();
        assert_eq!(dbf.name(), "dbf");
        assert!(dbf.selected(NodeId::new(0)).is_none());
    }
}
