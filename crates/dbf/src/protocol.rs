//! The DBF protocol engine.

use netsim::ident::NodeId;
use netsim::protocol::{Payload, RoutingProtocol, TimerId, TimerToken};
use netsim::simulator::{Peer, ProtocolContext};
use netsim::time::SimDuration;
use rip::config::SplitHorizon;
use routing_core::damping::{TriggerAction, TriggeredScheduler};
use routing_core::message::{pack_entries, DvEntry, DvMessage};
use routing_core::metric::Metric;
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
/// Selection is incremental. For every destination not marked unsettled,
/// `selected[dest]` is what [`NeighborCache::best`] selects from the cache
/// and the current peer slice, so an advertisement that leaves its cache
/// entry unchanged needs no re-selection. The only handler that changes
/// the peer slice without re-selecting everything is
/// [`on_link_up`](RoutingProtocol::on_link_up); it marks every destination
/// unsettled, and the next re-selection of a destination clears its mark.
#[derive(Debug)]
pub struct Dbf {
    config: DbfConfig,
    cache: NeighborCache,
    selected: Vec<Option<SelectedRoute>>,
    changed: Vec<bool>,
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
            changed: Vec::new(),
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

    /// Re-runs route selection for `dest` against the cache, updating the
    /// FIB and the change flag when the outcome differs, and settles `dest`.
    fn recompute(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        self.unsettled[dest.index()] = false;
        if dest == ctx.node() {
            return;
        }
        let best = self.select(dest, ctx.peers());
        let slot = &mut self.selected[dest.index()];
        if *slot == best {
            return;
        }
        *slot = best;
        self.changed[dest.index()] = true;
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

    /// Re-selects `dest` after an advertisement for it, unless the
    /// advertisement left its cache entry unchanged (`!entry_changed`) and
    /// `dest` is settled: then selection would return what it returned
    /// last time. Debug builds check exactly that.
    fn recompute_if_needed(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        dest: NodeId,
        entry_changed: bool,
    ) {
        if entry_changed || self.unsettled[dest.index()] {
            self.recompute(ctx, dest);
        } else {
            debug_assert_eq!(
                self.selected[dest.index()],
                self.select(dest, ctx.peers()),
                "DBF at {} skipped re-selecting settled {}",
                ctx.node(),
                dest
            );
        }
    }

    /// Whether any destination's selection changed since the last flush —
    /// the hot-path check, with no `Vec` materialised just to test
    /// emptiness.
    fn has_changes(&self) -> bool {
        self.changed.iter().any(|&c| c)
    }

    fn changed_dests(&self) -> Vec<NodeId> {
        self.changed
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }

    fn clear_changed(&mut self) {
        self.changed.fill(false);
    }

    /// The advertisement for one neighbor under split horizon, as a lazy
    /// iterator — entries stream straight into the inline message
    /// storage of [`pack_entries`] without an intermediate `Vec`.
    ///
    /// Unlike RIP's table dump, DBF advertises the *full vector*: a
    /// destination with no selected route is announced with an infinite
    /// metric, which is how withdrawals reach neighbors whose caches would
    /// otherwise hold the stale finite entry forever.
    ///
    /// `only` (ascending, as [`Dbf::changed_dests`] returns it) restricts
    /// the advertisement to those destinations; it is walked instead of
    /// the whole table, in the table's destination order.
    fn build_entries<'a>(
        &'a self,
        neighbor: NodeId,
        only: Option<&'a [NodeId]>,
    ) -> impl Iterator<Item = DvEntry> + 'a {
        debug_assert!(only.is_none_or(|dests| dests.windows(2).all(|w| w[0] < w[1])));
        let all = only
            .is_none()
            .then(|| (0..self.selected.len()).map(|i| NodeId::new(i as u32)))
            .into_iter()
            .flatten();
        let chosen = only.into_iter().flatten().copied();
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

    fn send_update(&self, ctx: &mut ProtocolContext<'_>, to: NodeId, only: Option<&[NodeId]>) {
        for message in pack_entries(self.build_entries(to, only)) {
            ctx.send(to, Rc::new(message));
        }
    }

    fn send_to_all_up(&self, ctx: &mut ProtocolContext<'_>, only: Option<&[NodeId]>) {
        for slot in 0..ctx.peers().len() {
            let peer = ctx.peers()[slot];
            if peer.up {
                self.send_update(ctx, peer.neighbor, only);
            }
        }
    }

    fn after_changes(&mut self, ctx: &mut ProtocolContext<'_>) {
        if !self.has_changes() {
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
        let changed = self.changed_dests();
        if !changed.is_empty() {
            self.send_to_all_up(ctx, Some(&changed));
            self.clear_changed();
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
        self.changed = vec![false; n];
        self.unsettled = vec![false; n];
        // Self route, announced like any change.
        self.selected[ctx.node().index()] = Some(SelectedRoute {
            metric: Metric::ZERO,
            next_hop: None,
        });
        self.changed[ctx.node().index()] = true;
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
            let entry_changed = self.cache.update(slot, entry.dest, entry.metric);
            self.recompute_if_needed(ctx, entry.dest, entry_changed);
        }
        self.after_changes(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        match token.kind() {
            timer::PERIODIC => {
                self.send_to_all_up(ctx, None);
                self.clear_changed();
                let jitter = self.config.periodic_jitter;
                let next = ctx.rng().gen_duration(
                    self.config.periodic_interval.saturating_sub(jitter),
                    self.config.periodic_interval + jitter,
                );
                ctx.set_timer(next, TimerToken::compose(timer::PERIODIC, 0));
            }
            timer::TRIGGERED_WINDOW => {
                let has_changes = self.has_changes();
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
        self.send_update(ctx, neighbor, None);
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
        let entries: Vec<DvEntry> = dbf.build_entries(n(6), Some(&only)).collect();
        let dests: Vec<NodeId> = entries.iter().map(|e| e.dest).collect();
        assert_eq!(dests, only);
        // The same entries, in the same order, as filtering the full
        // advertisement.
        let filtered: Vec<DvEntry> = dbf
            .build_entries(n(6), None)
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
