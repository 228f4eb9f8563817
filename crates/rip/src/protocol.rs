//! The RIP protocol engine.

use std::rc::Rc;

use netsim::ident::NodeId;
use netsim::protocol::{Payload, RoutingProtocol, SharedPayload, TimerToken};
use netsim::simulator::ProtocolContext;
use netsim::time::SimDuration;
use routing_core::damping::{TriggerAction, TriggeredScheduler};
use routing_core::message::{send_packed, DvEntry, DvMessage};
use routing_core::metric::Metric;

use crate::config::{RipConfig, SplitHorizon};
use crate::table::{RipTable, Route};

/// RFC 2453 §3.9.1 Request: "send me your whole routing table". Sent on
/// startup and when a link (re)appears, so a fresh or rebooted router
/// does not wait out a full periodic cycle to learn the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RipRequest;

impl Payload for RipRequest {
    fn size_bytes(&self) -> usize {
        24 // header + one whole-table RTE, per the RFC's encoding
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Timer kinds encoded into [`TimerToken`]s.
mod timer {
    pub const PERIODIC: u64 = 1;
    pub const TRIGGERED_WINDOW: u64 = 2;
    pub const TIMEOUT: u64 = 3;
    pub const GC: u64 = 4;
}

/// What to do with a received route entry — the RFC 2453 §3.9.2 input
/// processing decision, factored out pure for testability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryDecision {
    /// Install a brand-new route via the sender.
    Install,
    /// The sender is the current next hop and the metric changed
    /// (possibly to infinity): update in place.
    UpdateInPlace,
    /// The sender is the current next hop and the metric is unchanged:
    /// refresh the timeout only.
    RefreshOnly,
    /// A different neighbor offers a strictly better metric: switch to it.
    Switch,
    /// Nothing to do.
    Ignore,
}

/// Decides how a received entry affects the current route.
///
/// `current` is `(metric, next_hop_is_sender)` for the existing route, if
/// any; `offered` is the metric after adding the incoming link cost.
#[must_use]
pub fn decide_entry(current: Option<(Metric, bool)>, offered: Metric) -> EntryDecision {
    match current {
        None => {
            if offered.is_finite() {
                EntryDecision::Install
            } else {
                EntryDecision::Ignore
            }
        }
        Some((current_metric, true)) => {
            if offered == current_metric {
                EntryDecision::RefreshOnly
            } else {
                EntryDecision::UpdateInPlace
            }
        }
        Some((current_metric, false)) => {
            if offered < current_metric {
                EntryDecision::Switch
            } else {
                EntryDecision::Ignore
            }
        }
    }
}

/// The advertisement entries for one neighbor, applying the configured
/// split-horizon rule, as a lazy iterator: entries stream straight into
/// the inline message storage of [`send_packed`].
///
/// With `changed_only` (a triggered update) the advertisement carries only
/// the table's changed routes: it walks the change set
/// ([`RipTable::changed_dests`]) instead of the routes, and keeps the
/// table's ascending destination order.
pub fn build_entries(
    table: &RipTable,
    neighbor: NodeId,
    mode: SplitHorizon,
    changed_only: bool,
) -> impl Iterator<Item = DvEntry> + '_ {
    let all = (!changed_only).then(|| table.iter()).into_iter().flatten();
    let chosen = changed_only
        .then(|| table.changed_dests())
        .into_iter()
        .flatten()
        .filter_map(|dest| Some((dest, table.get(dest)?)));
    all.chain(chosen).filter_map(move |(dest, route)| {
        let toward_neighbor = route.next_hop == Some(neighbor);
        let metric = match (toward_neighbor, mode) {
            (true, SplitHorizon::Simple) => return None,
            (true, SplitHorizon::PoisonReverse) => Metric::INFINITY,
            _ => route.metric,
        };
        Some(DvEntry { dest, metric })
    })
}

/// A RIP instance for one router.
///
/// See [`RipConfig`] for the tunables; the defaults reproduce the paper's
/// §3 description (30 s periodic full-table updates, triggered updates
/// under a 1–5 s damping timer, split horizon with poisoned reverse, and a
/// metric that saturates at 16).
#[derive(Debug)]
pub struct Rip {
    config: RipConfig,
    table: RipTable,
    scheduler: TriggeredScheduler,
}

impl Rip {
    /// Creates an instance with the paper's default parameters.
    #[must_use]
    pub fn new() -> Self {
        Rip::from_valid(RipConfig::default())
    }

    /// Creates an instance with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for an invalid
    /// configuration.
    pub fn with_config(config: RipConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Rip::from_valid(config))
    }

    /// Builds an instance from an already-validated configuration.
    fn from_valid(config: RipConfig) -> Self {
        Rip {
            scheduler: TriggeredScheduler::new(
                config.damping_mode,
                config.triggered_min,
                config.triggered_max,
            ),
            config,
            table: RipTable::default(),
        }
    }

    /// Read access to the routing table (for tests and forensics).
    #[must_use]
    pub fn table(&self) -> &RipTable {
        &self.table
    }

    fn send_update(&self, ctx: &mut ProtocolContext<'_>, to: NodeId, changed_only: bool) {
        let entries = build_entries(&self.table, to, self.config.split_horizon, changed_only);
        send_packed(entries, |message| ctx.send(to, Rc::new(message)));
    }

    fn send_to_all_up(&self, ctx: &mut ProtocolContext<'_>, changed_only: bool) {
        for slot in 0..ctx.peers().len() {
            let peer = ctx.peers()[slot];
            if peer.up {
                self.send_update(ctx, peer.neighbor, changed_only);
            }
        }
    }

    /// Flushes triggered updates if any route is marked changed, honoring the
    /// damping timer in the configured mode.
    fn after_changes(&mut self, ctx: &mut ProtocolContext<'_>) {
        if !self.table.has_changes() {
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
        if self.table.has_changes() {
            self.send_to_all_up(ctx, true);
            self.table.clear_changed();
        }
    }

    /// Starts the RFC deletion process for `dest`: poison the metric, pull
    /// the FIB entry, arm garbage collection (and the hold-down window, if
    /// configured).
    fn start_deletion(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        let gc_delay = self.config.gc_delay;
        let hold = self.config.hold_down.map(|h| ctx.now() + h);
        let Some(route) = self.table.get_mut(dest) else {
            return;
        };
        if !route.metric.is_finite() {
            return;
        }
        route.metric = Metric::INFINITY;
        route.hold_until = hold;
        if let Some(t) = route.timeout_timer.take() {
            ctx.cancel_timer(t);
        }
        self.table.mark_changed(dest);
        let gc = ctx.set_timer(
            gc_delay,
            TimerToken::compose(timer::GC, dest.index() as u64),
        );
        if let Some(route) = self.table.get_mut(dest) {
            route.gc_timer = Some(gc);
        }
        ctx.remove_route(dest);
    }

    fn refresh_timeout(&mut self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        let old = self.table.get(dest).and_then(|route| route.timeout_timer);
        let timer = ctx.reset_timer(
            old,
            self.config.route_timeout,
            TimerToken::compose(timer::TIMEOUT, dest.index() as u64),
        );
        if let Some(route) = self.table.get_mut(dest) {
            route.timeout_timer = Some(timer);
            if let Some(gc) = route.gc_timer.take() {
                ctx.cancel_timer(gc);
            }
        }
    }

    /// Processes one entry of a vector from `from`, whose link costs
    /// `cost`.
    fn process_entry(
        &mut self,
        ctx: &mut ProtocolContext<'_>,
        from: NodeId,
        cost: u32,
        entry: DvEntry,
    ) {
        let dest = entry.dest;
        if dest == ctx.node() {
            return; // never accept routes to ourselves
        }
        // Hold-down: while the window is open, all news about the dead
        // destination is ignored (the availability cost of this classic
        // loop mitigation is the point of the ablation).
        if let Some(route) = self.table.get(dest) {
            if route.hold_until.is_some_and(|until| ctx.now() < until) {
                return;
            }
        }
        let offered = entry.metric + cost;
        let current = self
            .table
            .get(dest)
            .map(|r| (r.metric, r.next_hop == Some(from)));
        match decide_entry(current, offered) {
            EntryDecision::Install => {
                self.table.insert(
                    dest,
                    Route {
                        metric: offered,
                        next_hop: Some(from),
                        timeout_timer: None,
                        gc_timer: None,
                        hold_until: None,
                    },
                );
                self.table.mark_changed(dest);
                self.refresh_timeout(ctx, dest);
                ctx.install_route(dest, from);
            }
            EntryDecision::UpdateInPlace => {
                if offered.is_finite() {
                    let Some(route) = self.table.get_mut(dest) else {
                        return; // decision implies an entry; nothing to update
                    };
                    route.metric = offered;
                    self.table.mark_changed(dest);
                    self.refresh_timeout(ctx, dest);
                    // The route may be reviving from the deletion process,
                    // in which case its FIB entry was pulled; reinstall
                    // (no-op when already present).
                    ctx.install_route(dest, from);
                } else {
                    self.start_deletion(ctx, dest);
                }
            }
            EntryDecision::RefreshOnly => {
                if offered.is_finite() {
                    self.refresh_timeout(ctx, dest);
                }
            }
            EntryDecision::Switch => {
                let Some(route) = self.table.get_mut(dest) else {
                    return; // decision implies an entry; nothing to switch
                };
                route.metric = offered;
                route.next_hop = Some(from);
                self.table.mark_changed(dest);
                self.refresh_timeout(ctx, dest);
                ctx.install_route(dest, from);
            }
            EntryDecision::Ignore => {}
        }
    }
}

impl Default for Rip {
    fn default() -> Self {
        Rip::new()
    }
}

impl RoutingProtocol for Rip {
    fn name(&self) -> &'static str {
        "rip"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.table = RipTable::new(ctx.num_nodes());
        // The self route: metric zero, announced like any other change.
        self.table.insert(
            ctx.node(),
            Route {
                metric: Metric::ZERO,
                next_hop: None,
                timeout_timer: None,
                gc_timer: None,
                hold_until: None,
            },
        );
        self.table.mark_changed(ctx.node());
        // Desynchronized first periodic update.
        let first = ctx
            .rng()
            .gen_duration(SimDuration::ZERO, self.config.periodic_interval);
        ctx.set_timer(first, TimerToken::compose(timer::PERIODIC, 0));
        // RFC 2453 §3.9.1: ask the neighbors for their tables right away —
        // one shared request payload fanned out to every neighbor.
        let request: SharedPayload = Rc::new(RipRequest);
        for slot in 0..ctx.peers().len() {
            let neighbor = ctx.peers()[slot].neighbor;
            ctx.send(neighbor, Rc::clone(&request));
        }
        self.after_changes(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProtocolContext<'_>, from: NodeId, payload: &dyn Payload) {
        if payload.as_any().downcast_ref::<RipRequest>().is_some() {
            // Whole-table request: answer directly (split horizon applies).
            self.send_update(ctx, from, false);
            return;
        }
        let Some(message) = payload.as_any().downcast_ref::<DvMessage>() else {
            debug_assert!(false, "RIP received a non-DV payload");
            return;
        };
        let Some(cost) = ctx
            .peers()
            .iter()
            .find(|p| p.neighbor == from)
            .map(|p| p.cost)
        else {
            debug_assert!(false, "RIP message from non-neighbor {from}");
            return;
        };
        for &entry in &message.entries {
            self.process_entry(ctx, from, cost, entry);
        }
        self.after_changes(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        match token.kind() {
            timer::PERIODIC => {
                self.send_to_all_up(ctx, false);
                // A full update covers any pending triggered changes.
                self.table.clear_changed();
                let jitter = self.config.periodic_jitter;
                let next = ctx.rng().gen_duration(
                    self.config.periodic_interval.saturating_sub(jitter),
                    self.config.periodic_interval + jitter,
                );
                ctx.set_timer(next, TimerToken::compose(timer::PERIODIC, 0));
            }
            timer::TRIGGERED_WINDOW => {
                let has_changes = self.table.has_changes();
                let (flush, rearm) = self.scheduler.on_timer_expired(ctx.rng(), has_changes);
                if flush {
                    self.flush_changed(ctx);
                }
                if let Some(window) = rearm {
                    ctx.set_timer(window, TimerToken::compose(timer::TRIGGERED_WINDOW, 0));
                }
            }
            timer::TIMEOUT => {
                let dest = NodeId::new(token.arg() as u32);
                if let Some(route) = self.table.get_mut(dest) {
                    route.timeout_timer = None;
                }
                self.start_deletion(ctx, dest);
                self.after_changes(ctx);
            }
            timer::GC => {
                let dest = NodeId::new(token.arg() as u32);
                self.table.remove(dest);
            }
            other => debug_assert!(false, "unknown RIP timer kind {other}"),
        }
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        let via: Vec<NodeId> = self
            .table
            .iter()
            .filter(|(_, r)| r.next_hop == Some(neighbor))
            .map(|(d, _)| d)
            .collect();
        for dest in via {
            self.start_deletion(ctx, dest);
        }
        self.after_changes(ctx);
    }

    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        // Gratuitous full update teaches the returning neighbor quickly,
        // and a request learns its table without waiting for its periodic.
        self.send_update(ctx, neighbor, false);
        ctx.send(neighbor, Rc::new(RipRequest));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn decide_entry_covers_rfc_cases() {
        use EntryDecision::*;
        // New finite route: install; new infinite: ignore.
        assert_eq!(decide_entry(None, Metric::new(3)), Install);
        assert_eq!(decide_entry(None, Metric::INFINITY), Ignore);
        // From current next hop: any metric change applies, same refreshes.
        assert_eq!(
            decide_entry(Some((Metric::new(3), true)), Metric::new(7)),
            UpdateInPlace
        );
        assert_eq!(
            decide_entry(Some((Metric::new(3), true)), Metric::INFINITY),
            UpdateInPlace
        );
        assert_eq!(
            decide_entry(Some((Metric::new(3), true)), Metric::new(3)),
            RefreshOnly
        );
        // From another neighbor: only strictly better switches.
        assert_eq!(
            decide_entry(Some((Metric::new(3), false)), Metric::new(2)),
            Switch
        );
        assert_eq!(
            decide_entry(Some((Metric::new(3), false)), Metric::new(3)),
            Ignore
        );
        assert_eq!(
            decide_entry(Some((Metric::new(3), false)), Metric::new(9)),
            Ignore
        );
    }

    fn table_with(routes: &[(u32, u32, Option<u32>)]) -> RipTable {
        let mut t = RipTable::new(8);
        for &(dest, metric, nh) in routes {
            t.insert(
                n(dest),
                Route {
                    metric: Metric::new(metric),
                    next_hop: nh.map(n),
                    timeout_timer: None,
                    gc_timer: None,
                    hold_until: None,
                },
            );
        }
        t
    }

    #[test]
    fn poison_reverse_advertises_infinity_back() {
        let t = table_with(&[(1, 2, Some(5)), (2, 1, Some(6))]);
        let entries: Vec<DvEntry> =
            build_entries(&t, n(5), SplitHorizon::PoisonReverse, false).collect();
        assert_eq!(entries.len(), 2);
        let for_dest1 = entries.iter().find(|e| e.dest == n(1)).unwrap();
        assert_eq!(for_dest1.metric, Metric::INFINITY);
        let for_dest2 = entries.iter().find(|e| e.dest == n(2)).unwrap();
        assert_eq!(for_dest2.metric, Metric::new(1));
    }

    #[test]
    fn simple_split_horizon_omits_routes() {
        let t = table_with(&[(1, 2, Some(5)), (2, 1, Some(6))]);
        let entries: Vec<DvEntry> = build_entries(&t, n(5), SplitHorizon::Simple, false).collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].dest, n(2));
    }

    #[test]
    fn disabled_split_horizon_advertises_everything() {
        let t = table_with(&[(1, 2, Some(5))]);
        let entries: Vec<DvEntry> =
            build_entries(&t, n(5), SplitHorizon::Disabled, false).collect();
        assert_eq!(entries[0].metric, Metric::new(2));
    }

    #[test]
    fn triggered_filter_restricts_destinations() {
        let mut t = table_with(&[(1, 2, Some(5)), (2, 1, Some(6)), (3, 4, Some(6))]);
        t.mark_changed(n(3));
        t.mark_changed(n(2));
        let entries: Vec<DvEntry> =
            build_entries(&t, n(7), SplitHorizon::PoisonReverse, true).collect();
        let dests: Vec<NodeId> = entries.iter().map(|e| e.dest).collect();
        assert_eq!(dests, vec![n(2), n(3)]);
        // The same entries, in the same order, as filtering the full
        // advertisement.
        let filtered: Vec<DvEntry> = build_entries(&t, n(7), SplitHorizon::PoisonReverse, false)
            .filter(|e| dests.contains(&e.dest))
            .collect();
        assert_eq!(entries, filtered);
    }
}
