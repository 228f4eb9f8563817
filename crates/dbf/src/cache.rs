//! The per-neighbor distance-vector cache that distinguishes DBF from RIP.
//!
//! Keeping the latest vector from *every* neighbor gives a router an
//! instant answer to "who else can reach this destination?" — the zero-time
//! path switch-over of paper §4.1. The cache stores advertisements verbatim
//! (including poisoned infinities), so a neighbor that routes through us
//! correctly offers no alternate.
//!
//! # Layout
//!
//! Neighbors are addressed by *slot*: a link's position in
//! [`ProtocolContext::peers`](netsim::simulator::ProtocolContext::peers),
//! fixed for the whole run. The cache is one flat table,
//! `metrics[dest * degree + slot]`, so everything selection needs for one
//! destination is one contiguous row of `degree` entries, read in the same
//! order as the peer slice it is zipped with.
//!
//! Visiting candidates in slot order rather than neighbor-id order cannot
//! change the outcome: selection is a minimum over `(metric, neighbor id)`,
//! and neighbor ids are unique, so that order is total and every visiting
//! order finds the same minimum.

use netsim::ident::NodeId;
use netsim::simulator::Peer;
use routing_core::{select_best, Metric};

/// Latest advertised distance vectors, one row per destination and one
/// column per neighbor slot.
#[derive(Debug, Clone, Default)]
pub struct NeighborCache {
    /// `metrics[dest * degree + slot]` = advertised metric; `None` = never
    /// heard (or forgotten).
    metrics: Vec<Option<Metric>>,
    degree: usize,
}

impl NeighborCache {
    /// Creates an empty cache for `num_dests` destinations and `degree`
    /// neighbor slots.
    #[must_use]
    pub fn new(num_dests: usize, degree: usize) -> Self {
        NeighborCache {
            metrics: vec![None; num_dests * degree],
            degree,
        }
    }

    /// Records that the neighbor in `slot` advertised `metric` for `dest`,
    /// returning whether the stored advertisement changed. An unchanged
    /// entry leaves [`NeighborCache::best`] for `dest` unchanged too.
    ///
    /// `slot` must be a position in the router's peer slice, which has
    /// `degree` entries: debug builds check it, and release builds store
    /// nothing for a slot out of range.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    pub fn update(&mut self, slot: usize, dest: NodeId, metric: Metric) -> bool {
        let start = dest.index() * self.degree;
        let Some(stored) = self.metrics[start..start + self.degree].get_mut(slot) else {
            debug_assert!(
                false,
                "slot {slot} out of range: slots are positions in the peer slice"
            );
            return false;
        };
        let changed = *stored != Some(metric);
        *stored = Some(metric);
        changed
    }

    /// The advertised metric from the neighbor in `slot` for `dest`, if
    /// any.
    #[must_use]
    pub fn advertised(&self, slot: usize, dest: NodeId) -> Option<Metric> {
        self.row(dest).get(slot).copied().flatten()
    }

    /// Forgets everything learned from the neighbor in `slot` (link
    /// failure or staleness timeout).
    pub fn invalidate(&mut self, slot: usize) {
        if slot < self.degree {
            for row in self.metrics.chunks_exact_mut(self.degree) {
                row[slot] = None;
            }
        }
    }

    /// The advertisements for `dest`, indexed by slot (empty for an
    /// unknown destination).
    #[must_use]
    pub fn row(&self, dest: NodeId) -> &[Option<Metric>] {
        let start = dest.index() * self.degree;
        self.metrics.get(start..start + self.degree).unwrap_or(&[])
    }

    /// What the neighbor in `slot`, whose link is `peer`, offers for
    /// `dest`: its advertisement plus the link cost, if the peer is
    /// perceived up and the sum is finite. [`NeighborCache::best`] is the
    /// least of these offers over all slots.
    #[must_use]
    pub(crate) fn offer(&self, slot: usize, dest: NodeId, peer: &Peer) -> Option<Metric> {
        let metric = self.advertised(slot, dest)? + peer.cost;
        (peer.up && metric.is_finite()).then_some(metric)
    }

    /// The best route to `dest` through a perceived-up peer: the lowest
    /// finite `advertised + link cost`, ties to the lowest neighbor id.
    /// `peers` is the router's peer slice, slot for slot with the cache.
    #[must_use]
    pub fn best(&self, dest: NodeId, peers: &[Peer]) -> Option<(NodeId, Metric)> {
        select_best(
            peers
                .iter()
                .zip(self.row(dest))
                .filter_map(|(peer, advertised)| {
                    let advertised = (*advertised)?;
                    peer.up.then(|| (peer.neighbor, advertised + peer.cost))
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn peer(neighbor: u32, cost: u32, up: bool) -> Peer {
        Peer {
            neighbor: n(neighbor),
            cost,
            up,
        }
    }

    #[test]
    fn update_and_lookup() {
        let mut c = NeighborCache::new(4, 2);
        assert!(c.update(1, n(3), Metric::new(2)));
        assert!(!c.update(1, n(3), Metric::new(2)), "same metric again");
        assert!(c.update(1, n(3), Metric::INFINITY), "withdrawal");
        assert_eq!(c.advertised(1, n(3)), Some(Metric::INFINITY));
        assert_eq!(c.advertised(1, n(2)), None);
        assert_eq!(c.advertised(0, n(3)), None);
        assert_eq!(c.row(n(3)), &[None, Some(Metric::INFINITY)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot 2 out of range")]
    fn update_checks_the_slot_in_debug_builds() {
        NeighborCache::new(4, 2).update(2, n(1), Metric::new(1));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn update_stores_nothing_for_a_slot_out_of_range() {
        let mut c = NeighborCache::new(4, 2);
        assert!(!c.update(2, n(1), Metric::new(1)));
        assert_eq!(c.row(n(1)), &[None, None]);
    }

    #[test]
    fn offers_add_the_link_cost_of_up_peers() {
        let mut c = NeighborCache::new(4, 2);
        c.update(0, n(3), Metric::new(2));
        c.update(1, n(3), Metric::new(15));
        assert_eq!(c.offer(0, n(3), &peer(5, 2, true)), Some(Metric::new(4)));
        assert_eq!(c.offer(0, n(3), &peer(5, 2, false)), None, "peer down");
        assert_eq!(c.offer(1, n(3), &peer(7, 1, true)), None, "infinite");
        assert_eq!(c.offer(0, n(2), &peer(5, 1, true)), None, "never heard");
    }

    #[test]
    fn poisoned_entries_are_remembered() {
        let mut c = NeighborCache::new(4, 2);
        c.update(0, n(3), Metric::INFINITY);
        assert_eq!(c.advertised(0, n(3)), Some(Metric::INFINITY));
    }

    #[test]
    fn invalidate_forgets_whole_column() {
        let mut c = NeighborCache::new(4, 2);
        c.update(1, n(0), Metric::new(1));
        c.update(1, n(2), Metric::new(5));
        c.update(0, n(2), Metric::new(3));
        c.invalidate(1);
        assert_eq!(c.advertised(1, n(0)), None);
        assert_eq!(c.advertised(1, n(2)), None);
        assert_eq!(c.advertised(0, n(2)), Some(Metric::new(3)));
    }

    #[test]
    fn best_skips_down_peers_and_adds_link_cost() {
        let mut c = NeighborCache::new(4, 2);
        c.update(0, n(3), Metric::new(2));
        c.update(1, n(3), Metric::new(1));
        let peers = [peer(5, 1, true), peer(7, 3, true)];
        assert_eq!(c.best(n(3), &peers), Some((n(5), Metric::new(3))));
        let peers = [peer(5, 1, false), peer(7, 3, true)];
        assert_eq!(c.best(n(3), &peers), Some((n(7), Metric::new(4))));
    }

    #[test]
    fn best_ties_break_to_lowest_neighbor_id_not_slot() {
        let mut c = NeighborCache::new(4, 2);
        c.update(0, n(3), Metric::new(2));
        c.update(1, n(3), Metric::new(2));
        let peers = [peer(9, 1, true), peer(4, 1, true)];
        assert_eq!(c.best(n(3), &peers), Some((n(4), Metric::new(3))));
    }

    #[test]
    fn best_ignores_unknown_and_unreachable_destinations() {
        let mut c = NeighborCache::new(4, 1);
        c.update(0, n(0), Metric::new(1));
        c.update(0, n(2), Metric::INFINITY);
        let peers = [peer(1, 1, true)];
        assert_eq!(c.best(n(3), &peers), None);
        assert_eq!(c.best(n(2), &peers), None);
        assert_eq!(c.best(n(9), &peers), None);
    }
}
