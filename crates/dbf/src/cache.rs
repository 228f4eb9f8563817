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

    /// Records that the neighbor in `slot` advertised `metric` for `dest`.
    ///
    /// # Panics
    ///
    /// Panics if `dest` or `slot` is out of range.
    pub fn update(&mut self, slot: usize, dest: NodeId, metric: Metric) {
        assert!(slot < self.degree, "slot {slot} out of range");
        self.metrics[dest.index() * self.degree + slot] = Some(metric);
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
        c.update(1, n(3), Metric::new(2));
        assert_eq!(c.advertised(1, n(3)), Some(Metric::new(2)));
        assert_eq!(c.advertised(1, n(2)), None);
        assert_eq!(c.advertised(0, n(3)), None);
        assert_eq!(c.row(n(3)), &[None, Some(Metric::new(2))]);
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
