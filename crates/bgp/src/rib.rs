//! BGP routing information bases.
//!
//! Per-neighbor Adj-RIB-In tables (the path-vector analog of DBF's
//! neighbor cache), the Loc-RIB of selected best paths, and the
//! [`AnnounceTable`] of paths to advertise. Selection is the study's
//! shortest-path policy: fewest ASes, ties to the lowest neighbor id.
//!
//! # Layout
//!
//! Neighbors are addressed by *slot*: a link's position in
//! [`ProtocolContext::peers`](netsim::simulator::ProtocolContext::peers),
//! fixed for the whole run. The Adj-RIB-In is one flat table,
//! `paths[dest * degree + slot]`, so the decision process for one
//! destination reads one contiguous row, zipped with the peer slice.
//!
//! Visiting candidates in slot order rather than neighbor-id order cannot
//! change the outcome: [`select`] takes the minimum over `(path length,
//! neighbor id)`, and neighbor ids are unique, so that order is total and
//! every visiting order finds the same minimum.

use netsim::ident::NodeId;
use netsim::simulator::Peer;
use routing_core::inline::InlineVec;
use routing_core::path::AsPath;

use crate::message::{BgpUpdate, INLINE_DESTS};

/// Hops after the local AS that an [`AnnounceTable`] order key encodes,
/// one 16-bit field each.
const KEY_HOPS: usize = 8;

/// Paths received from each neighbor, one row per destination and one
/// column per neighbor slot.
#[derive(Debug, Clone, Default)]
pub struct AdjRibIn {
    /// `paths[dest * degree + slot]` = last announced path (already
    /// loop-filtered: a path containing the local AS is stored as `None`).
    paths: Vec<Option<AsPath>>,
    degree: usize,
}

impl AdjRibIn {
    /// Creates empty tables for `num_dests` destinations and `degree`
    /// neighbor slots.
    #[must_use]
    pub fn new(num_dests: usize, degree: usize) -> Self {
        AdjRibIn {
            paths: vec![None; num_dests * degree],
            degree,
        }
    }

    /// Records `path` as the latest announcement from the neighbor in
    /// `slot` for `dest`; `None` is a withdrawal. Returns whether the
    /// stored path changed: paths compare by content (a shared hop
    /// sequence compares equal without reading it), and an equal path
    /// leaves the stored one in place.
    ///
    /// # Panics
    ///
    /// Panics if `dest` or `slot` is out of range.
    pub fn set(&mut self, slot: usize, dest: NodeId, path: Option<AsPath>) -> bool {
        assert!(slot < self.degree, "slot {slot} out of range");
        let stored = &mut self.paths[dest.index() * self.degree + slot];
        if *stored == path {
            return false;
        }
        *stored = path;
        true
    }

    /// The stored path from the neighbor in `slot` for `dest`.
    #[must_use]
    pub fn get(&self, slot: usize, dest: NodeId) -> Option<&AsPath> {
        self.row(dest).get(slot)?.as_ref()
    }

    /// Drops everything learned from the neighbor in `slot` (session
    /// reset).
    pub fn clear_neighbor(&mut self, slot: usize) {
        if slot < self.degree {
            for row in self.paths.chunks_exact_mut(self.degree) {
                row[slot] = None;
            }
        }
    }

    /// The stored paths for `dest`, indexed by slot (empty for an unknown
    /// destination).
    #[must_use]
    pub fn row(&self, dest: NodeId) -> &[Option<AsPath>] {
        let start = dest.index() * self.degree;
        self.paths.get(start..start + self.degree).unwrap_or(&[])
    }

    /// The best stored path for `dest` ([`select`]) among perceived-up
    /// peers whose neighbor passes `usable`. `peers` is the router's peer
    /// slice, slot for slot with the table.
    pub fn best<'a>(
        &'a self,
        dest: NodeId,
        peers: &[Peer],
        usable: impl Fn(NodeId) -> bool,
    ) -> Option<(NodeId, &'a AsPath)> {
        select(peers.iter().zip(self.row(dest)).filter_map(|(peer, path)| {
            let path = path.as_ref()?;
            (peer.up && usable(peer.neighbor)).then_some((peer.neighbor, path))
        }))
    }
}

/// The selected best route for one destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestRoute {
    /// The selected AS path (not yet prepended with the local AS).
    pub path: AsPath,
    /// The announcing neighbor (`None` for the locally originated route).
    pub next_hop: Option<NodeId>,
}

/// Selects the best candidate for `dest`: shortest AS path, ties broken by
/// the lowest announcing neighbor id.
#[must_use]
pub fn select<'a, I>(candidates: I) -> Option<(NodeId, &'a AsPath)>
where
    I: IntoIterator<Item = (NodeId, &'a AsPath)>,
{
    candidates
        .into_iter()
        .min_by_key(|&(neighbor, path)| (path.len(), neighbor))
}

/// The paths a router announces, one per destination, each with a
/// precomputed sort key so that grouping an update fan-out by path rarely
/// compares hop sequences.
///
/// Every path in the table starts with the owning router's own id, so
/// paths order by the hops after it. A path's *order key* packs its first
/// [`KEY_HOPS`] hops after the owner into 16-bit fields, most significant
/// first, each holding `id + 1`; a missing hop is 0, so a prefix keys
/// below its extensions. Two different keys therefore order exactly as
/// their paths do, and only equal keys need a full path comparison. Once
/// any encoded hop id is `0xffff` or more, keys are off for the rest of
/// the table's life: every key becomes 0 and every comparison falls back
/// to the paths.
#[derive(Debug, Clone)]
pub struct AnnounceTable {
    owner: NodeId,
    /// `routes[dest]` = the path announced for `dest` and its order key.
    routes: Vec<Option<(u128, AsPath)>>,
    keyed: bool,
    /// `(key, dest)` pairs of the update fan-out being grouped, kept
    /// between calls so grouping does not allocate.
    order: Vec<(u128, NodeId)>,
}

impl AnnounceTable {
    /// An empty table for `num_dests` destinations, owned by `owner`.
    #[must_use]
    pub fn new(owner: NodeId, num_dests: usize) -> Self {
        AnnounceTable {
            owner,
            routes: vec![None; num_dests],
            keyed: true,
            order: Vec::new(),
        }
    }

    /// Sets the path announced for `dest`; `None` means `dest` is
    /// withdrawn. The path must start with the owner's id.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    pub fn set(&mut self, dest: NodeId, path: Option<AsPath>) {
        debug_assert!(path.as_ref().is_none_or(|p| p.first() == Some(self.owner)));
        let route = path.map(|path| {
            let key = match self.keyed.then(|| order_key(&path)).flatten() {
                Some(key) => key,
                None => {
                    self.turn_keys_off();
                    0
                }
            };
            (key, path)
        });
        self.routes[dest.index()] = route;
    }

    fn turn_keys_off(&mut self) {
        self.keyed = false;
        for (key, _) in self.routes.iter_mut().flatten() {
            *key = 0;
        }
    }

    /// Passes to `send` the updates that tell `peer` the current state of
    /// `dests` (skipping `peer` itself, which needs no route to itself).
    ///
    /// Announcements come first, one per distinct path in ascending path
    /// order, each listing its destinations in `dests` order; then one
    /// withdrawal of every destination with no path, if there is any.
    /// This is a stable sort of the `(path, dest)` pairs by path, with one
    /// update per run of equal paths.
    pub fn updates_for(&mut self, peer: NodeId, dests: &[NodeId], mut send: impl FnMut(BgpUpdate)) {
        let routes = &self.routes;
        let route = |dest: NodeId| routes.get(dest.index()).and_then(Option::as_ref);
        let path = |dest: NodeId| route(dest).map(|(_, path)| path);
        let mut withdrawn: InlineVec<NodeId, INLINE_DESTS> = InlineVec::new();
        for &dest in dests {
            if dest == peer {
                continue;
            }
            match route(dest) {
                Some(&(key, _)) => self.order.push((key, dest)),
                None => withdrawn.push(dest),
            }
        }
        self.order
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| path(a.1).cmp(&path(b.1))));
        for run in self
            .order
            .chunk_by(|a, b| a.0 == b.0 && path(a.1) == path(b.1))
        {
            if let Some(shared) = path(run[0].1) {
                let announced: InlineVec<NodeId, INLINE_DESTS> =
                    run.iter().map(|&(_, dest)| dest).collect();
                send(BgpUpdate::announce(shared.clone(), announced));
            }
        }
        self.order.clear();
        if !withdrawn.is_empty() {
            send(BgpUpdate::withdraw(withdrawn));
        }
    }
}

/// The order key of `path` (see [`AnnounceTable`]), or `None` if one of
/// its encoded hop ids does not fit in a field.
fn order_key(path: &AsPath) -> Option<u128> {
    let after_owner = path.hops().get(1..).unwrap_or(&[]);
    let mut key = 0u128;
    for i in 0..KEY_HOPS {
        let field = match after_owner.get(i) {
            Some(hop) => u16::try_from(hop.index() + 1).ok()?,
            None => 0,
        };
        key = (key << 16) | u128::from(field);
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path(hops: &[u32]) -> AsPath {
        AsPath::from_hops(hops.iter().map(|&h| n(h)).collect())
    }

    fn peer(neighbor: u32, up: bool) -> Peer {
        Peer {
            neighbor: n(neighbor),
            cost: 1,
            up,
        }
    }

    #[test]
    fn set_get_clear_round_trip() {
        let mut rib = AdjRibIn::new(4, 2);
        assert!(rib.set(1, n(3), Some(path(&[1, 3]))));
        assert_eq!(rib.get(1, n(3)), Some(&path(&[1, 3])));
        assert!(!rib.set(1, n(3), Some(path(&[1, 3]))), "equal content");
        assert!(rib.set(1, n(3), Some(path(&[1, 2, 3]))), "other path");
        assert!(rib.set(1, n(3), None));
        assert!(!rib.set(1, n(3), None), "withdrawn twice");
        assert_eq!(rib.get(1, n(3)), None);
        rib.set(1, n(2), Some(path(&[1, 2])));
        rib.set(0, n(2), Some(path(&[2])));
        rib.clear_neighbor(1);
        assert_eq!(rib.get(1, n(2)), None);
        assert_eq!(rib.get(0, n(2)), Some(&path(&[2])));
        assert_eq!(rib.row(n(2)), &[Some(path(&[2])), None]);
    }

    #[test]
    fn best_filters_down_and_unusable_peers() {
        let mut rib = AdjRibIn::new(4, 2);
        rib.set(0, n(3), Some(path(&[1, 3])));
        rib.set(1, n(3), Some(path(&[2, 0, 3])));
        let peers = [peer(1, true), peer(2, true)];
        assert_eq!(
            rib.best(n(3), &peers, |_| true),
            Some((n(1), &path(&[1, 3])))
        );
        let only2 = rib.best(n(3), &peers, |nb| nb == n(2));
        assert_eq!(only2, Some((n(2), &path(&[2, 0, 3]))));
        let peers = [peer(1, false), peer(2, true)];
        assert_eq!(
            rib.best(n(3), &peers, |_| true).map(|(nb, _)| nb),
            Some(n(2))
        );
        assert_eq!(rib.best(n(0), &peers, |_| true), None);
    }

    #[test]
    fn best_ties_break_to_lowest_neighbor_id_not_slot() {
        let mut rib = AdjRibIn::new(4, 2);
        rib.set(0, n(3), Some(path(&[7, 3])));
        rib.set(1, n(3), Some(path(&[5, 3])));
        let peers = [peer(7, true), peer(5, true)];
        assert_eq!(
            rib.best(n(3), &peers, |_| true),
            Some((n(5), &path(&[5, 3])))
        );
    }

    #[test]
    fn selection_prefers_shorter_paths() {
        let short = path(&[1, 3]);
        let long = path(&[2, 0, 3]);
        let best = select(vec![(n(2), &long), (n(1), &short)]);
        assert_eq!(best, Some((n(1), &short)));
    }

    #[test]
    fn selection_ties_break_to_lowest_neighbor() {
        let a = path(&[4, 3]);
        let b = path(&[2, 3]);
        let best = select(vec![(n(4), &a), (n(2), &b)]);
        assert_eq!(best, Some((n(2), &b)));
    }

    #[test]
    fn selection_of_nothing_is_none() {
        assert_eq!(select(Vec::new()), None);
    }
}
