//! BGP routing information bases.
//!
//! Per-neighbor Adj-RIB-In tables (the path-vector analog of DBF's
//! neighbor cache), the Loc-RIB of selected best paths, and the
//! [`AnnounceTable`] of paths to advertise. Selection is the study's
//! shortest-path policy: fewest ASes, ties to the lowest neighbor id.
//!
//! Every table here stores [`AsPath`] handles into the run's shared
//! [`PathTable`], 8 bytes each. Selection reads only a handle's length;
//! whatever compares or reads hops takes the path table as an argument
//! and compares content through [`PathTable::eq`] and [`PathTable::cmp`],
//! so two handles to equal hops are the same path everywhere.
//!
//! # Layout
//!
//! Neighbors are addressed by *slot*: a link's position in
//! [`ProtocolContext::peers`](netsim::simulator::ProtocolContext::peers),
//! fixed for the whole run. The Adj-RIB-In is one flat table,
//! `paths[dest * degree + slot]`, so the decision process for one
//! destination reads one contiguous row, zipped with the peer slice; at
//! degree 8 a row is 64 bytes.
//!
//! Visiting candidates in slot order rather than neighbor-id order cannot
//! change the outcome: [`select`] takes the minimum over `(path length,
//! neighbor id)`, and neighbor ids are unique, so that order is total and
//! every visiting order finds the same minimum.

use netsim::ident::NodeId;
use netsim::simulator::Peer;
use routing_core::inline::InlineVec;
use routing_core::path::{AsPath, PathTable};

use crate::message::{BgpUpdate, INLINE_DESTS};

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
    /// stored path changed: paths compare by content in `table`, and an
    /// equal path leaves the stored handle in place.
    ///
    /// `slot` must be a position in the router's peer slice, which has
    /// `degree` entries: debug builds check it, and release builds store
    /// nothing for a slot out of range.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    pub fn set(
        &mut self,
        table: &PathTable,
        slot: usize,
        dest: NodeId,
        path: Option<AsPath>,
    ) -> bool {
        let start = dest.index() * self.degree;
        let Some(stored) = self.paths[start..start + self.degree].get_mut(slot) else {
            debug_assert!(
                false,
                "slot {slot} out of range: slots are positions in the peer slice"
            );
            return false;
        };
        let unchanged = match (*stored, path) {
            (Some(old), Some(new)) => table.eq(old, new),
            (old, new) => old.is_none() && new.is_none(),
        };
        if unchanged {
            return false;
        }
        *stored = path;
        true
    }

    /// The stored path from the neighbor in `slot` for `dest`.
    #[must_use]
    pub fn get(&self, slot: usize, dest: NodeId) -> Option<AsPath> {
        *self.row(dest).get(slot)?
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

    /// What the neighbor in `slot`, whose link is `peer`, offers for
    /// `dest`: its stored path, if the peer is perceived up and passes
    /// `usable`. [`AdjRibIn::best`] selects among these offers over all
    /// slots.
    pub(crate) fn offer(
        &self,
        slot: usize,
        dest: NodeId,
        peer: &Peer,
        usable: impl Fn(NodeId) -> bool,
    ) -> Option<AsPath> {
        let path = self.get(slot, dest)?;
        (peer.up && usable(peer.neighbor)).then_some(path)
    }

    /// The best stored path for `dest` ([`select`]) among perceived-up
    /// peers whose neighbor passes `usable`. `peers` is the router's peer
    /// slice, slot for slot with the table.
    pub fn best(
        &self,
        dest: NodeId,
        peers: &[Peer],
        usable: impl Fn(NodeId) -> bool,
    ) -> Option<(NodeId, AsPath)> {
        select(peers.iter().zip(self.row(dest)).filter_map(|(peer, path)| {
            let path = (*path)?;
            (peer.up && usable(peer.neighbor)).then_some((peer.neighbor, path))
        }))
    }
}

/// The selected best route for one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestRoute {
    /// The selected AS path (not yet prepended with the local AS).
    pub path: AsPath,
    /// The announcing neighbor (`None` for the locally originated route).
    pub next_hop: Option<NodeId>,
}

/// Selects the best candidate for `dest`: shortest AS path, ties broken by
/// the lowest announcing neighbor id.
#[must_use]
pub fn select<I>(candidates: I) -> Option<(NodeId, AsPath)>
where
    I: IntoIterator<Item = (NodeId, AsPath)>,
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
/// hops after the owner into fields of equal width, most significant
/// first, each holding `id + 1`; a missing hop is 0, so a prefix keys
/// below its extensions. The field width is the bit length of the
/// table's destination count: every router id is below it, so each id
/// fits, and a 128-bit key holds as many hops as fit (21 on the 7×7
/// mesh, 16 on the 15×15 one). Two different keys therefore order exactly
/// as their paths do, and only equal keys need a full path comparison.
/// Once any encoded hop id does not fit in a field, keys are off for the
/// rest of the table's life: every key becomes 0 and every comparison
/// falls back to the paths.
#[derive(Debug, Clone)]
pub struct AnnounceTable {
    owner: NodeId,
    /// `routes[dest]` = the path announced for `dest` and its order key.
    routes: Vec<Option<(u128, AsPath)>>,
    /// Bits per order-key field.
    width: u32,
    keyed: bool,
    /// `(key, path, position in dests)` of the update fan-out being
    /// grouped, kept between calls so grouping does not allocate.
    order: Vec<(u128, AsPath, usize)>,
}

impl AnnounceTable {
    /// An empty table for `num_dests` destinations, owned by `owner`.
    #[must_use]
    pub fn new(owner: NodeId, num_dests: usize) -> Self {
        AnnounceTable {
            owner,
            routes: vec![None; num_dests],
            width: (usize::BITS - num_dests.leading_zeros()).max(1),
            keyed: true,
            order: Vec::new(),
        }
    }

    /// Sets the path announced for `dest`; `None` means `dest` is
    /// withdrawn. The path must be one of `table` and start with the
    /// owner's id.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    pub fn set(&mut self, table: &PathTable, dest: NodeId, path: Option<AsPath>) {
        debug_assert!(path.is_none_or(|p| table.first(p) == Some(self.owner)));
        let route = path.map(|path| {
            let key = match self
                .keyed
                .then(|| order_key(table.hops(path), self.width))
                .flatten()
            {
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
    /// This is a stable sort of the `(path, dest)` pairs by path content,
    /// with one update per run of equal paths. It is computed as an
    /// unstable sort by order key, then path, then position in `dests`:
    /// positions are unique, so that order is total and equals the stable
    /// one. Each update carries the handle of its run's first entry.
    pub fn updates_for(
        &mut self,
        table: &PathTable,
        peer: NodeId,
        dests: &[NodeId],
        mut send: impl FnMut(BgpUpdate),
    ) {
        let mut withdrawn: InlineVec<NodeId, INLINE_DESTS> = InlineVec::new();
        for (position, &dest) in dests.iter().enumerate() {
            if dest == peer {
                continue;
            }
            match self.routes.get(dest.index()).copied().flatten() {
                Some((key, path)) => self.order.push((key, path, position)),
                None => withdrawn.push(dest),
            }
        }
        self.order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| table.cmp(a.1, b.1))
                .then(a.2.cmp(&b.2))
        });
        for run in self.order.chunk_by(|a, b| a.0 == b.0 && table.eq(a.1, b.1)) {
            let announced: InlineVec<NodeId, INLINE_DESTS> = run
                .iter()
                .map(|&(_, _, position)| dests[position])
                .collect();
            send(BgpUpdate::announce(run[0].1, announced));
        }
        self.order.clear();
        if !withdrawn.is_empty() {
            send(BgpUpdate::withdraw(withdrawn));
        }
    }
}

/// The order key of a path with `hops` (see [`AnnounceTable`]) with
/// `width`-bit fields, or `None` if one of its encoded hop ids does not
/// fit in a field.
fn order_key(hops: &[NodeId], width: u32) -> Option<u128> {
    let after_owner = hops.get(1..).unwrap_or(&[]);
    let mut key = 0u128;
    for i in 0..(u128::BITS / width) as usize {
        let field = after_owner
            .get(i)
            .map_or(0, |hop| u128::from(hop.raw()) + 1);
        if field >> width != 0 {
            return None;
        }
        key = (key << width) | field;
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A fresh handle to `hops` in `table`.
    fn path(table: &mut PathTable, hops: &[u32]) -> AsPath {
        let hops: Vec<NodeId> = hops.iter().map(|&h| n(h)).collect();
        table.from_hops(&hops).unwrap()
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
        let mut t = PathTable::new();
        let mut rib = AdjRibIn::new(4, 2);
        let p13 = path(&mut t, &[1, 3]);
        assert!(rib.set(&t, 1, n(3), Some(p13)));
        assert_eq!(rib.get(1, n(3)), Some(p13));
        let again = path(&mut t, &[1, 3]);
        assert!(!rib.set(&t, 1, n(3), Some(again)), "equal content");
        assert_eq!(rib.get(1, n(3)), Some(p13), "the stored handle stays");
        let other = path(&mut t, &[1, 2, 3]);
        assert!(rib.set(&t, 1, n(3), Some(other)), "other path");
        assert!(rib.set(&t, 1, n(3), None));
        assert!(!rib.set(&t, 1, n(3), None), "withdrawn twice");
        assert_eq!(rib.get(1, n(3)), None);
        let (p12, p2) = (path(&mut t, &[1, 2]), path(&mut t, &[2]));
        rib.set(&t, 1, n(2), Some(p12));
        rib.set(&t, 0, n(2), Some(p2));
        rib.clear_neighbor(1);
        assert_eq!(rib.get(1, n(2)), None);
        assert_eq!(rib.get(0, n(2)), Some(p2));
        assert_eq!(rib.row(n(2)), &[Some(p2), None]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot 2 out of range")]
    fn set_checks_the_slot_in_debug_builds() {
        let mut t = PathTable::new();
        let p = path(&mut t, &[1]);
        AdjRibIn::new(4, 2).set(&t, 2, n(1), Some(p));
    }

    #[test]
    fn best_filters_down_and_unusable_peers() {
        let mut t = PathTable::new();
        let mut rib = AdjRibIn::new(4, 2);
        let (via1, via2) = (path(&mut t, &[1, 3]), path(&mut t, &[2, 0, 3]));
        rib.set(&t, 0, n(3), Some(via1));
        rib.set(&t, 1, n(3), Some(via2));
        let peers = [peer(1, true), peer(2, true)];
        assert_eq!(rib.best(n(3), &peers, |_| true), Some((n(1), via1)));
        let only2 = rib.best(n(3), &peers, |nb| nb == n(2));
        assert_eq!(only2, Some((n(2), via2)));
        let peers = [peer(1, false), peer(2, true)];
        assert_eq!(
            rib.best(n(3), &peers, |_| true).map(|(nb, _)| nb),
            Some(n(2))
        );
        assert_eq!(rib.best(n(0), &peers, |_| true), None);
    }

    #[test]
    fn offers_come_from_usable_up_peers() {
        let mut t = PathTable::new();
        let mut rib = AdjRibIn::new(4, 2);
        let via1 = path(&mut t, &[1, 3]);
        rib.set(&t, 0, n(3), Some(via1));
        assert_eq!(rib.offer(0, n(3), &peer(1, true), |_| true), Some(via1));
        assert_eq!(rib.offer(0, n(3), &peer(1, false), |_| true), None);
        assert_eq!(rib.offer(0, n(3), &peer(1, true), |nb| nb != n(1)), None);
        assert_eq!(rib.offer(1, n(3), &peer(2, true), |_| true), None);
    }

    #[test]
    fn best_ties_break_to_lowest_neighbor_id_not_slot() {
        let mut t = PathTable::new();
        let mut rib = AdjRibIn::new(4, 2);
        let (via7, via5) = (path(&mut t, &[7, 3]), path(&mut t, &[5, 3]));
        rib.set(&t, 0, n(3), Some(via7));
        rib.set(&t, 1, n(3), Some(via5));
        let peers = [peer(7, true), peer(5, true)];
        assert_eq!(rib.best(n(3), &peers, |_| true), Some((n(5), via5)));
    }

    #[test]
    fn selection_prefers_shorter_paths() {
        let mut t = PathTable::new();
        let short = path(&mut t, &[1, 3]);
        let long = path(&mut t, &[2, 0, 3]);
        let best = select(vec![(n(2), long), (n(1), short)]);
        assert_eq!(best, Some((n(1), short)));
    }

    #[test]
    fn selection_ties_break_to_lowest_neighbor() {
        let mut t = PathTable::new();
        let a = path(&mut t, &[4, 3]);
        let b = path(&mut t, &[2, 3]);
        let best = select(vec![(n(4), a), (n(2), b)]);
        assert_eq!(best, Some((n(2), b)));
    }

    #[test]
    fn selection_of_nothing_is_none() {
        assert_eq!(select(Vec::new()), None);
    }

    /// Owner 0's hops with `after_owner` after it.
    fn owned(after_owner: &[u32]) -> Vec<NodeId> {
        [&[0], after_owner].concat().into_iter().map(n).collect()
    }

    #[test]
    fn a_49_destination_table_keys_21_hops() {
        let table = AnnounceTable::new(n(0), 49);
        let key = |after_owner: &[u32]| order_key(&owned(after_owner), table.width);
        let mut hops = vec![48; 21];
        let mut other = hops.clone();
        other[20] = 47;
        assert!(key(&other) < key(&hops), "the 21st hop is keyed");
        hops.push(48);
        other = hops.clone();
        other[21] = 47;
        assert_eq!(key(&other), key(&hops), "the 22nd is not");
    }

    #[test]
    fn paths_agreeing_on_every_keyed_hop_order_by_the_next() {
        let mut t = PathTable::new();
        let mut table = AnnounceTable::new(n(0), 225);
        let shared: Vec<u32> = (200..216).collect();
        let low = owned(&[shared.as_slice(), &[2, 9]].concat());
        let high = owned(&[shared.as_slice(), &[3]].concat());
        assert_eq!(order_key(&low, table.width), order_key(&high, table.width));
        let (low, high) = (t.from_hops(&low).unwrap(), t.from_hops(&high).unwrap());
        table.set(&t, n(1), Some(high));
        table.set(&t, n(2), Some(low));
        let mut updates = Vec::new();
        table.updates_for(&t, n(9), &[n(1), n(2)], |u| updates.push(u));
        assert_eq!(
            updates,
            [
                BgpUpdate::announce(low, vec![n(2)]),
                BgpUpdate::announce(high, vec![n(1)]),
            ]
        );
    }

    #[test]
    fn equal_paths_under_distinct_handles_share_one_update() {
        let mut t = PathTable::new();
        let mut table = AnnounceTable::new(n(0), 4);
        let first = path(&mut t, &[0, 2]);
        let second = path(&mut t, &[0, 2]);
        table.set(&t, n(1), Some(first));
        table.set(&t, n(3), Some(second));
        let mut updates = Vec::new();
        table.updates_for(&t, n(9), &[n(3), n(1)], |u| updates.push(u));
        assert_eq!(updates, [BgpUpdate::announce(second, vec![n(3), n(1)])]);
    }
}
