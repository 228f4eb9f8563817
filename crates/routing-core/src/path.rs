//! AS paths for path-vector routing.
//!
//! Every AS path of one simulation lives in one append-only [`PathTable`],
//! which all BGP speakers of the run share (they take it from
//! [`ProtocolContext::shared`](netsim::simulator::ProtocolContext::shared)).
//! An [`AsPath`] is an 8-byte `Copy` handle to a run of hops in that
//! table. Storing, sending, copying or dropping a path therefore touches
//! no heap object and no reference count, and prepending a hop appends
//! one run to the table instead of allocating. The table never frees a
//! run; it is dropped with its simulation.
//!
//! A handle is only a position, so everything that reads hops goes through
//! the table: [`PathTable::hops`], [`PathTable::contains`] and the content
//! comparisons [`PathTable::eq`] and [`PathTable::cmp`]. `==` on two
//! handles is identity: two handles to equal hop sequences are different
//! handles. The length lives in the handle, so shortest-path selection and
//! wire sizing need no table.

use std::cmp::Ordering;
use std::fmt;
use std::num::NonZeroU32;

use netsim::ident::NodeId;
use serde::{Deserialize, Serialize};

/// A BGP-style AS path: the sequence of routers an announcement traversed,
/// most recent first (the paper models one router per AS), as a handle
/// into the run's [`PathTable`].
///
/// # Examples
///
/// ```
/// use routing_core::path::PathTable;
/// use netsim::ident::NodeId;
///
/// let mut table = PathTable::new();
/// let origin = table.origin(NodeId::new(9)).unwrap();
/// let via7 = table.prepended(origin, NodeId::new(7)).unwrap();
/// assert_eq!(via7.len(), 2);
/// assert!(table.contains(via7, NodeId::new(9)));
/// assert_eq!(table.first(via7), Some(NodeId::new(7)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsPath {
    start: u32,
    len: NonZeroU32,
}

const _: () = assert!(size_of::<AsPath>() == 8 && size_of::<Option<AsPath>>() == 8);

impl AsPath {
    /// Number of ASes on the path (the route-selection metric).
    #[must_use]
    pub fn len(self) -> usize {
        self.len.get() as usize
    }

    /// An AS path is never empty; this exists for API completeness.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Wire size: 2 bytes per AS number (as in BGP-4 AS_PATH segments).
    #[must_use]
    pub fn size_bytes(self) -> usize {
        2 + 2 * self.len()
    }
}

/// Hops per chunk of a [`PathTable`], as a power of two.
const CHUNK_BITS: u32 = 16;

/// Hops per chunk (256 KiB of ids).
const CHUNK: usize = 1 << CHUNK_BITS;

/// Chunks a table can address: a handle's `start` is a `u32`.
const MAX_CHUNKS: usize = 1 << (u32::BITS - CHUNK_BITS);

/// The hop runs of every [`AsPath`] of one simulation.
///
/// Runs sit back to back in chunks of 2^16 hops (a longer run gets a
/// chunk of its own), so the table grows without copying what it holds;
/// a handle's `start` is its chunk index above 16 bits of offset. A table
/// holds at most 2^16 chunks; the constructors return `None` rather than
/// a handle past that.
#[derive(Clone, Default)]
pub struct PathTable {
    chunks: Vec<Vec<NodeId>>,
}

impl fmt::Debug for PathTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathTable")
            .field("hops", &self.total_hops())
            .finish()
    }
}

impl PathTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        PathTable::default()
    }

    /// Total hops stored, over all paths.
    #[must_use]
    pub fn total_hops(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Stores `hops` (most recent first) as a new path. Returns `None` if
    /// `hops` is empty (an AS path always contains the origin) or the table
    /// is full.
    pub fn from_hops(&mut self, hops: &[NodeId]) -> Option<AsPath> {
        let path = self.reserve(hops.len())?;
        self.chunks.last_mut()?.extend_from_slice(hops);
        Some(path)
    }

    /// The path a destination announces for itself: just its own id.
    pub fn origin(&mut self, node: NodeId) -> Option<AsPath> {
        self.from_hops(&[node])
    }

    /// Stores `path` with `node` prepended (what a router does before
    /// re-announcing a route) as a new path, or returns `None` if `path`
    /// is not a path of this table or the table is full.
    pub fn prepended(&mut self, path: AsPath, node: NodeId) -> Option<AsPath> {
        let (from, range) = position(path);
        self.chunks.get(from)?.get(range.clone())?;
        let longer = self.reserve(path.len() + 1)?;
        let (last, before) = self.chunks.split_last_mut()?;
        last.push(node);
        match before.get(from) {
            Some(chunk) => last.extend_from_slice(&chunk[range]),
            None => last.extend_from_within(range),
        }
        Some(longer)
    }

    /// The handle of `len` hops appended next, with room for them in the
    /// last chunk.
    fn reserve(&mut self, len: usize) -> Option<AsPath> {
        let len = NonZeroU32::new(u32::try_from(len).ok()?)?;
        // A run starts below offset `CHUNK`, so a chunk that holds an
        // oversized run takes no other.
        let room = self.chunks.last().is_some_and(|chunk| {
            chunk.len() < CHUNK && chunk.len() + len.get() as usize <= chunk.capacity()
        });
        if !room {
            if self.chunks.len() >= MAX_CHUNKS {
                return None;
            }
            self.chunks
                .push(Vec::with_capacity(CHUNK.max(len.get() as usize)));
        }
        // Below `MAX_CHUNKS` and `CHUNK`, so the packed start fits in a `u32`.
        let index = self.chunks.len() - 1;
        let offset = self.chunks.last()?.len();
        Some(AsPath {
            start: (index << CHUNK_BITS | offset) as u32,
            len,
        })
    }

    /// The hops of `path`, most recent first (empty for a handle this
    /// table did not give out).
    #[must_use]
    pub fn hops(&self, path: AsPath) -> &[NodeId] {
        let (index, range) = position(path);
        self.chunks
            .get(index)
            .and_then(|chunk| chunk.get(range))
            .unwrap_or(&[])
    }

    /// Returns `true` if `node` appears anywhere on `path`: BGP's loop
    /// detection test.
    #[must_use]
    pub fn contains(&self, path: AsPath, node: NodeId) -> bool {
        self.hops(path).contains(&node)
    }

    /// The most recent hop (the announcing neighbor's own id).
    #[must_use]
    pub fn first(&self, path: AsPath) -> Option<NodeId> {
        self.hops(path).first().copied()
    }

    /// Whether `a` and `b` hold the same hops. The same handle is equal
    /// without reading the table, and different lengths are unequal
    /// without reading it; only equal-length paths compare hop by hop.
    #[must_use]
    pub fn eq(&self, a: AsPath, b: AsPath) -> bool {
        a == b || (a.len == b.len && self.hops(a) == self.hops(b))
    }

    /// Orders `a` and `b` as their hop sequences order (lexicographically,
    /// a prefix before its extensions), without reading the table for the
    /// same handle.
    #[must_use]
    pub fn cmp(&self, a: AsPath, b: AsPath) -> Ordering {
        if a == b {
            Ordering::Equal
        } else {
            self.hops(a).cmp(self.hops(b))
        }
    }
}

/// `path`'s chunk index and its hops' range in that chunk.
fn position(path: AsPath) -> (usize, std::ops::Range<usize>) {
    let start = (path.start as usize) & (CHUNK - 1);
    (
        (path.start >> CHUNK_BITS) as usize,
        start..start + path.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn prepend_builds_longer_paths() {
        let mut t = PathTable::new();
        let p = t.origin(n(5)).unwrap();
        let p = t.prepended(p, n(3)).unwrap();
        let p = t.prepended(p, n(1)).unwrap();
        assert_eq!(t.hops(p), &[n(1), n(3), n(5)]);
        assert_eq!(p.len(), 3);
        assert_eq!(t.first(p), Some(n(1)));
        assert_eq!(t.total_hops(), 1 + 2 + 3);
    }

    #[test]
    fn loop_detection_sees_every_hop() {
        let mut t = PathTable::new();
        let p = t.from_hops(&[n(3), n(5)]).unwrap();
        assert!(t.contains(p, n(5)));
        assert!(t.contains(p, n(3)));
        assert!(!t.contains(p, n(4)));
    }

    #[test]
    fn empty_paths_are_rejected() {
        let mut t = PathTable::new();
        assert_eq!(t.from_hops(&[]), None);
        assert_eq!(t.total_hops(), 0);
    }

    #[test]
    fn foreign_handles_read_as_empty_and_do_not_prepend() {
        let mut big = PathTable::new();
        let far = big.from_hops(&[n(1), n(2), n(3)]).unwrap();
        let mut small = PathTable::new();
        small.origin(n(0)).unwrap();
        assert_eq!(small.hops(far), &[]);
        assert_eq!(small.prepended(far, n(9)), None);
        assert_eq!(small.total_hops(), 1);
    }

    #[test]
    fn size_tracks_length() {
        let mut t = PathTable::new();
        let p = t.origin(n(0)).unwrap();
        assert_eq!(p.size_bytes(), 4);
        assert_eq!(t.prepended(p, n(1)).unwrap().size_bytes(), 6);
    }

    #[test]
    fn equal_hops_under_distinct_handles_compare_equal() {
        let mut t = PathTable::new();
        let a = t.from_hops(&[n(2), n(1)]).unwrap();
        let b = a;
        let c = t.from_hops(&[n(2), n(1)]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "handles are positions");
        assert!(t.eq(a, c));
        assert_eq!(t.cmp(a, c), Ordering::Equal);
        let longer = t.from_hops(&[n(2), n(1), n(0)]).unwrap();
        assert!(!t.eq(a, longer));
        assert_eq!(t.cmp(a, longer), Ordering::Less, "a prefix sorts first");
    }

    #[test]
    fn runs_never_straddle_chunks() {
        let mut t = PathTable::new();
        let a = t.origin(n(7)).unwrap();
        t.from_hops(&vec![n(1); CHUNK - 2]).unwrap();
        let b = t.from_hops(&[n(2), n(3)]).unwrap();
        assert_eq!(t.chunks.len(), 2, "b does not fit in the first chunk");
        let c = t.prepended(a, n(9)).unwrap();
        assert_eq!(t.hops(c), &[n(9), n(7)], "copied from an older chunk");
        let long = vec![n(4); CHUNK + 1];
        let d = t.from_hops(&long).unwrap();
        assert_eq!(t.hops(d), long.as_slice());
        let e = t.prepended(b, n(5)).unwrap();
        assert_eq!(t.chunks.len(), 4, "an oversized run's chunk takes no other");
        assert_eq!(t.hops(e), &[n(5), n(2), n(3)]);
        assert_eq!(t.hops(a), &[n(7)]);
        assert_eq!(t.total_hops(), 1 + (CHUNK - 2) + 2 + 2 + (CHUNK + 1) + 3);
    }

    /// Hop vectors of 0 to 6 ids from a small alphabet, so equal, prefix
    /// and equal-length paths all occur.
    fn hop_vectors() -> impl Strategy<Value = Vec<Vec<u32>>> {
        prop::collection::vec(prop::collection::vec(0u32..4, 0..7), 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn handles_answer_like_their_hop_slices(raw in hop_vectors(), probe in 0u32..5) {
            let mut t = PathTable::new();
            let vectors: Vec<Vec<NodeId>> = raw
                .iter()
                .map(|v| v.iter().map(|&h| n(h)).collect())
                .collect();
            let stored: Vec<Option<AsPath>> = vectors.iter().map(|v| t.from_hops(v)).collect();
            for (v, p) in vectors.iter().zip(&stored) {
                prop_assert_eq!(p.is_none(), v.is_empty());
            }
            let paths: Vec<(&Vec<NodeId>, AsPath)> = vectors
                .iter()
                .zip(&stored)
                .filter_map(|(v, p)| Some((v, (*p)?)))
                .collect();
            for &(va, a) in &paths {
                prop_assert_eq!(t.hops(a), va.as_slice());
                prop_assert_eq!(a.len(), va.len());
                prop_assert_eq!(t.contains(a, n(probe)), va.contains(&n(probe)));
                for &(vb, b) in &paths {
                    prop_assert_eq!(t.eq(a, b), va == vb);
                    prop_assert_eq!(t.cmp(a, b), va.cmp(vb));
                }
            }
            for &(va, a) in &paths {
                let before = t.total_hops();
                let longer = t.prepended(a, n(probe)).unwrap();
                prop_assert_eq!(longer.len(), a.len() + 1);
                prop_assert_eq!(t.first(longer), Some(n(probe)));
                prop_assert_eq!(&t.hops(longer)[1..], va.as_slice());
                prop_assert_eq!(t.hops(a), va.as_slice(), "the old path is untouched");
                prop_assert_eq!(t.total_hops(), before + va.len() + 1);
            }
        }
    }
}
