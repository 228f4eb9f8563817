//! AS paths for path-vector routing.
//!
//! A path's hops sit behind an `Rc`, not an `Arc`: a path lives inside
//! one simulation run, and a run never leaves its thread (see
//! [`SharedPayload`](netsim::protocol::SharedPayload)), so clones and
//! drops need no atomic reference counts.

use std::fmt;
use std::rc::Rc;

use netsim::ident::NodeId;
use serde::{Deserialize, Serialize};

/// A BGP-style AS path: the sequence of routers an announcement traversed,
/// most recent first (the paper models one router per AS).
///
/// The hop sequence is stored behind an `Rc`, so cloning a path — which
/// BGP does for every Adj-RIB-In slot and every re-announcement — bumps a
/// reference count instead of copying hops. Equality, ordering and
/// hashing compare hop *contents*, exactly as the old `Vec`-backed
/// representation did; two equal paths need not share storage.
///
/// # Examples
///
/// ```
/// use routing_core::path::AsPath;
/// use netsim::ident::NodeId;
///
/// let origin = AsPath::origin(NodeId::new(9));
/// let via7 = origin.prepended(NodeId::new(7));
/// assert_eq!(via7.len(), 2);
/// assert!(via7.contains(NodeId::new(9)));
/// assert_eq!(via7.first(), Some(NodeId::new(7)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsPath {
    hops: Rc<[NodeId]>,
}

// Equality/ordering/hashing compare hop contents (identical to the old
// `Vec`-backed derive), with an `Rc::ptr_eq` fast path: thanks to
// refcount sharing, most comparisons on the hot path are between clones
// of one allocation and never touch the hops at all.
impl PartialEq for AsPath {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.hops, &other.hops) || self.hops == other.hops
    }
}

impl Eq for AsPath {}

impl PartialOrd for AsPath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AsPath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Rc::ptr_eq(&self.hops, &other.hops) {
            std::cmp::Ordering::Equal
        } else {
            self.hops.cmp(&other.hops)
        }
    }
}

impl std::hash::Hash for AsPath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.hops.hash(state);
    }
}

impl AsPath {
    /// The path a destination announces for itself: just its own id.
    #[must_use]
    pub fn origin(node: NodeId) -> Self {
        AsPath {
            hops: Rc::from([node].as_slice()),
        }
    }

    /// A path from an explicit hop sequence.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty (an AS path always contains the origin).
    #[must_use]
    pub fn from_hops(hops: Vec<NodeId>) -> Self {
        assert!(!hops.is_empty(), "AS path must contain the origin");
        AsPath {
            hops: Rc::from(hops),
        }
    }

    /// Returns this path with `node` prepended (what a router does before
    /// re-announcing a route), in one fresh allocation.
    #[must_use]
    pub fn prepended(&self, node: NodeId) -> AsPath {
        AsPath {
            hops: std::iter::once(node)
                .chain(self.hops.iter().copied())
                .collect(),
        }
    }

    /// Number of ASes on the path (the route-selection metric).
    #[must_use]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// An AS path is never empty; this exists for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if `node` appears anywhere on the path — BGP's loop
    /// detection test.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.hops.contains(&node)
    }

    /// The most recent hop (the announcing neighbor's own id).
    #[must_use]
    pub fn first(&self) -> Option<NodeId> {
        self.hops.first().copied()
    }

    /// The originating AS, or `None` for an empty path (constructors
    /// always produce at least the origin hop).
    #[must_use]
    pub fn origin_as(&self) -> Option<NodeId> {
        self.hops.last().copied()
    }

    /// The hop sequence, most recent first.
    #[must_use]
    pub fn hops(&self) -> &[NodeId] {
        &self.hops
    }

    /// Wire size: 2 bytes per AS number (as in BGP-4 AS_PATH segments).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        2 + 2 * self.hops.len()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for hop in self.hops.iter() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{hop}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn prepend_builds_longer_paths() {
        let p = AsPath::origin(n(5)).prepended(n(3)).prepended(n(1));
        assert_eq!(p.hops(), &[n(1), n(3), n(5)]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.origin_as(), Some(n(5)));
        assert_eq!(p.first(), Some(n(1)));
    }

    #[test]
    fn loop_detection_sees_every_hop() {
        let p = AsPath::origin(n(5)).prepended(n(3));
        assert!(p.contains(n(5)));
        assert!(p.contains(n(3)));
        assert!(!p.contains(n(4)));
    }

    #[test]
    fn display_is_space_separated() {
        let p = AsPath::origin(n(2)).prepended(n(1));
        assert_eq!(p.to_string(), "n1 n2");
    }

    #[test]
    #[should_panic(expected = "origin")]
    fn empty_paths_are_rejected() {
        let _ = AsPath::from_hops(vec![]);
    }

    #[test]
    fn size_tracks_length() {
        assert_eq!(AsPath::origin(n(0)).size_bytes(), 4);
        assert_eq!(AsPath::origin(n(0)).prepended(n(1)).size_bytes(), 6);
    }

    #[test]
    fn clones_share_storage_but_equals_need_not() {
        let a = AsPath::origin(n(1)).prepended(n(2));
        let b = a.clone();
        assert!(Rc::ptr_eq(&a.hops, &b.hops));
        let c = AsPath::from_hops(vec![n(2), n(1)]);
        assert_eq!(a, c);
        assert!(!Rc::ptr_eq(&a.hops, &c.hops));
    }

    #[test]
    fn display_and_debug_match_vec_backed_representation() {
        let p = AsPath::from_hops(vec![n(1), n(3), n(5)]);
        assert_eq!(p.to_string(), "n1 n3 n5");
        assert_eq!(
            format!("{p:?}"),
            "AsPath { hops: [NodeId(1), NodeId(3), NodeId(5)] }"
        );
    }
}
