//! BGP update messages.
//!
//! Unlike a distance-vector message, a single BGP update can only announce
//! destinations that *share the same AS path* (paper §5.2) — after a
//! failure, routes through different repair paths need separate messages,
//! and all but the first are held by the MRAI timer. This asymmetry with
//! RIP's 25-destination grab-bag is one of the paper's explanations for
//! BGP's longer transient loops.

use netsim::ident::NodeId;
use netsim::protocol::Payload;
use routing_core::inline::InlineVec;
use routing_core::path::AsPath;
use serde::{Deserialize, Serialize};

/// Destinations kept inline in an update before spilling to the heap.
///
/// Two, not more: convergence updates overwhelmingly carry one or two
/// NLRI (per-pair MRAI sends exactly one), and every extra inline slot
/// grows the message value copied into its `Rc` — profiling showed
/// eight slots cost BGP ~13% in protocol processing for no allocation
/// win. Bulk updates (initial RIB exchange, session reset withdrawals)
/// spill to the heap, which is the rare path.
pub const INLINE_DESTS: usize = 2;

/// One BGP UPDATE: optionally a set of destinations sharing one announced
/// path, plus explicitly withdrawn destinations.
///
/// The path is a handle into the run's shared
/// [`PathTable`](routing_core::path::PathTable), so the derived `==`
/// compares handles; compare contents through the table.
///
/// The destination lists are [`InlineVec`]s: the first [`INLINE_DESTS`]
/// entries live inside the message value, so short updates — the vast
/// majority during convergence — never heap-allocate for their lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BgpUpdate {
    /// The announced path, if this update announces anything.
    pub path: Option<AsPath>,
    /// Destinations reachable via [`BgpUpdate::path`].
    pub announced: InlineVec<NodeId, INLINE_DESTS>,
    /// Destinations no longer reachable through the sender.
    pub withdrawn: InlineVec<NodeId, INLINE_DESTS>,
}

impl BgpUpdate {
    /// An update announcing `announced` via `path`.
    ///
    /// Accepts anything convertible into the inline list — pass an
    /// already-built [`InlineVec`] to move it in without copying.
    /// `announced` must not be empty (a caller announces the destinations
    /// it groups under `path`); debug builds check it.
    #[must_use]
    pub fn announce(path: AsPath, announced: impl Into<InlineVec<NodeId, INLINE_DESTS>>) -> Self {
        let announced = announced.into();
        debug_assert!(
            !announced.is_empty(),
            "empty announcement: callers announce at least one destination"
        );
        BgpUpdate {
            path: Some(path),
            announced,
            withdrawn: InlineVec::new(),
        }
    }

    /// A pure withdrawal.
    ///
    /// Accepts anything convertible into the inline list — pass an
    /// already-built [`InlineVec`] to move it in without copying.
    /// `withdrawn` must not be empty (callers withdraw only after checking
    /// that something is withdrawn); debug builds check it.
    #[must_use]
    pub fn withdraw(withdrawn: impl Into<InlineVec<NodeId, INLINE_DESTS>>) -> Self {
        let withdrawn = withdrawn.into();
        debug_assert!(
            !withdrawn.is_empty(),
            "empty withdrawal: callers withdraw at least one destination"
        );
        BgpUpdate {
            path: None,
            announced: InlineVec::new(),
            withdrawn,
        }
    }

    /// Returns `true` if the update carries nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty()
    }
}

impl Payload for BgpUpdate {
    /// BGP-4 sizing: 19-byte header, 2+2·len AS_PATH attribute, 4 bytes per
    /// announced NLRI and per withdrawn route.
    fn size_bytes(&self) -> usize {
        19 + self.path.map_or(0, AsPath::size_bytes)
            + 4 * self.announced.len()
            + 4 * self.withdrawn.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_core::path::PathTable;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn announce_and_withdraw_constructors() {
        let mut t = PathTable::new();
        let a = BgpUpdate::announce(t.origin(n(3)).unwrap(), vec![n(3)]);
        assert_eq!(a.announced, vec![n(3)]);
        assert!(a.withdrawn.is_empty());
        assert!(!a.is_empty());

        let w = BgpUpdate::withdraw(vec![n(1), n(2)]);
        assert!(w.path.is_none());
        assert_eq!(w.withdrawn.len(), 2);
    }

    #[test]
    fn sizes_grow_with_content() {
        let mut t = PathTable::new();
        let origin = t.origin(n(0)).unwrap();
        let short = BgpUpdate::announce(origin, vec![n(0)]);
        let long_path = t.from_hops(&[n(2), n(1), n(0)]).unwrap();
        let long = BgpUpdate::announce(long_path, vec![n(0), n(5), n(6)]);
        assert!(long.size_bytes() > short.size_bytes());
        assert_eq!(short.size_bytes(), 19 + 4 + 4);
        let w = BgpUpdate::withdraw(vec![n(9)]);
        assert_eq!(w.size_bytes(), 19 + 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty announcement")]
    fn empty_announcement_rejected() {
        let mut t = PathTable::new();
        let _ = BgpUpdate::announce(t.origin(n(0)).unwrap(), vec![]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty withdrawal")]
    fn empty_withdrawal_rejected() {
        let _ = BgpUpdate::withdraw(vec![]);
    }
}
