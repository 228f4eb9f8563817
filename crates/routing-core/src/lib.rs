//! # routing-core — shared routing-protocol building blocks
//!
//! The three protocols of the study (RIP, DBF, BGP) are deliberate
//! variations within one algorithm family, so their common vocabulary lives
//! here: saturating hop-count metrics ([`metric`]), AS paths ([`path`]), the
//! triggered-update/MRAI hold-down state machine ([`damping`]) and the
//! 25-entry distance-vector wire format ([`message`]).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::allow_attributes_without_reason
    )
)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod damping;
pub mod inline;
pub mod message;
pub mod metric;
pub mod path;

pub use damping::{DampAction, Damper};
pub use inline::InlineVec;
pub use message::{pack_entries, DvEntry, DvMessage, MAX_ENTRIES_PER_MESSAGE};
pub use metric::Metric;
pub use path::AsPath;

/// Selects the best (metric, neighbor) pair with deterministic tie-breaking
/// toward the lowest neighbor id — the selection rule all protocols in the
/// study share.
///
/// Returns `None` if the iterator is empty or every metric is infinite.
///
/// # Examples
///
/// ```
/// use routing_core::{select_best, Metric};
/// use netsim::ident::NodeId;
///
/// let candidates = [
///     (NodeId::new(3), Metric::new(2)),
///     (NodeId::new(1), Metric::new(2)),
///     (NodeId::new(2), Metric::INFINITY),
/// ];
/// assert_eq!(select_best(candidates), Some((NodeId::new(1), Metric::new(2))));
/// ```
pub fn select_best<I>(candidates: I) -> Option<(netsim::ident::NodeId, Metric)>
where
    I: IntoIterator<Item = (netsim::ident::NodeId, Metric)>,
{
    candidates
        .into_iter()
        .filter(|(_, m)| m.is_finite())
        .min_by_key(|&(n, m)| (m, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ident::NodeId;

    #[test]
    fn select_best_prefers_lower_metric() {
        let best = select_best([
            (NodeId::new(0), Metric::new(5)),
            (NodeId::new(1), Metric::new(3)),
        ]);
        assert_eq!(best, Some((NodeId::new(1), Metric::new(3))));
    }

    #[test]
    fn select_best_ignores_infinity() {
        assert_eq!(select_best([(NodeId::new(0), Metric::INFINITY)]), None);
        assert_eq!(select_best(std::iter::empty()), None);
    }

    #[test]
    fn select_best_ties_break_to_lowest_id() {
        let best = select_best([
            (NodeId::new(9), Metric::new(1)),
            (NodeId::new(4), Metric::new(1)),
            (NodeId::new(7), Metric::new(1)),
        ]);
        assert_eq!(best, Some((NodeId::new(4), Metric::new(1))));
    }
}
