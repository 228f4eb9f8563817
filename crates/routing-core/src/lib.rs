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
pub use message::{send_packed, DvEntry, DvMessage, MAX_ENTRIES_PER_MESSAGE};
pub use metric::Metric;
pub use path::{AsPath, PathTable};

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

/// How one changed candidate moves a selection made by the shared rule:
/// the minimum over candidates keyed by `(cost, neighbor id)`.
///
/// The key is a total order (neighbor ids are unique), so the minimum can
/// be updated for one changed candidate from the current minimum alone,
/// except when the current minimum's own candidate got worse or went away:
/// then another candidate may now be the least, and only a full selection
/// can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reselection {
    /// The selection stays as it is.
    Keep,
    /// The changed candidate is the new selection (or, with no candidate
    /// selected before and none offered now, there is still none).
    TakeOffer,
    /// The selected candidate got worse or was withdrawn: select afresh.
    Rescan,
}

/// Decides how the selection `current` (its cost and neighbor, `None` if
/// nothing was selected) moves when `neighbor`'s candidate becomes
/// `offer` (its cost, `None` if it offers nothing usable), all other
/// candidates unchanged.
///
/// - With nothing selected, the offer (if any) is the only candidate.
/// - An offer from another neighbor wins only if its key is lower.
/// - A new offer from the selected neighbor that is no worse keeps it
///   selected, with the new cost; a worse offer or none needs a
///   [`Reselection::Rescan`].
///
/// # Examples
///
/// ```
/// use routing_core::{reselect, Reselection};
/// use netsim::ident::NodeId;
///
/// let (a, b) = (NodeId::new(1), NodeId::new(2));
/// assert_eq!(reselect(Some((3, a)), b, Some(3)), Reselection::Keep);
/// assert_eq!(reselect(Some((3, b)), a, Some(3)), Reselection::TakeOffer);
/// assert_eq!(reselect(Some((3, a)), a, Some(4)), Reselection::Rescan);
/// ```
pub fn reselect<C: Ord>(
    current: Option<(C, netsim::ident::NodeId)>,
    neighbor: netsim::ident::NodeId,
    offer: Option<C>,
) -> Reselection {
    match (current, offer) {
        (None, _) => Reselection::TakeOffer,
        (Some((_, selected)), None) if selected == neighbor => Reselection::Rescan,
        (Some(_), None) => Reselection::Keep,
        (Some((cost, selected)), Some(offered)) if selected == neighbor => {
            if offered <= cost {
                Reselection::TakeOffer
            } else {
                Reselection::Rescan
            }
        }
        (Some(current), Some(offered)) => {
            if (offered, neighbor) < current {
                Reselection::TakeOffer
            } else {
                Reselection::Keep
            }
        }
    }
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

    #[test]
    fn reselect_agrees_with_a_fresh_selection() {
        // Every current selection and every offer over three neighbors
        // with costs 0..3 or none: whatever `reselect` does not leave to
        // a rescan must equal the minimum of the changed candidates.
        let options = [None, Some(0u32), Some(1), Some(2)];
        let ids = [NodeId::new(4), NodeId::new(2), NodeId::new(7)];
        let best = |costs: &[Option<u32>]| {
            costs
                .iter()
                .zip(ids)
                .filter_map(|(c, n)| Some(((*c)?, n)))
                .min()
        };
        let mut rescans = 0;
        for a in options {
            for b in options {
                for c in options {
                    let before = [a, b, c];
                    for (changed, &neighbor) in ids.iter().enumerate() {
                        for offer in options {
                            let mut after = before;
                            after[changed] = offer;
                            let current = best(&before);
                            let expected = best(&after);
                            match reselect(current, neighbor, offer) {
                                Reselection::Keep => assert_eq!(expected, current),
                                Reselection::TakeOffer => {
                                    assert_eq!(expected, offer.map(|cost| (cost, neighbor)));
                                }
                                Reselection::Rescan => {
                                    rescans += 1;
                                    let (cost, selected) = current.unwrap();
                                    assert_eq!(selected, neighbor);
                                    assert!(offer.is_none_or(|offered| offered > cost));
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(rescans > 0);
    }
}
