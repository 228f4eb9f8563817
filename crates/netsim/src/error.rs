//! Error types.

use std::error::Error;
use std::fmt;

use crate::ident::{LinkId, NodeId};
use crate::time::SimTime;

/// Errors raised while assembling a simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A link referenced a node that was never added.
    UnknownNode(NodeId),
    /// A link connected a node to itself.
    SelfLoop(NodeId),
    /// Two links were added between the same pair of nodes.
    DuplicateLink(NodeId, NodeId),
    /// A protocol was installed on a node that does not exist.
    NoSuchNode(NodeId),
    /// An operation referenced a link that does not exist.
    NoSuchLink(LinkId),
    /// The network had no nodes.
    EmptyNetwork,
    /// A constant-bit-rate source was given a zero inter-packet gap.
    ZeroCbrGap,
    /// An event was scheduled before the simulator's current time.
    InThePast {
        /// The requested time.
        at: SimTime,
        /// The simulator's time when it was asked.
        now: SimTime,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownNode(n) => write!(f, "link references unknown node {n}"),
            BuildError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            BuildError::DuplicateLink(a, b) => {
                write!(f, "duplicate link between {a} and {b}")
            }
            BuildError::NoSuchNode(n) => write!(f, "no such node {n}"),
            BuildError::NoSuchLink(l) => write!(f, "no such link {l}"),
            BuildError::EmptyNetwork => write!(f, "network has no nodes"),
            BuildError::ZeroCbrGap => write!(f, "CBR source has a zero inter-packet gap"),
            BuildError::InThePast { at, now } => {
                write!(f, "cannot schedule an event at {at}, before now ({now})")
            }
        }
    }
}

impl Error for BuildError {}

/// The event-budget watchdog tripped: a budgeted run processed its maximum
/// number of events before reaching the requested simulated time.
///
/// Raised by [`crate::simulator::Simulator::run_until_budgeted`] when a
/// scenario livelocks (e.g. a protocol stuck in a zero-delay timer loop or
/// a persistent forwarding loop kept alive by retransmissions) instead of
/// letting the process spin forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventBudgetExceeded {
    /// Total events the engine had processed when the watchdog fired.
    pub events: u64,
    /// Simulated time at which the budget ran out.
    pub at: SimTime,
}

impl fmt::Display for EventBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event budget exhausted after {} events at t={}",
            self.events, self.at
        )
    }
}

impl Error for EventBudgetExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = BuildError::DuplicateLink(NodeId::new(1), NodeId::new(2));
        assert_eq!(e.to_string(), "duplicate link between n1 and n2");
        let e = BuildError::EmptyNetwork;
        assert_eq!(e.to_string(), "network has no nodes");
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<BuildError>();
    }
}
