//! # dual — a loop-free distance vector with diffusing computations
//!
//! The comparator discussed in the paper's §2 and conclusion
//! (Garcia-Luna-Aceves' DUAL, the algorithm inside EIGRP): instead of
//! preventing loops probabilistically (split horizon) or detecting them
//! after the fact (AS paths), DUAL maintains a *feasibility condition* —
//! only neighbors whose reported distance is strictly below the node's
//! feasible distance may become successors — and, when no neighbor
//! qualifies, runs a *diffusing computation*: the route is frozen
//! (unreachable) while queries propagate outward and replies unwind back.
//!
//! The paper's claim to test: this "eliminates routing loops by paying a
//! high cost of delaying routing updates and stopping packet delivery
//! during convergence". The `ext_dual` bench measures exactly that
//! trade-off against DBF and BGP.
//!
//! ```
//! use dual::Dual;
//! use netsim::protocol::RoutingProtocol;
//!
//! assert_eq!(Dual::new().name(), "dual");
//! ```

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

pub mod message;
pub mod protocol;
pub mod table;

pub use message::{DualEntry, DualKind, DualMessage};
pub use protocol::{Dual, DualConfig};
pub use table::{DualRoute, DualState};
