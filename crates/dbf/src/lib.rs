//! # dbf — Distributed Bellman-Ford with a per-neighbor vector cache
//!
//! The second protocol of the study (Bertsekas & Gallager's algorithm). The
//! single deliberate difference from [`rip`]: every router caches the
//! latest distance vector from each neighbor, so when the best path dies it
//! switches to an alternate next hop *in the same event* — a zero-length
//! path switch-over period (paper §4.1). The alternate need not be the
//! final shortest path; in a well-connected network the packets still
//! arrive while convergence continues in the background.
//!
//! ```
//! use dbf::Dbf;
//! use netsim::protocol::RoutingProtocol;
//!
//! let instance = Dbf::new();
//! assert_eq!(instance.name(), "dbf");
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

pub mod cache;
pub mod config;
pub mod protocol;

pub use cache::NeighborCache;
pub use config::DbfConfig;
pub use protocol::{Dbf, SelectedRoute};
