//! # spf — a link-state shortest-path-first protocol
//!
//! The paper's §6 names link-state protocols as the next family to compare;
//! this crate provides that extension: LSA flooding with sequence numbers,
//! a link-state database with two-way connectivity checking, throttled
//! Dijkstra recomputation, and FIB installation.
//!
//! ```
//! use spf::Spf;
//! use netsim::protocol::RoutingProtocol;
//!
//! assert_eq!(Spf::new().name(), "spf");
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

pub mod lsdb;
pub mod protocol;

pub use lsdb::{LinkStateDb, Lsa};
pub use protocol::{LsaMessage, Spf, SpfConfig};
