//! # routing-convergence-study
//!
//! Umbrella crate for the reproduction of *"A Study of Packet Delivery
//! Performance during Routing Convergence"* (DSN 2003). It re-exports the
//! workspace crates so the examples and integration tests can address the
//! whole system through one dependency:
//!
//! * [`netsim`] — deterministic packet-level network simulator,
//! * [`topology`] — regular meshes and graph analysis,
//! * [`routing_core`] — shared protocol building blocks,
//! * [`rip`], [`dbf`], [`bgp`], [`spf`] — the routing protocols,
//! * [`convergence`] — the experiment harness and metrics.

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

pub use bgp;
pub use convergence;
pub use dbf;
pub use netsim;
pub use rip;
pub use routing_core;
pub use spf;
pub use topology;
