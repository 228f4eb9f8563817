//! # rip — Routing Information Protocol (RFC 2453 semantics)
//!
//! One of the three protocols of the study. Characteristics relevant to
//! packet delivery during convergence (paper §3/§4):
//!
//! * keeps **only the best route** per destination — after the next hop
//!   fails, nothing is known until a neighbor's next periodic update, so
//!   the path switch-over period can approach the 30 s update interval;
//! * full-table **periodic updates every 30 s**, triggered updates on
//!   change damped by a uniform 1–5 s timer;
//! * **split horizon with poisoned reverse**, metric saturating at 16;
//! * up to 25 destinations per message.
//!
//! ```
//! use rip::Rip;
//! use netsim::protocol::RoutingProtocol;
//!
//! let instance = Rip::new();
//! assert_eq!(instance.name(), "rip");
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

pub mod config;
pub mod protocol;
pub mod table;

pub use config::{RipConfig, SplitHorizon};
pub use protocol::{Rip, RipRequest};
pub use table::{RipTable, Route};
