//! # bgp — Border Gateway Protocol (RFC 1771 semantics, shortest-path policy)
//!
//! The third protocol of the study, a path vector: each speaker announces
//! its best AS path per destination over a reliable session, only on
//! change, with explicit withdrawals. The Minimum Route Advertisement
//! Interval (MRAI) spaces consecutive announcements to the same peer;
//! the paper shows this timer — especially at its per-*neighbor* vendor
//! granularity — stretches transient forwarding loops (§5.2), and compares
//! the recommended 30 s mean against a 3 s "BGP-3" variant.
//!
//! ```
//! use bgp::Bgp;
//! use netsim::protocol::RoutingProtocol;
//!
//! assert_eq!(Bgp::new().name(), "bgp");
//! let _fast = Bgp::bgp3();
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod config;
pub mod flap;
pub mod message;
pub mod protocol;
pub mod rib;

pub use config::{BgpConfig, MraiScope};
pub use flap::{FlapConfig, FlapDamper};
pub use message::BgpUpdate;
pub use protocol::Bgp;
pub use rib::{AdjRibIn, AnnounceTable, BestRoute};
