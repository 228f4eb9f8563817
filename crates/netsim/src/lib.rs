//! # netsim — a deterministic packet-level network simulator
//!
//! This crate is the substrate beneath the routing-convergence study: a
//! discrete-event simulator playing the role of IRLSim in the original
//! paper. It models routers with forwarding tables, links with bandwidth,
//! propagation delay and drop-tail queues, hop-by-hop IP-style forwarding
//! with TTL, link failures with detection latency, and an event-driven
//! hosting interface for routing protocols.
//!
//! Runs are bit-for-bit reproducible: simulated time is integer nanoseconds,
//! event ties break in schedule order, and all randomness flows from one
//! seeded generator.
//!
//! ## Quickstart
//!
//! ```
//! use netsim::link::LinkConfig;
//! use netsim::simulator::SimulatorBuilder;
//! use netsim::time::SimTime;
//! use netsim::ident::NodeId;
//! use netsim::protocol::RoutingProtocol;
//!
//! /// A protocol that statically routes everything to its first neighbor.
//! struct Hotwire;
//! impl RoutingProtocol for Hotwire {
//!     fn name(&self) -> &'static str { "hotwire" }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn on_start(&mut self, ctx: &mut netsim::simulator::ProtocolContext<'_>) {
//!         if let Some(next) = ctx.peers().first().map(|p| p.neighbor) {
//!             for d in 0..ctx.num_nodes() {
//!                 let dest = NodeId::new(d as u32);
//!                 if dest != ctx.node() { ctx.install_route(dest, next); }
//!             }
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), netsim::error::BuildError> {
//! let mut b = SimulatorBuilder::new();
//! let n0 = b.add_node();
//! let n1 = b.add_node();
//! b.add_link(n0, n1, LinkConfig::default())?;
//! let mut sim = b.build()?;
//! sim.install_protocol(n0, Box::new(Hotwire))?;
//! sim.install_protocol(n1, Box::new(Hotwire))?;
//! sim.start();
//! sim.schedule_default_packet(SimTime::from_millis(10), n0, n1);
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.stats().packets_delivered, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod app;
pub mod dense;
pub mod error;
pub mod event;
pub mod fib;
pub mod ident;
pub mod impairment;
pub mod link;
pub mod packet;
pub mod protocol;
pub mod rng;
pub mod simulator;
pub mod time;
mod timers;
pub mod trace;

pub use app::AppAgent;
pub use dense::{DenseMap, DenseSet};
pub use error::{BuildError, EventBudgetExceeded};
pub use fib::Fib;
pub use ident::{ChannelId, LinkId, NodeId, PacketId};
pub use impairment::Impairment;
pub use link::LinkConfig;
pub use packet::{DropReason, Packet, DEFAULT_TTL};
pub use protocol::{Payload, RoutingProtocol, SharedPayload, TimerId, TimerToken};
pub use rng::SimRng;
pub use simulator::{
    AppContext, CbrSource, ForwardingPath, Peer, ProtocolContext, SimStats, Simulator,
    SimulatorBuilder,
};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
