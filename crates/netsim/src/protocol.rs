//! The interface between the simulator and a routing protocol
//! implementation.
//!
//! A protocol instance runs on every node. The simulator calls the
//! [`RoutingProtocol`] event handlers; the protocol reacts through the
//! [`ProtocolContext`] it is handed:
//! sending control messages to neighbors, arming timers, and installing or
//! removing forwarding (FIB) entries.
//!
//! A run is single-threaded: a simulator, its protocols and every payload
//! in flight stay on the thread that built them, so payloads are shared
//! through `Rc` ([`SharedPayload`]).

use std::any::Any;
use std::fmt;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::ident::NodeId;
use crate::simulator::ProtocolContext;

/// A protocol-defined timer discriminator.
///
/// The simulator treats the token as opaque and returns it verbatim in
/// [`RoutingProtocol::on_timer`]. Protocols typically encode a timer kind
/// (and, if needed, a neighbor or destination index) into the 64 bits.
///
/// # Examples
///
/// ```
/// use netsim::protocol::TimerToken;
///
/// const KIND_PERIODIC: u64 = 1;
/// let token = TimerToken::compose(KIND_PERIODIC, 42);
/// assert_eq!(token.kind(), KIND_PERIODIC);
/// assert_eq!(token.arg(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TimerToken(pub u64);

impl TimerToken {
    /// Packs a timer kind (high 16 bits) and argument (low 48 bits).
    ///
    /// # Panics
    ///
    /// Panics if `kind >= 2^16` or `arg >= 2^48`.
    #[must_use]
    pub fn compose(kind: u64, arg: u64) -> Self {
        assert!(kind < (1 << 16), "timer kind {kind} out of range");
        assert!(arg < (1 << 48), "timer arg {arg} out of range");
        TimerToken((kind << 48) | arg)
    }

    /// The kind component packed by [`TimerToken::compose`].
    #[must_use]
    pub fn kind(self) -> u64 {
        self.0 >> 48
    }

    /// The argument component packed by [`TimerToken::compose`].
    #[must_use]
    pub fn arg(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

/// Handle to a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// A control-plane message payload.
///
/// Implemented by each protocol's message type. The simulator only needs the
/// wire size (for serialization delay) and a debug representation; receivers
/// downcast via [`Payload::as_any`].
pub trait Payload: fmt::Debug + Any {
    /// Encoded size in bytes, used to compute transmission delay.
    fn size_bytes(&self) -> usize;

    /// Upcast for downcasting by the receiving protocol.
    fn as_any(&self) -> &dyn Any;
}

/// A reference-counted payload handle, the unit of control-plane fan-out.
///
/// Protocols that flood one update to several neighbors build the payload
/// once and clone this handle per send; the frames in flight all point at
/// the same allocation.
///
/// The count is an `Rc`'s, not an `Arc`'s: `Payload` is not `Send`, so a
/// payload could never cross threads anyway, and a run never leaves the
/// thread that built it (parallel sweeps move only finished results).
/// Atomic counts would make every clone and drop a locked operation on a
/// cold cache line for nothing. Parallelism inside one run would have to
/// revisit this.
pub type SharedPayload = Rc<dyn Payload>;

/// A routing protocol instance hosted on one node.
///
/// All methods have empty default implementations so protocols only
/// implement the events they care about. Handlers must not assume wall-clock
/// time; everything is driven by simulated time through the context.
pub trait RoutingProtocol {
    /// A short, stable name used in traces and reports (e.g. `"rip"`).
    fn name(&self) -> &'static str;

    /// Upcast, so forensic tooling can downcast to the concrete protocol
    /// and inspect its tables after (or during) a run.
    fn as_any(&self) -> &dyn Any;

    /// Called once when the simulation starts, before any other event.
    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        let _ = ctx;
    }

    /// Called when a control message from `from` arrives at this node.
    fn on_message(&mut self, ctx: &mut ProtocolContext<'_>, from: NodeId, payload: &dyn Payload) {
        let _ = (ctx, from, payload);
    }

    /// Called when a timer armed through the context fires.
    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        let _ = (ctx, token);
    }

    /// Called when this node detects that its link to `neighbor` went down.
    ///
    /// Detection happens a configurable delay after the physical failure;
    /// packets forwarded onto the link in between are lost.
    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        let _ = (ctx, neighbor);
    }

    /// Called when this node detects that its link to `neighbor` came up.
    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        let _ = (ctx, neighbor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_compose_round_trips() {
        let t = TimerToken::compose(3, 0xdead_beef);
        assert_eq!(t.kind(), 3);
        assert_eq!(t.arg(), 0xdead_beef);
    }

    #[test]
    fn token_compose_max_values() {
        let t = TimerToken::compose((1 << 16) - 1, (1 << 48) - 1);
        assert_eq!(t.kind(), (1 << 16) - 1);
        assert_eq!(t.arg(), (1 << 48) - 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn token_compose_rejects_large_kind() {
        let _ = TimerToken::compose(1 << 16, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn token_compose_rejects_large_arg() {
        let _ = TimerToken::compose(0, 1 << 48);
    }
}
