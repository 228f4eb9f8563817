//! Data packets and the taxonomy of packet drops.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ident::{NodeId, PacketId};
use crate::time::SimTime;

/// The default IP TTL used by the study's traffic sources.
pub const DEFAULT_TTL: u8 = 127;

/// A data packet traversing the simulated network hop by hop.
///
/// # Examples
///
/// ```
/// use netsim::packet::{Packet, DEFAULT_TTL};
/// use netsim::ident::{NodeId, PacketId};
/// use netsim::time::SimTime;
///
/// let p = Packet::new(PacketId::new(0), NodeId::new(0), NodeId::new(48),
///                     SimTime::from_secs(40), 1000);
/// assert_eq!(p.ttl, DEFAULT_TTL);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique identifier within the run.
    pub id: PacketId,
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Remaining time-to-live; decremented at every forwarding hop.
    pub ttl: u8,
    /// Number of hops traversed so far.
    pub hops: u32,
    /// The simulated time at which the source injected the packet.
    pub sent_at: SimTime,
    /// Payload size in bytes (used for serialization delay).
    pub size_bytes: u32,
    /// Opaque application tag (0 for plain traffic); transports encode
    /// flow ids, sequence numbers and ACK flags here.
    pub tag: u64,
}

impl Packet {
    /// Creates a packet with the study's default TTL of 127.
    #[must_use]
    pub fn new(id: PacketId, src: NodeId, dst: NodeId, sent_at: SimTime, size_bytes: u32) -> Self {
        Packet {
            id,
            src,
            dst,
            ttl: DEFAULT_TTL,
            hops: 0,
            sent_at,
            size_bytes,
            tag: 0,
        }
    }

    /// Creates a packet with an explicit TTL.
    #[must_use]
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Attaches an application tag.
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// Why a data packet was discarded.
///
/// These categories drive the paper's Figures 3 and 4: `NoRoute` counts the
/// "drops due to no reachability" of §5.1 and `TtlExpired` the loop-induced
/// drops of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// The router had no forwarding entry for the destination
    /// (the path switch-over period of §4.1).
    NoRoute,
    /// The TTL reached zero, i.e. the packet was caught in a transient
    /// forwarding loop (§5.2).
    TtlExpired,
    /// The packet was transmitted onto a link that had failed but whose
    /// failure had not yet been detected (Figure 1(b) of the paper).
    LinkDown,
    /// The output queue was full (drop-tail).
    QueueOverflow,
    /// The frame was lost to a stochastic link impairment
    /// (see [`crate::impairment::Impairment`]).
    Impaired,
}

impl DropReason {
    /// All drop reasons, in reporting order.
    pub const ALL: [DropReason; 5] = [
        DropReason::NoRoute,
        DropReason::TtlExpired,
        DropReason::LinkDown,
        DropReason::QueueOverflow,
        DropReason::Impaired,
    ];
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DropReason::NoRoute => "no-route",
            DropReason::TtlExpired => "ttl-expired",
            DropReason::LinkDown => "link-down",
            DropReason::QueueOverflow => "queue-overflow",
            DropReason::Impaired => "impaired",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::new(
            PacketId::new(1),
            NodeId::new(0),
            NodeId::new(5),
            SimTime::from_secs(1),
            1000,
        )
    }

    #[test]
    fn new_packet_has_default_ttl_and_zero_hops() {
        let p = sample();
        assert_eq!(p.ttl, DEFAULT_TTL);
        assert_eq!(p.hops, 0);
    }

    #[test]
    fn with_ttl_overrides() {
        assert_eq!(sample().with_ttl(4).ttl, 4);
    }

    #[test]
    fn tags_default_to_zero() {
        assert_eq!(sample().tag, 0);
        assert_eq!(sample().with_tag(99).tag, 99);
    }

    #[test]
    fn drop_reason_display_names_are_stable() {
        let names: Vec<String> = DropReason::ALL.iter().map(|r| r.to_string()).collect();
        assert_eq!(
            names,
            [
                "no-route",
                "ttl-expired",
                "link-down",
                "queue-overflow",
                "impaired"
            ]
        );
    }
}
