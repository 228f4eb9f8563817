//! Identifiers for simulated objects.
//!
//! All identifiers are small dense integers assigned by the
//! [`SimulatorBuilder`](crate::simulator::SimulatorBuilder); they double as
//! indices into the simulator's internal arenas.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a router in the simulated network.
///
/// In this study every node is simultaneously a router and a destination
/// (the paper models one router per autonomous system).
///
/// # Examples
///
/// ```
/// use netsim::ident::NodeId;
///
/// let n = NodeId::new(7);
/// assert_eq!(n.index(), 7);
/// assert_eq!(n.to_string(), "n7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

/// Identifier of an undirected link (a pair of directed channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(u32);

/// Identifier of one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(u32);

/// Identifier of a data packet, unique within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(u64);

macro_rules! impl_id {
    ($ty:ident, $raw:ty, $prefix:literal) => {
        impl $ty {
            /// Creates an identifier from a raw index.
            #[must_use]
            pub const fn new(index: $raw) -> Self {
                $ty(index)
            }

            /// Returns the raw index.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw value the identifier was created from.
            #[must_use]
            pub const fn raw(self) -> $raw {
                self.0
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$raw> for $ty {
            fn from(raw: $raw) -> Self {
                $ty(raw)
            }
        }
    };
}

impl_id!(NodeId, u32, "n");
impl_id!(LinkId, u32, "l");
impl_id!(ChannelId, u32, "c");
impl_id!(PacketId, u64, "p");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_index() {
        assert_eq!(NodeId::new(3).index(), 3);
        assert_eq!(LinkId::new(9).index(), 9);
        assert_eq!(ChannelId::new(11).index(), 11);
        assert_eq!(PacketId::new(1 << 40).index(), 1 << 40);
    }

    #[test]
    fn display_prefixes_distinguish_kinds() {
        assert_eq!(NodeId::new(1).to_string(), "n1");
        assert_eq!(LinkId::new(1).to_string(), "l1");
        assert_eq!(ChannelId::new(1).to_string(), "c1");
        assert_eq!(PacketId::new(1).to_string(), "p1");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(PacketId::new(5) > PacketId::new(4));
    }
}
