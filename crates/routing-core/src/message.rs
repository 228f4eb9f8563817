//! The distance-vector wire format shared by RIP and DBF.

use netsim::ident::NodeId;
use netsim::protocol::Payload;
use serde::{Deserialize, Serialize};

use crate::inline::InlineVec;
use crate::metric::Metric;

/// Maximum route entries per message (RFC 2453 §3.6: 25 RTEs).
///
/// The paper leans on this constant: a 49-destination network fits in two
/// RIP messages, so a link failure's full impact propagates almost at once,
/// whereas BGP must split updates by path (§5.2).
pub const MAX_ENTRIES_PER_MESSAGE: usize = 25;

/// One route entry: a destination and the advertised distance to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DvEntry {
    /// The advertised destination.
    pub dest: NodeId,
    /// The announcing router's distance (possibly poisoned to infinity).
    pub metric: Metric,
}

/// A distance-vector update message.
///
/// Entries live inline in the message value ([`InlineVec`] sized to the
/// RFC limit), so building, cloning and queuing a message never allocates
/// for entry storage — the ≤25-entry case is the *only* case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DvMessage {
    /// Up to [`MAX_ENTRIES_PER_MESSAGE`] route entries.
    pub entries: InlineVec<DvEntry, MAX_ENTRIES_PER_MESSAGE>,
}

impl DvMessage {
    /// Creates a message from any entry source.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_ENTRIES_PER_MESSAGE`] entries are supplied;
    /// use [`send_packed`] to split larger batches.
    #[must_use]
    pub fn new(entries: impl IntoIterator<Item = DvEntry>) -> Self {
        let entries: InlineVec<DvEntry, MAX_ENTRIES_PER_MESSAGE> = entries.into_iter().collect();
        assert!(
            entries.len() <= MAX_ENTRIES_PER_MESSAGE,
            "message overflow: {} entries",
            entries.len()
        );
        DvMessage { entries }
    }
}

impl Payload for DvMessage {
    /// RIPv2 sizing: 4-byte header + 20 bytes per route entry.
    fn size_bytes(&self) -> usize {
        4 + 20 * self.entries.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Packs `entries` into maximal messages and hands each to `send` as
/// soon as it is full, so an advertisement streams from its source into
/// inline message storage with no intermediate list. Every message but
/// the last holds [`MAX_ENTRIES_PER_MESSAGE`] entries, and no message is
/// empty: an empty source sends nothing.
///
/// # Examples
///
/// ```
/// use routing_core::message::{send_packed, DvEntry, MAX_ENTRIES_PER_MESSAGE};
/// use routing_core::metric::Metric;
/// use netsim::ident::NodeId;
///
/// let entries = (0..60).map(|i| DvEntry { dest: NodeId::new(i), metric: Metric::new(1) });
/// let mut sizes = Vec::new();
/// send_packed(entries, |message| sizes.push(message.entries.len()));
/// assert_eq!(sizes, [MAX_ENTRIES_PER_MESSAGE, MAX_ENTRIES_PER_MESSAGE, 10]);
/// ```
pub fn send_packed(entries: impl IntoIterator<Item = DvEntry>, mut send: impl FnMut(DvMessage)) {
    let mut batch: InlineVec<DvEntry, MAX_ENTRIES_PER_MESSAGE> = InlineVec::new();
    for entry in entries {
        batch.push(entry);
        if batch.len() == MAX_ENTRIES_PER_MESSAGE {
            send(DvMessage {
                entries: std::mem::take(&mut batch),
            });
        }
    }
    if !batch.is_empty() {
        send(DvMessage { entries: batch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(i: u32) -> DvEntry {
        DvEntry {
            dest: NodeId::new(i),
            metric: Metric::new(i),
        }
    }

    #[test]
    fn sizes_match_ripv2() {
        assert_eq!(DvMessage::new(vec![]).size_bytes(), 4);
        assert_eq!(DvMessage::new(vec![entry(0)]).size_bytes(), 24);
        let full = DvMessage::new((0..25).map(entry));
        assert_eq!(full.size_bytes(), 504);
    }

    /// The messages `send_packed` sends for `entries`, in order.
    fn packed(entries: impl IntoIterator<Item = DvEntry>) -> Vec<DvMessage> {
        let mut messages = Vec::new();
        send_packed(entries, |m| messages.push(m));
        messages
    }

    #[test]
    fn packing_preserves_order_and_contents() {
        let packed = packed((0..30).map(entry));
        assert_eq!(packed.len(), 2);
        let flat: Vec<DvEntry> = packed.into_iter().flat_map(|m| m.entries).collect();
        assert_eq!(flat, (0..30).map(entry).collect::<Vec<_>>());
    }

    #[test]
    fn packing_empty_produces_no_messages() {
        assert!(packed(vec![]).is_empty());
    }

    #[test]
    fn exact_multiple_has_no_trailing_empty_message() {
        let packed = packed((0..50).map(entry));
        assert_eq!(packed.len(), 2);
        assert!(packed.iter().all(|m| m.entries.len() == 25));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn send_packed_streams_the_input_in_full_messages(count in 0u32..81) {
            let input: Vec<DvEntry> = (0..count).map(entry).collect();
            let messages = packed(input.iter().copied());
            prop_assert!(messages.iter().all(|m| !m.entries.is_empty()));
            prop_assert!(messages.iter().all(|m| m.entries.len() <= MAX_ENTRIES_PER_MESSAGE));
            let full = messages.len().saturating_sub(1);
            prop_assert!(messages[..full]
                .iter()
                .all(|m| m.entries.len() == MAX_ENTRIES_PER_MESSAGE));
            let flat: Vec<DvEntry> = messages.into_iter().flat_map(|m| m.entries).collect();
            prop_assert_eq!(flat, input);
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn oversized_message_is_rejected() {
        let _ = DvMessage::new((0..26).map(entry));
    }
}
