//! Pending-timer bookkeeping: a generational slot slab.
//!
//! Every protocol message arrival re-arms at least one timer, so timer
//! insert/cancel sits on the hot path. The old `BTreeMap<u64, entry>`
//! allocated a tree node per pending timer and paid a log-time walk per
//! operation; the slab stores entries in recycled `Vec` slots with O(1)
//! arm, cancel and fire. A [`TimerId`] packs the slot index (low 32
//! bits) with a per-slot generation (high 32 bits), so a stale id —
//! a fired event for a cancelled timer whose slot was since reused —
//! never matches the new occupant.
//!
//! # Re-arming in place
//!
//! A timer that is re-armed before it fires keeps its id and its slot.
//! Each entry records two calendar keys: `due`, the `(time, seq)` at
//! which it fires, and `queued`, the key of the one `TimerFired` event
//! that currently stands for it. The re-arm takes its sequence number
//! exactly where a fresh `set_timer` would, so `due` is the key the
//! cancel-and-set pattern would have given the replacement timer. A later
//! deadline only moves `due`; an earlier one pushes a new event, and the
//! old one goes stale. When a `TimerFired` pops, [`TimerSlab::on_pop`]
//! sorts it into one of three cases: stale (not the `queued` key, or the
//! timer is gone), moved (re-push under `due`), or due (fire). The
//! timer therefore fires at its `due` key, the same place in the total
//! event order as under cancel-and-set, while a run of refreshes costs
//! one calendar event instead of one tombstone each.

use crate::event::EventKey;
use crate::ident::NodeId;
use crate::protocol::{TimerId, TimerToken};
use crate::slab::Slab;

/// Whether a pending timer belongs to the node's routing protocol or its
/// application agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerTarget {
    Protocol,
    App,
}

/// One armed timer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerEntry {
    pub(crate) owner: NodeId,
    pub(crate) token: TimerToken,
    pub(crate) target: TimerTarget,
    /// The calendar key at which the timer fires.
    pub(crate) due: EventKey,
    /// The key of the calendar event that currently stands for the timer;
    /// never later than `due`.
    pub(crate) queued: EventKey,
}

/// What a popped `TimerFired` event means for its timer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TimerPop {
    /// The timer was cancelled, has fired, or is now stood for by another
    /// event: nothing happens.
    Stale,
    /// The timer was re-armed to a later key while this event was
    /// pending: re-push the event under `due`.
    Moved(EventKey),
    /// The timer fires; it is disarmed.
    Fire(TimerEntry),
}

/// Slot-recycling store of armed timers.
#[derive(Debug, Default)]
pub(crate) struct TimerSlab {
    slots: Slab<TimerEntry>,
    /// Bumped each time a slot is re-armed, invalidating stale ids.
    gens: Vec<u32>,
}

impl TimerSlab {
    pub(crate) fn new() -> Self {
        TimerSlab::default()
    }

    /// Arms a timer, returning its id.
    pub(crate) fn insert(&mut self, entry: TimerEntry) -> TimerId {
        let slot = self.slots.insert(entry);
        let gen = match self.gens.get_mut(slot as usize) {
            Some(gen) => {
                *gen = gen.wrapping_add(1);
                *gen
            }
            None => {
                self.gens.push(0);
                0
            }
        };
        TimerId((u64::from(gen) << 32) | u64::from(slot))
    }

    /// The slot of `id` if that timer is still armed.
    fn armed_slot(&self, id: TimerId) -> Option<u32> {
        let slot = (id.0 & u64::from(u32::MAX)) as u32;
        let gen = (id.0 >> 32) as u32;
        let armed = self.gens.get(slot as usize) == Some(&gen) && self.slots.get(slot).is_some();
        armed.then_some(slot)
    }

    /// The entry of `id`, if that timer is still armed.
    pub(crate) fn get_mut(&mut self, id: TimerId) -> Option<&mut TimerEntry> {
        let slot = self.armed_slot(id)?;
        self.slots.get_mut(slot)
    }

    /// Disarms `id` and returns its entry; `None` when the timer already
    /// fired, was cancelled, or the slot was reused since.
    pub(crate) fn take(&mut self, id: TimerId) -> Option<TimerEntry> {
        let slot = self.armed_slot(id)?;
        self.slots.remove(slot)
    }

    /// Classifies the `TimerFired` event for `id` popped under `key` (see
    /// the module docs); a moved timer's `queued` key becomes its `due`.
    pub(crate) fn on_pop(&mut self, id: TimerId, key: EventKey) -> TimerPop {
        let Some(entry) = self.get_mut(id) else {
            return TimerPop::Stale;
        };
        if key != entry.queued {
            TimerPop::Stale
        } else if key != entry.due {
            entry.queued = entry.due;
            TimerPop::Moved(entry.due)
        } else {
            self.take(id).map_or(TimerPop::Stale, TimerPop::Fire)
        }
    }

    /// Disarms every timer for which `keep` returns `false` (node crash:
    /// the dying instance's timers go with it). Visits slots in index
    /// order.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&TimerEntry) -> bool) {
        self.slots.retain(keep);
    }

    /// Number of currently armed timers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(secs: u64, seq: u64) -> EventKey {
        (crate::time::SimTime::from_secs(secs), seq)
    }

    fn entry(owner: u32, token: u64) -> TimerEntry {
        TimerEntry {
            owner: NodeId::new(owner),
            token: TimerToken(token),
            target: TimerTarget::Protocol,
            due: key(1, 0),
            queued: key(1, 0),
        }
    }

    #[test]
    fn arm_fire_round_trip() {
        let mut slab = TimerSlab::new();
        let id = slab.insert(entry(1, 42));
        let fired = slab.take(id).expect("armed timer fires");
        assert_eq!(fired.owner, NodeId::new(1));
        assert_eq!(fired.token, TimerToken(42));
        assert!(slab.take(id).is_none(), "second take is a no-op");
    }

    #[test]
    fn slots_are_recycled_without_id_collisions() {
        let mut slab = TimerSlab::new();
        let a = slab.insert(entry(1, 1));
        assert!(slab.take(a).is_some());
        let b = slab.insert(entry(2, 2));
        assert_ne!(a, b, "recycled slot must carry a new generation");
        // The stale id cannot cancel the slot's new occupant.
        assert!(slab.take(a).is_none());
        assert_eq!(slab.take(b).expect("b armed").owner, NodeId::new(2));
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn retain_disarms_matching_timers() {
        let mut slab = TimerSlab::new();
        let a = slab.insert(entry(1, 1));
        let b = slab.insert(entry(2, 2));
        slab.retain(|e| e.owner != NodeId::new(1));
        assert!(slab.take(a).is_none());
        assert!(slab.take(b).is_some());
    }

    #[test]
    fn pops_sort_into_stale_moved_and_fire() {
        let mut slab = TimerSlab::new();
        let id = slab.insert(entry(1, 7));
        // Re-armed later while the event at (1 s, 0) is pending.
        slab.get_mut(id).unwrap().due = key(3, 5);
        // Some other event for the id (an earlier, superseded one) is stale.
        assert!(matches!(slab.on_pop(id, key(0, 9)), TimerPop::Stale));
        assert!(matches!(slab.on_pop(id, key(1, 0)), TimerPop::Moved(k) if k == key(3, 5)));
        // The re-pushed event now stands for the timer; the old key is stale.
        assert!(matches!(slab.on_pop(id, key(1, 0)), TimerPop::Stale));
        match slab.on_pop(id, key(3, 5)) {
            TimerPop::Fire(fired) => assert_eq!(fired.token, TimerToken(7)),
            other => panic!("expected the timer to fire, got {other:?}"),
        }
        assert!(
            matches!(slab.on_pop(id, key(3, 5)), TimerPop::Stale),
            "fires once"
        );
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn high_slot_churn_stays_compact() {
        let mut slab = TimerSlab::new();
        for i in 0..1000 {
            let id = slab.insert(entry(0, i));
            assert!(slab.take(id).is_some());
        }
        assert_eq!(slab.slots.slots(), 1, "one slot recycled a thousand times");
    }
}
