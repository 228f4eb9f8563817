//! Values in numbered, reusable slots.
//!
//! The engine keeps three kinds of short-lived values in slabs so that
//! the structures that refer to them move a 4-byte slot number instead of
//! the value: the data packets and control messages in flight (see
//! [`crate::link::Frames`]) and the calendar's rare large events (see
//! [`crate::event`]). Pending timers use one too, with a generation per
//! slot on top.

/// A store of values in numbered slots. A removed value's slot goes on a
/// free list and the next insert reuses the slot freed last, so a store
/// that holds a steady number of values stops allocating once it reaches
/// its high-water mark.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    /// `None` marks a free slot.
    slots: Vec<Option<T>>,
    /// The free slots, the one freed last at the end.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value` and returns its slot.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "slot numbers run out only past 2^32 live values, which exhaust memory first"
                )]
                let slot = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    /// The value in `slot`, if the slot is live.
    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// The value in `slot`, if the slot is live.
    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// Takes the value out of `slot` and frees the slot; `None` if the
    /// slot was not live.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<T> {
        let value = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        Some(value)
    }

    /// Frees every slot whose value `keep` rejects, in slot order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for (slot, value) in self.slots.iter_mut().enumerate() {
            if value.as_ref().is_some_and(|v| !keep(v)) {
                *value = None;
                self.free.push(slot as u32);
            }
        }
    }

    /// Number of live slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of slots ever made, live or free: the high-water mark.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_slots_are_reused_last_freed_first() {
        let mut slab = Slab::default();
        let (a, b, c) = (slab.insert('a'), slab.insert('b'), slab.insert('c'));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(slab.remove(a), Some('a'));
        assert_eq!(slab.remove(c), Some('c'));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.insert('d'), c);
        assert_eq!(slab.insert('e'), a);
        assert_eq!(slab.insert('f'), 3);
        assert_eq!(slab.slots(), 4);
        assert_eq!(slab.get(b), Some(&'b'));
    }

    #[test]
    fn a_free_slot_holds_nothing() {
        let mut slab = Slab::default();
        let a = slab.insert(7);
        assert_eq!(slab.remove(a), Some(7));
        assert_eq!(slab.remove(a), None, "a slot is freed once");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.get(99), None);
        assert_eq!(slab.len(), 0);
        // The double remove did not put the slot on the free list twice.
        assert_ne!(slab.insert(8), slab.insert(9));
    }

    #[test]
    fn retain_frees_rejected_values_in_slot_order() {
        let mut slab = Slab::default();
        for v in 0..6 {
            slab.insert(v);
        }
        slab.retain(|v| v % 2 == 0);
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.get(1), None);
        // Slot 5 was freed last, so it is reused first.
        assert_eq!(slab.insert(10), 5);
        assert_eq!(slab.insert(11), 3);
        assert_eq!(slab.insert(12), 1);
        assert_eq!(slab.slots(), 6);
    }
}
