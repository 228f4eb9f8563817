//! Dense, node-indexed containers for protocol hot paths.
//!
//! The simulated node space is dense (`NodeId` 0..N assigned by the
//! builder), so per-neighbor and per-destination protocol state never
//! needs an ordered tree: a `Vec` indexed by `NodeId` gives O(1) access
//! with no per-entry allocation and no pointer chasing. [`DenseMap`] and
//! [`DenseSet`] are drop-in replacements for the `BTreeMap<NodeId, V>` /
//! `BTreeSet<NodeId>` they displace: iteration is always in ascending
//! id order, so every send loop and tie-break that used to rely on tree
//! order is byte-identical under the dense representation.
//!
//! [`DenseMap`] also keeps a sorted index of occupied ids, so iteration
//! costs O(occupied) rather than O(id-space) — a map holding a node's 4
//! neighbors out of 49 ids visits 4 entries, not 49 slots. Maintaining the
//! index costs a binary search on insert/remove of a *new* id, which
//! protocol tables do rarely (link events), while they look up and iterate
//! constantly.
//!
//! [`DenseSet`] is a bitset of `u64` words: insert, remove and membership
//! are one word operation each, and iteration walks the words, skipping
//! 64 absent ids per empty word. BGP's MRAI pending sets insert on every
//! deferred update, so the set keeps no sorted index to shift.

use std::fmt;

use crate::ident::NodeId;

/// A map keyed by [`NodeId`] over a dense id space, stored as a slot
/// vector.
///
/// Iteration order is ascending node id — the same order a
/// `BTreeMap<NodeId, V>` yields — which is what keeps deterministic
/// traces byte-identical when protocol tables migrate to this type.
///
/// # Examples
///
/// ```
/// use netsim::dense::DenseMap;
/// use netsim::ident::NodeId;
///
/// let mut m: DenseMap<&str> = DenseMap::new();
/// m.insert(NodeId::new(3), "c");
/// m.insert(NodeId::new(1), "a");
/// let keys: Vec<NodeId> = m.keys().collect();
/// assert_eq!(keys, vec![NodeId::new(1), NodeId::new(3)]);
/// assert_eq!(m.get(NodeId::new(1)), Some(&"a"));
/// ```
#[derive(Clone)]
pub struct DenseMap<V> {
    slots: Vec<Option<V>>,
    /// Sorted indices of occupied slots (the iteration order).
    keys: Vec<u32>,
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        DenseMap::new()
    }
}

impl<V> DenseMap<V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        DenseMap {
            slots: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// An empty map with room for ids `0..n` without reallocation.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        DenseMap {
            slots: Vec::with_capacity(n),
            keys: Vec::new(),
        }
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no entry is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Inserts or replaces the value for `id`, returning the old value.
    pub fn insert(&mut self, id: NodeId, value: V) -> Option<V> {
        let ix = id.index();
        if ix >= self.slots.len() {
            self.slots.resize_with(ix + 1, || None);
        }
        let old = self.slots[ix].replace(value);
        if old.is_none() {
            index_insert(&mut self.keys, ix);
        }
        old
    }

    /// The value for `id`, if present.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&V> {
        self.slots.get(id.index())?.as_ref()
    }

    /// Mutable access to the value for `id`, if present.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut V> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    /// Mutable access to the value for `id`, inserting `default()` first
    /// when the slot is vacant (the `entry(..).or_insert_with(..)` idiom).
    pub fn get_or_insert_with(&mut self, id: NodeId, default: impl FnOnce() -> V) -> &mut V {
        let ix = id.index();
        if ix >= self.slots.len() {
            self.slots.resize_with(ix + 1, || None);
        }
        let slot = &mut self.slots[ix];
        if slot.is_none() {
            index_insert(&mut self.keys, ix);
        }
        slot.get_or_insert_with(default)
    }

    /// Removes and returns the value for `id`.
    pub fn remove(&mut self, id: NodeId) -> Option<V> {
        let ix = id.index();
        let old = self.slots.get_mut(ix)?.take();
        if old.is_some() {
            if let Ok(pos) = self.keys.binary_search(&(ix as u32)) {
                self.keys.remove(pos);
            }
        }
        old
    }

    /// Whether `id` has a value.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for &ix in &self.keys {
            self.slots[ix as usize] = None;
        }
        self.keys.clear();
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting
    /// them in ascending id order.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &mut V) -> bool) {
        let slots = &mut self.slots;
        self.keys.retain(|&ix| {
            let slot = &mut slots[ix as usize];
            let kept = slot
                .as_mut()
                .is_some_and(|value| keep(NodeId::new(ix), value));
            if !kept {
                *slot = None;
            }
            kept
        });
    }

    /// Iterates `(id, &value)` pairs in ascending id order — O(occupied),
    /// not O(id-space): only the occupied-key index is walked.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.keys.iter().filter_map(|&ix| {
            self.slots[ix as usize]
                .as_ref()
                .map(|v| (NodeId::new(ix), v))
        })
    }

    /// Iterates `(id, &mut value)` pairs in ascending id order.
    ///
    /// Scans the slot vector (O(id-space)): handing out disjoint `&mut`
    /// borrows through the key index would need unsafe slot splitting,
    /// and no caller is hot enough to warrant it.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(ix, slot)| slot.as_mut().map(|v| (NodeId::new(ix as u32), v)))
    }

    /// Iterates occupied ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Iterates values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

/// Marks `ix` occupied in a sorted key index.
fn index_insert(keys: &mut Vec<u32>, ix: usize) {
    let ix = ix as u32;
    if let Err(pos) = keys.binary_search(&ix) {
        keys.insert(pos, ix);
    }
}

impl<V: fmt::Debug> fmt::Debug for DenseMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: PartialEq> PartialEq for DenseMap<V> {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality: trailing vacant slots left by removals must
        // not distinguish two maps with the same entries.
        self.keys == other.keys && self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for DenseMap<V> {}

impl<V> FromIterator<(NodeId, V)> for DenseMap<V> {
    fn from_iter<I: IntoIterator<Item = (NodeId, V)>>(iter: I) -> Self {
        let mut map = DenseMap::new();
        for (id, value) in iter {
            map.insert(id, value);
        }
        map
    }
}

/// A set of [`NodeId`]s over a dense id space, stored as a bitset of
/// `u64` words with a member count. Iteration is in ascending id order,
/// matching `BTreeSet<NodeId>`.
#[derive(Clone, Default)]
pub struct DenseSet {
    /// Bit `ix % 64` of `words[ix / 64]` is set iff id `ix` is a member.
    words: Vec<u64>,
    len: usize,
}

impl DenseSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        DenseSet::default()
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `id`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (word, mask) = word_and_mask(id);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; returns `true` if it was a member.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (word, mask) = word_and_mask(id);
        let Some(bits) = self.words.get_mut(word) else {
            return false;
        };
        let was = *bits & mask != 0;
        *bits &= !mask;
        self.len -= usize::from(was);
        was
    }

    /// Whether `id` is a member.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        let (word, mask) = word_and_mask(id);
        self.words.get(word).is_some_and(|bits| bits & mask != 0)
    }

    /// Drops every member, keeping the allocation.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(word, &bits)| {
            let base = (word * 64) as u32;
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    NodeId::new(base + bit)
                })
            })
        })
    }
}

/// The word index and bit mask of `id` in a [`DenseSet`].
fn word_and_mask(id: NodeId) -> (usize, u64) {
    let ix = id.index();
    (ix / 64, 1 << (ix % 64))
}

impl fmt::Debug for DenseSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq for DenseSet {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality: words emptied by removals must not
        // distinguish two sets with the same members.
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for DenseSet {}

impl FromIterator<NodeId> for DenseSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = DenseSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn map_iterates_in_id_order() {
        let mut m = DenseMap::new();
        m.insert(n(7), 'c');
        m.insert(n(0), 'a');
        m.insert(n(3), 'b');
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(n(0), &'a'), (n(3), &'b'), (n(7), &'c')]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn map_insert_remove_round_trip() {
        let mut m = DenseMap::new();
        assert_eq!(m.insert(n(2), 10), None);
        assert_eq!(m.insert(n(2), 11), Some(10));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(n(2)), Some(11));
        assert_eq!(m.remove(n(2)), None);
        assert!(m.is_empty());
        assert_eq!(m.get(n(99)), None);
    }

    #[test]
    fn map_get_or_insert_with_fills_vacant_slots() {
        let mut m: DenseMap<Vec<u32>> = DenseMap::new();
        m.get_or_insert_with(n(4), Vec::new).push(1);
        m.get_or_insert_with(n(4), Vec::new).push(2);
        assert_eq!(m.get(n(4)), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_equality_ignores_trailing_vacancies() {
        let mut a = DenseMap::new();
        a.insert(n(1), 5);
        a.insert(n(9), 6);
        a.remove(n(9));
        let mut b = DenseMap::new();
        b.insert(n(1), 5);
        assert_eq!(a, b);
        b.insert(n(2), 7);
        assert_ne!(a, b);
    }

    #[test]
    fn map_retain_visits_in_order() {
        let mut m: DenseMap<u32> = (0..6).map(|i| (n(i), i)).collect();
        let mut seen = Vec::new();
        m.retain(|id, v| {
            seen.push(id);
            *v % 2 == 0
        });
        assert_eq!(seen, (0..6).map(n).collect::<Vec<_>>());
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![n(0), n(2), n(4)]);
    }

    #[test]
    fn set_behaves_like_btreeset() {
        let mut s = DenseSet::new();
        assert!(s.insert(n(5)));
        assert!(!s.insert(n(5)));
        assert!(s.insert(n(1)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![n(1), n(5)]);
        assert!(s.contains(n(1)));
        assert!(!s.contains(n(2)));
        assert!(s.remove(n(1)));
        assert!(!s.remove(n(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_equality_is_logical() {
        let mut a = DenseSet::new();
        a.insert(n(3));
        a.insert(n(40));
        a.remove(n(40));
        let b: DenseSet = [n(3)].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn map_clear_keeps_nothing() {
        let mut m: DenseMap<u8> = (0..4).map(|i| (n(i), i as u8)).collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
    }
}
