//! A fixed-capacity small vector with heap spill-over.
//!
//! Protocol messages are overwhelmingly short — a distance-vector update
//! carries at most 25 entries (RFC 2453 §3.6) and a BGP update usually
//! announces a handful of destinations — yet storing them in a `Vec`
//! costs a heap allocation per message on the simulator's hottest path.
//! [`InlineVec<T, N>`] keeps the first `N` elements inline in the value
//! itself and only touches the heap past that, so the common short
//! message never allocates for its element storage at all.
//!
//! The implementation is `unsafe`-free (slots are `Option<T>`), which
//! costs a discriminant per inline element — an explicit trade against
//! the `#![forbid(unsafe_code)]` every crate root carries.

use std::fmt;

/// A vector that stores up to `N` elements inline and spills the rest to
/// the heap.
///
/// # Examples
///
/// ```
/// use routing_core::inline::InlineVec;
///
/// let v: InlineVec<u32, 4> = (0..3).collect();
/// assert_eq!(v.len(), 3);
/// assert!(!v.spilled());
/// assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
///
/// let big: InlineVec<u32, 4> = (0..6).collect();
/// assert!(big.spilled());
/// assert_eq!(big.iter().copied().sum::<u32>(), 15);
/// ```
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    head: [Option<T>; N],
    spill: Vec<T>,
    len: usize,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty vector (no heap allocation).
    #[must_use]
    pub fn new() -> Self {
        InlineVec {
            head: std::array::from_fn(|_| None),
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether elements have overflowed into heap storage.
    #[must_use]
    pub fn spilled(&self) -> bool {
        self.len > N
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.head[self.len] = Some(value);
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// The element at `index`, if in bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            None
        } else if index < N {
            self.head[index].as_ref()
        } else {
            self.spill.get(index - N)
        }
    }

    /// Removes every element, keeping any spill allocation.
    pub fn clear(&mut self) {
        for slot in &mut self.head {
            *slot = None;
        }
        self.spill.clear();
        self.len = 0;
    }

    /// Iterates the elements in insertion order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            // The occupied prefix only: every slot in it is `Some`, so the
            // iterator never has to distinguish a vacant slot from the end.
            head: self.head[..self.len.min(N)].iter(),
            spill: self.spill.iter(),
        }
    }

    /// Whether any element equals `value`.
    #[must_use]
    pub fn contains(&self, value: &T) -> bool
    where
        T: PartialEq,
    {
        self.iter().any(|v| v == value)
    }
}

/// Borrowing iterator over an [`InlineVec`] (see [`InlineVec::iter`]).
///
/// A concrete type rather than `impl Iterator` so `&InlineVec` can
/// implement [`IntoIterator`] without boxing — `for x in &v` over a
/// received message is the simulator's hottest loop.
#[derive(Debug)]
pub struct Iter<'a, T> {
    head: std::slice::Iter<'a, Option<T>>,
    spill: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        match self.head.next() {
            Some(slot) => slot.as_ref(),
            None => self.spill.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.head.len() + self.spill.len();
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self == other.as_slice()
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(items: Vec<T>) -> Self {
        items.into_iter().collect()
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<T>, N>>,
        std::vec::IntoIter<T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.head.into_iter().flatten().chain(self.spill)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        for i in 0..3 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.len(), 3);
        v.push(3);
        assert!(v.spilled());
        assert_eq!(v.len(), 4);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn get_spans_inline_and_spill() {
        let v: InlineVec<u32, 2> = (10..15).collect();
        assert_eq!(v.get(0), Some(&10));
        assert_eq!(v.get(1), Some(&11));
        assert_eq!(v.get(2), Some(&12));
        assert_eq!(v.get(4), Some(&14));
        assert_eq!(v.get(5), None);
    }

    #[test]
    fn equality_is_order_sensitive_and_capacity_blind() {
        let a: InlineVec<u32, 4> = vec![1, 2, 3].into();
        let b: InlineVec<u32, 4> = vec![1, 2, 3].into();
        let c: InlineVec<u32, 4> = vec![3, 2, 1].into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, vec![1, 2, 3]);
        assert_ne!(a, vec![1, 2]);
    }

    #[test]
    fn owned_iteration_preserves_order_across_spill() {
        let v: InlineVec<String, 2> = (0..5).map(|i| i.to_string()).collect();
        let out: Vec<String> = v.into_iter().collect();
        assert_eq!(out, vec!["0", "1", "2", "3", "4"]);
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut v: InlineVec<u32, 2> = (0..4).collect();
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
        v.push(9);
        assert_eq!(v.get(0), Some(&9));
        assert!(!v.spilled());
    }

    #[test]
    fn contains_checks_both_regions() {
        let v: InlineVec<u32, 2> = (0..4).collect();
        assert!(v.contains(&0));
        assert!(v.contains(&3));
        assert!(!v.contains(&4));
    }
}
