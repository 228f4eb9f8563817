//! Deterministic random number generation for simulations.
//!
//! Every simulation run draws all randomness from a single [`SimRng`] seeded
//! from the experiment seed. Because the event loop processes events in a
//! deterministic order, a run is a pure function of its configuration and
//! seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// A seeded random number generator owned by the simulator.
///
/// # Examples
///
/// ```
/// use netsim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.gen_range_u64(0, 100), b.gen_range_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent sub-generator, e.g. one per simulated run.
    ///
    /// The derivation mixes `salt` into the stream so sibling sub-generators
    /// are decorrelated.
    #[must_use]
    pub fn derive(&mut self, salt: u64) -> SimRng {
        let base: u64 = self.inner.gen();
        SimRng::seed_from(base ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range_u64: empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Returns a uniform index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn gen_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "gen_index: empty collection");
        self.inner.gen_range(0..len)
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn gen_unit(&mut self) -> f64 {
        self.inner.gen()
    }

    /// Returns a uniform duration in `[lo, hi]` (inclusive of both ends at
    /// nanosecond granularity).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "gen_duration: lo {lo} exceeds hi {hi}");
        if lo == hi {
            return lo;
        }
        SimDuration::from_nanos(self.inner.gen_range(lo.as_nanos()..=hi.as_nanos()))
    }

    /// Picks a uniformly random element of a slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range_u64(0, 1000), b.gen_range_u64(0, 1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let va: Vec<u64> = (0..16).map(|_| a.gen_range_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen_range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_is_deterministic_and_salted() {
        let mut root1 = SimRng::seed_from(9);
        let mut root2 = SimRng::seed_from(9);
        let mut c1 = root1.derive(5);
        let mut c2 = root2.derive(5);
        assert_eq!(c1.gen_range_u64(0, 1 << 32), c2.gen_range_u64(0, 1 << 32));

        let mut root3 = SimRng::seed_from(9);
        let mut d = root3.derive(6);
        // Different salt gives a different stream (overwhelmingly likely).
        assert_ne!(
            (0..8)
                .map(|_| c1.gen_range_u64(0, 1 << 32))
                .collect::<Vec<_>>(),
            (0..8)
                .map(|_| d.gen_range_u64(0, 1 << 32))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_duration_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        let lo = SimDuration::from_secs(1);
        let hi = SimDuration::from_secs(5);
        for _ in 0..1000 {
            let d = rng.gen_duration(lo, hi);
            assert!(d >= lo && d <= hi);
        }
        assert_eq!(rng.gen_duration(lo, lo), lo);
    }

    #[test]
    fn gen_unit_in_range() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..1000 {
            let u = rng.gen_unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn gen_index_panics_on_empty() {
        SimRng::seed_from(0).gen_index(0);
    }
}
