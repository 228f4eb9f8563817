//! Distance-vector metrics with RIP's finite infinity.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A hop-count metric saturating at RIP's infinity of 16.
///
/// All three studied protocols use unit link costs, so a metric is a hop
/// count; 16 means "unreachable" and survives arithmetic (counting past
/// infinity is impossible by construction).
///
/// # Examples
///
/// ```
/// use routing_core::metric::Metric;
///
/// let m = Metric::new(14) + 1;
/// assert_eq!(m, Metric::new(15));
/// assert!(!(m + 1).is_finite());
/// assert_eq!(m + 99, Metric::INFINITY);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Metric(u8);

impl Metric {
    /// The unreachable metric (RFC 2453 §3.4.2).
    pub const INFINITY: Metric = Metric(16);

    /// The zero metric (a router's distance to itself).
    pub const ZERO: Metric = Metric(0);

    /// Creates a metric, clamping at infinity.
    #[must_use]
    pub fn new(value: u32) -> Self {
        Metric(value.min(16) as u8)
    }

    /// The raw hop count (16 = infinity).
    #[must_use]
    pub fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` unless this metric means unreachable.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0 < 16
    }
}

impl std::ops::Add<u32> for Metric {
    type Output = Metric;

    fn add(self, cost: u32) -> Metric {
        Metric::new(u32::from(self.0) + cost)
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("inf")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_saturates_at_infinity() {
        assert_eq!(Metric::new(15) + 1, Metric::INFINITY);
        assert_eq!(Metric::INFINITY + 1, Metric::INFINITY);
        assert_eq!(Metric::new(100), Metric::INFINITY);
    }

    #[test]
    fn ordering_puts_infinity_last() {
        assert!(Metric::ZERO < Metric::new(1));
        assert!(Metric::new(15) < Metric::INFINITY);
    }

    #[test]
    fn display_formats_infinity() {
        assert_eq!(Metric::new(3).to_string(), "3");
        assert_eq!(Metric::INFINITY.to_string(), "inf");
    }

    #[test]
    fn finiteness() {
        assert!(Metric::ZERO.is_finite());
        assert!(Metric::new(15).is_finite());
        assert!(!Metric::INFINITY.is_finite());
    }
}
