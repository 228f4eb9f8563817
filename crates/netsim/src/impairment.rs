//! Per-link impairments: seeded loss, delay jitter and reordering.
//!
//! The paper's experiments run over clean links — failures are binary
//! (up/down) and the channels themselves never corrupt traffic. Real
//! networks are messier: links drop a fraction of frames, delay varies,
//! and occasionally frames overtake each other. This module adds a
//! deterministic impairment model on top of the channel pipeline so the
//! study's protocols can be exercised under those conditions too.
//!
//! Probabilities are stored as integer parts-per-million rather than
//! floats so [`Impairment`] (and [`crate::link::LinkConfig`] which embeds
//! it) stays `Copy + Eq + Hash`-able and serializes exactly.
//!
//! Determinism: all impairment decisions are drawn from a dedicated RNG
//! stream inside the simulator, seeded independently of the main stream.
//! A no-op impairment draws nothing, so enabling the subsystem changes
//! nothing for clean-link configurations — paper presets stay
//! bit-identical.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// One million, the denominator of all ppm probabilities.
pub const PPM_SCALE: u32 = 1_000_000;

/// Stochastic channel imperfections applied to frames on one link.
///
/// # Examples
///
/// ```
/// use netsim::impairment::Impairment;
/// use netsim::time::SimDuration;
///
/// let imp = Impairment::lossy(0.15).with_jitter(SimDuration::from_millis(2));
/// assert_eq!(imp.loss_ppm, 150_000);
/// assert!(!imp.is_noop());
/// assert!(Impairment::NONE.is_noop());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Impairment {
    /// Probability (in parts per million) that a frame is lost when its
    /// serialization completes — an independent Bernoulli trial per frame.
    pub loss_ppm: u32,
    /// Extra propagation delay drawn uniformly from `[0, jitter]` per
    /// frame. Zero disables the draw entirely.
    pub jitter: SimDuration,
    /// Probability (ppm) that a frame is additionally held back by
    /// [`Impairment::reorder_extra`], letting later frames overtake it.
    pub reorder_ppm: u32,
    /// The hold-back applied to reordered frames.
    pub reorder_extra: SimDuration,
    /// How long a reliable-session sender waits before retransmitting a
    /// frame the link lost. Reliable frames (the BGP/TCP emulation) are
    /// never silently dropped by loss: each loss costs one retransmission
    /// round-trip of this length instead.
    pub retransmit_delay: SimDuration,
}

impl Impairment {
    /// The identity impairment: a clean link.
    pub const NONE: Impairment = Impairment {
        loss_ppm: 0,
        jitter: SimDuration::ZERO,
        reorder_ppm: 0,
        reorder_extra: SimDuration::ZERO,
        retransmit_delay: SimDuration::from_millis(200),
    };

    /// A pure Bernoulli-loss impairment with the given loss fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    #[must_use]
    pub fn lossy(fraction: f64) -> Self {
        Impairment {
            loss_ppm: fraction_to_ppm(fraction),
            ..Impairment::NONE
        }
    }

    /// Adds uniform delay jitter in `[0, jitter]`.
    #[must_use]
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Adds probabilistic reordering: with probability `fraction` a frame
    /// is held back by `extra` beyond its normal arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    #[must_use]
    pub fn with_reordering(mut self, fraction: f64, extra: SimDuration) -> Self {
        self.reorder_ppm = fraction_to_ppm(fraction);
        self.reorder_extra = extra;
        self
    }

    /// Returns `true` if this impairment never alters any frame.
    ///
    /// No-op impairments draw nothing from the impairment RNG, which is
    /// what keeps clean-link runs bit-identical to builds that predate
    /// the impairment subsystem.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.loss_ppm == 0 && self.jitter == SimDuration::ZERO && self.reorder_ppm == 0
    }
}

impl Default for Impairment {
    fn default() -> Self {
        Impairment::NONE
    }
}

/// Converts a probability in `[0, 1]` to parts per million.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]` or NaN.
#[must_use]
pub fn fraction_to_ppm(fraction: f64) -> u32 {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "probability {fraction} outside [0, 1]"
    );
    // Round to nearest so e.g. 0.1 (not exactly representable) maps to
    // exactly 100_000 ppm.
    (fraction * f64::from(PPM_SCALE)).round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_noop_and_default() {
        assert!(Impairment::NONE.is_noop());
        assert_eq!(Impairment::default(), Impairment::NONE);
    }

    #[test]
    fn lossy_converts_fractions_exactly() {
        assert_eq!(Impairment::lossy(0.1).loss_ppm, 100_000);
        assert_eq!(Impairment::lossy(0.15).loss_ppm, 150_000);
        assert_eq!(Impairment::lossy(1.0).loss_ppm, PPM_SCALE);
        assert_eq!(Impairment::lossy(0.0), Impairment::NONE);
    }

    #[test]
    fn builders_compose() {
        let imp = Impairment::lossy(0.05)
            .with_jitter(SimDuration::from_millis(3))
            .with_reordering(0.01, SimDuration::from_millis(10));
        assert_eq!(imp.loss_ppm, 50_000);
        assert_eq!(imp.jitter, SimDuration::from_millis(3));
        assert_eq!(imp.reorder_ppm, 10_000);
        assert_eq!(imp.reorder_extra, SimDuration::from_millis(10));
        assert!(!imp.is_noop());
    }

    #[test]
    fn jitter_alone_defeats_noop() {
        let imp = Impairment::NONE.with_jitter(SimDuration::from_micros(1));
        assert!(!imp.is_noop());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_fraction_panics() {
        let _ = Impairment::lossy(1.5);
    }
}
