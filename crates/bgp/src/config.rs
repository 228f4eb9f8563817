//! BGP configuration, including the study's "BGP-3" parameterization.

use netsim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::flap::FlapConfig;

/// Granularity of the Minimum Route Advertisement Interval timer.
///
/// The paper (§3, §5.2) stresses that most vendor implementations keep MRAI
/// per *neighbor*, which lengthens inconsistency windows: after the first
/// post-failure update, changes to any other destination are held back too.
/// A per-(neighbor, destination) timer only spaces updates about the *same*
/// destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MraiScope {
    /// One timer per peering session (vendor default; the study's setting).
    PerNeighbor,
    /// One timer per (peer, destination) pair (the paper's "results could
    /// have been different" ablation).
    PerNeighborDestination,
}

/// Tunable BGP parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BgpConfig {
    /// Mean MRAI value; each window is drawn uniformly from
    /// `mean ± jitter`.
    pub mrai_mean: SimDuration,
    /// Uniform jitter around the mean (must be below the mean).
    pub mrai_jitter: SimDuration,
    /// Timer granularity.
    pub mrai_scope: MraiScope,
    /// When `false` (default, per the paper) withdrawals bypass the MRAI
    /// timer so unreachability propagates as fast as possible.
    pub damp_withdrawals: bool,
    /// RFC 2439 route-flap damping (`None` = disabled, the default; the
    /// paper's cited follow-ups show damping interacting badly with
    /// convergence-time path exploration).
    pub flap_damping: Option<FlapConfig>,
}

impl BgpConfig {
    /// The RFC-recommended parameterization: 30 s average MRAI.
    #[must_use]
    pub fn standard() -> Self {
        BgpConfig {
            mrai_mean: SimDuration::from_secs(30),
            mrai_jitter: SimDuration::from_millis(7_500),
            mrai_scope: MraiScope::PerNeighbor,
            damp_withdrawals: false,
            flap_damping: None,
        }
    }

    /// The study's "BGP-3": a 3 s average MRAI, making the damping delay
    /// comparable with RIP/DBF's 1–5 s triggered-update timer.
    #[must_use]
    pub fn bgp3() -> Self {
        BgpConfig {
            mrai_mean: SimDuration::from_secs(3),
            mrai_jitter: SimDuration::from_millis(750),
            ..BgpConfig::standard()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.mrai_mean.is_zero() {
            return Err("mrai_mean must be positive".into());
        }
        if self.mrai_jitter >= self.mrai_mean {
            return Err("mrai_jitter must be below mrai_mean".into());
        }
        if let Some(flap) = &self.flap_damping {
            flap.validate()?;
        }
        Ok(())
    }

    /// The shortest possible MRAI window.
    #[must_use]
    pub fn mrai_min(&self) -> SimDuration {
        self.mrai_mean.saturating_sub(self.mrai_jitter)
    }

    /// The longest possible MRAI window.
    #[must_use]
    pub fn mrai_max(&self) -> SimDuration {
        self.mrai_mean + self.mrai_jitter
    }
}

impl Default for BgpConfig {
    fn default() -> Self {
        BgpConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_and_bgp3_differ_only_in_mrai() {
        let std = BgpConfig::standard();
        let fast = BgpConfig::bgp3();
        std.validate().unwrap();
        fast.validate().unwrap();
        assert_eq!(std.mrai_mean, SimDuration::from_secs(30));
        assert_eq!(fast.mrai_mean, SimDuration::from_secs(3));
        assert_eq!(std.mrai_scope, fast.mrai_scope);
        assert_eq!(std.damp_withdrawals, fast.damp_withdrawals);
    }

    #[test]
    fn mrai_bounds_bracket_the_mean() {
        let cfg = BgpConfig::standard();
        assert!(cfg.mrai_min() < cfg.mrai_mean);
        assert!(cfg.mrai_max() > cfg.mrai_mean);
        // Uniform draw between min and max has the stated mean.
        assert_eq!(
            cfg.mrai_min().as_nanos() + cfg.mrai_max().as_nanos(),
            2 * cfg.mrai_mean.as_nanos()
        );
    }

    #[test]
    fn validation_rejects_excess_jitter() {
        let cfg = BgpConfig {
            mrai_jitter: SimDuration::from_secs(31),
            ..BgpConfig::standard()
        };
        assert!(cfg.validate().is_err());
    }
}
