//! BGP route-flap damping (RFC 2439).
//!
//! The paper's introduction flags flap damping as one of the forces that
//! *lengthen* convergence when connectivity is rich (citing Bush/Griffin/
//! Mao and Mao et al.): a route that flaps accumulates a penalty; above
//! the suppress threshold it is excluded from the decision process until
//! exponential decay brings the penalty back under the reuse threshold —
//! even if the route has meanwhile become perfectly stable.

use netsim::dense::DenseMap;
use netsim::ident::NodeId;
use netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Minimum spacing between reuse-timer evaluations; prevents a zero-delay
/// re-arm loop when the decayed penalty sits just above the threshold.
const MIN_REUSE_CHECK: SimDuration = SimDuration::from_millis(100);

/// RFC 2439 damping parameters.
///
/// The RFC's operational defaults (15 min half-life, 60 min max suppress)
/// target hours-long timescales; [`FlapConfig::aggressive`] provides a
/// scaled-down variant for the study's seconds-scale experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlapConfig {
    /// Penalty added when the peer withdraws the route.
    pub withdrawal_penalty: f64,
    /// Penalty added when the peer re-announces after a withdrawal.
    pub reannounce_penalty: f64,
    /// Penalty added when the announced path changes.
    pub attribute_penalty: f64,
    /// Penalty above which the route is suppressed.
    pub suppress_threshold: f64,
    /// Penalty below which a suppressed route is reused.
    pub reuse_threshold: f64,
    /// Exponential-decay half life.
    pub half_life: SimDuration,
}

impl FlapConfig {
    /// RFC 2439's commonly deployed values.
    #[must_use]
    pub fn rfc2439() -> Self {
        FlapConfig {
            withdrawal_penalty: 1000.0,
            reannounce_penalty: 1000.0,
            attribute_penalty: 500.0,
            suppress_threshold: 2000.0,
            reuse_threshold: 750.0,
            half_life: SimDuration::from_secs(900),
        }
    }

    /// The same shape scaled to the study's seconds-scale runs
    /// (10 s half-life).
    #[must_use]
    pub fn aggressive() -> Self {
        FlapConfig {
            half_life: SimDuration::from_secs(10),
            ..FlapConfig::rfc2439()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.reuse_threshold <= 0.0 || self.suppress_threshold <= self.reuse_threshold {
            return Err("need 0 < reuse_threshold < suppress_threshold".into());
        }
        if self.half_life.is_zero() {
            return Err("half_life must be positive".into());
        }
        Ok(())
    }
}

/// What kind of instability was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlapEvent {
    /// The peer withdrew the route.
    Withdrawal,
    /// The peer announced the route after a withdrawal.
    Reannounce,
    /// The peer announced a different path.
    AttributeChange,
}

#[derive(Debug, Clone, Copy)]
struct FlapState {
    penalty: f64,
    stamped_at: SimTime,
    suppressed: bool,
    /// Whether the last event was a withdrawal (to classify the next
    /// announcement as a re-announce).
    withdrawn: bool,
}

/// Per-(peer, destination) figure-of-merit bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct FlapDamper {
    config: Option<FlapConfig>,
    /// `states[peer][dest]`; both id spaces are dense.
    states: DenseMap<DenseMap<FlapState>>,
}

impl FlapDamper {
    /// Creates a damper; `None` disables damping entirely.
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for an invalid
    /// configuration.
    pub fn new(config: Option<FlapConfig>) -> Result<Self, String> {
        if let Some(c) = &config {
            c.validate()?;
        }
        Ok(FlapDamper::from_valid(config))
    }

    /// Builds a damper from an already-validated configuration.
    pub(crate) fn from_valid(config: Option<FlapConfig>) -> Self {
        FlapDamper {
            config,
            states: DenseMap::new(),
        }
    }

    /// Whether damping is enabled at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.config.is_some()
    }

    fn decayed(config: &FlapConfig, state: &FlapState, now: SimTime) -> f64 {
        let dt = now.saturating_since(state.stamped_at).as_secs_f64();
        state.penalty * 0.5_f64.powf(dt / config.half_life.as_secs_f64())
    }

    /// Classifies an incoming announcement (`path_changed` = differs from
    /// the stored one) or withdrawal, updates the penalty, and returns the
    /// new suppression state plus — on a fresh suppression — the delay
    /// until the penalty will cross the reuse threshold.
    pub fn record(
        &mut self,
        peer: NodeId,
        dest: NodeId,
        event: FlapEvent,
        now: SimTime,
    ) -> FlapOutcome {
        let Some(config) = self.config else {
            return FlapOutcome {
                suppressed: false,
                reuse_in: None,
            };
        };
        let state = self
            .states
            .get_or_insert_with(peer, DenseMap::new)
            .get_or_insert_with(dest, || FlapState {
                penalty: 0.0,
                stamped_at: now,
                suppressed: false,
                withdrawn: false,
            });
        let mut penalty = Self::decayed(&config, state, now);
        penalty += match event {
            FlapEvent::Withdrawal => config.withdrawal_penalty,
            FlapEvent::Reannounce => config.reannounce_penalty,
            FlapEvent::AttributeChange => config.attribute_penalty,
        };
        state.penalty = penalty;
        state.stamped_at = now;
        state.withdrawn = event == FlapEvent::Withdrawal;
        let newly_suppressed = !state.suppressed && penalty >= config.suppress_threshold;
        if newly_suppressed {
            state.suppressed = true;
        }
        let reuse_in = newly_suppressed.then(|| {
            // penalty * 0.5^(dt/half_life) = reuse  =>  dt = hl*log2(p/r)
            let halves = (penalty / config.reuse_threshold).log2();
            SimDuration::from_secs_f64(halves * config.half_life.as_secs_f64()).max(MIN_REUSE_CHECK)
        });
        FlapOutcome {
            suppressed: state.suppressed,
            reuse_in,
        }
    }

    /// Whether announcements from `peer` for `dest` are currently
    /// suppressed.
    #[must_use]
    pub fn is_suppressed(&self, peer: NodeId, dest: NodeId) -> bool {
        self.states
            .get(peer)
            .and_then(|m| m.get(dest))
            .is_some_and(|s| s.suppressed)
    }

    /// Whether the last recorded event for the pair was a withdrawal.
    #[must_use]
    pub fn is_withdrawn(&self, peer: NodeId, dest: NodeId) -> bool {
        self.states
            .get(peer)
            .and_then(|m| m.get(dest))
            .is_some_and(|s| s.withdrawn)
    }

    /// Re-evaluates a suppressed pair at reuse time. Returns `true` if the
    /// route is released (and the caller should re-run its decision
    /// process); returns `false` with a new delay if more decay is needed
    /// (more flaps happened since suppression).
    pub fn try_reuse(&mut self, peer: NodeId, dest: NodeId, now: SimTime) -> ReuseOutcome {
        let Some(config) = self.config else {
            return ReuseOutcome::Released;
        };
        let Some(state) = self.states.get_mut(peer).and_then(|m| m.get_mut(dest)) else {
            return ReuseOutcome::Released;
        };
        if !state.suppressed {
            return ReuseOutcome::Released;
        }
        let penalty = Self::decayed(&config, state, now);
        if penalty < config.reuse_threshold {
            state.suppressed = false;
            state.penalty = penalty;
            state.stamped_at = now;
            ReuseOutcome::Released
        } else {
            let halves = (penalty / config.reuse_threshold).log2();
            ReuseOutcome::StillSuppressed(
                SimDuration::from_secs_f64(halves * config.half_life.as_secs_f64())
                    .max(MIN_REUSE_CHECK),
            )
        }
    }

    /// Forgets all state about a peer (session reset).
    pub fn clear_peer(&mut self, peer: NodeId) {
        self.states.remove(peer);
    }
}

/// Result of recording a flap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapOutcome {
    /// Whether the pair is (now) suppressed.
    pub suppressed: bool,
    /// On a fresh suppression: the decay delay until reuse.
    pub reuse_in: Option<SimDuration>,
}

/// Result of a reuse-timer evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReuseOutcome {
    /// The route may be used again.
    Released,
    /// Still over the reuse threshold; check back after this delay.
    StillSuppressed(SimDuration),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn damper() -> FlapDamper {
        FlapDamper::new(Some(FlapConfig::aggressive())).unwrap()
    }

    #[test]
    fn disabled_damper_never_suppresses() {
        let mut d = FlapDamper::new(None).unwrap();
        for _ in 0..10 {
            let out = d.record(n(1), n(2), FlapEvent::Withdrawal, SimTime::from_secs(1));
            assert!(!out.suppressed);
        }
        assert!(!d.is_suppressed(n(1), n(2)));
    }

    #[test]
    fn repeated_flaps_cross_the_suppress_threshold() {
        let mut d = damper();
        let t = SimTime::from_secs(100);
        let o1 = d.record(n(1), n(2), FlapEvent::Withdrawal, t);
        assert!(!o1.suppressed, "one flap is not enough");
        let o2 = d.record(n(1), n(2), FlapEvent::Reannounce, t);
        assert!(o2.suppressed, "2000 penalty hits the threshold");
        let reuse = o2.reuse_in.expect("fresh suppression names a reuse delay");
        // 2000 -> 750 needs log2(2000/750) = 1.415 half-lives of 10 s.
        assert!((reuse.as_secs_f64() - 14.15).abs() < 0.1, "{reuse}");
    }

    #[test]
    fn penalty_decays_between_flaps() {
        let mut d = damper();
        d.record(n(1), n(2), FlapEvent::Withdrawal, SimTime::from_secs(0));
        // 30 s later (3 half-lives) the 1000 penalty is only 125.
        let out = d.record(n(1), n(2), FlapEvent::Withdrawal, SimTime::from_secs(30));
        assert!(!out.suppressed, "1125 stays under 2000");
    }

    #[test]
    fn reuse_releases_after_decay() {
        let mut d = damper();
        let t0 = SimTime::from_secs(0);
        d.record(n(1), n(2), FlapEvent::Withdrawal, t0);
        let out = d.record(n(1), n(2), FlapEvent::Reannounce, t0);
        let reuse_at = t0 + out.reuse_in.unwrap();
        // Too early: still suppressed.
        assert!(matches!(
            d.try_reuse(n(1), n(2), t0 + SimDuration::from_secs(5)),
            ReuseOutcome::StillSuppressed(_)
        ));
        // At the computed time (plus epsilon): released.
        assert_eq!(
            d.try_reuse(n(1), n(2), reuse_at + SimDuration::from_millis(1)),
            ReuseOutcome::Released
        );
        assert!(!d.is_suppressed(n(1), n(2)));
    }

    #[test]
    fn withdrawal_state_classifies_reannounces() {
        let mut d = damper();
        let t = SimTime::from_secs(0);
        d.record(n(1), n(2), FlapEvent::Withdrawal, t);
        assert!(d.is_withdrawn(n(1), n(2)));
        d.record(n(1), n(2), FlapEvent::Reannounce, t);
        assert!(!d.is_withdrawn(n(1), n(2)));
    }

    #[test]
    fn clear_peer_forgets_everything() {
        let mut d = damper();
        let t = SimTime::from_secs(0);
        d.record(n(1), n(2), FlapEvent::Withdrawal, t);
        d.record(n(1), n(2), FlapEvent::Reannounce, t);
        assert!(d.is_suppressed(n(1), n(2)));
        d.clear_peer(n(1));
        assert!(!d.is_suppressed(n(1), n(2)));
    }

    #[test]
    fn config_validation() {
        assert!(FlapConfig::rfc2439().validate().is_ok());
        assert!(FlapConfig::aggressive().validate().is_ok());
        let bad = FlapConfig {
            reuse_threshold: 3000.0,
            ..FlapConfig::rfc2439()
        };
        assert!(bad.validate().is_err());
    }
}
