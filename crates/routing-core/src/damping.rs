//! Triggered-update damping (RFC 2453 §3.10.1) and MRAI (RFC 1771 §9.2.1.1)
//! share one state machine: after an update is sent, a hold-down window
//! opens; changes arriving inside the window are batched and flushed when it
//! closes.
//!
//! The paper identifies this timer as the dominant cause of transient-loop
//! longevity (§5.2), so its semantics are centralized here and reused by
//! RIP, DBF and BGP.

use netsim::time::SimDuration;

/// What the caller should do after reporting a route change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DampAction {
    /// Send the update immediately and arm the hold-down window for the
    /// returned duration.
    SendNow(SimDuration),
    /// A window is open; the change was queued for the window's expiry.
    Deferred,
}

/// Hold-down window state for one peer (or one (peer, destination) pair in
/// BGP's per-destination MRAI mode).
///
/// # Examples
///
/// ```
/// use routing_core::damping::{Damper, DampAction};
/// use netsim::time::SimDuration;
/// use netsim::rng::SimRng;
///
/// let mut damper = Damper::new(SimDuration::from_secs(1), SimDuration::from_secs(5));
/// let mut rng = SimRng::seed_from(1);
/// // First change goes out immediately...
/// assert!(matches!(damper.on_change(&mut rng), DampAction::SendNow(_)));
/// // ...the next is deferred until the window expires.
/// assert_eq!(damper.on_change(&mut rng), DampAction::Deferred);
/// assert!(damper.on_window_expired()); // pending work to flush
/// ```
#[derive(Debug, Clone)]
pub struct Damper {
    min_interval: SimDuration,
    max_interval: SimDuration,
    window_open: bool,
    pending: bool,
}

impl Damper {
    /// Creates a damper whose window length is drawn uniformly from
    /// `[min_interval, max_interval]` each time it opens.
    ///
    /// # Panics
    ///
    /// Panics if `min_interval > max_interval`.
    #[must_use]
    pub fn new(min_interval: SimDuration, max_interval: SimDuration) -> Self {
        assert!(
            min_interval <= max_interval,
            "min {min_interval} exceeds max {max_interval}"
        );
        Damper {
            min_interval,
            max_interval,
            window_open: false,
            pending: false,
        }
    }

    /// Reports that a route changed.
    ///
    /// Returns [`DampAction::SendNow`] (caller sends and must arm a timer
    /// for the returned window length, calling [`Damper::on_window_expired`]
    /// when it fires) or [`DampAction::Deferred`].
    pub fn on_change(&mut self, rng: &mut netsim::rng::SimRng) -> DampAction {
        if self.window_open {
            self.pending = true;
            DampAction::Deferred
        } else {
            self.window_open = true;
            DampAction::SendNow(rng.gen_duration(self.min_interval, self.max_interval))
        }
    }

    /// Reports that the hold-down window expired.
    ///
    /// Returns `true` if deferred changes are pending: the caller must send
    /// them now and arm a fresh window by calling [`Damper::reopen`].
    /// Returns `false` if the window closed with nothing pending.
    pub fn on_window_expired(&mut self) -> bool {
        self.window_open = false;
        std::mem::take(&mut self.pending)
    }

    /// Re-opens the window after flushing deferred changes, returning its
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if the window is already open.
    pub fn reopen(&mut self, rng: &mut netsim::rng::SimRng) -> SimDuration {
        assert!(!self.window_open, "window already open");
        self.window_open = true;
        rng.gen_duration(self.min_interval, self.max_interval)
    }

    /// Whether a hold-down window is currently open.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.window_open
    }

    /// Whether changes are queued behind the window.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending
    }
}

/// How a triggered-update damping timer treats the *first* update after a
/// quiet period.
///
/// RFC 2453 §3.10.1 sends the first triggered update immediately and only
/// spaces out subsequent ones ([`DampingMode::FirstImmediate`]); the
/// paper's §5.2 relies on that behavior ("the failure information can
/// propagate along the path in a few milliseconds"), so it is the study's
/// default. [`DampingMode::DelayedFlush`] — delaying *every* triggered
/// update by a fresh draw — is provided as an ablation; it slows the
/// poison wave enough to give even RIP transient loops, contradicting the
/// paper's Observation 2, which is itself evidence for the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DampingMode {
    /// First update sends immediately; later changes batch behind a
    /// hold-down window.
    FirstImmediate,
    /// Every update waits a fresh random delay; changes arriving during
    /// the wait join the batch.
    DelayedFlush,
}

/// What to do after reporting a route change to a [`TriggeredScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerAction {
    /// Send the batched update now and arm a timer for the returned
    /// hold-down window.
    SendNowThenHold(SimDuration),
    /// Arm a timer; the batch is flushed when it fires.
    HoldFor(SimDuration),
    /// A timer is already armed; the change simply joins the batch.
    AlreadyPending,
}

/// Unified triggered-update scheduling for RIP and DBF under either
/// [`DampingMode`].
///
/// The caller keeps the actual change set (its changed destinations); the
/// scheduler only decides *when* to flush it.
///
/// # Examples
///
/// ```
/// use routing_core::damping::{DampingMode, TriggeredScheduler, TriggerAction};
/// use netsim::time::SimDuration;
/// use netsim::rng::SimRng;
///
/// let mut s = TriggeredScheduler::new(
///     DampingMode::DelayedFlush,
///     SimDuration::from_secs(1),
///     SimDuration::from_secs(5),
/// );
/// let mut rng = SimRng::seed_from(0);
/// assert!(matches!(s.on_change(&mut rng), TriggerAction::HoldFor(_)));
/// assert_eq!(s.on_change(&mut rng), TriggerAction::AlreadyPending);
/// assert!(s.on_timer_expired(&mut rng, true).0); // flush now
/// ```
#[derive(Debug, Clone)]
pub struct TriggeredScheduler {
    mode: DampingMode,
    min_interval: SimDuration,
    max_interval: SimDuration,
    armed: bool,
}

impl TriggeredScheduler {
    /// Creates a scheduler drawing windows uniformly from
    /// `[min_interval, max_interval]`.
    ///
    /// # Panics
    ///
    /// Panics if `min_interval > max_interval`.
    #[must_use]
    pub fn new(mode: DampingMode, min_interval: SimDuration, max_interval: SimDuration) -> Self {
        assert!(
            min_interval <= max_interval,
            "min {min_interval} exceeds max {max_interval}"
        );
        TriggeredScheduler {
            mode,
            min_interval,
            max_interval,
            armed: false,
        }
    }

    /// Reports that at least one route changed.
    pub fn on_change(&mut self, rng: &mut netsim::rng::SimRng) -> TriggerAction {
        if self.armed {
            return TriggerAction::AlreadyPending;
        }
        self.armed = true;
        let window = rng.gen_duration(self.min_interval, self.max_interval);
        match self.mode {
            DampingMode::FirstImmediate => TriggerAction::SendNowThenHold(window),
            DampingMode::DelayedFlush => TriggerAction::HoldFor(window),
        }
    }

    /// Reports that the armed timer fired. `has_changes` is whether the
    /// caller's change set is non-empty.
    ///
    /// Returns `(flush_now, rearm)`: if `flush_now`, send the batch; if
    /// `rearm` is `Some`, arm a fresh timer for that window.
    pub fn on_timer_expired(
        &mut self,
        rng: &mut netsim::rng::SimRng,
        has_changes: bool,
    ) -> (bool, Option<SimDuration>) {
        self.armed = false;
        if !has_changes {
            return (false, None);
        }
        match self.mode {
            DampingMode::FirstImmediate => {
                // Flush the deferred batch and hold down again.
                self.armed = true;
                let window = rng.gen_duration(self.min_interval, self.max_interval);
                (true, Some(window))
            }
            DampingMode::DelayedFlush => (true, None),
        }
    }

    /// Whether a timer is currently armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::SimRng;

    fn damper() -> Damper {
        Damper::new(SimDuration::from_secs(1), SimDuration::from_secs(5))
    }

    #[test]
    fn first_change_sends_immediately() {
        let mut d = damper();
        let mut rng = SimRng::seed_from(0);
        match d.on_change(&mut rng) {
            DampAction::SendNow(w) => {
                assert!(w >= SimDuration::from_secs(1) && w <= SimDuration::from_secs(5));
            }
            DampAction::Deferred => panic!("first change must send"),
        }
        assert!(d.is_open());
    }

    #[test]
    fn changes_in_window_are_batched() {
        let mut d = damper();
        let mut rng = SimRng::seed_from(0);
        let _ = d.on_change(&mut rng);
        assert_eq!(d.on_change(&mut rng), DampAction::Deferred);
        assert_eq!(d.on_change(&mut rng), DampAction::Deferred);
        assert!(d.has_pending());
        assert!(d.on_window_expired());
        assert!(!d.has_pending());
    }

    #[test]
    fn quiet_window_expires_cleanly() {
        let mut d = damper();
        let mut rng = SimRng::seed_from(0);
        let _ = d.on_change(&mut rng);
        assert!(!d.on_window_expired());
        // Next change sends immediately again.
        assert!(matches!(d.on_change(&mut rng), DampAction::SendNow(_)));
    }

    #[test]
    fn reopen_after_flush() {
        let mut d = damper();
        let mut rng = SimRng::seed_from(0);
        let _ = d.on_change(&mut rng);
        let _ = d.on_change(&mut rng);
        assert!(d.on_window_expired());
        let w = d.reopen(&mut rng);
        assert!(w >= SimDuration::from_secs(1) && w <= SimDuration::from_secs(5));
        assert!(d.is_open());
    }

    #[test]
    fn delayed_flush_never_sends_immediately() {
        let mut s = TriggeredScheduler::new(
            DampingMode::DelayedFlush,
            SimDuration::from_secs(1),
            SimDuration::from_secs(5),
        );
        let mut rng = SimRng::seed_from(1);
        match s.on_change(&mut rng) {
            TriggerAction::HoldFor(w) => {
                assert!(w >= SimDuration::from_secs(1) && w <= SimDuration::from_secs(5));
            }
            other => panic!("expected HoldFor, got {other:?}"),
        }
        assert!(s.is_armed());
        // Flush at expiry, then idle (no rearm).
        let (flush, rearm) = s.on_timer_expired(&mut rng, true);
        assert!(flush);
        assert_eq!(rearm, None);
        assert!(!s.is_armed());
    }

    #[test]
    fn first_immediate_sends_then_holds() {
        let mut s = TriggeredScheduler::new(
            DampingMode::FirstImmediate,
            SimDuration::from_secs(1),
            SimDuration::from_secs(5),
        );
        let mut rng = SimRng::seed_from(2);
        assert!(matches!(
            s.on_change(&mut rng),
            TriggerAction::SendNowThenHold(_)
        ));
        assert_eq!(s.on_change(&mut rng), TriggerAction::AlreadyPending);
        // Deferred changes flush at expiry and the hold-down reopens.
        let (flush, rearm) = s.on_timer_expired(&mut rng, true);
        assert!(flush);
        assert!(rearm.is_some());
        assert!(s.is_armed());
        // A quiet expiry closes the window.
        let (flush, rearm) = s.on_timer_expired(&mut rng, false);
        assert!(!flush);
        assert_eq!(rearm, None);
    }

    #[test]
    fn fixed_interval_window_is_exact() {
        let mut d = Damper::new(SimDuration::from_secs(3), SimDuration::from_secs(3));
        let mut rng = SimRng::seed_from(7);
        match d.on_change(&mut rng) {
            DampAction::SendNow(w) => assert_eq!(w, SimDuration::from_secs(3)),
            DampAction::Deferred => panic!(),
        }
    }
}
