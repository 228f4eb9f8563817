//! Hierarchical spans with exclusive-time attribution.
//!
//! A [`Recorder`] maintains a span stack over an injected nanosecond
//! clock. Closing a span adds one call and its *exclusive* time — total
//! minus the time spent in nested spans — to the totals of the span's
//! name, so a set of phase spans partitions the measured time without
//! double counting. This crate never reads a clock itself: the caller
//! that profiles (perfbench) owns the wall clock and hands it in.

use std::collections::BTreeMap;

/// Span name: one engine event being dispatched (the event loop body,
/// exclusive of the nested phases below).
pub const EVENT_DISPATCH: &str = "event_dispatch";
/// Span name: a routing-protocol or application handler running.
pub const PROTOCOL_PROCESSING: &str = "protocol_processing";
/// Span name: appending records to the run trace.
pub const TRACE_RECORDING: &str = "trace_recording";

#[derive(Debug)]
struct Frame {
    name: &'static str,
    start: u64,
    /// Total (inclusive) nanoseconds spent in already-closed child spans.
    child: u64,
}

/// The closed spans of one name.
#[derive(Debug, Default)]
struct Totals {
    calls: u64,
    exclusive_ns: u64,
}

/// Records hierarchical spans against an injected clock.
pub struct Recorder {
    clock: Box<dyn Fn() -> u64 + Send>,
    totals: BTreeMap<&'static str, Totals>,
    stack: Vec<Frame>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("totals", &self.totals)
            .field("stack", &self.stack)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// A recorder over an external nanosecond clock (a wall clock owned
    /// by bench code).
    #[must_use]
    pub fn external(clock: Box<dyn Fn() -> u64 + Send>) -> Self {
        Recorder {
            clock,
            totals: BTreeMap::new(),
            stack: Vec::with_capacity(8),
        }
    }

    /// Opens a span named `name` at the current time.
    pub fn enter(&mut self, name: &'static str) {
        let start = (self.clock)();
        self.stack.push(Frame {
            name,
            start,
            child: 0,
        });
    }

    /// Closes the innermost span, adding one call and its exclusive time
    /// to the totals of its name. Closing with an empty stack is a no-op,
    /// so unbalanced instrumentation degrades instead of failing.
    pub fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let total = (self.clock)().saturating_sub(frame.start);
        let exclusive = total.saturating_sub(frame.child);
        let totals = self.totals.entry(frame.name).or_default();
        totals.calls += 1;
        totals.exclusive_ns = totals.exclusive_ns.saturating_add(exclusive);
        if let Some(parent) = self.stack.last_mut() {
            parent.child = parent.child.saturating_add(total);
        }
    }

    /// Total exclusive nanoseconds recorded under span `name`.
    #[must_use]
    pub fn exclusive_ns(&self, name: &'static str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.exclusive_ns)
    }

    /// How many spans named `name` have closed.
    #[must_use]
    pub fn calls(&self, name: &'static str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A recorder over a counter the test sets by hand.
    fn stepped() -> (Recorder, Arc<AtomicU64>) {
        let now = Arc::new(AtomicU64::new(0));
        let clock = Arc::clone(&now);
        let rec = Recorder::external(Box::new(move || clock.load(Ordering::Relaxed)));
        (rec, now)
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let (mut r, now) = stepped();
        r.enter("outer");
        now.store(10, Ordering::Relaxed);
        r.enter("inner");
        now.store(30, Ordering::Relaxed);
        r.exit(); // inner: 20 exclusive
        now.store(35, Ordering::Relaxed);
        r.exit(); // outer: 35 total - 20 child = 15 exclusive
        assert_eq!(r.exclusive_ns("inner"), 20);
        assert_eq!(r.exclusive_ns("outer"), 15);
        assert_eq!(r.calls("outer"), 1);
        assert!(r.stack.is_empty());
    }

    #[test]
    fn sibling_children_accumulate_into_the_parent() {
        let (mut r, now) = stepped();
        r.enter("outer");
        for t in [10u64, 20, 30, 40] {
            now.store(t - 10, Ordering::Relaxed);
            r.enter("child");
            now.store(t, Ordering::Relaxed);
            r.exit();
        }
        now.store(50, Ordering::Relaxed);
        r.exit();
        // Four 10 ns children cover [0, 40); the parent keeps [40, 50).
        assert_eq!(r.calls("child"), 4);
        assert_eq!(r.exclusive_ns("child"), 40);
        assert_eq!(r.exclusive_ns("outer"), 10);
    }

    #[test]
    fn unbalanced_exit_is_a_noop() {
        let (mut r, _) = stepped();
        r.exit();
        assert!(r.stack.is_empty());
        assert!(r.totals.is_empty());
    }

    #[test]
    fn a_clock_that_runs_backwards_adds_zero() {
        let (mut r, now) = stepped();
        now.store(42, Ordering::Relaxed);
        r.enter("x");
        now.store(7, Ordering::Relaxed);
        r.exit();
        assert_eq!(r.exclusive_ns("x"), 0);
        assert_eq!(r.calls("x"), 1);
    }
}
