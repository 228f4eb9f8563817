//! Convergence timing (Figure 6) and transient-path enumeration.
//!
//! *Network routing convergence time* (Fig. 6b) ends when the last FIB
//! anywhere stops changing. *Forwarding-path convergence delay* (Fig. 6a)
//! ends earlier: when the specific sender→receiver path stabilizes, even if
//! remote routers are still churning — the distinction §5.4 draws.

use netsim::ident::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{Trace, TraceEvent, TraceSink};

/// A snapshot-walk outcome (mirrors the simulator's live walker, but over
/// replayed FIB state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathOutcome {
    /// A complete loop-free path.
    Complete(Vec<NodeId>),
    /// The walk revisited a node.
    Loop(Vec<NodeId>),
    /// A router had no entry.
    Broken(Vec<NodeId>),
}

/// Replays `RouteChanged` events to reconstruct any node's FIB at any
/// instant.
#[derive(Debug)]
pub struct FibReplay {
    fibs: Vec<Vec<Option<NodeId>>>,
}

impl FibReplay {
    /// An all-empty FIB state for `num_nodes` routers.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        FibReplay {
            fibs: vec![vec![None; num_nodes]; num_nodes],
        }
    }

    /// Applies one trace event (non-route events are ignored).
    pub fn apply(&mut self, event: &TraceEvent) {
        if let TraceEvent::RouteChanged {
            node, dest, new, ..
        } = event
        {
            self.fibs[node.index()][dest.index()] = *new;
        }
    }

    /// The replayed next hop at `node` toward `dest`.
    #[must_use]
    pub fn next_hop(&self, node: NodeId, dest: NodeId) -> Option<NodeId> {
        self.fibs[node.index()][dest.index()]
    }

    /// Walks the replayed FIBs from `src` toward `dst`.
    #[must_use]
    pub fn walk(&self, src: NodeId, dst: NodeId) -> PathOutcome {
        let mut path = vec![src];
        let mut visited = vec![false; self.fibs.len()];
        visited[src.index()] = true;
        let mut at = src;
        while at != dst {
            match self.next_hop(at, dst) {
                None => return PathOutcome::Broken(path),
                Some(next) => {
                    path.push(next);
                    if visited[next.index()] {
                        return PathOutcome::Loop(path);
                    }
                    visited[next.index()] = true;
                    at = next;
                }
            }
        }
        PathOutcome::Complete(path)
    }
}

/// Applies every `RouteChanged` record it is handed.
impl TraceSink for FibReplay {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.apply(event);
    }
}

/// Network routing convergence time (Fig. 6b): seconds from failure
/// detection to the last FIB change anywhere. Zero if nothing changed
/// after the failure.
#[must_use]
pub fn routing_convergence_time(trace: &Trace, t_fail: SimTime, detection: SimDuration) -> f64 {
    let detect_at = t_fail + detection;
    let last = trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RouteChanged { time, .. } if time >= t_fail => Some(time),
            _ => None,
        })
        .last();
    match last {
        Some(t) => t.saturating_since(detect_at).as_secs_f64(),
        None => 0.0,
    }
}

/// The forwarding-path history of one flow.
#[derive(Debug, Clone)]
pub struct PathHistory {
    /// `(when, outcome)` — the path after each change, starting with the
    /// pre-failure steady path at `t_fail`.
    pub timeline: Vec<(SimTime, PathOutcome)>,
}

impl PathHistory {
    /// Forwarding-path convergence delay (Fig. 6a): seconds from failure
    /// detection until the path last changed. Zero if it never changed.
    #[must_use]
    pub fn convergence_delay(&self, t_fail: SimTime, detection: SimDuration) -> f64 {
        let detect_at = t_fail + detection;
        self.timeline
            .last()
            .filter(|(t, _)| *t > t_fail)
            .map_or(0.0, |(t, _)| t.saturating_since(detect_at).as_secs_f64())
    }

    /// Number of distinct transient paths between failure and convergence
    /// (excluding the pre-failure path).
    #[must_use]
    pub fn transient_path_count(&self) -> usize {
        self.timeline.len().saturating_sub(1)
    }

    /// The final outcome, or `None` for an empty (hand-built) timeline —
    /// [`path_history`] always seeds the initial path.
    #[must_use]
    pub fn final_outcome(&self) -> Option<&PathOutcome> {
        self.timeline.last().map(|(_, outcome)| outcome)
    }
}

/// Reconstructs the forwarding-path history of `src → dst` from a trace.
///
/// The first timeline entry is the steady pre-failure path (stamped
/// `t_fail`); each subsequent entry is appended whenever a FIB change
/// anywhere alters the walked path.
#[must_use]
pub fn path_history(
    trace: &Trace,
    num_nodes: usize,
    src: NodeId,
    dst: NodeId,
    t_fail: SimTime,
) -> PathHistory {
    let mut replay = FibReplay::new(num_nodes);
    let mut events = trace.iter().peekable();
    // Build the pre-failure state.
    while let Some(e) = events.next_if(|e| e.time() < t_fail) {
        replay.apply(&e);
    }
    let mut last_outcome = replay.walk(src, dst);
    let mut timeline = vec![(t_fail, last_outcome.clone())];
    for event in events {
        if !matches!(event, TraceEvent::RouteChanged { .. }) {
            continue;
        }
        replay.apply(&event);
        let outcome = replay.walk(src, dst);
        if outcome != last_outcome {
            timeline.push((event.time(), outcome.clone()));
            last_outcome = outcome;
        }
    }
    PathHistory { timeline }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn route(at_ms: u64, node: u32, dest: u32, new: Option<u32>) -> TraceEvent {
        TraceEvent::RouteChanged {
            time: SimTime::from_millis(at_ms),
            node: n(node),
            dest: n(dest),
            old: None,
            new: new.map(n),
        }
    }

    /// Line 0-1-2 with dest 2; at 10 s node 0 loses its route, at 12 s it
    /// regains a (suboptimal then final) path.
    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            route(1_000, 0, 2, Some(1)),
            route(1_000, 1, 2, Some(2)),
            route(10_050, 1, 2, None),    // after failure detection
            route(10_050, 0, 2, None),    // upstream loses too
            route(12_000, 1, 2, Some(2)), // repair
            route(12_500, 0, 2, Some(1)),
        ])
    }

    #[test]
    fn replay_walks_paths() {
        let mut replay = FibReplay::new(3);
        replay.apply(&route(1, 0, 2, Some(1)));
        replay.apply(&route(2, 1, 2, Some(2)));
        assert_eq!(
            replay.walk(n(0), n(2)),
            PathOutcome::Complete(vec![n(0), n(1), n(2)])
        );
        replay.apply(&route(3, 1, 2, None));
        assert_eq!(
            replay.walk(n(0), n(2)),
            PathOutcome::Broken(vec![n(0), n(1)])
        );
        replay.apply(&route(4, 1, 2, Some(0)));
        assert_eq!(
            replay.walk(n(0), n(2)),
            PathOutcome::Loop(vec![n(0), n(1), n(0)])
        );
    }

    #[test]
    fn routing_convergence_measures_to_last_change() {
        let trace = sample_trace();
        let t_fail = SimTime::from_secs(10);
        let detect = SimDuration::from_millis(50);
        let secs = routing_convergence_time(&trace, t_fail, detect);
        // Last change at 12.5 s, detection at 10.05 s.
        assert!((secs - 2.45).abs() < 1e-9);
    }

    #[test]
    fn routing_convergence_zero_without_changes() {
        let trace = Trace::from_events(vec![route(1_000, 0, 2, Some(1))]);
        let secs =
            routing_convergence_time(&trace, SimTime::from_secs(10), SimDuration::from_millis(50));
        assert_eq!(secs, 0.0);
    }

    #[test]
    fn path_history_tracks_break_and_repair() {
        let trace = sample_trace();
        let history = path_history(&trace, 3, n(0), n(2), SimTime::from_secs(10));
        // Steady, broken-at-1, broken-at-0, repaired-via-1... the walk from
        // node 0: after 10.05 both lose routes; walking from 0 breaks at 0
        // immediately, so two distinct outcomes then repair steps.
        assert!(matches!(history.timeline[0].1, PathOutcome::Complete(_)));
        assert!(history.transient_path_count() >= 2);
        assert!(matches!(
            history.final_outcome(),
            Some(PathOutcome::Complete(_))
        ));
        let delay = history.convergence_delay(SimTime::from_secs(10), SimDuration::from_millis(50));
        assert!((delay - 2.45).abs() < 1e-9);
    }

    #[test]
    fn unchanged_path_has_zero_delay() {
        let trace = Trace::from_events(vec![
            route(1_000, 0, 2, Some(1)),
            route(1_000, 1, 2, Some(2)),
        ]);
        let history = path_history(&trace, 3, n(0), n(2), SimTime::from_secs(10));
        assert_eq!(history.transient_path_count(), 0);
        assert_eq!(
            history.convergence_delay(SimTime::from_secs(10), SimDuration::from_millis(50)),
            0.0
        );
    }
}
