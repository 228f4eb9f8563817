//! Path switch-over periods (§4.1).
//!
//! "We say a path switch-over period starts when a router discovers its
//! current next hop can no longer reach a given destination and ends when
//! the router finds a new next hop for the same destination. Because the
//! router cannot forward any packets for that destination during the path
//! switch-over period, an ideal network routing protocol should have a
//! minimal path switch-over period." — this module measures exactly those
//! windows from the FIB-change trace: every interval during which a
//! (router, destination) pair had no forwarding entry.

use netsim::ident::NodeId;
use netsim::time::SimTime;
use netsim::trace::{Trace, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One no-route window at one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchOver {
    /// The router that lost its next hop.
    pub node: NodeId,
    /// The destination affected.
    pub dest: NodeId,
    /// When the FIB entry was removed.
    pub began: SimTime,
    /// When a replacement was installed (`None` = never, within the run).
    pub ended: Option<SimTime>,
}

impl SwitchOver {
    /// The window length in seconds (up to `run_end` for unresolved ones).
    #[must_use]
    pub fn duration_s(&self, run_end: SimTime) -> f64 {
        self.ended
            .unwrap_or(run_end)
            .saturating_since(self.began)
            .as_secs_f64()
    }
}

/// Extracts every switch-over window that *started at or after* `from`
/// (pass the failure time to skip warm-up churn).
#[must_use]
pub fn switch_overs(trace: &Trace, from: SimTime) -> Vec<SwitchOver> {
    let mut open: BTreeMap<(NodeId, NodeId), SimTime> = BTreeMap::new();
    let mut windows = Vec::new();
    for event in trace {
        let TraceEvent::RouteChanged {
            time,
            node,
            dest,
            new,
            ..
        } = event
        else {
            continue;
        };
        match new {
            None => {
                if time >= from {
                    open.entry((node, dest)).or_insert(time);
                }
            }
            Some(_) => {
                if let Some(began) = open.remove(&(node, dest)) {
                    windows.push(SwitchOver {
                        node,
                        dest,
                        began,
                        ended: Some(time),
                    });
                }
            }
        }
    }
    windows.extend(open.into_iter().map(|((node, dest), began)| SwitchOver {
        node,
        dest,
        began,
        ended: None,
    }));
    windows.sort_by_key(|w| (w.began, w.node, w.dest));
    windows
}

/// Summary statistics over a run's switch-over windows for one
/// destination (the flow's receiver, in the paper's scenario).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchOverStats {
    /// Number of (router, dest) windows.
    pub count: usize,
    /// Longest window (s).
    pub max_s: f64,
    /// Mean window (s).
    pub mean_s: f64,
}

/// Aggregates the windows affecting `dest`.
#[must_use]
pub fn stats_for_dest(windows: &[SwitchOver], dest: NodeId, run_end: SimTime) -> SwitchOverStats {
    let durations: Vec<f64> = windows
        .iter()
        .filter(|w| w.dest == dest)
        .map(|w| w.duration_s(run_end))
        .collect();
    if durations.is_empty() {
        return SwitchOverStats {
            count: 0,
            max_s: 0.0,
            mean_s: 0.0,
        };
    }
    SwitchOverStats {
        count: durations.len(),
        max_s: durations.iter().copied().fold(0.0, f64::max),
        mean_s: durations.iter().sum::<f64>() / durations.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn change(ms: u64, node: u32, dest: u32, new: Option<u32>) -> TraceEvent {
        TraceEvent::RouteChanged {
            time: SimTime::from_millis(ms),
            node: n(node),
            dest: n(dest),
            old: None,
            new: new.map(n),
        }
    }

    #[test]
    fn windows_are_paired_removal_to_install() {
        let trace = Trace::from_events(vec![
            change(1_000, 0, 9, Some(1)), // warm-up install
            change(5_000, 0, 9, None),    // switch-over starts
            change(7_500, 0, 9, Some(2)), // ends
        ]);
        let w = switch_overs(&trace, SimTime::from_secs(4));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].node, n(0));
        assert!((w[0].duration_s(SimTime::from_secs(100)) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn warm_up_churn_is_excluded() {
        let trace = Trace::from_events(vec![
            change(1_000, 0, 9, None),
            change(2_000, 0, 9, Some(1)),
            change(5_000, 1, 9, None),
            change(6_000, 1, 9, Some(2)),
        ]);
        let w = switch_overs(&trace, SimTime::from_secs(4));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].node, n(1));
    }

    #[test]
    fn unresolved_windows_run_to_end() {
        let trace = Trace::from_events(vec![change(5_000, 0, 9, None)]);
        let w = switch_overs(&trace, SimTime::from_secs(4));
        assert_eq!(w[0].ended, None);
        assert!((w[0].duration_s(SimTime::from_secs(15)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn stats_filter_by_destination() {
        let trace = Trace::from_events(vec![
            change(5_000, 0, 9, None),
            change(5_000, 0, 8, None),
            change(6_000, 0, 9, Some(1)),
            change(9_000, 0, 8, Some(1)),
        ]);
        let w = switch_overs(&trace, SimTime::from_secs(4));
        let end = SimTime::from_secs(20);
        let s9 = stats_for_dest(&w, n(9), end);
        assert_eq!(s9.count, 1);
        assert!((s9.max_s - 1.0).abs() < 1e-9);
        let s8 = stats_for_dest(&w, n(8), end);
        assert!((s8.max_s - 4.0).abs() < 1e-9);
        let none = stats_for_dest(&w, n(7), end);
        assert_eq!(none.count, 0);
    }
}
