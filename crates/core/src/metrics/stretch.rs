//! Path stretch: how many extra hops convergence-era packets travel.
//!
//! §5.5 observes that packets delivered during convergence "might traverse
//! more hops than the new best path"; delay (Figure 7) measures that in
//! time. Stretch measures it directly in hops: delivered hops divided by
//! the shortest-path distance at delivery time (pre-failure topology
//! before the failure, post-failure topology after).

use netsim::ident::NodeId;
use netsim::time::SimTime;
use netsim::trace::{Trace, TraceEvent};

use crate::metrics::MetricsError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topology::graph::{Edge, Graph};
use topology::shortest_path::bfs;

/// One delivered packet's stretch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketStretch {
    /// Delivery time.
    pub time: SimTime,
    /// Hops actually traversed.
    pub hops: u32,
    /// Shortest possible hops at that time.
    pub optimal: u32,
}

impl PacketStretch {
    /// Multiplicative stretch (1.0 = optimal).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        f64::from(self.hops) / f64::from(self.optimal.max(1))
    }
}

/// Computes the stretch of every delivered packet of the `src → dst` flow.
///
/// `failed` are the edges that go down at `t_fail` (the post-failure
/// optimum removes them). If the failure disconnects the pair (a bridge on
/// an irregular topology, or a flapping link that later recovers), the
/// pre-failure optimum is used as the baseline for post-failure packets.
///
/// # Errors
///
/// [`MetricsError::UnreachableDestination`] if `dst` is unreachable even
/// before the failure — there is no baseline to measure stretch against.
pub fn flow_stretch(
    trace: &Trace,
    graph: &Graph,
    failed: &[Edge],
    src: NodeId,
    dst: NodeId,
    t_fail: SimTime,
) -> Result<Vec<PacketStretch>, MetricsError> {
    let before = bfs(graph, src)
        .distance(dst)
        .ok_or(MetricsError::UnreachableDestination { src, dst })?;
    let mut degraded = graph.clone();
    for edge in failed {
        degraded = degraded.without_edge(*edge);
    }
    let after = bfs(&degraded, src).distance(dst).unwrap_or(before);

    // Identify the flow's packets by their injection records.
    let mut flow_packets: BTreeMap<netsim::ident::PacketId, ()> = BTreeMap::new();
    let mut out = Vec::new();
    for event in trace {
        match event {
            TraceEvent::PacketInjected {
                id, src: s, dst: d, ..
            } if s == src && d == dst => {
                flow_packets.insert(id, ());
            }
            TraceEvent::PacketDelivered { time, id, hops, .. }
                if flow_packets.contains_key(&id) =>
            {
                let optimal = if time < t_fail { before } else { after };
                out.push(PacketStretch {
                    time,
                    hops,
                    optimal,
                });
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Mean stretch ratio over a slice (1.0 if empty).
#[must_use]
pub fn mean_stretch(packets: &[PacketStretch]) -> f64 {
    if packets.is_empty() {
        return 1.0;
    }
    packets.iter().map(PacketStretch::ratio).sum::<f64>() / packets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ident::PacketId;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Square: 0-1, 1-3, 0-2, 2-3 — two 2-hop paths 0→3.
    fn square() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(3));
        g.add_edge(n(0), n(2));
        g.add_edge(n(2), n(3));
        g
    }

    fn inject(ms: u64, id: u64) -> TraceEvent {
        TraceEvent::PacketInjected {
            time: SimTime::from_millis(ms),
            id: PacketId::new(id),
            src: n(0),
            dst: n(3),
        }
    }

    fn deliver(ms: u64, id: u64, hops: u32) -> TraceEvent {
        TraceEvent::PacketDelivered {
            time: SimTime::from_millis(ms),
            id: PacketId::new(id),
            node: n(3),
            hops,
            sent_at: SimTime::from_millis(ms.saturating_sub(10)),
        }
    }

    #[test]
    fn stretch_uses_the_right_epoch() {
        let g = square();
        let failed = [Edge::new(n(1), n(3))];
        let trace = Trace::from_events(vec![
            inject(1_000, 1),
            deliver(1_010, 1, 2), // optimal before (2 hops)
            inject(6_000, 2),
            deliver(6_010, 2, 4), // after failure: optimal still 2 (via 2)
        ]);
        let s = flow_stretch(&trace, &g, &failed, n(0), n(3), SimTime::from_secs(5)).unwrap();
        assert_eq!(s.len(), 2);
        assert!((s[0].ratio() - 1.0).abs() < 1e-9);
        assert!((s[1].ratio() - 2.0).abs() < 1e-9);
        assert!((mean_stretch(&s) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn foreign_flows_are_ignored() {
        let g = square();
        let trace = Trace::from_events(vec![
            TraceEvent::PacketInjected {
                time: SimTime::from_millis(1),
                id: PacketId::new(9),
                src: n(1),
                dst: n(2),
            },
            TraceEvent::PacketDelivered {
                time: SimTime::from_millis(5),
                id: PacketId::new(9),
                node: n(2),
                hops: 2,
                sent_at: SimTime::from_millis(1),
            },
        ]);
        let s = flow_stretch(&trace, &g, &[], n(0), n(3), SimTime::from_secs(5)).unwrap();
        assert!(s.is_empty());
        assert_eq!(mean_stretch(&s), 1.0);
    }
}
