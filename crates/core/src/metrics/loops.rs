//! Per-packet loop forensics (§5.2).
//!
//! The paper identifies transient-loop causes by reading the forwarding and
//! routing trace files; this module automates that analysis: for every
//! packet, the recorded hop sequence is checked for node revisits, and each
//! looping packet is classified by its fate (escaped and delivered, or
//! killed by TTL expiry).

use std::collections::BTreeMap;

use netsim::ident::{NodeId, PacketId};
use netsim::packet::DropReason;
use netsim::trace::{Trace, TraceEvent};
use serde::{Deserialize, Serialize};

/// The fate of a packet that entered a forwarding loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopFate {
    /// Escaped the loop and reached the destination (with extra delay).
    Escaped,
    /// Dropped when its TTL expired.
    TtlKilled,
    /// Dropped for another reason while looping (queue, link).
    OtherDrop,
    /// Still in flight when the run ended.
    Unresolved,
}

/// One packet's loop encounter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopEncounter {
    /// The packet.
    pub packet: PacketId,
    /// The first revisited router.
    pub pivot: NodeId,
    /// Hops taken before the first revisit.
    pub hops_before_revisit: u32,
    /// Total forwarding hops recorded for the packet.
    pub total_hops: u32,
    /// How the story ended.
    pub fate: LoopFate,
}

/// Aggregate loop statistics for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopReport {
    /// Every packet that revisited a router.
    pub encounters: Vec<LoopEncounter>,
}

impl LoopReport {
    /// Number of looping packets.
    #[must_use]
    pub fn looped_packets(&self) -> usize {
        self.encounters.len()
    }

    /// Number of looping packets that still reached the destination.
    #[must_use]
    pub fn escaped(&self) -> usize {
        self.encounters
            .iter()
            .filter(|e| e.fate == LoopFate::Escaped)
            .count()
    }

    /// Number of looping packets killed by TTL expiry.
    #[must_use]
    pub fn ttl_killed(&self) -> usize {
        self.encounters
            .iter()
            .filter(|e| e.fate == LoopFate::TtlKilled)
            .count()
    }
}

/// Scans the hop-level [`TraceEvent::PacketForwarded`] records for
/// forwarding loops.
#[must_use]
pub fn analyze_loops(trace: &Trace) -> LoopReport {
    #[derive(Default)]
    struct PacketLog {
        visited: Vec<NodeId>,
        pivot: Option<(NodeId, u32)>,
        fate: Option<LoopFate>,
    }
    let mut logs: BTreeMap<PacketId, PacketLog> = BTreeMap::new();
    for event in trace {
        match event {
            TraceEvent::PacketInjected { id, src, .. } => {
                logs.entry(id).or_default().visited.push(src);
            }
            TraceEvent::PacketForwarded { id, next_hop, .. } => {
                let log = logs.entry(id).or_default();
                if log.pivot.is_none() && log.visited.contains(&next_hop) {
                    // visited = [source, hop1, ..., hopK]; the revisiting
                    // hop is K+1, so K hops preceded it.
                    log.pivot = Some((next_hop, log.visited.len() as u32 - 1));
                }
                log.visited.push(next_hop);
            }
            TraceEvent::PacketDelivered { id, .. } => {
                if let Some(log) = logs.get_mut(&id) {
                    log.fate = Some(LoopFate::Escaped);
                }
            }
            TraceEvent::PacketDropped { id, reason, .. } => {
                if let Some(log) = logs.get_mut(&id) {
                    log.fate = Some(match reason {
                        DropReason::TtlExpired => LoopFate::TtlKilled,
                        _ => LoopFate::OtherDrop,
                    });
                }
            }
            _ => {}
        }
    }
    let encounters = logs
        .into_iter()
        .filter_map(|(packet, log)| {
            let (pivot, hops_before_revisit) = log.pivot?;
            Some(LoopEncounter {
                packet,
                pivot,
                hops_before_revisit,
                total_hops: (log.visited.len() as u32).saturating_sub(1),
                fate: log.fate.unwrap_or(LoopFate::Unresolved),
            })
        })
        .collect();
    LoopReport { encounters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn inject(ms: u64, id: u64, src: u32, dst: u32) -> TraceEvent {
        TraceEvent::PacketInjected {
            time: SimTime::from_millis(ms),
            id: PacketId::new(id),
            src: n(src),
            dst: n(dst),
        }
    }

    fn hop(ms: u64, id: u64, node: u32, next: u32) -> TraceEvent {
        TraceEvent::PacketForwarded {
            time: SimTime::from_millis(ms),
            id: PacketId::new(id),
            node: n(node),
            next_hop: n(next),
        }
    }

    #[test]
    fn straight_paths_report_no_loops() {
        let trace = Trace::from_events(vec![
            inject(0, 1, 0, 3),
            hop(1, 1, 0, 1),
            hop(2, 1, 1, 2),
            hop(3, 1, 2, 3),
            TraceEvent::PacketDelivered {
                time: SimTime::from_millis(4),
                id: PacketId::new(1),
                node: n(3),
                hops: 3,
                sent_at: SimTime::ZERO,
            },
        ]);
        assert_eq!(analyze_loops(&trace).looped_packets(), 0);
    }

    #[test]
    fn revisit_is_detected_with_pivot() {
        let trace = Trace::from_events(vec![
            inject(0, 7, 0, 9),
            hop(1, 7, 0, 1),
            hop(2, 7, 1, 2),
            hop(3, 7, 2, 1), // back to 1: loop!
            hop(4, 7, 1, 2),
            TraceEvent::PacketDropped {
                time: SimTime::from_millis(5),
                id: PacketId::new(7),
                node: n(2),
                reason: DropReason::TtlExpired,
                sent_at: SimTime::ZERO,
            },
        ]);
        let report = analyze_loops(&trace);
        assert_eq!(report.looped_packets(), 1);
        assert_eq!(report.ttl_killed(), 1);
        let enc = &report.encounters[0];
        assert_eq!(enc.pivot, n(1));
        assert_eq!(enc.hops_before_revisit, 2);
        assert_eq!(enc.total_hops, 4);
    }

    #[test]
    fn escaped_loopers_are_classified() {
        let trace = Trace::from_events(vec![
            inject(0, 3, 0, 4),
            hop(1, 3, 0, 1),
            hop(2, 3, 1, 0), // bounce back
            hop(3, 3, 0, 2), // escape via 2
            hop(4, 3, 2, 4),
            TraceEvent::PacketDelivered {
                time: SimTime::from_millis(5),
                id: PacketId::new(3),
                node: n(4),
                hops: 4,
                sent_at: SimTime::ZERO,
            },
        ]);
        let report = analyze_loops(&trace);
        assert_eq!(report.looped_packets(), 1);
        assert_eq!(report.escaped(), 1);
        assert_eq!(report.ttl_killed(), 0);
    }

    #[test]
    fn unresolved_packets_are_flagged() {
        let trace = Trace::from_events(vec![inject(0, 5, 0, 9), hop(1, 5, 0, 1), hop(2, 5, 1, 0)]);
        let report = analyze_loops(&trace);
        assert_eq!(report.encounters[0].fate, LoopFate::Unresolved);
    }
}
