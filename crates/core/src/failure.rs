//! Failure plans: what breaks, and how the broken element is chosen.

use std::error::Error;
use std::fmt;

use netsim::ident::NodeId;
use netsim::impairment::Impairment;
use netsim::rng::SimRng;
use netsim::simulator::{ForwardingPath, Simulator};
use netsim::time::SimDuration;
use topology::graph::{Edge, Graph};

/// What fails during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailurePlan {
    /// No failure (baseline sanity runs).
    None,
    /// The paper's plan: one link, chosen uniformly from the links on the
    /// live forwarding path between sender and receiver.
    SingleLinkOnPath,
    /// A specific link (for controlled experiments).
    SpecificLink(Edge),
    /// §6 extension: `count` distinct links chosen from the live path and,
    /// when the path is shorter, from the remaining links — skipping
    /// choices that would partition the network.
    MultipleLinks {
        /// How many links to fail simultaneously.
        count: usize,
    },
    /// §6 extension: an interior router on the live path fails entirely
    /// (all its links go down).
    NodeOnPath,
    /// Flap-damping extension: one on-path link flaps `cycles` times
    /// (down for `down`, up for `up`), then stays up.
    FlappingLink {
        /// Number of down/up cycles.
        cycles: u32,
        /// How long the link stays down each cycle.
        down: SimDuration,
        /// How long the link stays up between cycles.
        up: SimDuration,
    },
    /// Robustness extension: an interior router on the live path crashes
    /// (all its links fail at once) and reboots after `down` with *cold*
    /// routing state — empty FIB, fresh protocol instance, no timers.
    NodeCrashRestart {
        /// How long the router stays down before rebooting.
        down: SimDuration,
    },
    /// Robustness extension: one on-path link does not fail but turns
    /// *lossy* — `impairment` applies for `duration`, then the link is
    /// clean again. Routing never sees a link-down event; protocols must
    /// ride out the loss.
    LossyLinkOnPath {
        /// The impairment applied during the lossy period.
        impairment: Impairment,
        /// How long the lossy period lasts.
        duration: SimDuration,
    },
}

/// One link state change relative to the failure instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureAction {
    /// Offset from the failure instant.
    pub offset: SimDuration,
    /// The affected link.
    pub edge: Edge,
    /// `true` = recover, `false` = fail.
    pub up: bool,
}

/// One link impairment change relative to the failure instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImpairmentAction {
    /// Offset from the failure instant.
    pub offset: SimDuration,
    /// The affected link.
    pub edge: Edge,
    /// The impairment to apply ([`Impairment::NONE`] ends a lossy period).
    pub impairment: Impairment,
}

/// A router crash-with-reboot starting at the failure instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartAction {
    /// The crashing router.
    pub node: NodeId,
    /// How long it stays down before rebooting with cold state.
    pub down: SimDuration,
}

/// The concrete selection made for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSelection {
    /// The distinct links affected.
    pub edges: Vec<Edge>,
    /// Every scheduled state change, in offset order.
    pub timeline: Vec<FailureAction>,
    /// Scheduled impairment changes ([`FailurePlan::LossyLinkOnPath`]).
    pub impairments: Vec<ImpairmentAction>,
    /// Crash-with-reboot of a router ([`FailurePlan::NodeCrashRestart`]).
    /// The runner schedules the link failures/recoveries itself, so the
    /// `timeline` stays empty for this plan.
    pub restart: Option<RestartAction>,
    /// The failed router, for [`FailurePlan::NodeOnPath`] and
    /// [`FailurePlan::NodeCrashRestart`].
    pub node: Option<NodeId>,
}

impl FailureSelection {
    /// A selection that fails nothing.
    #[must_use]
    pub fn none() -> Self {
        FailureSelection {
            edges: Vec::new(),
            timeline: Vec::new(),
            impairments: Vec::new(),
            restart: None,
            node: None,
        }
    }

    /// All named edges fail once at the failure instant.
    #[must_use]
    pub fn fail_at_zero(edges: Vec<Edge>, node: Option<NodeId>) -> Self {
        let timeline = edges
            .iter()
            .map(|&edge| FailureAction {
                offset: SimDuration::ZERO,
                edge,
                up: false,
            })
            .collect();
        FailureSelection {
            edges,
            timeline,
            impairments: Vec::new(),
            restart: None,
            node,
        }
    }
}

/// Why a failure plan could not be realized on a warmed-up network.
///
/// These are *scenario* problems, not bugs: an aggregate sweep over many
/// seeds reports them per run (and may retry with a derived seed) instead
/// of tearing down the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionError {
    /// The live forwarding path between the flow endpoints was not
    /// complete, so no on-path element could be chosen.
    PathNotConverged {
        /// Traffic source.
        sender: NodeId,
        /// Traffic sink.
        receiver: NodeId,
        /// What the FIB walk actually produced.
        path: ForwardingPath,
    },
    /// Fewer links than requested could be failed without partitioning
    /// the network.
    NotEnoughLinks {
        /// How many simultaneous link failures the plan asked for.
        requested: usize,
        /// How many could be selected.
        selected: usize,
    },
    /// The live path is a single hop: there is no interior router to
    /// crash.
    NoInteriorRouter {
        /// Length (in nodes) of the live path.
        path_len: usize,
    },
    /// The plan's parameters are degenerate (zero links, zero cycles).
    InvalidPlan(String),
}

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionError::PathNotConverged {
                sender,
                receiver,
                path,
            } => {
                let kind = match path {
                    ForwardingPath::Complete(_) => "complete",
                    ForwardingPath::Loop(_) => "looping",
                    ForwardingPath::Broken(_) => "broken",
                };
                write!(
                    f,
                    "forwarding path {sender}->{receiver} is {kind} after {} hops",
                    path.nodes().len().saturating_sub(1)
                )
            }
            SelectionError::NotEnoughLinks {
                requested,
                selected,
            } => write!(
                f,
                "only {selected} of {requested} links can fail without partitioning the network"
            ),
            SelectionError::NoInteriorRouter { path_len } => write!(
                f,
                "live path has {path_len} nodes, no interior router to fail"
            ),
            SelectionError::InvalidPlan(why) => write!(f, "invalid failure plan: {why}"),
        }
    }
}

impl Error for SelectionError {}

/// Chooses the concrete failure for a run.
///
/// `sim` must be warmed up: the live forwarding path from `sender` to
/// `receiver` is read from the FIBs, exactly as the paper fails "one of
/// the links along the shortest path between the sender and receiver".
///
/// # Errors
///
/// Returns a [`SelectionError`] when the plan cannot be realized — the
/// path is not converged, the topology cannot afford the requested number
/// of simultaneous failures, or the plan's parameters are degenerate.
pub fn choose_failure(
    plan: &FailurePlan,
    sim: &Simulator,
    graph: &Graph,
    sender: NodeId,
    receiver: NodeId,
    rng: &mut SimRng,
) -> Result<FailureSelection, SelectionError> {
    let path = || -> Result<Vec<NodeId>, SelectionError> {
        match sim.forwarding_path(sender, receiver) {
            ForwardingPath::Complete(p) => Ok(p),
            other => Err(SelectionError::PathNotConverged {
                sender,
                receiver,
                path: other,
            }),
        }
    };
    let interior = |p: &[NodeId], rng: &mut SimRng| -> Result<NodeId, SelectionError> {
        if p.len() < 3 {
            return Err(SelectionError::NoInteriorRouter { path_len: p.len() });
        }
        Ok(p[1 + rng.gen_index(p.len() - 2)])
    };
    match plan {
        FailurePlan::None => Ok(FailureSelection::none()),
        FailurePlan::SpecificLink(edge) => Ok(FailureSelection::fail_at_zero(vec![*edge], None)),
        FailurePlan::SingleLinkOnPath => {
            let p = path()?;
            let hop = rng.gen_index(p.len() - 1);
            Ok(FailureSelection::fail_at_zero(
                vec![Edge::new(p[hop], p[hop + 1])],
                None,
            ))
        }
        FailurePlan::FlappingLink { cycles, down, up } => {
            if *cycles == 0 {
                return Err(SelectionError::InvalidPlan(
                    "FlappingLink requires at least one cycle".into(),
                ));
            }
            let p = path()?;
            let hop = rng.gen_index(p.len() - 1);
            let edge = Edge::new(p[hop], p[hop + 1]);
            let mut timeline = Vec::new();
            let mut offset = SimDuration::ZERO;
            for _ in 0..*cycles {
                timeline.push(FailureAction {
                    offset,
                    edge,
                    up: false,
                });
                offset += *down;
                timeline.push(FailureAction {
                    offset,
                    edge,
                    up: true,
                });
                offset += *up;
            }
            Ok(FailureSelection {
                edges: vec![edge],
                timeline,
                impairments: Vec::new(),
                restart: None,
                node: None,
            })
        }
        FailurePlan::MultipleLinks { count } => {
            if *count == 0 {
                return Err(SelectionError::InvalidPlan(
                    "MultipleLinks requires count >= 1".into(),
                ));
            }
            let p = path()?;
            let mut working: Graph = graph.clone();
            let mut chosen: Vec<Edge> = Vec::new();
            // First pick from the live path, then from anywhere, always
            // keeping the network connected.
            let mut candidates: Vec<Edge> = p.windows(2).map(|w| Edge::new(w[0], w[1])).collect();
            let mut extras: Vec<Edge> = graph.edges().filter(|e| !candidates.contains(e)).collect();
            while chosen.len() < *count && !(candidates.is_empty() && extras.is_empty()) {
                let pool = if candidates.is_empty() {
                    &mut extras
                } else {
                    &mut candidates
                };
                let ix = rng.gen_index(pool.len());
                let edge = pool.swap_remove(ix);
                let reduced = working.without_edge(edge);
                if reduced.is_connected() {
                    working = reduced;
                    chosen.push(edge);
                }
            }
            if chosen.len() < *count {
                return Err(SelectionError::NotEnoughLinks {
                    requested: *count,
                    selected: chosen.len(),
                });
            }
            Ok(FailureSelection::fail_at_zero(chosen, None))
        }
        FailurePlan::NodeOnPath => {
            let p = path()?;
            let victim = interior(&p, rng)?;
            let edges: Vec<Edge> = graph
                .neighbors(victim)
                .iter()
                .map(|&n| Edge::new(victim, n))
                .collect();
            Ok(FailureSelection::fail_at_zero(edges, Some(victim)))
        }
        FailurePlan::NodeCrashRestart { down } => {
            let p = path()?;
            let victim = interior(&p, rng)?;
            let edges: Vec<Edge> = graph
                .neighbors(victim)
                .iter()
                .map(|&n| Edge::new(victim, n))
                .collect();
            Ok(FailureSelection {
                edges,
                // The simulator's crash-restart primitive fails and
                // recovers the links itself; an explicit timeline would
                // double-fail them.
                timeline: Vec::new(),
                impairments: Vec::new(),
                restart: Some(RestartAction {
                    node: victim,
                    down: *down,
                }),
                node: Some(victim),
            })
        }
        FailurePlan::LossyLinkOnPath {
            impairment,
            duration,
        } => {
            if impairment.is_noop() {
                return Err(SelectionError::InvalidPlan(
                    "LossyLinkOnPath requires a non-trivial impairment".into(),
                ));
            }
            let p = path()?;
            let hop = rng.gen_index(p.len() - 1);
            let edge = Edge::new(p[hop], p[hop + 1]);
            Ok(FailureSelection {
                edges: vec![edge],
                timeline: Vec::new(),
                impairments: vec![
                    ImpairmentAction {
                        offset: SimDuration::ZERO,
                        edge,
                        impairment: *impairment,
                    },
                    ImpairmentAction {
                        offset: *duration,
                        edge,
                        impairment: Impairment::NONE,
                    },
                ],
                restart: None,
                node: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_selects_nothing() {
        let sel = FailureSelection::none();
        assert!(sel.edges.is_empty());
        assert!(sel.node.is_none());
    }

    #[test]
    fn specific_link_is_passed_through() {
        // SpecificLink doesn't need the simulator; exercise via a tiny sim.
        let mut b = netsim::simulator::SimulatorBuilder::new();
        let n0 = b.add_node();
        let n1 = b.add_node();
        b.add_link(n0, n1, netsim::link::LinkConfig::default())
            .unwrap();
        let sim = b.build().unwrap();
        let mut g = Graph::new(2);
        g.add_edge(n0, n1);
        let edge = Edge::new(n0, n1);
        let sel = choose_failure(
            &FailurePlan::SpecificLink(edge),
            &sim,
            &g,
            n0,
            n1,
            &mut SimRng::seed_from(0),
        )
        .unwrap();
        assert_eq!(sel.edges, vec![edge]);
    }

    #[test]
    fn unwarmed_path_is_a_typed_error() {
        // Two disconnected components: no FIB entries exist, so on-path
        // plans must report PathNotConverged instead of panicking.
        let mut b = netsim::simulator::SimulatorBuilder::new();
        let n0 = b.add_node();
        let n1 = b.add_node();
        b.add_link(n0, n1, netsim::link::LinkConfig::default())
            .unwrap();
        let sim = b.build().unwrap();
        let mut g = Graph::new(2);
        g.add_edge(n0, n1);
        let err = choose_failure(
            &FailurePlan::SingleLinkOnPath,
            &sim,
            &g,
            n0,
            n1,
            &mut SimRng::seed_from(0),
        )
        .unwrap_err();
        assert!(matches!(err, SelectionError::PathNotConverged { .. }));
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn degenerate_plans_are_invalid() {
        let mut b = netsim::simulator::SimulatorBuilder::new();
        let n0 = b.add_node();
        let n1 = b.add_node();
        b.add_link(n0, n1, netsim::link::LinkConfig::default())
            .unwrap();
        let sim = b.build().unwrap();
        let mut g = Graph::new(2);
        g.add_edge(n0, n1);
        let mut rng = SimRng::seed_from(0);
        for plan in [
            FailurePlan::MultipleLinks { count: 0 },
            FailurePlan::FlappingLink {
                cycles: 0,
                down: SimDuration::from_secs(1),
                up: SimDuration::from_secs(1),
            },
            FailurePlan::LossyLinkOnPath {
                impairment: Impairment::NONE,
                duration: SimDuration::from_secs(1),
            },
        ] {
            let err = choose_failure(&plan, &sim, &g, n0, n1, &mut rng).unwrap_err();
            assert!(matches!(err, SelectionError::InvalidPlan(_)), "{plan:?}");
        }
    }
}
