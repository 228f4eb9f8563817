//! Stress tests: random topologies, random failure/recovery schedules,
//! random traffic — the engine must stay conservative and deterministic
//! through arbitrary event interleavings.

use netsim::ident::NodeId;
use netsim::link::LinkConfig;
use netsim::protocol::RoutingProtocol;
use netsim::rng::SimRng;
use netsim::simulator::{ProtocolContext, Simulator, SimulatorBuilder};
use netsim::time::SimTime;
use proptest::prelude::*;

/// A protocol that always routes via its lowest-id *perceived-up*
/// neighbor — deliberately wrong as routing, but it exercises FIB churn on
/// every link event.
struct LowestUp;

impl LowestUp {
    fn refresh(ctx: &mut ProtocolContext<'_>) {
        let mut ups: Vec<NodeId> = ctx
            .peers()
            .iter()
            .filter(|p| p.up)
            .map(|p| p.neighbor)
            .collect();
        ups.sort_unstable();
        match ups.first() {
            Some(&next) => {
                for d in 0..ctx.num_nodes() as u32 {
                    let dest = NodeId::new(d);
                    if dest != ctx.node() {
                        ctx.install_route(dest, next);
                    }
                }
            }
            None => {
                for d in 0..ctx.num_nodes() as u32 {
                    let dest = NodeId::new(d);
                    if dest != ctx.node() {
                        ctx.remove_route(dest);
                    }
                }
            }
        }
    }
}

impl RoutingProtocol for LowestUp {
    fn name(&self) -> &'static str {
        "lowest-up"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        Self::refresh(ctx);
    }
    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, _n: NodeId) {
        Self::refresh(ctx);
    }
    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, _n: NodeId) {
        Self::refresh(ctx);
    }
}

fn random_world(seed: u64, nodes: usize, extra_links: usize) -> Simulator {
    let mut rng = SimRng::seed_from(seed);
    let mut b = SimulatorBuilder::new();
    let ids = b.add_nodes(nodes);
    // Spanning chain keeps it connected, then random chords.
    for w in ids.windows(2) {
        b.add_link(w[0], w[1], LinkConfig::default()).unwrap();
    }
    for _ in 0..extra_links {
        let a = ids[rng.gen_index(nodes)];
        let c = ids[rng.gen_index(nodes)];
        if a != c {
            let _ = b.add_link(a, c, LinkConfig::default());
        }
    }
    b.seed(seed);
    let mut sim = b.build().unwrap();
    for &n in &ids {
        sim.install_protocol(n, Box::new(LowestUp)).unwrap();
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of failures, recoveries and traffic never
    /// panic, never lose accounting, and replay identically.
    #[test]
    fn chaos_is_conservative_and_deterministic(
        seed in 0u64..5_000,
        nodes in 4usize..12,
        extra in 0usize..10,
        toggles in prop::collection::vec((1u64..60_000, 0usize..24), 0..12),
        packets in prop::collection::vec((1u64..60_000, 0usize..12, 0usize..12), 0..40),
    ) {
        let run = || {
            let mut sim = random_world(seed, nodes, extra);
            sim.start();
            let num_links = sim.num_links();
            for &(at_ms, link_ix) in &toggles {
                let link = netsim::ident::LinkId::new((link_ix % num_links) as u32);
                // Alternate fail/recover based on parity of the time; the
                // engine must tolerate redundant transitions.
                if at_ms % 2 == 0 {
                    sim.schedule_link_failure(SimTime::from_millis(at_ms), link).unwrap();
                } else {
                    sim.schedule_link_recovery(SimTime::from_millis(at_ms), link).unwrap();
                }
            }
            for &(at_ms, s, d) in &packets {
                let src = NodeId::new((s % nodes) as u32);
                let dst = NodeId::new((d % nodes) as u32);
                if src != dst {
                    sim.schedule_default_packet(SimTime::from_millis(at_ms), src, dst).unwrap();
                }
            }
            sim.run_until(SimTime::from_secs(120));
            sim.run_to_completion();
            let stats = sim.stats();
            prop_assert_eq!(
                stats.packets_injected,
                stats.packets_delivered + stats.packets_dropped
            );
            Ok(format!("{stats:?}|{}", sim.trace().unwrap().len()))
        };
        prop_assert_eq!(run()?, run()?);
    }

    /// Rapid fail/recover cycles on one link leave the channel usable.
    #[test]
    fn flapping_link_ends_usable(seed in 0u64..2_000, cycles in 1u64..12) {
        let mut sim = random_world(seed, 4, 0);
        sim.start();
        let link = netsim::ident::LinkId::new(0);
        for c in 0..cycles {
            let base = 1_000 + c * 400;
            sim.schedule_link_failure(SimTime::from_millis(base), link).unwrap();
            sim.schedule_link_recovery(SimTime::from_millis(base + 200), link).unwrap();
        }
        // Long after the flapping (and its detections) settle, traffic
        // flows over the link again.
        let quiet = 1_000 + cycles * 400 + 1_000;
        sim.schedule_default_packet(
            SimTime::from_millis(quiet),
            NodeId::new(0),
            NodeId::new(1),
        ).unwrap();
        sim.run_to_completion();
        prop_assert_eq!(sim.stats().packets_delivered, 1);
    }
}
