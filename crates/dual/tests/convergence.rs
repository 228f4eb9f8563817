//! DUAL behavior on real topologies: loop-freedom and the freeze cost.

use dual::Dual;
use netsim::link::LinkConfig;
use netsim::simulator::{ForwardingPath, Simulator};
use netsim::time::SimTime;
use netsim::trace::TraceEvent;
use topology::instantiate::to_simulator_builder;
use topology::mesh::{Mesh, MeshDegree};
use topology::shortest_path::bfs;

fn dual_mesh(degree: MeshDegree, seed: u64) -> (Simulator, Mesh) {
    let mesh = Mesh::regular(7, 7, degree);
    let (mut builder, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
    builder.seed(seed);
    let mut sim = builder.build().unwrap();
    for node in mesh.graph().nodes() {
        sim.install_protocol(node, Box::new(Dual::new())).unwrap();
    }
    sim.start();
    (sim, mesh)
}

fn assert_steady_state(sim: &Simulator, mesh: &Mesh, graph: &topology::graph::Graph) {
    for src in graph.nodes() {
        let sp = bfs(graph, src);
        for dst in graph.nodes() {
            if src == dst {
                continue;
            }
            match sim.forwarding_path(src, dst) {
                ForwardingPath::Complete(path) => assert_eq!(
                    (path.len() - 1) as u32,
                    sp.distance(dst).unwrap(),
                    "suboptimal path {src}->{dst}: {path:?}"
                ),
                other => panic!("{src}->{dst} not converged: {other:?}"),
            }
        }
    }
    let _ = mesh;
}

#[test]
fn dual_converges_to_shortest_paths() {
    for (degree, seed) in [
        (MeshDegree::D3, 1),
        (MeshDegree::D4, 2),
        (MeshDegree::D8, 3),
    ] {
        let (mut sim, mesh) = dual_mesh(degree, seed);
        sim.run_until(SimTime::from_secs(30));
        assert_steady_state(&sim, &mesh, mesh.graph());
    }
}

#[test]
fn dual_reconverges_after_failure() {
    let (mut sim, mesh) = dual_mesh(MeshDegree::D4, 4);
    sim.run_until(SimTime::from_secs(30));
    let a = mesh.node_at(3, 3);
    let b = mesh.node_at(4, 3);
    let link = sim.link_between(a, b).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(40), link)
        .unwrap();
    sim.run_until(SimTime::from_secs(90));
    let degraded = mesh.graph().without_edge(topology::graph::Edge::new(a, b));
    assert_steady_state(&sim, &mesh, &degraded);
}

/// The headline invariant the paper attributes to [6]: NO transient
/// forwarding loop, ever.
#[test]
fn dual_never_forms_forwarding_loops() {
    for seed in 0..12u64 {
        for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D5] {
            let (mut sim, mesh) = dual_mesh(degree, 100 + seed);
            sim.run_until(SimTime::from_secs(30));
            // Fail a random-ish on-path link and pump packets through the
            // convergence window.
            let src = mesh.node_at(0, (seed % 7) as usize);
            let dst = mesh.node_at(6, ((seed + 3) % 7) as usize);
            let path = match sim.forwarding_path(src, dst) {
                ForwardingPath::Complete(p) => p,
                other => panic!("not converged: {other:?}"),
            };
            let hop = (seed as usize) % (path.len() - 1);
            let link = sim.link_between(path[hop], path[hop + 1]).unwrap();
            sim.schedule_link_failure(SimTime::from_secs(40), link)
                .unwrap();
            for i in 0..600u64 {
                sim.schedule_default_packet(SimTime::from_millis(35_000 + i * 50), src, dst)
                    .unwrap();
            }
            sim.run_until(SimTime::from_secs(120));
            let ttl_drops = sim
                .trace()
                .unwrap()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::PacketDropped {
                            reason: netsim::packet::DropReason::TtlExpired,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(ttl_drops, 0, "DUAL looped at degree {degree}, seed {seed}");
        }
    }
}

#[test]
fn dual_freeze_blackholes_during_diffusion_on_sparse_mesh() {
    // The cost side of the trade-off: on the degree-3 mesh the diffusion
    // freeze makes destinations unreachable for a while, so DUAL drops
    // packets where DBF would have forwarded along a stale alternate.
    let mut total_drops = 0u64;
    for seed in 0..5u64 {
        let (mut sim, mesh) = dual_mesh(MeshDegree::D3, 200 + seed);
        sim.run_until(SimTime::from_secs(30));
        let src = mesh.node_at(0, 3);
        let dst = mesh.node_at(6, 3);
        let path = match sim.forwarding_path(src, dst) {
            ForwardingPath::Complete(p) => p,
            other => panic!("not converged: {other:?}"),
        };
        let link = sim.link_between(path[1], path[2]).unwrap();
        sim.schedule_link_failure(SimTime::from_secs(40), link)
            .unwrap();
        for i in 0..400u64 {
            sim.schedule_default_packet(SimTime::from_millis(39_000 + i * 50), src, dst)
                .unwrap();
        }
        sim.run_until(SimTime::from_secs(120));
        total_drops += sim.stats().packets_dropped;
        // But reachability returns.
        assert!(sim.forwarding_path(src, dst).is_complete());
    }
    assert!(total_drops > 0, "the diffusion freeze should cost packets");
}

#[test]
fn dual_runs_are_deterministic() {
    let digest = |seed: u64| {
        let (mut sim, _) = dual_mesh(MeshDegree::D4, seed);
        sim.run_until(SimTime::from_secs(60));
        (
            sim.stats().control_messages_sent,
            sim.trace().unwrap().len(),
        )
    };
    assert_eq!(digest(42), digest(42));
}

#[test]
fn dual_is_quiet_at_steady_state() {
    let (mut sim, _) = dual_mesh(MeshDegree::D5, 6);
    sim.run_until(SimTime::from_secs(60));
    let before = sim.stats().control_messages_sent;
    sim.run_until(SimTime::from_secs(200));
    assert_eq!(before, sim.stats().control_messages_sent);
}
