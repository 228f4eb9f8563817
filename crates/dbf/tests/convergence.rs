//! DBF behavior on real topologies, emphasizing the instant switch-over
//! that distinguishes it from RIP.

use dbf::Dbf;
use netsim::link::LinkConfig;
use netsim::simulator::{ForwardingPath, Simulator};
use netsim::time::SimTime;
use topology::instantiate::to_simulator_builder;
use topology::mesh::{Mesh, MeshDegree};
use topology::shortest_path::bfs;

fn dbf_mesh(degree: MeshDegree, seed: u64) -> (Simulator, Mesh) {
    let mesh = Mesh::regular(7, 7, degree);
    let (mut builder, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
    builder.seed(seed);
    let mut sim = builder.build().unwrap();
    for node in mesh.graph().nodes() {
        sim.install_protocol(node, Box::new(Dbf::new())).unwrap();
    }
    sim.start();
    (sim, mesh)
}

fn assert_steady_state(sim: &Simulator, mesh: &Mesh) {
    for src in mesh.graph().nodes() {
        let sp = bfs(mesh.graph(), src);
        for dst in mesh.graph().nodes() {
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
}

#[test]
fn dbf_converges_to_shortest_paths() {
    for (degree, seed) in [
        (MeshDegree::D3, 1),
        (MeshDegree::D5, 2),
        (MeshDegree::D8, 3),
    ] {
        let (mut sim, mesh) = dbf_mesh(degree, seed);
        sim.run_until(SimTime::from_secs(80));
        assert_steady_state(&sim, &mesh);
    }
}

#[test]
fn dbf_switches_instantly_on_dense_mesh() {
    // §4.1: in a degree-6 mesh a router adjacent to the failure finds a
    // valid cached alternate the moment it detects the failure.
    let (mut sim, mesh) = dbf_mesh(MeshDegree::D6, 4);
    sim.run_until(SimTime::from_secs(80));

    let src = mesh.node_at(0, 2);
    let dst = mesh.node_at(6, 2);
    let path = match sim.forwarding_path(src, dst) {
        ForwardingPath::Complete(p) => p,
        other => panic!("not converged: {other:?}"),
    };
    // Fail a link in the middle of the live path.
    let (a, b) = (path[2], path[3]);
    let link = sim.link_between(a, b).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(90), link)
        .unwrap();

    // 1 ms after detection (detection delay = 50 ms) the upstream router
    // already has an alternate installed.
    sim.run_until(SimTime::from_millis(90_051));
    let next = sim.fib(a).next_hop(dst);
    assert!(next.is_some(), "DBF must switch instantly");
    assert_ne!(next, Some(b), "alternate must avoid the failed link");

    // And the whole flow reconverges to the new shortest path eventually.
    sim.run_until(SimTime::from_secs(160));
    let degraded = mesh.graph().without_edge(topology::graph::Edge::new(a, b));
    let sp = bfs(&degraded, src);
    match sim.forwarding_path(src, dst) {
        ForwardingPath::Complete(p) => {
            assert_eq!((p.len() - 1) as u32, sp.distance(dst).unwrap());
        }
        other => panic!("not reconverged: {other:?}"),
    }
}

#[test]
fn dbf_sparse_mesh_may_lose_reachability_but_recovers() {
    // At degree 3 the neighbors of a failure often route *through* the
    // failing router (poisoned cache entries), so reachability can vanish
    // temporarily — but must return well before RIP's periodic cycle.
    let (mut sim, mesh) = dbf_mesh(MeshDegree::D3, 5);
    sim.run_until(SimTime::from_secs(80));
    let src = mesh.node_at(0, 3);
    let dst = mesh.node_at(6, 3);
    let path = match sim.forwarding_path(src, dst) {
        ForwardingPath::Complete(p) => p,
        other => panic!("not converged: {other:?}"),
    };
    let (a, b) = (path[1], path[2]);
    let link = sim.link_between(a, b).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(90), link)
        .unwrap();
    sim.run_until(SimTime::from_secs(170));
    let degraded = mesh.graph().without_edge(topology::graph::Edge::new(a, b));
    let sp = bfs(&degraded, src);
    match sim.forwarding_path(src, dst) {
        ForwardingPath::Complete(p) => {
            assert_eq!((p.len() - 1) as u32, sp.distance(dst).unwrap());
        }
        other => panic!("not reconverged: {other:?}"),
    }
}

#[test]
fn dbf_runs_are_deterministic() {
    let digest = |seed: u64| {
        let (mut sim, _) = dbf_mesh(MeshDegree::D4, seed);
        sim.run_until(SimTime::from_secs(100));
        (
            sim.stats().control_messages_sent,
            sim.trace().unwrap().len(),
        )
    };
    assert_eq!(digest(77), digest(77));
}

#[test]
fn dbf_cached_poison_prevents_bogus_alternates() {
    // A line topology: 0-1-2. Node 1's only route to 2 is direct; node 0
    // advertises poison for dest 2 (it routes via 1). After the 1-2 link
    // dies, node 1 must NOT pick node 0 as an alternate.
    let mut builder = netsim::simulator::SimulatorBuilder::new();
    let nodes = builder.add_nodes(3);
    builder
        .add_link(nodes[0], nodes[1], LinkConfig::default())
        .unwrap();
    builder
        .add_link(nodes[1], nodes[2], LinkConfig::default())
        .unwrap();
    builder.seed(8);
    let mut sim = builder.build().unwrap();
    for &n in &nodes {
        sim.install_protocol(n, Box::new(Dbf::new())).unwrap();
    }
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    let link = sim.link_between(nodes[1], nodes[2]).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(60), link)
        .unwrap();
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(sim.fib(nodes[1]).next_hop(nodes[2]), None);
    assert_eq!(sim.fib(nodes[0]).next_hop(nodes[2]), None);
}

#[test]
fn dbf_and_rip_agree_at_steady_state() {
    // Before any failure the two protocols must compute identical
    // forwarding (same selection rule, same tie-breaks).
    let (mut sim_dbf, mesh) = dbf_mesh(MeshDegree::D4, 6);
    sim_dbf.run_until(SimTime::from_secs(80));

    let (mut builder, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
    builder.seed(6);
    let mut sim_rip = builder.build().unwrap();
    for node in mesh.graph().nodes() {
        sim_rip
            .install_protocol(node, Box::new(rip::Rip::new()))
            .unwrap();
    }
    sim_rip.start();
    sim_rip.run_until(SimTime::from_secs(80));

    for src in mesh.graph().nodes() {
        for dst in mesh.graph().nodes() {
            if src == dst {
                continue;
            }
            let a = sim_dbf.forwarding_path(src, dst);
            let b = sim_rip.forwarding_path(src, dst);
            assert!(a.is_complete() && b.is_complete());
            assert_eq!(
                a.nodes().len(),
                b.nodes().len(),
                "path length differs {src}->{dst}"
            );
        }
    }
}
