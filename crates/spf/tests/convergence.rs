//! SPF behavior on real topologies.

use netsim::link::LinkConfig;
use netsim::simulator::{ForwardingPath, Simulator};
use netsim::time::SimTime;
use spf::Spf;
use topology::instantiate::to_simulator_builder;
use topology::mesh::{Mesh, MeshDegree};
use topology::shortest_path::bfs;

fn spf_mesh(degree: MeshDegree, seed: u64) -> (Simulator, Mesh) {
    let mesh = Mesh::regular(7, 7, degree);
    let (mut builder, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
    builder.seed(seed);
    let mut sim = builder.build().unwrap();
    for node in mesh.graph().nodes() {
        sim.install_protocol(node, Box::new(Spf::new())).unwrap();
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
fn spf_converges_within_seconds() {
    for degree in [MeshDegree::D3, MeshDegree::D6] {
        let (mut sim, mesh) = spf_mesh(degree, 1);
        sim.run_until(SimTime::from_secs(5));
        assert_steady_state(&sim, &mesh);
    }
}

#[test]
fn spf_reconverges_quickly_after_failure() {
    let (mut sim, mesh) = spf_mesh(MeshDegree::D4, 2);
    sim.run_until(SimTime::from_secs(5));
    let src = mesh.node_at(0, 3);
    let dst = mesh.node_at(6, 3);
    let path = match sim.forwarding_path(src, dst) {
        ForwardingPath::Complete(p) => p,
        other => panic!("not converged: {other:?}"),
    };
    let (a, b) = (path[2], path[3]);
    let link = sim.link_between(a, b).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(10), link)
        .unwrap();
    // Detection 50 ms + flood ~10 ms + SPF delay 50 ms: well inside 1 s.
    sim.run_until(SimTime::from_secs(11));
    let degraded = mesh.graph().without_edge(topology::graph::Edge::new(a, b));
    let sp = bfs(&degraded, src);
    match sim.forwarding_path(src, dst) {
        ForwardingPath::Complete(p) => {
            assert_eq!((p.len() - 1) as u32, sp.distance(dst).unwrap());
        }
        other => panic!("not reconverged after 1 s: {other:?}"),
    }
}

#[test]
fn spf_runs_are_deterministic() {
    let digest = |seed: u64| {
        let (mut sim, _) = spf_mesh(MeshDegree::D5, seed);
        sim.run_until(SimTime::from_secs(20));
        (
            sim.stats().control_messages_sent,
            sim.trace().unwrap().len(),
        )
    };
    assert_eq!(digest(3), digest(3));
}

#[test]
fn spf_floods_each_lsa_once_per_link_direction() {
    let (mut sim, mesh) = spf_mesh(MeshDegree::D4, 4);
    sim.run_until(SimTime::from_secs(20));
    // Each of the 49 LSAs traverses each of the 84 links at most twice
    // (once per direction), plus the initial per-link exchange; the total
    // must be far below a broadcast storm.
    let msgs = sim.stats().control_messages_sent;
    let upper = (mesh.graph().num_edges() * 2 * mesh.graph().num_nodes()) as u64;
    assert!(msgs <= upper, "flooding storm: {msgs} > {upper}");
    assert!(msgs >= (mesh.graph().num_edges() * 2) as u64);
}
