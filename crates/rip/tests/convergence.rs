//! RIP behavior on real topologies.

use netsim::ident::NodeId;
use netsim::link::LinkConfig;
use netsim::simulator::{ForwardingPath, Simulator};
use netsim::time::SimTime;
use rip::{Rip, RipConfig};
use topology::instantiate::to_simulator_builder;
use topology::mesh::{Mesh, MeshDegree};
use topology::shortest_path::bfs;

fn rip_mesh(degree: MeshDegree, seed: u64) -> (Simulator, Mesh) {
    let mesh = Mesh::regular(7, 7, degree);
    let (mut builder, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
    builder.seed(seed);
    let mut sim = builder.build().unwrap();
    for node in mesh.graph().nodes() {
        sim.install_protocol(node, Box::new(Rip::new())).unwrap();
    }
    sim.start();
    (sim, mesh)
}

/// Every FIB walk must be a complete path of minimum length.
fn assert_steady_state(sim: &Simulator, mesh: &Mesh) {
    for src in mesh.graph().nodes() {
        let sp = bfs(mesh.graph(), src);
        for dst in mesh.graph().nodes() {
            if src == dst {
                continue;
            }
            match sim.forwarding_path(src, dst) {
                ForwardingPath::Complete(path) => {
                    assert_eq!(
                        (path.len() - 1) as u32,
                        sp.distance(dst).unwrap(),
                        "suboptimal path {src}->{dst}: {path:?}"
                    );
                }
                other => panic!("{src}->{dst} not converged: {other:?}"),
            }
        }
    }
}

#[test]
fn rip_converges_to_shortest_paths_on_sparse_mesh() {
    let (mut sim, mesh) = rip_mesh(MeshDegree::D3, 11);
    sim.run_until(SimTime::from_secs(80));
    assert_steady_state(&sim, &mesh);
}

#[test]
fn rip_converges_to_shortest_paths_on_dense_mesh() {
    let (mut sim, mesh) = rip_mesh(MeshDegree::D8, 12);
    sim.run_until(SimTime::from_secs(80));
    assert_steady_state(&sim, &mesh);
}

#[test]
fn rip_reconverges_after_link_failure() {
    let (mut sim, mesh) = rip_mesh(MeshDegree::D4, 13);
    sim.run_until(SimTime::from_secs(80));

    // Fail a central link and let the periodic cycle repair reachability.
    let a = mesh.node_at(3, 3);
    let b = mesh.node_at(3, 4);
    let link = sim.link_between(a, b).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(90), link)
        .unwrap();
    sim.run_until(SimTime::from_secs(200));

    let degraded = mesh.graph().without_edge(topology::graph::Edge::new(a, b));
    for src in degraded.nodes() {
        let sp = bfs(&degraded, src);
        for dst in degraded.nodes() {
            if src == dst {
                continue;
            }
            match sim.forwarding_path(src, dst) {
                ForwardingPath::Complete(path) => assert_eq!(
                    (path.len() - 1) as u32,
                    sp.distance(dst).unwrap(),
                    "suboptimal post-failure path {src}->{dst}"
                ),
                other => panic!("{src}->{dst} not reconverged: {other:?}"),
            }
        }
    }
}

#[test]
fn rip_loses_reachability_during_switchover() {
    // The paper's §4.1 claim: after its next hop dies, a plain-RIP router
    // has *no* route until the next periodic update teaches it an alternate.
    let (mut sim, mesh) = rip_mesh(MeshDegree::D4, 14);
    sim.run_until(SimTime::from_secs(80));

    let src = mesh.node_at(0, 3);
    let dst = mesh.node_at(6, 3);
    let path = match sim.forwarding_path(src, dst) {
        ForwardingPath::Complete(p) => p,
        other => panic!("not converged: {other:?}"),
    };
    let (a, b) = (path[0], path[1]);
    let link = sim.link_between(a, b).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(90), link)
        .unwrap();
    // Just after detection (90 s + 50 ms) the head router must have no
    // route: RIP keeps no alternate path information.
    sim.run_until(SimTime::from_millis(90_200));
    assert_eq!(
        sim.fib(a).next_hop(dst),
        None,
        "plain RIP should have no route right after switchover"
    );
    // Eventually the periodic update restores reachability.
    sim.run_until(SimTime::from_secs(200));
    assert!(sim.forwarding_path(src, dst).is_complete());
}

#[test]
fn rip_runs_are_deterministic() {
    let digest = |seed: u64| {
        let (mut sim, _) = rip_mesh(MeshDegree::D5, seed);
        sim.run_until(SimTime::from_secs(100));
        (
            sim.stats().control_messages_sent,
            sim.stats().control_bytes_sent,
            sim.trace().unwrap().len(),
        )
    };
    assert_eq!(digest(42), digest(42));
    assert_ne!(digest(42), digest(43));
}

#[test]
fn faster_periodic_interval_converges_faster() {
    let converge_time = |config: RipConfig| -> u64 {
        let mesh = Mesh::regular(5, 5, MeshDegree::D4);
        let (mut builder, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
        builder.seed(3);
        let mut sim = builder.build().unwrap();
        for node in mesh.graph().nodes() {
            sim.install_protocol(
                node,
                Box::new(Rip::with_config(config).expect("valid config")),
            )
            .unwrap();
        }
        sim.start();
        for step in 1..=3000u64 {
            sim.run_until(SimTime::from_millis(step * 100));
            let all = mesh.graph().nodes().all(|src| {
                mesh.graph()
                    .nodes()
                    .filter(|&d| d != src)
                    .all(|dst| sim.forwarding_path(src, dst).is_complete())
            });
            if all {
                return step * 100;
            }
        }
        panic!("never converged");
    };
    let slow = converge_time(RipConfig::default());
    let fast = converge_time(RipConfig {
        periodic_interval: netsim::time::SimDuration::from_secs(5),
        periodic_jitter: netsim::time::SimDuration::from_secs(1),
        route_timeout: netsim::time::SimDuration::from_secs(30),
        ..RipConfig::default()
    });
    assert!(
        fast <= slow,
        "fast periodic {fast} ms should not converge slower than {slow} ms"
    );
}

#[test]
fn poisoned_reverse_prevents_two_node_count_to_infinity() {
    // Classic two-hop loop scenario: a line 0-1-2; fail link 1-2. Node 0
    // must never offer node 1 a route to 2 (it would be through 1 itself).
    let mut builder = netsim::simulator::SimulatorBuilder::new();
    let nodes = builder.add_nodes(3);
    builder
        .add_link(nodes[0], nodes[1], LinkConfig::default())
        .unwrap();
    builder
        .add_link(nodes[1], nodes[2], LinkConfig::default())
        .unwrap();
    builder.seed(5);
    let mut sim = builder.build().unwrap();
    for &n in &nodes {
        sim.install_protocol(n, Box::new(Rip::new())).unwrap();
    }
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    assert!(sim.forwarding_path(nodes[0], nodes[2]).is_complete());

    let link = sim.link_between(nodes[1], nodes[2]).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(60), link)
        .unwrap();
    sim.run_until(SimTime::from_secs(200));
    // With poisoned reverse there is no counting: both nodes know 2 is gone.
    assert_eq!(sim.fib(nodes[0]).next_hop(nodes[2]), None);
    assert_eq!(sim.fib(nodes[1]).next_hop(nodes[2]), None);
    // And no forwarding loop ever formed between 0 and 1 for dest 2.
    let loops = sim
        .trace()
        .unwrap()
        .iter()
        .filter(|e| {
            matches!(
                e,
                netsim::trace::TraceEvent::PacketDropped {
                    reason: netsim::packet::DropReason::TtlExpired,
                    ..
                }
            )
        })
        .count();
    assert_eq!(loops, 0);
}

#[test]
fn rip_fib_never_points_at_detected_down_neighbor() {
    let (mut sim, mesh) = rip_mesh(MeshDegree::D3, 21);
    sim.run_until(SimTime::from_secs(80));
    let a = mesh.node_at(3, 2);
    let b = mesh.node_at(3, 3);
    if let Some(link) = sim.link_between(a, b) {
        sim.schedule_link_failure(SimTime::from_secs(90), link)
            .unwrap();
        sim.run_until(SimTime::from_secs(150));
        for dst in mesh.graph().nodes() {
            assert_ne!(sim.fib(a).next_hop(dst), Some(b), "dest {dst}");
            assert_ne!(sim.fib(b).next_hop(dst), Some(a), "dest {dst}");
        }
    }
}

#[test]
fn control_load_is_periodic_and_bounded() {
    let (mut sim, _) = rip_mesh(MeshDegree::D4, 31);
    sim.run_until(SimTime::from_secs(100));
    let msgs = sim.stats().control_messages_sent;
    // 49 nodes x ~2 messages per neighbor per 30 s cycle x ~3.5 cycles,
    // plus warm-up triggered updates: well under 10000 and over 500.
    assert!(msgs > 500, "suspiciously few RIP messages: {msgs}");
    assert!(msgs < 20_000, "RIP message explosion: {msgs}");
}

#[test]
fn node_ids_cover_the_whole_mesh() {
    let (sim, mesh) = rip_mesh(MeshDegree::D6, 1);
    assert_eq!(sim.num_nodes(), 49);
    assert_eq!(mesh.graph().num_nodes(), 49);
    assert!(mesh.graph().nodes().all(|n| n.index() < 49));
    assert_eq!(NodeId::new(48).index(), 48);
}

#[test]
fn hold_down_delays_recovery_without_adding_loops() {
    use routing_core::damping::DampingMode;
    let with_config = |hold: Option<netsim::time::SimDuration>, seed: u64| {
        let mesh = Mesh::regular(7, 7, MeshDegree::D4);
        let (mut builder, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
        builder.seed(seed);
        let mut sim = builder.build().unwrap();
        let config = RipConfig {
            hold_down: hold,
            damping_mode: DampingMode::FirstImmediate,
            ..RipConfig::default()
        };
        for node in mesh.graph().nodes() {
            sim.install_protocol(
                node,
                Box::new(Rip::with_config(config).expect("valid config")),
            )
            .unwrap();
        }
        sim.start();
        sim.run_until(SimTime::from_secs(80));
        (sim, mesh)
    };

    let measure = |hold: Option<netsim::time::SimDuration>| -> f64 {
        let (mut sim, mesh) = with_config(hold, 55);
        let src = mesh.node_at(0, 3);
        let dst = mesh.node_at(6, 3);
        let path = match sim.forwarding_path(src, dst) {
            ForwardingPath::Complete(p) => p,
            other => panic!("not converged: {other:?}"),
        };
        let link = sim.link_between(path[2], path[3]).unwrap();
        sim.schedule_link_failure(SimTime::from_secs(90), link)
            .unwrap();
        // Probe reachability each second until the path heals.
        for s in 91..300u64 {
            sim.run_until(SimTime::from_secs(s));
            if sim.forwarding_path(src, dst).is_complete() {
                return (s - 90) as f64;
            }
        }
        panic!("never healed");
    };

    let plain = measure(None);
    let held = measure(Some(netsim::time::SimDuration::from_secs(20)));
    assert!(
        held >= plain + 5.0,
        "hold-down should delay recovery substantially ({held}s vs {plain}s)"
    );
    assert!(held >= 20.0, "recovery cannot beat the hold-down window");
}

#[test]
fn rip_messages_never_exceed_25_entries_on_the_wire() {
    // RFC 2453 §3.6: at most 25 RTEs per message. With the 20-byte frame
    // header and 4-byte RIP header, the largest legal frame is
    // 20 + 4 + 25 x 20 = 524 bytes.
    let (mut sim, mesh) = rip_mesh(MeshDegree::D6, 61);
    sim.run_until(SimTime::from_secs(80));
    let a = mesh.node_at(3, 3);
    let b = mesh.node_at(3, 4);
    let link = sim.link_between(a, b).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(90), link)
        .unwrap();
    sim.run_until(SimTime::from_secs(150));
    let mut seen_large = false;
    for event in sim.trace().unwrap() {
        if let netsim::trace::TraceEvent::ControlSent { bytes, .. } = event {
            assert!(bytes <= 524, "oversized RIP message: {bytes} bytes");
            if bytes == 524 {
                seen_large = true;
            }
        }
    }
    // The 49-destination table needs 2 messages; the first is full.
    assert!(seen_large, "full 25-entry messages should occur");
}
