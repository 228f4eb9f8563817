//! Integration tests of the §6 extension features: link-state routing,
//! multiple flows, compound failures, and random topologies.

use convergence::experiment::TopologySpec;
use convergence::failure::FailurePlan;
use convergence::prelude::*;
use netsim::rng::SimRng;
use topology::mesh::MeshDegree;
use topology::random::{gilbert, waxman};

#[test]
fn spf_outconverges_every_distance_vector_protocol() {
    // Degree 3 forces real path exploration on the distance/path vector
    // protocols; SPF just floods and recomputes. Average a few seeds.
    let rt = |protocol: ProtocolKind| -> f64 {
        (0..5u64)
            .map(|seed| {
                let cfg = ExperimentConfig::paper(protocol, MeshDegree::D3, 50 + seed);
                summarize(&run(&cfg).expect("run succeeds"))
                    .expect("summary")
                    .routing_convergence_s
            })
            .sum::<f64>()
            / 5.0
    };
    let spf = rt(ProtocolKind::Spf);
    assert!(
        spf < 1.0,
        "SPF should converge in under a second, got {spf}"
    );
    for protocol in [ProtocolKind::Rip, ProtocolKind::Bgp] {
        let dv = rt(protocol);
        assert!(
            dv > spf,
            "{protocol} ({dv:.3}s) should converge slower than SPF ({spf:.3}s)"
        );
    }
}

#[test]
fn multiple_flows_share_one_failure() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D5, 11);
    cfg.traffic.flows = 4;
    let result = run(&cfg).expect("run succeeds");
    assert_eq!(result.flows.len(), 4);
    let s = summarize(&result).expect("summary");
    // 4 flows x 20 pps x 50 s window.
    assert_eq!(s.injected, 4 * 1000);
    assert_eq!(s.injected, s.delivered + s.drops.total());
    assert!(s.delivery_ratio() > 0.9);
}

#[test]
fn double_link_failure_never_partitions() {
    for seed in 0..10 {
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, seed);
        cfg.failure = FailurePlan::MultipleLinks { count: 2 };
        let result = run(&cfg).expect("run succeeds");
        assert_eq!(result.failure.edges.len(), 2);
        let mut degraded = result.graph.clone();
        for edge in &result.failure.edges {
            degraded = degraded.without_edge(*edge);
        }
        assert!(degraded.is_connected(), "seed {seed} partitioned the mesh");
        // SPF reroutes around both failures.
        let s = summarize(&result).expect("summary");
        assert!(
            s.delivery_ratio() > 0.95,
            "seed {seed}: {}",
            s.delivery_ratio()
        );
    }
}

#[test]
fn router_failure_takes_down_all_its_links() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D6, 3);
    cfg.failure = FailurePlan::NodeOnPath;
    let result = run(&cfg).expect("run succeeds");
    let victim = result.failure.node.expect("node failure selects a victim");
    assert_eq!(
        result.failure.edges.len(),
        result.graph.neighbors(victim).len(),
        "every incident link must fail"
    );
    assert!(result
        .failure
        .edges
        .iter()
        .all(|e| e.a == victim || e.b == victim));
    // The victim was an interior router of the flow's path, not an
    // endpoint.
    let flow = result.flows[0];
    assert_ne!(victim, flow.sender);
    assert_ne!(victim, flow.receiver);
}

#[test]
fn random_topologies_run_end_to_end() {
    let graph = gilbert(30, 0.15, &mut SimRng::seed_from(8));
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 21);
    cfg.topology = TopologySpec::Custom(graph);
    cfg.failure = FailurePlan::None; // random graphs may have bridges
    let result = run(&cfg).expect("run succeeds");
    let s = summarize(&result).expect("summary");
    assert_eq!(s.drops.total(), 0);
    assert_eq!(s.delivered, s.injected);
}

#[test]
fn waxman_topology_with_failure() {
    // Waxman graphs may contain bridges; retry seeds until the chosen
    // on-path link is survivable, mirroring how a practitioner would use
    // the harness on irregular topologies.
    for seed in 0..20 {
        let graph = waxman(25, 0.6, 0.3, &mut SimRng::seed_from(seed));
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, seed);
        cfg.topology = TopologySpec::Custom(graph.clone());
        let result = match run(&cfg) {
            Ok(r) => r,
            Err(RunError::NoPath(_)) => continue,
            Err(e) => panic!("unexpected error: {e}"),
        };
        let edge = result.failure.edges[0];
        if !graph.without_edge(edge).is_connected() {
            continue; // bridge failed; the flow legitimately dies
        }
        let s = summarize(&result).expect("summary");
        assert!(
            s.delivery_ratio() > 0.9,
            "seed {seed}: delivery {}",
            s.delivery_ratio()
        );
        return;
    }
    panic!("no usable waxman scenario in 20 seeds");
}

#[test]
fn no_failure_baseline_is_perfect_for_all_protocols() {
    for protocol in ProtocolKind::ALL {
        let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, 77);
        cfg.failure = FailurePlan::None;
        let s = summarize(&run(&cfg).expect("run succeeds")).expect("summary");
        assert_eq!(
            s.drops.total(),
            0,
            "{protocol} dropped packets with no failure"
        );
        assert_eq!(s.routing_convergence_s, 0.0);
        assert_eq!(s.transient_paths, 0);
    }
}

#[test]
fn distance_vector_metric_horizon_is_respected() {
    // RFC 2453's infinity of 16 caps the usable network diameter: on a
    // degree-4 13x13 grid (diameter 24), far-apart pairs are legitimately
    // unreachable under RIP — while link-state SPF covers the whole mesh.
    use netsim::link::LinkConfig;
    use netsim::time::SimTime;
    use topology::instantiate::to_simulator_builder;
    use topology::mesh::Mesh;

    let mesh = Mesh::regular(13, 13, MeshDegree::D4);
    let build = |protocol: ProtocolKind| {
        let (mut b, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
        b.seed(7);
        let mut sim = b.build().unwrap();
        for n in mesh.graph().nodes() {
            sim.install_protocol(n, protocol.build()).unwrap();
        }
        sim.start();
        sim.run_until(SimTime::from_secs(150));
        sim
    };

    let corner = mesh.node_at(0, 0);
    let near = mesh.node_at(5, 5); // 10 hops: inside the horizon
    let far = mesh.node_at(12, 12); // 24 hops: beyond infinity

    let rip_sim = build(ProtocolKind::Rip);
    assert!(rip_sim.forwarding_path(corner, near).is_complete());
    assert!(
        !rip_sim.forwarding_path(corner, far).is_complete(),
        "a 24-hop pair must be beyond RIP's metric 16"
    );

    let spf_sim = build(ProtocolKind::Spf);
    assert!(spf_sim.forwarding_path(corner, far).is_complete());
}
