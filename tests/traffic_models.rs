//! Tests of the alternative traffic models and weighted link costs.

use convergence::prelude::*;
use netsim::ident::NodeId;
use netsim::link::LinkConfig;
use netsim::time::SimTime;
use topology::mesh::MeshDegree;

#[test]
fn poisson_traffic_delivers_like_cbr_on_average() {
    let run_mode = |mode: TrafficMode, seed: u64| {
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D6, seed);
        cfg.traffic.mode = mode;
        summarize(&run(&cfg).expect("run succeeds")).expect("summary")
    };
    let mut cbr_total = 0u64;
    let mut poisson_total = 0u64;
    let mut poisson_injected = 0u64;
    for seed in 0..6 {
        cbr_total += run_mode(TrafficMode::Cbr, 600 + seed).delivered;
        let p = run_mode(TrafficMode::Poisson, 600 + seed);
        poisson_total += p.delivered;
        poisson_injected += p.injected;
        assert!(
            p.delivery_ratio() > 0.98,
            "seed {seed}: {}",
            p.delivery_ratio()
        );
    }
    // Poisson injects ~rate x window packets on average (20 x 50 = 1000/run).
    let mean_injected = poisson_injected as f64 / 6.0;
    assert!(
        (700.0..1300.0).contains(&mean_injected),
        "Poisson mean count off: {mean_injected}"
    );
    // Totals comparable within 30%.
    let ratio = poisson_total as f64 / cbr_total as f64;
    assert!((0.7..1.3).contains(&ratio), "delivery ratio off: {ratio}");
}

#[test]
fn poisson_runs_are_deterministic() {
    let digest = |seed: u64| {
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, seed);
        cfg.traffic.mode = TrafficMode::Poisson;
        let r = run(&cfg).expect("run succeeds");
        (r.stats.packets_injected, r.stats.packets_delivered)
    };
    assert_eq!(digest(9), digest(9));
}

/// A 4-node diamond where the 2-hop route is cheaper than the 1-hop route:
///
/// ```text
///     0 ---(cost 10)--- 3
///     0 -1- 1 -1- 2 -1- 3   (total cost 3)
/// ```
fn weighted_diamond() -> (netsim::simulator::SimulatorBuilder, Vec<NodeId>) {
    let mut b = netsim::simulator::SimulatorBuilder::new();
    let nodes = b.add_nodes(4);
    let expensive = LinkConfig {
        cost: 10,
        ..LinkConfig::default()
    };
    b.add_link(nodes[0], nodes[3], expensive).unwrap();
    for w in nodes.windows(2) {
        b.add_link(w[0], w[1], LinkConfig::default()).unwrap();
    }
    (b, nodes)
}

#[test]
fn cost_aware_protocols_avoid_the_expensive_shortcut() {
    // RIP, DBF, SPF and DUAL minimize additive cost: 0->3 must route the
    // long way (3 hops, cost 3) rather than the direct cost-10 link.
    for protocol in [
        ProtocolKind::Rip,
        ProtocolKind::Dbf,
        ProtocolKind::Spf,
        ProtocolKind::Dual,
    ] {
        let (mut b, nodes) = weighted_diamond();
        b.seed(1);
        let mut sim = b.build().unwrap();
        for &n in &nodes {
            sim.install_protocol(n, protocol.build()).unwrap();
        }
        sim.start();
        sim.run_until(SimTime::from_secs(90));
        assert_eq!(
            sim.fib(nodes[0]).next_hop(nodes[3]),
            Some(nodes[1]),
            "{protocol} should take the cheap 3-hop path"
        );
    }
}

#[test]
fn bgp_counts_as_hops_and_takes_the_shortcut() {
    // BGP's shortest-AS-path policy ignores link costs: the 1-hop
    // expensive link wins.
    let (mut b, nodes) = weighted_diamond();
    b.seed(2);
    let mut sim = b.build().unwrap();
    for &n in &nodes {
        sim.install_protocol(n, ProtocolKind::Bgp3.build()).unwrap();
    }
    sim.start();
    sim.run_until(SimTime::from_secs(90));
    assert_eq!(
        sim.fib(nodes[0]).next_hop(nodes[3]),
        Some(nodes[3]),
        "BGP should take the direct AS hop regardless of cost"
    );
}

#[test]
fn cost_failover_falls_back_to_the_expensive_link() {
    // When the cheap path breaks, cost-aware protocols switch to the
    // expensive shortcut rather than blackholing.
    let (mut b, nodes) = weighted_diamond();
    b.seed(3);
    let mut sim = b.build().unwrap();
    for &n in &nodes {
        sim.install_protocol(n, ProtocolKind::Dbf.build()).unwrap();
    }
    sim.start();
    sim.run_until(SimTime::from_secs(90));
    let link = sim.link_between(nodes[1], nodes[2]).unwrap();
    sim.schedule_link_failure(SimTime::from_secs(100), link)
        .unwrap();
    sim.run_until(SimTime::from_secs(200));
    assert_eq!(sim.fib(nodes[0]).next_hop(nodes[3]), Some(nodes[3]));
}
