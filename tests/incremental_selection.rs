//! DBF and BGP re-run route selection only when its inputs changed.
//!
//! Both protocols skip selection for a destination when an advertisement
//! leaves the stored entry as it was and the destination is not marked
//! unsettled, and decide a changed entry from the current selection and
//! that one entry unless the selected route's own entry got worse (see
//! `dbf::Dbf` and `bgp::Bgp`). In debug builds every selection short of a
//! full one asserts that a fresh selection returns the installed route,
//! so each run below is an equivalence check between incremental and
//! full selection: a shortcut that hides a route change panics the run.
//!
//! The generated scenarios aim at the paths where the stored entries stay
//! put while the other inputs move: links that come back up (flaps and
//! crash/restart, with down times both above and below the 50 ms detection
//! delay), session resets, flap suppression and reuse, and background
//! jitter that delivers frames from a peer the receiver still perceives as
//! down.

use bgp::{Bgp, BgpConfig, FlapConfig};
use convergence::experiment::ProtocolFactory;
use convergence::prelude::*;
use netsim::link::LinkConfig;
use netsim::simulator::SimulatorBuilder;
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use topology::mesh::MeshDegree;

/// The protocol variants whose selection is incremental.
#[derive(Debug, Clone, Copy)]
enum Router {
    Dbf,
    Bgp,
    Bgp3,
    /// BGP-3 with RFC 2439 flap damping at the study's time scale.
    Bgp3Damped,
}

fn router_strategy() -> impl Strategy<Value = Router> {
    prop::sample::select(vec![
        Router::Dbf,
        Router::Bgp,
        Router::Bgp3,
        Router::Bgp3Damped,
    ])
}

/// Square meshes: `(side, interior degree)`.
fn mesh_strategy() -> impl Strategy<Value = (usize, MeshDegree)> {
    prop::sample::select(vec![
        (4, MeshDegree::D3),
        (5, MeshDegree::D4),
        (6, MeshDegree::D6),
    ])
}

fn plan_strategy() -> impl Strategy<Value = FailurePlan> {
    let ms = SimDuration::from_millis;
    prop::sample::select(vec![
        FailurePlan::FlappingLink {
            cycles: 3,
            down: SimDuration::from_secs(2),
            up: SimDuration::from_secs(3),
        },
        // Down and back up before either end detects the failure.
        FailurePlan::FlappingLink {
            cycles: 4,
            down: ms(30),
            up: ms(300),
        },
        FailurePlan::NodeCrashRestart {
            down: SimDuration::from_secs(5),
        },
        FailurePlan::NodeCrashRestart { down: ms(30) },
        FailurePlan::LossyLinkOnPath {
            impairment: Impairment::lossy(0.3).with_jitter(ms(20)),
            duration: SimDuration::from_secs(5),
        },
        FailurePlan::MultipleLinks { count: 2 },
    ])
}

fn config(
    router: Router,
    (side, degree): (usize, MeshDegree),
    failure: FailurePlan,
    jitter: bool,
    seed: u64,
) -> ExperimentConfig {
    let protocol = match router {
        Router::Dbf => ProtocolKind::Dbf,
        Router::Bgp => ProtocolKind::Bgp,
        Router::Bgp3 | Router::Bgp3Damped => ProtocolKind::Bgp3,
    };
    let mut cfg = ExperimentConfig::paper(protocol, degree, seed);
    cfg.topology = TopologySpec::Mesh {
        rows: side,
        cols: side,
        degree,
    };
    cfg.failure = failure;
    if jitter {
        // Frames in flight for up to 400 ms outlive a 30 ms outage and
        // reach a peer that detected the failure but not yet the repair.
        cfg.link.impairment = Impairment::lossy(0.01).with_jitter(SimDuration::from_millis(400));
    }
    if let Router::Bgp3Damped = router {
        cfg.protocol_override = Some(ProtocolFactory::new(|| {
            Box::new(
                Bgp::with_config(BgpConfig {
                    flap_damping: Some(FlapConfig::aggressive()),
                    ..BgpConfig::bgp3()
                })
                .expect("valid config"),
            )
        }));
    }
    cfg
}

proptest! {
    // Each case is a full simulation; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every skipped selection matches a fresh one (checked inside the
    /// protocols in debug builds), and the run still conserves packets.
    #[test]
    fn skipped_selections_match_a_fresh_selection(
        router in router_strategy(),
        mesh in mesh_strategy(),
        plan in plan_strategy(),
        jitter in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let cfg = config(router, mesh, plan.clone(), jitter == 1, seed);
        let result = run(&cfg).map_err(|e| {
            TestCaseError::fail(format!("{router:?} {mesh:?} {plan:?} seed {seed}: {e}"))
        })?;
        let summary = summarize(&result).expect("summary");
        prop_assert_eq!(summary.injected, summary.delivered + summary.drops.total());
    }
}

/// On the square 0–1, 0–2, 1–3, 2–3, router 0 reaches 3 through 1 (the
/// lower of two equal-cost neighbors). When link 1–3 fails, router 1 has
/// no other route to 3 (its only alternate runs back through 0), so it
/// withdraws 3 (BGP) or advertises it at infinity (DBF): the selected
/// route's own entry goes away, and only a full selection finds 2.
#[test]
fn withdrawing_the_selected_route_falls_back_to_a_full_selection() {
    for protocol in [ProtocolKind::Dbf, ProtocolKind::Bgp, ProtocolKind::Bgp3] {
        let mut builder = SimulatorBuilder::new();
        let n = builder.add_nodes(4);
        for (a, b) in [(0, 1), (0, 2), (2, 3)] {
            builder.add_link(n[a], n[b], LinkConfig::default()).unwrap();
        }
        let failing = builder.add_link(n[1], n[3], LinkConfig::default()).unwrap();
        builder.seed(7);
        let mut sim = builder.build().unwrap();
        for &node in &n {
            sim.install_protocol(node, protocol.build()).unwrap();
        }
        sim.start();
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.fib(n[0]).next_hop(n[3]), Some(n[1]), "{protocol:?}");
        sim.schedule_link_failure(SimTime::from_secs(61), failing)
            .unwrap();
        sim.run_until(SimTime::from_secs(75));
        assert_eq!(sim.fib(n[0]).next_hop(n[3]), Some(n[2]), "{protocol:?}");
    }
}
