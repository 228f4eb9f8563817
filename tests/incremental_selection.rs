//! DBF and BGP re-run route selection only when its inputs changed.
//!
//! Both protocols skip selection for a destination when an advertisement
//! leaves the stored entry as it was and the destination is not marked
//! unsettled (see `dbf::Dbf` and `bgp::Bgp`). In debug builds every skip
//! asserts that a fresh selection returns the installed route, so each run
//! below is an equivalence check between incremental and full selection:
//! a skip that hides a route change panics the run.
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
use netsim::time::SimDuration;
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
