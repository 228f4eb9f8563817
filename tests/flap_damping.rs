//! Integration tests of RFC 2439 route-flap damping over a flapping link.

use bgp::{Bgp, BgpConfig, FlapConfig};
use convergence::experiment::ProtocolFactory;
use convergence::failure::FailurePlan;
use convergence::prelude::*;
use netsim::time::SimDuration;
use topology::mesh::MeshDegree;

fn flapping_plan() -> FailurePlan {
    FailurePlan::FlappingLink {
        cycles: 3,
        down: SimDuration::from_secs(2),
        up: SimDuration::from_secs(3),
    }
}

fn run_flapping(damping: bool, seed: u64) -> RunSummary {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Bgp3, MeshDegree::D6, seed);
    cfg.failure = flapping_plan();
    cfg.traffic.tail = SimDuration::from_secs(60);
    if damping {
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
    summarize(&run(&cfg).expect("run succeeds")).expect("summary")
}

#[test]
fn flapping_link_recovers_without_damping() {
    let mut delivered = 0u64;
    let mut injected = 0u64;
    for seed in 0..5 {
        let s = run_flapping(false, 8100 + seed);
        delivered += s.delivered;
        injected += s.injected;
    }
    let ratio = delivered as f64 / injected as f64;
    assert!(
        ratio > 0.95,
        "undamped BGP-3 should ride out flaps: {ratio:.3}"
    );
}

#[test]
fn damping_extends_unavailability_after_flaps_stop() {
    // The Mao et al. effect the paper's intro cites: suppression outlives
    // the instability.
    let mut conv_off = 0.0;
    let mut conv_on = 0.0;
    for seed in 0..5 {
        conv_off += run_flapping(false, 8200 + seed).routing_convergence_s;
        conv_on += run_flapping(true, 8200 + seed).routing_convergence_s;
    }
    assert!(
        conv_on > conv_off + 5.0,
        "damping should extend convergence substantially ({:.1}s vs {:.1}s)",
        conv_on / 5.0,
        conv_off / 5.0
    );
}

#[test]
fn damped_runs_remain_deterministic_and_conservative() {
    let a = run_flapping(true, 8300);
    let b = run_flapping(true, 8300);
    assert_eq!(a, b);
    assert_eq!(a.injected, a.delivered + a.drops.total());
}

#[test]
fn single_failure_is_unaffected_by_damping() {
    // One failure = one withdrawal per route: never crosses the suppress
    // threshold, so damping-on equals damping-off.
    let run_once = |damping: bool| -> RunSummary {
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Bgp3, MeshDegree::D6, 8400);
        if damping {
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
        summarize(&run(&cfg).expect("run succeeds")).expect("summary")
    };
    let off = run_once(false);
    let on = run_once(true);
    assert_eq!(off.drops, on.drops);
    assert_eq!(off.delivered, on.delivered);
}
