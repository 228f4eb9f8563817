//! A run folds its products while it runs, through one trace sink, and
//! keeps no trace. This checks the fold against the trace it replaces:
//! for every protocol, traffic model and failure plan, `run` and
//! `run_traced` must give equal records and summaries, and the record's
//! census, the fig5/fig7 series and the summary must equal what the
//! oracle computes from the trace `run_traced` kept.

mod oracle;

use convergence::metrics::series::{delay_series, throughput_series};
use convergence::prelude::*;
use netsim::time::{SimDuration, SimTime};
use topology::mesh::MeshDegree;

const PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::Rip,
    ProtocolKind::Dbf,
    ProtocolKind::Bgp,
    ProtocolKind::Bgp3,
    ProtocolKind::Spf,
    ProtocolKind::Dual,
];

fn traffic_modes() -> [TrafficMode; 3] {
    [
        TrafficMode::Cbr,
        TrafficMode::Poisson,
        TrafficMode::GoBackN(GoBackNConfig {
            total_packets: 300,
            ..GoBackNConfig::default()
        }),
    ]
}

fn failure_plans() -> [FailurePlan; 3] {
    [
        FailurePlan::SingleLinkOnPath,
        FailurePlan::NodeCrashRestart {
            down: SimDuration::from_secs(5),
        },
        FailurePlan::LossyLinkOnPath {
            impairment: Impairment::lossy(0.3),
            duration: SimDuration::from_secs(10),
        },
    ]
}

/// Whole seconds of `t`.
fn secs(t: SimTime) -> i64 {
    (t.as_nanos() / 1_000_000_000) as i64
}

/// Runs `cfg` with and without a kept trace and checks every product of
/// the fold against the trace.
fn check(cfg: &ExperimentConfig, case: &str) {
    let plain = run(cfg).unwrap_or_else(|e| panic!("{case}: {e}"));
    let (traced, trace) = run_traced(cfg).unwrap_or_else(|e| panic!("{case}: {e}"));
    assert_eq!(plain.trace, traced.trace, "{case}: records differ");
    assert_eq!(plain.summary, traced.summary, "{case}: summaries differ");
    assert_eq!(plain.stats, traced.stats, "{case}: engine counters differ");

    let census = traced.trace.census();
    assert_eq!(census, oracle::census(&trace), "{case}: census");
    assert_eq!(census.records(), trace.len() as u64, "{case}: record count");

    // A window from time zero to past the last record covers every
    // delivery.
    let end = trace.iter().last().map_or(traced.t_fail, |e| e.time());
    let (from, to) = (
        -secs(traced.t_fail) - 1,
        secs(end) - secs(traced.t_fail) + 1,
    );
    assert_eq!(
        throughput_series(&traced.trace, traced.t_fail, from, to),
        oracle::throughput_series(&trace, traced.t_fail, from, to),
        "{case}: throughput series"
    );
    assert_eq!(
        delay_series(&traced.trace, traced.t_fail, from, to),
        oracle::delay_series(&trace, traced.t_fail, from, to),
        "{case}: delay series"
    );

    assert_eq!(
        summarize(&plain).expect("summary"),
        oracle::summarize_by_passes(&traced, &trace).expect("oracle summary"),
        "{case}: summary differs from the oracle's"
    );
}

/// `protocol` under every traffic model and failure plan, on the paper's
/// degree-4 mesh; each protocol's nine runs take their own seeds.
fn check_protocol(protocol: ProtocolKind) {
    let mut seed = 1 + 100 * PROTOCOLS.iter().position(|&p| p == protocol).unwrap_or(0) as u64;
    for mode in traffic_modes() {
        for plan in failure_plans() {
            let case = format!("{protocol} {mode:?} {plan:?} seed {seed}");
            let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, seed);
            cfg.traffic.mode = mode;
            cfg.failure = plan;
            check(&cfg, &case);
            seed += 1;
        }
    }
}

#[test]
fn rip_folds_what_its_trace_records() {
    check_protocol(ProtocolKind::Rip);
}

#[test]
fn dbf_folds_what_its_trace_records() {
    check_protocol(ProtocolKind::Dbf);
}

#[test]
fn bgp_folds_what_its_trace_records() {
    check_protocol(ProtocolKind::Bgp);
}

#[test]
fn bgp3_folds_what_its_trace_records() {
    check_protocol(ProtocolKind::Bgp3);
}

#[test]
fn spf_folds_what_its_trace_records() {
    check_protocol(ProtocolKind::Spf);
}

#[test]
fn dual_folds_what_its_trace_records() {
    check_protocol(ProtocolKind::Dual);
}
