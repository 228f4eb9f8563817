//! Property-based tests over the experiment harness and metrics.

mod oracle;

use convergence::metrics::convergence::{FibReplay, PathOutcome};
use convergence::metrics::drops::{count_delivered, count_drops};
use convergence::metrics::loops::analyze_loops;
use convergence::metrics::series::{delay_series, throughput_series};
use convergence::prelude::*;
use netsim::simulator::ForwardingPath;
use proptest::prelude::*;
use topology::mesh::MeshDegree;

fn degree_strategy() -> impl Strategy<Value = MeshDegree> {
    prop::sample::select(vec![MeshDegree::D3, MeshDegree::D4, MeshDegree::D6])
}

fn protocol_strategy() -> impl Strategy<Value = ProtocolKind> {
    prop::sample::select(vec![
        ProtocolKind::Dbf,
        ProtocolKind::Spf,
        ProtocolKind::Bgp3,
        ProtocolKind::Dual,
    ])
}

proptest! {
    // Each case is a full simulation; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Packet conservation holds for every protocol/degree/seed, and the
    /// trace agrees with the engine counters.
    #[test]
    fn conservation_and_trace_consistency(
        protocol in protocol_strategy(),
        degree in degree_strategy(),
        seed in 0u64..10_000,
    ) {
        let cfg = ExperimentConfig::paper(protocol, degree, seed);
        let result = run(&cfg).expect("run succeeds");
        let drops = count_drops(&result.trace);
        let delivered = count_delivered(&result.trace);
        prop_assert_eq!(result.stats.packets_injected, delivered + drops.total());
        prop_assert_eq!(result.stats.packets_delivered, delivered);
        prop_assert_eq!(result.stats.packets_dropped, drops.total());
    }

    /// Replaying the RouteChanged trace reconstructs exactly the live
    /// FIB state for every (src, dst) pair at the end of the run.
    #[test]
    fn fib_replay_matches_live_simulator(
        degree in degree_strategy(),
        seed in 0u64..1_000,
    ) {
        use netsim::link::LinkConfig;
        use netsim::time::SimTime;
        use topology::instantiate::to_simulator_builder;
        use topology::mesh::Mesh;

        let mesh = Mesh::regular(5, 5, degree);
        let (mut builder, links) =
            to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
        builder.seed(seed);
        let mut sim = builder.build().unwrap();
        for node in mesh.graph().nodes() {
            sim.install_protocol(node, Box::new(dbf::Dbf::new())).unwrap();
        }
        sim.start();
        sim.run_until(SimTime::from_secs(70));
        // Perturb: fail an arbitrary link, keep running.
        let pick = (seed as usize) % mesh.graph().num_edges();
        let edge = mesh.graph().edges().nth(pick).unwrap();
        sim.schedule_link_failure(SimTime::from_secs(80), links[&edge]).unwrap();
        sim.run_until(SimTime::from_secs(130));

        let mut replay = FibReplay::new(mesh.graph().num_nodes());
        for event in sim.trace() {
            replay.apply(&event);
        }
        for src in mesh.graph().nodes() {
            for dst in mesh.graph().nodes() {
                if src == dst {
                    continue;
                }
                prop_assert_eq!(
                    replay.next_hop(src, dst),
                    sim.fib(src).next_hop(dst),
                    "replay mismatch at {} -> {}", src, dst
                );
                let live = sim.forwarding_path(src, dst);
                let replayed = replay.walk(src, dst);
                let agree = matches!(
                    (&live, &replayed),
                    (ForwardingPath::Complete(_), PathOutcome::Complete(_))
                        | (ForwardingPath::Loop(_), PathOutcome::Loop(_))
                        | (ForwardingPath::Broken(_), PathOutcome::Broken(_))
                );
                prop_assert!(agree, "walk outcome mismatch at {} -> {}", src, dst);
            }
        }
    }

    /// The throughput series sums to the delivered-in-window count, and
    /// the window fully covers the traffic when the tail is inside it.
    #[test]
    fn throughput_series_sums_to_deliveries(seed in 0u64..10_000) {
        let cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D5, seed);
        let result = run(&cfg).expect("run succeeds");
        let series = throughput_series(&result.trace, result.t_fail, -10, 41);
        let sum: u64 = series.iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(sum, count_delivered(&result.trace));
    }

    /// Loop forensics and TTL drops agree: every TTL-expired packet
    /// appears in the loop report as TTL-killed.
    #[test]
    fn loop_report_covers_every_ttl_drop(
        degree in degree_strategy(),
        seed in 0u64..10_000,
    ) {
        let cfg = ExperimentConfig::paper(ProtocolKind::Bgp, degree, seed);
        let result = run(&cfg).expect("run succeeds");
        let report = analyze_loops(&result.trace);
        let ttl_drops = count_drops(&result.trace).ttl_expired;
        prop_assert_eq!(report.ttl_killed() as u64, ttl_drops);
    }

    /// Summaries are invariant under recomputation (pure functions of the
    /// trace).
    #[test]
    fn summarize_is_pure(seed in 0u64..10_000) {
        let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, seed);
        let result = run(&cfg).expect("run succeeds");
        prop_assert_eq!(summarize(&result), summarize(&result));
    }

    /// The single-pass observer behind `summarize` produces the exact
    /// `RunSummary` the seven-pass oracle does, for every
    /// protocol/degree/seed.
    #[test]
    fn summary_equals_seven_pass_oracle(
        protocol in protocol_strategy(),
        degree in degree_strategy(),
        seed in 0u64..10_000,
    ) {
        let cfg = ExperimentConfig::paper(protocol, degree, seed);
        let result = run(&cfg).expect("run succeeds");
        prop_assert_eq!(
            summarize(&result).expect("summary"),
            oracle::summarize_by_passes(&result).expect("oracle summary")
        );
    }
}

#[test]
fn summary_equals_oracle_on_a_paper_run() {
    let result = run(&ExperimentConfig::paper(
        ProtocolKind::Spf,
        MeshDegree::D4,
        3,
    ))
    .unwrap();
    assert_eq!(
        summarize(&result).unwrap(),
        oracle::summarize_by_passes(&result).unwrap()
    );
}

#[test]
fn summary_equals_oracle_on_a_low_degree_run() {
    let result = run(&ExperimentConfig::paper(
        ProtocolKind::Rip,
        MeshDegree::D3,
        5,
    ))
    .unwrap();
    let summary = summarize(&result).unwrap();
    assert_eq!(summary, oracle::summarize_by_passes(&result).unwrap());
    assert!(summary.looped_packets > 0 || summary.drops.total() > 0);
}

/// A run where a few looping packets escape their loop and get delivered,
/// so the loop-escape fold is compared on real data rather than zeros.
/// Such runs are rare: of 160 paper runs (BGP at degrees 3 and 4, DBF and
/// BGP-3 at degree 3, seeds 0–39) three had any.
#[test]
fn summary_equals_oracle_when_looping_packets_escape() {
    let result = run(&ExperimentConfig::paper(
        ProtocolKind::Bgp3,
        MeshDegree::D3,
        21,
    ))
    .unwrap();
    let summary = summarize(&result).unwrap();
    assert!(summary.loop_escapes > 0);
    assert_eq!(summary, oracle::summarize_by_passes(&result).unwrap());
}

/// Several concurrent CBR flows (the loaded fig5/fig7 shape, shortened):
/// packets of every flow interleave in the trace, and only the first
/// flow's packets count toward stretch.
#[test]
fn summary_equals_oracle_under_several_flows() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Bgp3, MeshDegree::D4, 11);
    cfg.traffic.flows = 5;
    cfg.traffic.rate_pps = 200;
    cfg.traffic.lead = netsim::time::SimDuration::from_secs(2);
    cfg.traffic.tail = netsim::time::SimDuration::from_secs(8);
    let result = run(&cfg).expect("run succeeds");
    assert_eq!(result.stats.packets_injected, 5 * 200 * 10);
    assert_eq!(
        summarize(&result).expect("summary"),
        oracle::summarize_by_passes(&result).expect("oracle summary")
    );
    // The fig5/fig7 series read only the delivery records. Over a window
    // covering the whole run they count every delivery and average to
    // the mean delay of a full decode.
    let secs = |t: netsim::time::SimTime| (t.as_nanos() / 1_000_000_000) as i64;
    let end = result.trace.iter().last().expect("records").time();
    let (from, to) = (
        -secs(result.t_fail) - 1,
        secs(end) - secs(result.t_fail) + 1,
    );
    let throughput = throughput_series(&result.trace, result.t_fail, from, to);
    let delays = delay_series(&result.trace, result.t_fail, from, to);
    let delivered: u64 = throughput.iter().map(|&(_, n)| n).sum();
    assert_eq!(delivered, count_delivered(&result.trace));
    let delay_sum: f64 = throughput
        .iter()
        .zip(&delays)
        .filter_map(|(&(_, n), &(_, mean))| mean.map(|m| m * n as f64))
        .sum();
    let expected = oracle::mean_delay(&result.trace).expect("deliveries");
    assert!((delay_sum / delivered as f64 - expected).abs() < 1e-9 * expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Welford's one-pass aggregate agrees with the naive two-pass
    /// mean/variance formulas to within floating-point noise.
    #[test]
    fn aggregate_matches_two_pass(
        raw in prop::collection::vec((0u64..2_000_000, 1u64..1_000), 1..40),
    ) {
        let values: Vec<f64> = raw
            .iter()
            .map(|&(num, den)| num as f64 / den as f64)
            .collect();
        let agg = Aggregate::of(&values).expect("nonempty sample");

        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let std_dev = var.sqrt();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        let scale = mean.abs().max(1.0);
        prop_assert!((agg.mean - mean).abs() <= 1e-9 * scale,
            "mean {} vs two-pass {}", agg.mean, mean);
        prop_assert!((agg.std_dev - std_dev).abs() <= 1e-9 * scale,
            "std_dev {} vs two-pass {}", agg.std_dev, std_dev);
        prop_assert_eq!(agg.min, min);
        prop_assert_eq!(agg.max, max);
        prop_assert_eq!(agg.n, values.len());
    }
}
