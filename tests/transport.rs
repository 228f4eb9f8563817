//! End-to-end tests of the go-back-N transport riding over converging
//! routing protocols (paper §6's TCP-performance future work).

use convergence::prelude::*;
use netsim::time::{SimDuration, SimTime};
use topology::mesh::MeshDegree;

fn gbn_config(total: u64) -> GoBackNConfig {
    GoBackNConfig {
        total_packets: total,
        ..GoBackNConfig::default()
    }
}

fn run_transfer(
    protocol: ProtocolKind,
    degree: MeshDegree,
    seed: u64,
    total: u64,
) -> (RunResult, WindowFlowReport) {
    let mut cfg = ExperimentConfig::paper(protocol, degree, seed);
    cfg.traffic.mode = TrafficMode::GoBackN(gbn_config(total));
    // Closed-loop flows run at link speed (~hundreds of packets/s), far
    // faster than the paper's 20 pkt/s CBR: shorten the pre-failure lead
    // so the transfer is still in flight when the link dies.
    cfg.traffic.lead = SimDuration::from_secs(2);
    cfg.drain = SimDuration::from_secs(240);
    let result = run(&cfg).expect("run succeeds");
    let report = result.flow_reports[0].clone();
    (result, report)
}

#[test]
fn transfer_completes_on_dense_mesh_despite_failure() {
    let (result, report) = run_transfer(ProtocolKind::Dbf, MeshDegree::D6, 1, 4000);
    let completed = report.completed_at.expect("transfer should finish");
    assert!(completed > result.t_fail, "transfer spans the failure");
    // DBF at degree 6 switches instantly: at most one RTO's worth of
    // retransmissions.
    assert!(
        report.retransmissions <= 2 * 8,
        "expected near-zero retransmissions, got {}",
        report.retransmissions
    );
}

#[test]
fn reliability_masks_convergence_loss_on_sparse_mesh() {
    // Over RIP at degree 3 the outage lasts many seconds; go-back-N stalls
    // and retransmits, but everything eventually arrives in order.
    let (result, report) = run_transfer(ProtocolKind::Rip, MeshDegree::D3, 2, 4000);
    let completed = report.completed_at.expect("transfer should finish");
    assert!(
        report.retransmissions > 0,
        "the outage must force retransmission"
    );
    assert!(completed > result.t_fail);
    // The stall is visible as zero goodput right after the failure...
    let during = report.goodput(result.t_fail, result.t_fail + SimDuration::from_secs(5));
    // ...and recovery restores it later.
    let before = report.goodput(
        SimTime::from_nanos(result.t_fail.as_nanos() - 2_000_000_000),
        result.t_fail,
    );
    assert!(
        during < before,
        "goodput should dip during convergence ({during:.1} vs {before:.1} pkt/s)"
    );
}

#[test]
fn progress_is_monotone_and_complete() {
    let (_, report) = run_transfer(ProtocolKind::Bgp3, MeshDegree::D5, 3, 500);
    assert!(report
        .progress
        .windows(2)
        .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    assert_eq!(report.progress.last().unwrap().1, 500);
}

#[test]
fn multiple_transfers_share_the_network() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D6, 4);
    cfg.traffic.flows = 3;
    cfg.traffic.mode = TrafficMode::GoBackN(gbn_config(300));
    let result = run(&cfg).expect("run succeeds");
    assert_eq!(result.flow_reports.len(), 3);
    for (i, report) in result.flow_reports.iter().enumerate() {
        assert!(report.completed_at.is_some(), "flow {i} did not complete");
    }
    // Endpoints pairwise distinct.
    for i in 0..3 {
        for j in (i + 1)..3 {
            assert_ne!(result.flows[i].sender, result.flows[j].sender);
            assert_ne!(result.flows[i].receiver, result.flows[j].receiver);
        }
    }
}

#[test]
fn transfer_determinism() {
    let (_, a) = run_transfer(ProtocolKind::Dbf, MeshDegree::D4, 9, 400);
    let (_, b) = run_transfer(ProtocolKind::Dbf, MeshDegree::D4, 9, 400);
    assert_eq!(a, b);
}

#[test]
fn config_validation_limits_flow_count() {
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 1);
    cfg.traffic.flows = 8; // only 7 first-row senders exist
    cfg.traffic.mode = TrafficMode::GoBackN(gbn_config(10));
    assert!(cfg.validate().is_err());
}
