//! Golden-trace regression tests: one small fixed-seed run per paper
//! protocol, with the full `TraceEvent` stream pinned as a compressed
//! fixture under `tests/golden/`, and the run's `RunSummary` pinned next
//! to it as `<name>.summary.txt`. SPF and DUAL get the same pair, and so
//! do two fault scenarios: an impaired-link run (loss plus jitter, so
//! frame arrivals leave the calendar's FIFO lane) and a router
//! crash/restart. Two traffic variants get the pair as well: Poisson
//! arrivals (packets injected by eagerly scheduled events) and a
//! go-back-N transfer (application timers and ACK-sized data frames).
//! One more summary fixture pins a loaded run (5 flows × 400 pps, the
//! fig5/fig7 load).
//!
//! Any engine change that reorders events, alters a tie-break, or drifts
//! a timer shows up here as a byte-level diff of the rendered trace —
//! *before* it can silently shift the paper's figures. Any metrics change
//! that moves a reported number, down to the last bit of a float, shows
//! up as a summary diff. The trace fixtures are compressed with the small
//! LZ77 codec in `golden_trace/codec.rs`, so they stay small enough to
//! commit.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_trace
//! ```
//!
//! and commit the updated fixtures together with the change that
//! justified them.

#[path = "golden_trace/codec.rs"]
mod codec;

use convergence::experiment::TopologySpec;
use convergence::prelude::*;
use netsim::time::SimDuration;
use topology::mesh::MeshDegree;

/// The golden scenario: the paper's degree-4 single-link failure shrunk
/// to a 4×4 mesh with a short, low-rate flow, so each fixture stays a
/// few kilobytes compressed while still exercising failure detection,
/// convergence, and the full drop taxonomy.
fn golden_config(protocol: ProtocolKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, 20030622);
    cfg.topology = TopologySpec::Mesh {
        rows: 4,
        cols: 4,
        degree: MeshDegree::D4,
    };
    cfg.traffic.lead = SimDuration::from_secs(2);
    cfg.traffic.tail = SimDuration::from_secs(10);
    cfg.traffic.rate_pps = 10;
    cfg.drain = SimDuration::from_secs(30);
    cfg
}

/// The golden scenario under the load of the fig5/fig7 timelines: 5 CBR
/// flows at 400 pps each.
fn loaded_config() -> ExperimentConfig {
    let mut cfg = golden_config(ProtocolKind::Bgp);
    cfg.traffic.flows = 5;
    cfg.traffic.rate_pps = 400;
    cfg
}

/// The golden scenario with loss and jitter on every link: BGP-3's
/// reliable sessions retransmit, data frames are lost, and every arrival
/// is scheduled at its own jittered time.
fn impaired_config() -> ExperimentConfig {
    let mut cfg = golden_config(ProtocolKind::Bgp3);
    cfg.link.impairment = Impairment::lossy(0.05).with_jitter(SimDuration::from_micros(700));
    cfg
}

/// The golden scenario with an on-path router that crashes and reboots
/// cold 5 s later.
fn crash_restart_config() -> ExperimentConfig {
    let mut cfg = golden_config(ProtocolKind::Dbf);
    cfg.failure = FailurePlan::NodeCrashRestart {
        down: SimDuration::from_secs(5),
    };
    cfg
}

/// The golden scenario with Poisson arrivals: every packet is its own
/// eagerly scheduled injection event.
fn poisson_config() -> ExperimentConfig {
    let mut cfg = golden_config(ProtocolKind::Rip);
    cfg.traffic.mode = TrafficMode::Poisson;
    cfg
}

/// The golden scenario with a small go-back-N transfer in place of CBR:
/// retransmission timers are application timers, and the 40-byte ACKs
/// are data frames whose serialization delay differs from the data
/// packets'. The failure comes 100 ms into the transfer, so packets are
/// lost and a retransmission timer fires.
fn gbn_config() -> ExperimentConfig {
    let mut cfg = golden_config(ProtocolKind::Dbf);
    cfg.traffic.lead = SimDuration::from_millis(100);
    cfg.traffic.mode = TrafficMode::GoBackN(GoBackNConfig {
        total_packets: 200,
        ..GoBackNConfig::default()
    });
    cfg
}

/// With `GOLDEN_REGEN` set, writes `bytes` as the fixture
/// `tests/golden/<file>` and returns `None`; otherwise returns the
/// committed fixture.
fn golden_fixture(file: &str, bytes: &[u8]) -> Option<Vec<u8>> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create dir");
        std::fs::write(&path, bytes).expect("write fixture");
        return None;
    }
    Some(std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run GOLDEN_REGEN=1 cargo test --test golden_trace",
            path.display()
        )
    }))
}

/// Pins `summarize`'s output for one run. `{:#?}` prints every float in
/// its shortest round-trip form, so equal text means equal bits.
fn check_golden_summary(cfg: &ExperimentConfig, name: &str) {
    let result = run(cfg).expect("golden run succeeds");
    let rendered = format!("{:#?}\n", summarize(&result).expect("summary"));
    let Some(golden) = golden_fixture(&format!("{name}.summary.txt"), rendered.as_bytes()) else {
        return;
    };
    let golden = String::from_utf8(golden).expect("fixture is utf-8");
    assert_eq!(
        rendered, golden,
        "{name}: summary differs from the golden fixture"
    );
}

fn check_golden_trace(cfg: &ExperimentConfig, name: &str) {
    let result = run(cfg).expect("golden run succeeds");
    let rendered = result.trace.render_lines();
    let file = format!("{name}.trace.lz");
    let Some(compressed) = golden_fixture(&file, &codec::compress(rendered.as_bytes())) else {
        return;
    };
    let golden = codec::decompress(&compressed).expect("fixture decompresses");
    let golden = String::from_utf8(golden).expect("fixture is utf-8");
    if rendered != golden {
        // Point at the first divergent line: a full multi-thousand-line
        // assert_eq dump is useless for diagnosing a tie-break change.
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        let got = rendered.lines().nth(line).unwrap_or("<end of trace>");
        let want = golden.lines().nth(line).unwrap_or("<end of trace>");
        panic!(
            "{name}: trace diverges from golden fixture at line {} of {} (golden {}):\n  got:  {got}\n  want: {want}",
            line + 1,
            rendered.lines().count(),
            golden.lines().count(),
        );
    }
}

#[test]
fn golden_trace_rip() {
    check_golden_trace(&golden_config(ProtocolKind::Rip), "rip");
}

#[test]
fn golden_trace_dbf() {
    check_golden_trace(&golden_config(ProtocolKind::Dbf), "dbf");
}

#[test]
fn golden_trace_bgp() {
    check_golden_trace(&golden_config(ProtocolKind::Bgp), "bgp");
}

#[test]
fn golden_trace_bgp3() {
    check_golden_trace(&golden_config(ProtocolKind::Bgp3), "bgp3");
}

#[test]
fn golden_trace_spf() {
    check_golden_trace(&golden_config(ProtocolKind::Spf), "spf");
}

#[test]
fn golden_trace_dual() {
    check_golden_trace(&golden_config(ProtocolKind::Dual), "dual");
}

#[test]
fn golden_trace_impaired() {
    check_golden_trace(&impaired_config(), "impaired");
}

#[test]
fn golden_trace_crash_restart() {
    check_golden_trace(&crash_restart_config(), "crash_restart");
}

#[test]
fn golden_trace_poisson() {
    check_golden_trace(&poisson_config(), "poisson");
}

#[test]
fn golden_trace_gbn() {
    check_golden_trace(&gbn_config(), "gbn");
}

/// The golden scenario itself is deterministic: two runs render
/// byte-identical traces (guards the fixtures against flakiness of the
/// scenario rather than of the engine).
#[test]
fn golden_scenario_is_deterministic() {
    let a = run(&golden_config(ProtocolKind::Dbf)).expect("run");
    let b = run(&golden_config(ProtocolKind::Dbf)).expect("run");
    assert_eq!(a.trace.render_lines(), b.trace.render_lines());
}

#[test]
fn golden_summary_rip() {
    check_golden_summary(&golden_config(ProtocolKind::Rip), "rip");
}

#[test]
fn golden_summary_dbf() {
    check_golden_summary(&golden_config(ProtocolKind::Dbf), "dbf");
}

#[test]
fn golden_summary_bgp() {
    check_golden_summary(&golden_config(ProtocolKind::Bgp), "bgp");
}

#[test]
fn golden_summary_bgp3() {
    check_golden_summary(&golden_config(ProtocolKind::Bgp3), "bgp3");
}

#[test]
fn golden_summary_loaded() {
    check_golden_summary(&loaded_config(), "loaded");
}

#[test]
fn golden_summary_spf() {
    check_golden_summary(&golden_config(ProtocolKind::Spf), "spf");
}

#[test]
fn golden_summary_dual() {
    check_golden_summary(&golden_config(ProtocolKind::Dual), "dual");
}

#[test]
fn golden_summary_impaired() {
    check_golden_summary(&impaired_config(), "impaired");
}

#[test]
fn golden_summary_crash_restart() {
    check_golden_summary(&crash_restart_config(), "crash_restart");
}

#[test]
fn golden_summary_poisson() {
    check_golden_summary(&poisson_config(), "poisson");
}

#[test]
fn golden_summary_gbn() {
    check_golden_summary(&gbn_config(), "gbn");
}
