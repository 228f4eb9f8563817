//! Exact work counts of the engine and its protocols.
//!
//! For each protocol, three seeded paper runs at degree 4 (the seeds the
//! sweeps use for that point) are counted: events processed, the peak
//! calendar high water, control messages sent, stale timer pops, control
//! sends that shared an already-queued payload, and the trace records the
//! run's sink counted, in all and of kind `ControlSent`. These counts are
//! the same on every machine and in debug and release builds, so any
//! difference from the table is a real change in how much work a run
//! does. A change that moves a count on purpose pastes the measured
//! table the failure prints and says why in its description.

use convergence::prelude::*;
use topology::mesh::MeshDegree;

/// The sweeps' degree-4 point seeds (`BASE_SEED + 4 * 100_000 + i`).
const SEEDS: [u64; 3] = [20_430_622, 20_430_623, 20_430_624];

/// What each entry of a row counts, over the three runs.
const COLUMNS: [&str; 7] = [
    "events (total)",
    "calendar high water (max)",
    "control msgs (total)",
    "stale timer pops (total)",
    "payloads shared (total)",
    "trace records (total)",
    "ControlSent records (total)",
];

const EXPECTED: [(ProtocolKind, [u64; 7]); 6] = [
    (
        ProtocolKind::Rip,
        [87010, 2666, 12747, 7332, 504, 51677, 12747],
    ),
    (ProtocolKind::Dbf, [79385, 281, 10959, 504, 0, 53752, 10959]),
    (ProtocolKind::Bgp, [137545, 336, 39099, 0, 0, 81901, 39099]),
    (ProtocolKind::Bgp3, [136439, 336, 38529, 0, 0, 81330, 38529]),
    (
        ProtocolKind::Spf,
        [91957, 1076, 18348, 0, 18348, 57581, 18348],
    ),
    (
        ProtocolKind::Dual,
        [126244, 2056, 35606, 56, 35479, 77882, 35606],
    ),
];

fn counts(protocol: ProtocolKind) -> [u64; 7] {
    let mut row = [0; 7];
    for seed in SEEDS {
        let cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, seed);
        let result = run(&cfg).unwrap_or_else(|e| panic!("{protocol} seed {seed}: {e}"));
        let (stats, census) = (result.stats, result.trace.census());
        row[0] += stats.events_processed;
        row[1] = row[1].max(stats.queue_high_water);
        row[2] += stats.control_messages_sent;
        row[3] += stats.stale_timer_pops;
        row[4] += stats.control_payloads_shared;
        row[5] += census.records();
        row[6] += census.control_sent;
    }
    row
}

#[test]
fn work_counts_equal_the_table() {
    let measured: Vec<(ProtocolKind, [u64; 7])> = EXPECTED
        .iter()
        .map(|&(protocol, _)| (protocol, counts(protocol)))
        .collect();
    let mut differences = Vec::new();
    for (&(protocol, expected), (_, got)) in EXPECTED.iter().zip(&measured) {
        for (column, (e, g)) in COLUMNS.iter().zip(expected.iter().zip(got)) {
            if e != g {
                differences.push(format!("  {protocol} {column}: {g}, table {e}"));
            }
        }
    }
    let source: Vec<String> = measured
        .iter()
        .map(|(protocol, row)| format!("    (ProtocolKind::{protocol:?}, {row:?}),"))
        .collect();
    assert!(
        differences.is_empty(),
        "work counts differ from the table:\n{}\nmeasured table:\n{}",
        differences.join("\n"),
        source.join("\n")
    );
}
