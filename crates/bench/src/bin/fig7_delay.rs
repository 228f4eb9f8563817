//! Figure 7: instantaneous end-to-end delay of delivered packets vs. time
//! around the failure, at node degrees 4, 5 and 6.
//!
//! Paper shape to reproduce: packets delivered during convergence traverse
//! longer-than-final paths, so the delay spikes just after the failure and
//! settles back; packets that escape a forwarding loop show much larger
//! spikes (visible at the loop-prone sparse degrees).

use bench::{point_seed, sweep_args, SweepObserver};
use convergence::experiment::ExperimentConfig;
use convergence::metrics::series::{delay_series, mean_delay_series};
use convergence::protocols::ProtocolKind;
use convergence::report::Table;
use topology::mesh::MeshDegree;

const FROM_S: i64 = -10;
const TO_S: i64 = 40;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("fig7_delay", args);
    println!("Figure 7 — instantaneous packet delay vs time, {runs} runs/point");
    println!("window: {FROM_S}..{TO_S} s relative to the failure\n");

    for degree in [MeshDegree::D4, MeshDegree::D5, MeshDegree::D6] {
        let mut table = Table::new(
            std::iter::once("t(s)".to_string())
                .chain(ProtocolKind::PAPER.iter().map(|p| p.label().to_string()))
                .collect(),
        );
        let mut columns = Vec::new();
        for protocol in ProtocolKind::PAPER {
            let delays = observer.sweep(
                &format!("{protocol}/d{degree}"),
                &ExperimentConfig::paper(protocol, degree, 0),
                runs,
                point_seed(degree, 0),
                |r| Ok(delay_series(&r.trace, r.t_fail, FROM_S, TO_S)),
            );
            columns.push(mean_delay_series(&delays.completed));
            eprintln!("  degree {degree} {protocol} done");
        }
        for i in 0..columns[0].len() {
            let mut row = vec![columns[0][i].0.to_string()];
            for col in &columns {
                row.push(match col[i].1 {
                    Some(ms) => format!("{:.3}", ms * 1e3),
                    None => "-".to_string(),
                });
            }
            table.push_row(row);
        }
        println!("--- degree {degree} (mean delivered-packet delay, ms) ---");
        println!("{}", table.render());
        let path = bench::results_dir().join(format!("fig7_delay_d{degree}.csv"));
        table.write_csv(&path).expect("write CSV");
        println!("wrote {}\n", path.display());
    }
    println!("expected shape: flat baseline before the failure; a post-failure");
    println!("bump (longer transient paths); larger spikes where loops occur.");
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
