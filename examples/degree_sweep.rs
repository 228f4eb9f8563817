//! A miniature Figure 3: sweep node degree for every protocol and watch
//! the connectivity-vs-delivery relationship emerge.
//!
//! ```text
//! cargo run --release --example degree_sweep [runs-per-point]
//! ```

use convergence::aggregate::aggregate_point;
use convergence::prelude::*;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() -> Result<(), RunError> {
    let runs: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("runs must be a number"))
        .unwrap_or(10);
    println!("degree sweep, {runs} runs per point (paper uses 100)\n");

    let mut table = Table::new(
        [
            "degree",
            "protocol",
            "delivery %",
            "no-route",
            "ttl",
            "fwdconv(s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in MeshDegree::ALL {
        for protocol in ProtocolKind::PAPER {
            let summaries: Vec<RunSummary> = (0..runs)
                .map(|i| {
                    let cfg = ExperimentConfig::paper(protocol, degree, 1000 + i as u64);
                    run(&cfg).and_then(|r| summarize(&r).map_err(RunError::from))
                })
                .collect::<Result<_, _>>()?;
            let point = aggregate_point(&summaries)?;
            table.push_row(vec![
                degree.to_string(),
                protocol.label().to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.ttl_expirations.mean),
                fmt_f64(point.forwarding_convergence_s.mean),
            ]);
        }
    }
    println!("{}", table.render());
    println!("The paper's Observation 1: delivery improves with connectivity for");
    println!("every protocol, but only protocols that keep alternate-path state");
    println!("(DBF, BGP, BGP-3) can fully exploit it; RIP stays worst throughout.");
    Ok(())
}
