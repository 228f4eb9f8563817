//! EXPERIMENTS.md's Figure 3, 4 and 6 tables are copies of the committed
//! CSVs in `results/`, cell for cell, and its Figure 5 and 7 summary rows
//! are what their rules compute from the committed series.
//!
//! Each checked table is the first Markdown table after the line that
//! names its CSV (`results/<name>.csv`) and before the next section
//! heading. Cells are compared as text, so a table must copy the CSV's
//! cells verbatim: `0.4000` stays `0.4000`. Regenerating a CSV therefore
//! means updating its table, and the prose should cite the table rather
//! than repeat its numbers.

use std::path::Path;

/// The CSVs whose tables EXPERIMENTS.md shows.
const TABLES: [&str; 4] = [
    "fig3_drops",
    "fig4_ttl",
    "fig6a_forwarding_convergence",
    "fig6b_routing_convergence",
];

/// The per-second series whose summaries EXPERIMENTS.md shows, as its
/// text names them; each summary row takes the degree from its first cell.
const SUMMARIES: [&str; 2] = ["fig5_throughput_d{3,4,6}", "fig7_delay_d{4,5,6}"];

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The rows of the first Markdown table after the line naming
/// `results/<name>.csv`, header first, separator row left out.
fn doc_table(doc: &str, name: &str) -> Vec<Vec<String>> {
    let mention = format!("`results/{name}.csv`");
    let mut lines = doc.lines().skip_while(|line| !line.contains(&mention));
    assert!(
        lines.next().is_some(),
        "EXPERIMENTS.md never names {mention}"
    );
    let rows: Vec<Vec<String>> = lines
        .take_while(|line| !line.starts_with("## "))
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter(|line| !line.starts_with("|---"))
        .map(|line| {
            line.trim()
                .trim_start_matches('|')
                .trim_end_matches('|')
                .split('|')
                .map(|cell| cell.trim().to_string())
                .collect()
        })
        .collect();
    assert!(
        !rows.is_empty(),
        "no table follows {mention} in its section"
    );
    rows
}

fn csv_rows(name: &str) -> Vec<Vec<String>> {
    read(&format!("results/{name}.csv"))
        .lines()
        .map(|line| line.split(',').map(str::to_string).collect())
        .collect()
}

/// Every differing cell of `doc` against `csv`, as readable lines.
fn differences(name: &str, doc: &[Vec<String>], csv: &[Vec<String>]) -> Vec<String> {
    let mut out = Vec::new();
    if doc.len() != csv.len() {
        out.push(format!(
            "{name}: table has {} rows, CSV has {}",
            doc.len(),
            csv.len()
        ));
    }
    for (row, (d, c)) in doc.iter().zip(csv).enumerate() {
        if d.len() != c.len() {
            out.push(format!(
                "{name} row {row}: table has {} cells, CSV has {}",
                d.len(),
                c.len()
            ));
        }
        for (col, (dc, cc)) in d.iter().zip(c).enumerate() {
            if dc != cc {
                let header = csv[0].get(col).map_or("?", String::as_str);
                out.push(format!(
                    "{name} row {row} ({}), column {col} ({header}): table {dc:?}, CSV {cc:?}",
                    c[0]
                ));
            }
        }
    }
    out
}

/// The summary `metric` of one protocol's `(t, value)` series, formatted
/// as EXPERIMENTS.md shows it, or `None` for a metric with no rule.
fn statistic(metric: &str, series: &[(f64, f64)]) -> Option<String> {
    let (before, after): (Vec<_>, Vec<_>) = series.iter().copied().partition(|&(t, _)| t < 0.0);
    fn values(part: &[(f64, f64)]) -> impl Iterator<Item = f64> + '_ {
        part.iter().map(|&(_, v)| v)
    }
    Some(match metric {
        "min pkt/s" => format!("{:.1}", values(&after).fold(f64::INFINITY, f64::min)),
        "back to 19 pkt/s (s)" => {
            let back = after
                .iter()
                .rposition(|&(_, v)| v < 19.0)
                .map_or(0, |i| i + 1);
            match after.get(back) {
                Some((t, _)) => format!("{t}"),
                None => format!(">{}", after.last()?.0),
            }
        }
        "baseline (ms)" => format!("{:.1}", values(&before).sum::<f64>() / before.len() as f64),
        "peak (ms)" => format!("{:.1}", values(&after).fold(f64::NEG_INFINITY, f64::max)),
        _ => return None,
    })
}

/// Every summary cell of the `series` table in `doc` that differs from
/// what its rule computes from `results/`.
fn summary_differences(doc: &str, series: &str) -> Vec<String> {
    let (prefix, _) = series
        .split_once('{')
        .expect("a series name ends in a degree set");
    let rows = doc_table(doc, series);
    let mut out = Vec::new();
    for row in &rows[1..] {
        let (degree, metric) = (&row[0], &row[1]);
        let name = format!("{prefix}{degree}");
        let csv = csv_rows(&name);
        for (protocol, cell) in rows[0].iter().zip(row).skip(2) {
            let column = csv[0].iter().position(|h| h == protocol);
            let Some(column) = column else {
                out.push(format!("{name} has no column {protocol}"));
                continue;
            };
            let values: Vec<(f64, f64)> = csv[1..]
                .iter()
                .map(|r| (r[0].parse().unwrap(), r[column].parse().unwrap()))
                .collect();
            match statistic(metric, &values) {
                Some(computed) if computed == *cell => {}
                Some(computed) => out.push(format!(
                    "{name} {metric}, {protocol}: table {cell:?}, CSV gives {computed:?}"
                )),
                None => out.push(format!("{name}: no rule for metric {metric:?}")),
            }
        }
    }
    out
}

#[test]
fn summary_rows_follow_their_rules_on_the_committed_series() {
    let doc = read("EXPERIMENTS.md");
    let diffs: Vec<String> = SUMMARIES
        .iter()
        .flat_map(|series| summary_differences(&doc, series))
        .collect();
    assert!(
        diffs.is_empty(),
        "EXPERIMENTS.md summaries differ from results/:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn summary_rules_read_the_failure_at_t_zero() {
    let series = [
        (-2.0, 20.0),
        (-1.0, 19.0),
        (0.0, 3.0),
        (1.0, 19.5),
        (2.0, 18.0),
        (3.0, 20.0),
    ];
    let stat = |metric| statistic(metric, &series).unwrap();
    assert_eq!(stat("min pkt/s"), "3.0");
    assert_eq!(stat("back to 19 pkt/s (s)"), "3");
    assert_eq!(stat("baseline (ms)"), "19.5");
    assert_eq!(stat("peak (ms)"), "20.0");
    assert_eq!(
        statistic("back to 19 pkt/s (s)", &series[..5]).unwrap(),
        ">2"
    );
    assert_eq!(
        statistic("back to 19 pkt/s (s)", &series[3..4]).unwrap(),
        "1"
    );
}

#[test]
fn experiments_tables_equal_the_committed_csvs() {
    let doc = read("EXPERIMENTS.md");
    let diffs: Vec<String> = TABLES
        .iter()
        .flat_map(|name| differences(name, &doc_table(&doc, name), &csv_rows(name)))
        .collect();
    assert!(
        diffs.is_empty(),
        "EXPERIMENTS.md differs from results/:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn a_changed_cell_is_reported() {
    let doc = "`results/x.csv`\n\n| degree | A |\n|---|---|\n| 3 | 1.50 |\n\n## Next\n";
    let table = doc_table(doc, "x");
    let csv = vec![
        vec!["degree".to_string(), "A".to_string()],
        vec!["3".to_string(), "1.5".to_string()],
    ];
    let diffs = differences("x", &table, &csv);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].contains("\"1.50\""), "{}", diffs[0]);
}
