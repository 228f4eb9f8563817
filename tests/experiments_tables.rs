//! EXPERIMENTS.md's Figure 3, 4 and 6 tables are copies of the committed
//! CSVs in `results/`, cell for cell.
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
