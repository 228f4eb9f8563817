//! Regenerates the paper's figures, ablations and extensions: one row of
//! [`TARGETS`] each.
//!
//! ```text
//! sweeps <target|figures|all> [runs-per-point] [--jobs N] [--progress]
//! ```
//!
//! A row names its target, the runs per point EXPERIMENTS.md documents
//! for it, and the body that prints its tables and writes its CSVs under
//! `results/`. A count on the command line overrides every row's own.
//!
//! One target runs its sweeps on `--jobs` workers (`JOBS` env var as
//! fallback) and writes `results/telemetry/<target>.jsonl`. `figures`
//! (the first six rows) and `all` run up to `--jobs` rows at a time, each
//! sweep on one thread; every row's output is buffered and printed whole
//! as it finishes, so tables never interleave, and a row that panics is
//! marked failed without stopping the others. They then write
//! `results/manifest.json` (the count given, `null` when each row ran at
//! its own; per row: status, duration and a sum of its telemetry) and
//! `results/telemetry.jsonl` (every row's telemetry in table order:
//! deterministic bytes for fixed runs counts, whatever `--jobs` was).

#[path = "sweeps/ablations.rs"]
mod ablations;
#[path = "sweeps/extensions.rs"]
mod extensions;
#[path = "sweeps/figures.rs"]
mod figures;

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bench::{parse_sweep_args, results_dir, SweepArgs, SweepObserver};
use convergence::report::Table;
use obs::telemetry::{render_jsonl, RunTelemetry};

/// What a target's body works through: the stdout it prints to and the
/// observer its sweeps run on.
struct Frame<'a> {
    out: &'a mut dyn Write,
    sweeps: SweepObserver,
}

impl Frame<'_> {
    /// Prints `text` and a newline, as `println!` would.
    fn line(&mut self, text: impl std::fmt::Display) -> io::Result<()> {
        writeln!(self.out, "{text}")
    }

    /// Writes each `(file, table)` as `results/<file>` and prints one
    /// `wrote <path> and <path>` line.
    fn save(&mut self, tables: &[(&str, &Table)]) -> io::Result<()> {
        let mut paths = Vec::new();
        for (file, table) in tables {
            let path = results_dir().join(file);
            table.write_csv(&path)?;
            paths.push(path.display().to_string());
        }
        self.line(format_args!("wrote {}", paths.join(" and ")))
    }
}

/// A table whose column headers are the comma-separated `csv_header`.
fn table(csv_header: &str) -> Table {
    Table::new(csv_header.split(',').map(String::from).collect())
}

/// A target's body: today's figure, ablation or extension code.
type Body = fn(&mut Frame<'_>) -> io::Result<()>;

/// One figure, ablation or extension.
struct Target {
    name: &'static str,
    /// Runs per point as EXPERIMENTS.md documents them; `None` for a
    /// target that runs no sweep and keeps no telemetry.
    runs: Option<usize>,
    body: Body,
}

impl Target {
    const fn new(name: &'static str, runs: Option<usize>, body: Body) -> Self {
        Target { name, runs, body }
    }
}

/// Every target, the figures (names starting `fig`) first.
const TARGETS: [Target; 20] = [
    Target::new("fig2_topologies", None, figures::fig2_topologies),
    Target::new("fig3_drops", Some(100), figures::fig3_drops),
    Target::new("fig4_ttl", Some(100), figures::fig4_ttl),
    Target::new("fig5_throughput", Some(100), figures::fig5_throughput),
    Target::new("fig6_convergence", Some(100), figures::fig6_convergence),
    Target::new("fig7_delay", Some(100), figures::fig7_delay),
    Target::new("ablation_mrai", Some(50), ablations::mrai),
    Target::new("ablation_split_horizon", Some(50), ablations::split_horizon),
    Target::new("ablation_damping", Some(50), ablations::damping),
    Target::new("ablation_sensitivity", Some(50), ablations::sensitivity),
    Target::new("ablation_holddown", Some(50), ablations::holddown),
    Target::new("ext_spf", Some(50), extensions::spf),
    Target::new("ext_multi", Some(50), extensions::multi),
    Target::new("ext_tcp", Some(20), extensions::tcp),
    Target::new("ext_flap", Some(30), extensions::flap),
    Target::new("ext_scale", Some(15), extensions::scale),
    Target::new("ext_dual", Some(50), extensions::dual),
    Target::new("ext_factors", Some(50), extensions::factors),
    Target::new("ext_lossy", Some(20), extensions::lossy),
    Target::new("ext_load", Some(20), extensions::load),
];

const USAGE: &str = "usage: sweeps <target|figures|all> [runs-per-point] [--jobs N] [--progress]";

/// The rows `selector` names: one target, `figures` or `all`. An unknown
/// name is a usage error listing every target.
fn select(selector: &str) -> Result<&'static [Target], String> {
    match selector {
        "all" => Ok(&TARGETS),
        "figures" => {
            let figures = TARGETS.iter().take_while(|t| t.name.starts_with("fig"));
            Ok(&TARGETS[..figures.count()])
        }
        name => TARGETS
            .iter()
            .position(|t| t.name == name)
            .map(|i| &TARGETS[i..=i])
            .ok_or_else(|| {
                let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
                format!(
                    "{USAGE}\nunknown target {name:?}\ntargets: {}",
                    names.join(" ")
                )
            }),
    }
}

/// Runs `target`'s body with `out` as its stdout at the given (or its
/// own) runs count, then writes its telemetry. Returns the telemetry
/// rows, `None` for a target that keeps none.
fn run(
    target: &Target,
    args: SweepArgs,
    out: &mut dyn Write,
) -> io::Result<Option<Vec<RunTelemetry>>> {
    let runs = args.runs.or(target.runs);
    let mut frame = Frame {
        out,
        sweeps: SweepObserver::new(target.name, SweepArgs { runs, ..args }),
    };
    (target.body)(&mut frame)?;
    if target.runs.is_none() {
        return Ok(None);
    }
    let path = frame.sweeps.finish()?;
    frame.line(format_args!("wrote {}", path.display()))?;
    Ok(Some(frame.sweeps.rows().to_vec()))
}

/// A row of `figures` or `all` once it has run: its telemetry as [`run`]
/// returned it, or why it failed.
struct Completed {
    duration_s: f64,
    telemetry: Result<Option<Vec<RunTelemetry>>, String>,
}

/// The manifest's per-row sum of its telemetry rows.
fn telemetry_sum(rows: &[RunTelemetry]) -> String {
    let sum = |field: fn(&RunTelemetry) -> u64| rows.iter().map(field).sum::<u64>();
    format!(
        "{{\"runs\": {}, \"events_processed\": {}, \"attempts\": {}, \
         \"watchdog_trips\": {}, \"failed_runs\": {}}}",
        rows.len(),
        sum(|r| r.events_processed),
        sum(|r| u64::from(r.attempts)),
        sum(|r| u64::from(r.watchdog_trips)),
        sum(|r| u64::from(!r.ok)),
    )
}

/// Runs `targets` on up to `args.jobs` threads, then writes the manifest
/// and the merged telemetry. Returns the names of the rows that failed.
fn run_many(targets: &'static [Target], args: SweepArgs) -> io::Result<Vec<&'static str>> {
    let workers = convergence::parallel::effective_jobs(args.jobs).min(targets.len());
    let runs_text = args
        .runs
        .map_or("each target's own".to_string(), |r| r.to_string());
    println!(
        "regenerating {} figures, {runs_text} runs/point, {workers} concurrent",
        targets.len()
    );

    let row_args = SweepArgs { jobs: 1, ..args };
    let cursor = AtomicUsize::new(0);
    let done: Vec<OnceLock<Completed>> = targets.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(target) = targets.get(i) else {
                    break;
                };
                let start = Instant::now();
                let mut buffer = Vec::new();
                let result = catch_unwind(AssertUnwindSafe(|| run(target, row_args, &mut buffer)));
                let duration_s = start.elapsed().as_secs_f64();
                let mut stdout = io::stdout().lock();
                let _ = writeln!(
                    stdout,
                    "==================== {} ====================",
                    target.name
                );
                let _ = stdout.write_all(&buffer);
                let telemetry = match result {
                    Ok(Ok(telemetry)) => Ok(telemetry),
                    Ok(Err(e)) => Err(e.to_string()),
                    Err(_) => Err("panicked".to_string()),
                };
                if let Err(why) = &telemetry {
                    eprintln!("{} FAILED ({why})", target.name);
                }
                let _ = done[i].set(Completed {
                    duration_s,
                    telemetry,
                });
            });
        }
    });

    let done: Vec<Completed> = done
        .into_iter()
        .map(|c| c.into_inner().expect("every row ran"))
        .collect();
    let entries: Vec<String> = targets
        .iter()
        .zip(&done)
        .map(|(target, c)| {
            format!(
                "    {{\"name\": \"{}\", \"status\": \"{}\", \"duration_s\": {:.3}, \"telemetry\": {}}}",
                target.name,
                if c.telemetry.is_ok() { "ok" } else { "failed" },
                c.duration_s,
                match &c.telemetry {
                    Ok(Some(rows)) => telemetry_sum(rows),
                    _ => "null".to_string(),
                }
            )
        })
        .collect();
    let runs_json = args.runs.map_or("null".to_string(), |r| r.to_string());
    let manifest = format!(
        "{{\n  \"runs_per_point\": {runs_json},\n  \"jobs\": {workers},\n  \"targets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::create_dir_all(results_dir())?;
    let path = results_dir().join("manifest.json");
    std::fs::write(&path, manifest)?;
    println!("wrote {}", path.display());
    let merged: String = done
        .iter()
        .filter_map(|c| c.telemetry.as_ref().ok()?.as_deref())
        .map(render_jsonl)
        .collect();
    let path = results_dir().join("telemetry.jsonl");
    std::fs::write(&path, merged)?;
    println!("wrote {}", path.display());
    Ok(targets
        .iter()
        .zip(&done)
        .filter(|(_, c)| c.telemetry.is_err())
        .map(|(t, _)| t.name)
        .collect())
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let selector = argv.next().unwrap_or_default();
    let targets = select(&selector).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    let args = parse_sweep_args(argv, std::env::var("JOBS").ok());
    if let [target] = targets {
        if let Err(e) = run(target, args, &mut io::stdout().lock()) {
            eprintln!("{}: {e}", target.name);
            std::process::exit(1);
        }
        return;
    }
    match run_many(targets, args) {
        Ok(failed) if failed.is_empty() => {}
        Ok(failed) => {
            eprintln!("failed targets: {}", failed.join(", "));
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("sweeps: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(targets: &[Target]) -> Vec<&'static str> {
        targets.iter().map(|t| t.name).collect()
    }

    #[test]
    fn figures_are_the_first_six_rows_in_order() {
        let figures = select("figures").expect("figures is a selector");
        assert_eq!(
            names(figures),
            [
                "fig2_topologies",
                "fig3_drops",
                "fig4_ttl",
                "fig5_throughput",
                "fig6_convergence",
                "fig7_delay"
            ]
        );
        assert_eq!(names(figures), names(&TARGETS[..6]));
    }

    #[test]
    fn all_selects_every_row_once_and_names_are_unique() {
        let all = names(select("all").expect("all is a selector"));
        assert_eq!(all, names(&TARGETS));
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), TARGETS.len());
        for name in all {
            assert_eq!(names(select(name).expect("a row name selects")), [name]);
        }
    }

    #[test]
    fn an_unknown_target_is_a_usage_error_listing_every_name() {
        let error = select("fig9_missing").err().expect("unknown target");
        assert!(error.starts_with(USAGE), "{error}");
        assert!(error.contains("\"fig9_missing\""), "{error}");
        let listed = error
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("targets: "));
        assert_eq!(
            listed.map(|l| l.split(' ').collect::<Vec<_>>()),
            Some(names(&TARGETS))
        );
        assert!(select("figures ").is_err() && select("").is_err());
    }

    #[test]
    fn every_row_count_is_the_one_experiments_md_documents() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
        for target in &TARGETS {
            let named = format!("(`{}`, ", target.name);
            match target.runs {
                Some(runs) => assert!(
                    doc.contains(&format!("{named}{runs} runs/point")),
                    "EXPERIMENTS.md does not document {named}{runs} runs/point"
                ),
                None => assert!(!doc.contains(&named), "{} takes no count", target.name),
            }
        }
    }
}
