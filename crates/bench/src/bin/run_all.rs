//! Regenerates every figure by spawning the sibling binaries from the
//! current target directory, up to `--jobs N` of them at a time
//! (`JOBS` env var as fallback; default 1).
//!
//! Each child is passed an explicit `--jobs 1` so a `JOBS` environment
//! variable cannot multiply: parallelism is spent across figures here,
//! not again inside each sweep. Child output is buffered and printed
//! whole as each figure finishes, so tables never interleave.
//!
//! Writes `results/manifest.json` recording, per target, whether it
//! succeeded, how long it took, and the aggregate of its per-run
//! telemetry (`results/telemetry/<target>.jsonl`, written by the child).
//! The per-target telemetry streams are concatenated, in canonical
//! target order, into `results/telemetry.jsonl` — deterministic bytes
//! for a fixed seed and runs count, whatever `--jobs` was.

use obs::telemetry::{field_bool, field_u64};
use std::io::Write as _;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The figure targets, then (with `all`) the extras, in canonical order.
/// `scripts/check_sweep_goldens.sh` reads both lists from this file.
const FIGURES: [&str; 6] = [
    "fig2_topologies",
    "fig3_drops",
    "fig4_ttl",
    "fig5_throughput",
    "fig6_convergence",
    "fig7_delay",
];

const EXTRAS: [&str; 14] = [
    "ablation_mrai",
    "ablation_split_horizon",
    "ablation_damping",
    "ablation_sensitivity",
    "ablation_holddown",
    "ext_spf",
    "ext_multi",
    "ext_tcp",
    "ext_flap",
    "ext_scale",
    "ext_dual",
    "ext_factors",
    "ext_lossy",
    "ext_load",
];

struct Completed {
    name: &'static str,
    success: bool,
    duration_s: f64,
}

/// Sums a target's `results/telemetry/<name>.jsonl` into the manifest's
/// per-target aggregate, or `None` when the target wrote no telemetry.
fn telemetry_aggregate(name: &str) -> Option<String> {
    let path = bench::results_dir()
        .join("telemetry")
        .join(format!("{name}.jsonl"));
    let text = std::fs::read_to_string(path).ok()?;
    let mut runs = 0u64;
    let mut events = 0u64;
    let mut attempts = 0u64;
    let mut watchdog = 0u64;
    let mut failed = 0u64;
    for line in text.lines() {
        runs += 1;
        events += field_u64(line, "events_processed").unwrap_or(0);
        attempts += field_u64(line, "attempts").unwrap_or(0);
        watchdog += field_u64(line, "watchdog_trips").unwrap_or(0);
        if !field_bool(line, "ok").unwrap_or(true) {
            failed += 1;
        }
    }
    Some(format!(
        "{{\"runs\": {runs}, \"events_processed\": {events}, \
         \"attempts\": {attempts}, \"watchdog_trips\": {watchdog}, \
         \"failed_runs\": {failed}}}"
    ))
}

/// Concatenates the per-target telemetry streams, in canonical target
/// order, into `results/telemetry.jsonl`.
fn merge_telemetry(targets: &[&'static str]) -> std::io::Result<std::path::PathBuf> {
    let mut merged = String::new();
    for target in targets {
        let path = bench::results_dir()
            .join("telemetry")
            .join(format!("{target}.jsonl"));
        if let Ok(text) = std::fs::read_to_string(path) {
            merged.push_str(&text);
        }
    }
    let path = bench::results_dir().join("telemetry.jsonl");
    std::fs::write(&path, merged)?;
    Ok(path)
}

fn main() {
    let mut runs: usize = 100;
    let mut everything = false;
    let mut jobs: usize = std::env::var("JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut args = std::env::args().skip(1);
    let mut positionals = 0;
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            let value = args.next().expect("--jobs needs a value");
            jobs = value.parse().expect("--jobs value must be a number");
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            jobs = value.parse().expect("--jobs value must be a number");
        } else if arg == "all" {
            everything = true;
        } else if positionals == 0 {
            runs = arg.parse().expect("runs-per-point must be a number");
            positionals += 1;
        } else {
            panic!("usage: run_all [runs-per-point] [all] [--jobs N]");
        }
    }
    let workers = convergence::parallel::effective_jobs(jobs);

    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("target dir").to_path_buf();
    let mut targets: Vec<&'static str> = FIGURES.to_vec();
    if everything {
        targets.extend(EXTRAS);
    }
    println!(
        "regenerating {} figures, {} runs/point, {} concurrent",
        targets.len(),
        runs,
        workers.min(targets.len())
    );

    let cursor = AtomicUsize::new(0);
    let completed: Mutex<Vec<Completed>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(targets.len()) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(target) = targets.get(i).copied() else {
                    break;
                };
                let start = Instant::now();
                let output = Command::new(dir.join(target))
                    .arg(runs.to_string())
                    .args(["--jobs", "1"])
                    .output()
                    .unwrap_or_else(|e| panic!("failed to launch {target}: {e}"));
                let duration_s = start.elapsed().as_secs_f64();
                let mut done = completed.lock().expect("results lock");
                println!("==================== {target} ====================");
                std::io::stdout().write_all(&output.stdout).expect("stdout");
                std::io::stderr().write_all(&output.stderr).expect("stderr");
                if !output.status.success() {
                    eprintln!("{target} FAILED ({})", output.status);
                }
                done.push(Completed {
                    name: target,
                    success: output.status.success(),
                    duration_s,
                });
            });
        }
    });

    let mut done = completed.into_inner().expect("results lock");
    // Manifest entries in the canonical target order, not completion order.
    done.sort_by_key(|c| targets.iter().position(|t| *t == c.name));
    let entries: Vec<String> = done
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": \"{}\", \"status\": \"{}\", \"duration_s\": {:.3}, \"telemetry\": {}}}",
                c.name,
                if c.success { "ok" } else { "failed" },
                c.duration_s,
                telemetry_aggregate(c.name).unwrap_or_else(|| "null".to_string())
            )
        })
        .collect();
    let manifest = format!(
        "{{\n  \"runs_per_point\": {runs},\n  \"jobs\": {workers},\n  \"targets\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = bench::results_dir().join("manifest.json");
    std::fs::create_dir_all(bench::results_dir()).expect("results dir");
    std::fs::write(&path, manifest).expect("write manifest");
    println!("wrote {}", path.display());
    let tpath = merge_telemetry(&targets).expect("write merged telemetry");
    println!("wrote {}", tpath.display());

    let failed: Vec<&str> = done.iter().filter(|c| !c.success).map(|c| c.name).collect();
    assert!(failed.is_empty(), "failed targets: {}", failed.join(", "));
}
