//! `simlint` — run the workspace static-analysis pass.
//!
//! ```text
//! simlint [--root <dir>] [--baseline write|check] [--quiet]
//! ```
//!
//! Exit codes: `0` clean, `1` violations, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use analyzer::baseline::Baseline;
use analyzer::workspace::{analyze, render_finding};

struct Options {
    root: Option<PathBuf>,
    write_baseline: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        write_baseline: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let value = args.next().ok_or("--root needs a path")?;
                opts.root = Some(PathBuf::from(value));
            }
            "--baseline" => match args.next().as_deref() {
                Some("write") => opts.write_baseline = true,
                Some("check") => opts.write_baseline = false,
                other => return Err(format!("--baseline expects write|check, got {other:?}")),
            },
            "--quiet" | "-q" => opts.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: simlint [--root <dir>] [--baseline write|check] [--quiet]".to_string(),
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = opts.root.or_else(find_workspace_root) else {
        eprintln!("simlint: no workspace root found (looked for Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };

    let analysis = match analyze(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    let baseline_path = root.join("crates/analyzer/baseline.toml");
    if opts.write_baseline {
        let current = analysis.counts();
        if let Err(e) = std::fs::write(&baseline_path, current.render()) {
            eprintln!("simlint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        let r001: usize = current.r001.values().sum();
        let d004: usize = current.d004.values().sum();
        println!(
            "simlint: wrote {} ({r001} tolerated R001 sites, {d004} tolerated D004 sites)",
            baseline_path.display()
        );
    }

    let baseline = if opts.write_baseline {
        analysis.counts()
    } else {
        match Baseline::load(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("simlint: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let (regressions, improvements) = analysis.ratchet(&baseline);
    let mut failures = analysis.findings.clone();
    failures.extend(regressions);

    for finding in &failures {
        print!("{}", render_finding(finding));
    }
    if !opts.quiet {
        for note in &improvements {
            eprintln!("note: {note}");
        }
    }

    if failures.is_empty() {
        if !opts.quiet {
            let r001: usize = analysis.r001.values().map(Vec::len).sum();
            let d004: usize = analysis.d004.values().map(Vec::len).sum();
            println!(
                "simlint: clean ({r001} tolerated R001 sites, {d004} tolerated D004 sites, \
                 ratchet ok)"
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("simlint: {} violation(s)", failures.len());
        ExitCode::FAILURE
    }
}
