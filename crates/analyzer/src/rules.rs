//! The simulator-specific lint rules.
//!
//! | rule | name            | enforces                                              |
//! |------|-----------------|-------------------------------------------------------|
//! | D001 | `unordered-map` | no `HashMap`/`HashSet` in sim/protocol crates         |
//! | D002 | `wall-clock`    | no `Instant::now`/`SystemTime::now` outside `bench`   |
//! | D003 | `unseeded-rng`  | no `thread_rng`/`from_entropy`/`OsRng` outside tests  |
//! | D004 | `node-keyed-map`| no `BTreeMap`/`HashMap` keyed by `NodeId` in sim crates |
//! | R001 | `panic`         | no `unwrap()`/`expect(`/`panic!` in library code      |
//! | S001 | `unsafe`        | lib crates carry `#![forbid(unsafe_code)]`, no `unsafe` |
//! | A001 | —               | `simlint:` annotations must be well-formed            |
//!
//! D001–D003 and S001 are hard failures unless suppressed by an inline
//! `// simlint: allow(<name>, reason = "...")` annotation; R001 and D004
//! are governed by the committed baseline ratchet instead (see
//! [`crate::baseline`]) on top of the same annotation syntax. D004 exists
//! because node-keyed ordered maps on the hot path were replaced by the
//! dense-index types in `netsim::dense` — a tree walk per neighbor lookup
//! is exactly the cost the migration removed, so new sites are debt.

use std::collections::BTreeSet;
use std::fmt;

use crate::lexer::LexedFile;

/// Crates whose iteration order and timing feed the deterministic
/// simulation results; D001 applies to every file in them.
pub const SIM_CRATES: &[&str] = &[
    "netsim",
    "topology",
    "routing-core",
    "rip",
    "dbf",
    "bgp",
    "spf",
    "dual",
    "core",
];

/// Rule identifiers, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Unordered collections in sim crates.
    D001,
    /// Wall-clock reads outside `bench`.
    D002,
    /// Unseeded randomness outside tests/benches.
    D003,
    /// `BTreeMap`/`HashMap` keyed by `NodeId` in sim crates (ratcheted).
    D004,
    /// Panics in library code (ratcheted).
    R001,
    /// Missing `#![forbid(unsafe_code)]` or an `unsafe` token.
    S001,
    /// Malformed `simlint:` annotation.
    A001,
}

impl RuleId {
    /// The name used inside `allow(...)` annotations.
    #[must_use]
    pub fn allow_name(self) -> &'static str {
        match self {
            RuleId::D001 => "unordered-map",
            RuleId::D002 => "wall-clock",
            RuleId::D003 => "unseeded-rng",
            RuleId::D004 => "node-keyed-map",
            RuleId::R001 => "panic",
            RuleId::S001 => "unsafe",
            RuleId::A001 => "annotation",
        }
    }

    fn from_allow_name(name: &str) -> Option<RuleId> {
        [
            RuleId::D001,
            RuleId::D002,
            RuleId::D003,
            RuleId::D004,
            RuleId::R001,
            RuleId::S001,
        ]
        .into_iter()
        .find(|r| r.allow_name() == name)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::R001 => "R001",
            RuleId::S001 => "S001",
            RuleId::A001 => "A001",
        };
        f.write_str(s)
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub message: String,
    /// How to fix or suppress it.
    pub help: String,
}

/// What role a file plays, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (rules apply in full).
    Lib,
    /// A binary (`src/bin/*`, `src/main.rs`, `build.rs`).
    Bin,
    /// Integration tests / fixtures (`tests/` anywhere in the path).
    Test,
    /// Benchmarks (`benches/`, or anything in the `bench` crate).
    Bench,
    /// Examples.
    Example,
}

/// A classified file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Crate directory name (`""` for the workspace root package).
    pub krate: String,
    /// Role.
    pub kind: FileKind,
}

/// Classifies `rel` (workspace-relative, `/`-separated). Returns `None`
/// for files outside the analysis scope (vendored stubs, build output).
#[must_use]
pub fn classify(rel: &str) -> Option<FileContext> {
    let parts: Vec<&str> = rel.split('/').collect();
    let first = *parts.first()?;
    if matches!(first, "vendor" | "target") || first.starts_with('.') {
        return None;
    }
    let krate = if first == "crates" {
        (*parts.get(1)?).to_string()
    } else {
        String::new()
    };
    let kind = if krate == "bench" || parts.contains(&"benches") {
        FileKind::Bench
    } else if parts.contains(&"tests") {
        FileKind::Test
    } else if parts.contains(&"examples") {
        FileKind::Example
    } else if parts.contains(&"bin")
        || parts.last() == Some(&"main.rs")
        || parts.last() == Some(&"build.rs")
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    Some(FileContext {
        rel: rel.to_string(),
        krate,
        kind,
    })
}

/// A parsed `simlint: allow(rule, reason = "...")` annotation.
#[derive(Debug, Clone)]
struct Allow {
    rule: RuleId,
    /// Lines (1-based) the annotation covers.
    lines: [usize; 2],
}

/// Scans comment text for annotations. Returns the valid allows plus
/// A001 findings for malformed ones.
fn collect_allows(ctx: &FileContext, file: &LexedFile) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (idx, comment) in file.comments.iter().enumerate() {
        // Only a comment that *starts* with `simlint:` is an annotation;
        // prose that merely mentions the grammar is not.
        let Some(rest) = comment.trim_start().strip_prefix("simlint:") else {
            continue;
        };
        let line = idx + 1;
        let rest = rest.trim_start();
        match parse_allow(rest) {
            Ok(name) => match RuleId::from_allow_name(name) {
                Some(rule) => {
                    // A whole-line comment covers the next line; a
                    // trailing comment covers its own line.
                    let own_code_blank = file.code.get(idx).is_none_or(|c| c.trim().is_empty());
                    let covered = if own_code_blank { line + 1 } else { line };
                    allows.push(Allow {
                        rule,
                        lines: [line, covered],
                    });
                }
                None => findings.push(Finding {
                    rule: RuleId::A001,
                    path: ctx.rel.clone(),
                    line,
                    message: format!("unknown rule {name:?} in simlint annotation"),
                    help: "valid rules: unordered-map, wall-clock, unseeded-rng, \
                           node-keyed-map, panic, unsafe"
                        .to_string(),
                }),
            },
            Err(why) => findings.push(Finding {
                rule: RuleId::A001,
                path: ctx.rel.clone(),
                line,
                message: format!("malformed simlint annotation: {why}"),
                help: "expected: simlint: allow(<rule>, reason = \"...\")".to_string(),
            }),
        }
    }
    (allows, findings)
}

/// Parses `allow(<name>, reason = "...")`, returning the rule name.
fn parse_allow(s: &str) -> Result<&str, &'static str> {
    let body = s.strip_prefix("allow(").ok_or("expected allow(...)")?;
    let close = body.rfind(')').ok_or("missing closing parenthesis")?;
    let body = &body[..close];
    let (name, rest) = body.split_once(',').ok_or("missing reason")?;
    let rest = rest.trim_start();
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .ok_or("missing reason = \"...\"")?;
    let quoted = reason.len() >= 2 && reason.starts_with('"') && reason.ends_with('"');
    if !quoted || reason.len() == 2 {
        return Err("reason must be a non-empty quoted string");
    }
    Ok(name.trim())
}

/// Per-file analysis output.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Hard findings (D/S/A rules).
    pub findings: Vec<Finding>,
    /// Lines (1-based) with R001 (`unwrap()/expect(/panic!`) sites in
    /// library code, after annotation suppression.
    pub r001_lines: Vec<usize>,
    /// Lines (1-based) with D004 (`NodeId`-keyed ordered map) sites in
    /// sim-crate code, after annotation suppression.
    pub d004_lines: Vec<usize>,
}

/// Runs every line-level rule over one lexed file.
#[must_use]
pub fn check_file(ctx: &FileContext, file: &LexedFile) -> FileReport {
    let (allows, mut findings) = collect_allows(ctx, file);
    let allowed = |rule: RuleId, line: usize| {
        allows
            .iter()
            .any(|a| a.rule == rule && a.lines.contains(&line))
    };

    let sim_crate = SIM_CRATES.contains(&ctx.krate.as_str());
    let d001_on = sim_crate;
    let d002_on = ctx.kind != FileKind::Bench;
    let d003_on = !matches!(ctx.kind, FileKind::Test | FileKind::Bench);
    let d004_on = sim_crate && ctx.kind == FileKind::Lib;
    let r001_on = ctx.kind == FileKind::Lib;
    let s001_on = ctx.kind == FileKind::Lib;

    let mut r001_lines = Vec::new();
    let mut d004_lines = Vec::new();
    for (idx, code) in file.code.iter().enumerate() {
        let line = idx + 1;
        let in_test = file.in_test.get(idx).copied().unwrap_or(false);
        if d001_on && !in_test {
            for token in ["HashMap", "HashSet"] {
                if has_word(code, token) && !allowed(RuleId::D001, line) {
                    findings.push(Finding {
                        rule: RuleId::D001,
                        path: ctx.rel.clone(),
                        line,
                        message: format!(
                            "{token} in deterministic sim crate `{}` (iteration order is unstable)",
                            ctx.krate
                        ),
                        help: format!(
                            "use BTree{} instead, or annotate: // simlint: allow(unordered-map, reason = \"...\")",
                            &token[4..]
                        ),
                    });
                }
            }
        }
        if d002_on {
            for token in ["Instant::now", "SystemTime::now"] {
                if has_word(code, token) && !allowed(RuleId::D002, line) {
                    findings.push(Finding {
                        rule: RuleId::D002,
                        path: ctx.rel.clone(),
                        line,
                        message: format!("wall-clock read `{token}` outside the bench crate"),
                        help: "simulation code must use SimTime; move timing into crates/bench \
                               or annotate: // simlint: allow(wall-clock, reason = \"...\")"
                            .to_string(),
                    });
                }
            }
        }
        if d003_on && !in_test {
            for token in ["thread_rng", "from_entropy", "OsRng"] {
                if has_word(code, token) && !allowed(RuleId::D003, line) {
                    findings.push(Finding {
                        rule: RuleId::D003,
                        path: ctx.rel.clone(),
                        line,
                        message: format!("unseeded randomness `{token}` outside tests/benches"),
                        help: "all randomness must flow from the run's seed (SimRng); \
                               or annotate: // simlint: allow(unseeded-rng, reason = \"...\")"
                            .to_string(),
                    });
                }
            }
        }
        if d004_on && !in_test && !allowed(RuleId::D004, line) {
            let hits = count_node_keyed_maps(code);
            for _ in 0..hits {
                d004_lines.push(line);
            }
        }
        if r001_on && !in_test && !allowed(RuleId::R001, line) {
            let hits = count_panics(code);
            for _ in 0..hits {
                r001_lines.push(line);
            }
        }
        if s001_on && !in_test && has_word(code, "unsafe") && !allowed(RuleId::S001, line) {
            findings.push(Finding {
                rule: RuleId::S001,
                path: ctx.rel.clone(),
                line,
                message: "`unsafe` in library code".to_string(),
                help: "the workspace forbids unsafe code; \
                       or annotate: // simlint: allow(unsafe, reason = \"...\")"
                    .to_string(),
            });
        }
    }
    FileReport {
        findings,
        r001_lines,
        d004_lines,
    }
}

/// S001 attribute check for a crate root: the blanked code must contain
/// `#![forbid(unsafe_code)]`.
#[must_use]
pub fn check_forbid_unsafe(ctx: &FileContext, file: &LexedFile) -> Option<Finding> {
    let found = file.code.iter().any(|l| {
        let compact: String = l.chars().filter(|c| !c.is_whitespace()).collect();
        compact.contains("#![forbid(unsafe_code)]")
    });
    if found {
        None
    } else {
        Some(Finding {
            rule: RuleId::S001,
            path: ctx.rel.clone(),
            line: 1,
            message: "library crate root is missing #![forbid(unsafe_code)]".to_string(),
            help: "add #![forbid(unsafe_code)] to the crate root".to_string(),
        })
    }
}

/// Number of `BTreeMap<NodeId, …>` / `HashMap<NodeId, …>` sites on one
/// blanked code line: an ident-bounded map token whose first generic
/// argument is `NodeId`. `BTreeMap<PacketId, …>` and maps that merely
/// *contain* `NodeId` values do not count — the rule targets the
/// tree-walk-per-node-lookup pattern the dense-index types replace.
#[must_use]
pub fn count_node_keyed_maps(code: &str) -> usize {
    ["BTreeMap", "HashMap"]
        .iter()
        .map(|token| {
            word_positions(code, token)
                .into_iter()
                .filter(|&p| {
                    let rest = code[p + token.len()..].trim_start();
                    match rest.strip_prefix('<') {
                        Some(args) => {
                            let args = args.trim_start();
                            args.strip_prefix("NodeId").is_some_and(|after| {
                                !after.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
                            })
                        }
                        None => false,
                    }
                })
                .count()
        })
        .sum()
}

/// Number of `unwrap()` / `expect(` / `panic!` sites on one blanked code
/// line.
#[must_use]
pub fn count_panics(code: &str) -> usize {
    word_followed_by(code, "unwrap", "(")
        + word_followed_by(code, "expect", "(")
        + word_followed_by(code, "panic", "!")
}

/// Occurrences of `word` (ident-bounded) whose next non-space char starts
/// `suffix`.
fn word_followed_by(hay: &str, word: &str, suffix: &str) -> usize {
    word_positions(hay, word)
        .into_iter()
        .filter(|&p| hay[p + word.len()..].trim_start().starts_with(suffix))
        .count()
}

/// Whether `token` occurs ident-bounded in `hay`. Multi-segment tokens
/// (`Instant::now`) are bounded on their outer edges only.
#[must_use]
pub fn has_word(hay: &str, token: &str) -> bool {
    !word_positions(hay, token).is_empty()
}

fn word_positions(hay: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = hay.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = hay.get(from..).and_then(|h| h.find(token)) {
        let start = from + pos;
        let end = start + token.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            out.push(start);
        }
        from = start + token.len().max(1);
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The set of rule names valid in annotations (used by docs/tests).
#[must_use]
pub fn allow_names() -> BTreeSet<&'static str> {
    [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::R001,
        RuleId::S001,
    ]
    .into_iter()
    .map(RuleId::allow_name)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lib_ctx(rel: &str) -> FileContext {
        classify(rel).expect("in scope")
    }

    #[test]
    fn classification_covers_the_layout() {
        assert_eq!(
            lib_ctx("crates/netsim/src/simulator.rs").kind,
            FileKind::Lib
        );
        assert_eq!(lib_ctx("crates/netsim/src/simulator.rs").krate, "netsim");
        assert_eq!(
            lib_ctx("crates/netsim/tests/engine.rs").kind,
            FileKind::Test
        );
        assert_eq!(lib_ctx("crates/bench/src/lib.rs").kind, FileKind::Bench);
        assert_eq!(
            lib_ctx("crates/bench/src/bin/sweeps.rs").kind,
            FileKind::Bench
        );
        assert_eq!(
            lib_ctx("crates/bench/src/bin/sweeps/figures.rs").kind,
            FileKind::Bench
        );
        assert_eq!(
            lib_ctx("crates/core/benches/engine.rs").kind,
            FileKind::Bench
        );
        assert_eq!(lib_ctx("src/lib.rs").kind, FileKind::Lib);
        assert_eq!(lib_ctx("src/lib.rs").krate, "");
        assert_eq!(lib_ctx("examples/quickstart.rs").kind, FileKind::Example);
        assert_eq!(lib_ctx("tests/extensions.rs").kind, FileKind::Test);
        assert_eq!(lib_ctx("crates/analyzer/src/main.rs").kind, FileKind::Bin);
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("target/debug/build.rs").is_none());
    }

    #[test]
    fn d001_fires_only_in_sim_crates() {
        let file = lex("use std::collections::HashMap;\n");
        let hit = check_file(&lib_ctx("crates/netsim/src/x.rs"), &file);
        assert_eq!(hit.findings.len(), 1);
        assert_eq!(hit.findings[0].rule, RuleId::D001);
        assert_eq!(hit.findings[0].line, 1);
        let miss = check_file(&lib_ctx("crates/analyzer/src/x.rs"), &file);
        assert!(miss.findings.is_empty());
    }

    #[test]
    fn d001_allow_annotation_suppresses() {
        let src = "\
// simlint: allow(unordered-map, reason = \"iteration order never escapes\")
use std::collections::HashMap;
";
        let report = check_file(&lib_ctx("crates/netsim/src/x.rs"), &lex(src));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        // Trailing form covers its own line.
        let src2 =
            "use std::collections::HashMap; // simlint: allow(unordered-map, reason = \"x\")\n";
        let report2 = check_file(&lib_ctx("crates/netsim/src/x.rs"), &lex(src2));
        assert!(report2.findings.is_empty());
    }

    #[test]
    fn annotation_without_reason_is_a001() {
        let src = "// simlint: allow(unordered-map)\nuse std::collections::HashMap;\n";
        let report = check_file(&lib_ctx("crates/netsim/src/x.rs"), &lex(src));
        let rules: Vec<RuleId> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&RuleId::A001));
        assert!(
            rules.contains(&RuleId::D001),
            "malformed allow must not suppress"
        );
    }

    #[test]
    fn annotation_with_unknown_rule_is_a001() {
        let src = "// simlint: allow(everything, reason = \"no\")\n";
        let report = check_file(&lib_ctx("crates/netsim/src/x.rs"), &lex(src));
        assert_eq!(report.findings[0].rule, RuleId::A001);
    }

    #[test]
    fn d002_exempts_the_bench_crate() {
        let file = lex("let t = Instant::now();\n");
        let hit = check_file(&lib_ctx("crates/core/src/x.rs"), &file);
        assert_eq!(hit.findings[0].rule, RuleId::D002);
        let miss = check_file(&lib_ctx("crates/bench/src/lib.rs"), &file);
        assert!(miss.findings.is_empty());
    }

    #[test]
    fn d003_exempts_tests_and_benches() {
        let file = lex("let r = thread_rng();\n");
        let hit = check_file(&lib_ctx("crates/rip/src/x.rs"), &file);
        assert_eq!(hit.findings[0].rule, RuleId::D003);
        assert!(check_file(&lib_ctx("crates/rip/tests/x.rs"), &file)
            .findings
            .is_empty());
        assert!(check_file(&lib_ctx("crates/bench/benches/x.rs"), &file)
            .findings
            .is_empty());
    }

    #[test]
    fn r001_counts_lib_code_only() {
        let src = "\
fn lib() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); }

#[cfg(test)]
mod tests {
    fn t() { c.unwrap(); }
}
";
        let file = lex(src);
        let lib = check_file(&lib_ctx("crates/core/src/x.rs"), &file);
        assert_eq!(lib.r001_lines, vec![1, 1, 1]);
        let test = check_file(&lib_ctx("crates/core/tests/x.rs"), &file);
        assert!(test.r001_lines.is_empty());
    }

    #[test]
    fn r001_does_not_match_lookalikes() {
        assert_eq!(
            count_panics("x.unwrap_or(0); expect_err(); should_panic; panicking"),
            0
        );
        assert_eq!(count_panics("x.unwrap();"), 1);
        assert_eq!(count_panics("Option::unwrap (x)"), 1);
        assert_eq!(count_panics("panic! (\"boom\")"), 1);
        assert_eq!(count_panics("debug_assert!(true)"), 0);
    }

    #[test]
    fn s001_flags_unsafe_tokens_but_not_unsafe_code_attr() {
        let attr = lex("#![forbid(unsafe_code)]\n");
        let ok = check_file(&lib_ctx("crates/core/src/lib.rs"), &attr);
        assert!(ok.findings.is_empty());
        let bad = lex("unsafe { *ptr }\n");
        let hit = check_file(&lib_ctx("crates/core/src/x.rs"), &bad);
        assert_eq!(hit.findings[0].rule, RuleId::S001);
    }

    #[test]
    fn forbid_attr_check() {
        let ctx = lib_ctx("crates/core/src/lib.rs");
        assert!(check_forbid_unsafe(&ctx, &lex("#![forbid(unsafe_code)]\n")).is_none());
        assert!(check_forbid_unsafe(&ctx, &lex("#![ forbid( unsafe_code ) ]\n")).is_none());
        let missing = check_forbid_unsafe(&ctx, &lex("fn f() {}\n"));
        assert_eq!(missing.map(|f| f.rule), Some(RuleId::S001));
        // The attribute inside a comment does not count.
        let commented = check_forbid_unsafe(&ctx, &lex("// #![forbid(unsafe_code)]\n"));
        assert!(commented.is_some());
    }

    #[test]
    fn tokens_in_strings_and_comments_never_fire() {
        let src = "let s = \"HashMap Instant::now panic!\"; // HashMap unwrap()\n";
        let report = check_file(&lib_ctx("crates/netsim/src/x.rs"), &lex(src));
        assert!(report.findings.is_empty());
        assert!(report.r001_lines.is_empty());
    }

    #[test]
    fn allow_names_are_stable() {
        let names = allow_names();
        for n in [
            "unordered-map",
            "wall-clock",
            "unseeded-rng",
            "node-keyed-map",
            "panic",
            "unsafe",
        ] {
            assert!(names.contains(n));
        }
    }

    #[test]
    fn d004_counts_node_keyed_maps_only() {
        assert_eq!(count_node_keyed_maps("x: BTreeMap<NodeId, SimTime>,"), 1);
        assert_eq!(count_node_keyed_maps("y: HashMap < NodeId , u32 >,"), 1);
        assert_eq!(
            count_node_keyed_maps("z: BTreeMap<NodeId, BTreeMap<NodeId, V>>,"),
            2
        );
        // Keyed by something else, or NodeId only as a value/prefix.
        assert_eq!(
            count_node_keyed_maps("a: BTreeMap<PacketId, PacketLog>,"),
            0
        );
        assert_eq!(count_node_keyed_maps("b: BTreeMap<Edge, Vec<NodeId>>,"), 0);
        assert_eq!(count_node_keyed_maps("c: BTreeMap<NodeIdx, V>,"), 0);
        assert_eq!(count_node_keyed_maps("d: MyBTreeMap<NodeId, V>,"), 0);
        assert_eq!(count_node_keyed_maps("e: BTreeSet<NodeId>,"), 0);
    }

    #[test]
    fn d004_is_scoped_to_sim_crate_lib_code() {
        let file = lex("let m: BTreeMap<NodeId, u32> = BTreeMap::new();\n");
        let hit = check_file(&lib_ctx("crates/netsim/src/x.rs"), &file);
        assert_eq!(hit.d004_lines, vec![1]);
        assert!(
            hit.findings.is_empty(),
            "D004 is ratcheted, not a hard finding"
        );
        // Outside the sim crates, or outside lib code, the rule is off.
        assert!(check_file(&lib_ctx("crates/analyzer/src/x.rs"), &file)
            .d004_lines
            .is_empty());
        assert!(check_file(&lib_ctx("crates/netsim/tests/x.rs"), &file)
            .d004_lines
            .is_empty());
        assert!(check_file(&lib_ctx("crates/bench/src/lib.rs"), &file)
            .d004_lines
            .is_empty());
    }

    #[test]
    fn d004_allow_annotation_suppresses() {
        let src = "\
// simlint: allow(node-keyed-map, reason = \"cold path, sparse ids\")
let m: BTreeMap<NodeId, u32> = BTreeMap::new();
";
        let report = check_file(&lib_ctx("crates/netsim/src/x.rs"), &lex(src));
        assert!(report.d004_lines.is_empty());
        assert!(report.findings.is_empty());
    }
}
