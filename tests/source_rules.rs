//! The two source rules clippy cannot state (the rest live in
//! `clippy.toml` and the crate-root lint lines):
//!
//! - No simulation library file keys a `BTreeMap` (or `HashMap`) by
//!   `NodeId`: node ids are dense, and `netsim::dense` indexes them
//!   without a tree walk per lookup.
//! - Every library crate root forbids `unsafe`, and all but `bench` deny
//!   panicking calls outside tests with the lint line below.

use std::fs;
use std::path::{Path, PathBuf};

const SIM_CRATES: &[&str] = &[
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

const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";
const PANIC_LINTS: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
                           clippy::panic,clippy::allow_attributes_without_reason))]";

/// `bench` is the sweeps driver's frame, not simulation code: it may
/// panic on a bad command line.
const PANICKING_CRATES: &[&str] = &["bench"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The code of a source file without `//` comments, without the trailing
/// `#[cfg(test)] mod`, and without whitespace.
fn compact_code(source: &str) -> String {
    let code = match source.find("\n#[cfg(test)]\nmod ") {
        Some(end) => &source[..end],
        None => source,
    };
    code.lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .flat_map(str::chars)
        .filter(|c| !c.is_whitespace())
        .collect()
}

/// Maps in `code` (compacted) whose key type is `NodeId`.
fn node_keyed_maps(code: &str) -> usize {
    ["BTreeMap<", "HashMap<"]
        .iter()
        .flat_map(|map| code.match_indices(map).map(move |(at, _)| at + map.len()))
        .filter(|&key| {
            let key_type = code[key..].split([',', '>']).next().unwrap_or_default();
            key_type.rsplit("::").next() == Some("NodeId")
        })
        .count()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn node_keyed_maps_are_told_apart_from_other_maps() {
    let code = compact_code(
        "a: BTreeMap<NodeId, u32>,\nb: BTreeMap < netsim::NodeId , V >,\n\
         c: BTreeMap<NodeIdx, V>, d: BTreeMap<Edge, Vec<NodeId>>, e: BTreeSet<NodeId>,\n\
         // f: BTreeMap<NodeId, V>\n#[cfg(test)]\nmod tests { g: BTreeMap<NodeId, V> }\n",
    );
    assert_eq!(node_keyed_maps(&code), 2);
}

#[test]
fn no_simulation_library_file_keys_a_map_by_node_id() {
    let mut offenders = Vec::new();
    for krate in SIM_CRATES {
        let mut files = Vec::new();
        rust_files(&root().join("crates").join(krate).join("src"), &mut files);
        for file in files {
            let hits = node_keyed_maps(&compact_code(&read(&file)));
            if hits > 0 {
                offenders.push(format!("{}: {hits}", file.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "NodeId-keyed maps (use a netsim::dense index): {offenders:#?}"
    );
}

#[test]
fn every_library_crate_root_forbids_unsafe_and_panics() {
    let mut roots = vec![("routing-convergence-study".to_string(), root().join("src"))];
    for entry in fs::read_dir(root().join("crates")).expect("crates/") {
        let dir = entry.expect("directory entry").path();
        let name = dir.file_name().expect("crate dir").to_string_lossy().into();
        roots.push((name, dir.join("src")));
    }
    let mut missing = Vec::new();
    for (krate, src) in roots {
        let lib = src.join("lib.rs");
        if !lib.exists() {
            continue;
        }
        let code = compact_code(&read(&lib));
        if !code.contains(FORBID_UNSAFE) {
            missing.push(format!("{krate}: {FORBID_UNSAFE}"));
        }
        if !PANICKING_CRATES.contains(&krate.as_str()) && !code.contains(PANIC_LINTS) {
            missing.push(format!("{krate}: {PANIC_LINTS}"));
        }
    }
    assert!(missing.is_empty(), "crate roots lack: {missing:#?}");
}
