//! Workspace walking and per-file rule orchestration.
//!
//! Discovery is deterministic: directory entries are sorted before
//! visiting (the linter holds itself to the invariants it enforces).
//! The workspace-wide pass lives in [`crate::driver`]; this module
//! owns discovery and what happens to *one* file.

use crate::config::Config;
use crate::dataflow;
use crate::diag::Violation;
use crate::interproc::{CallGraph, FnSummary};
use crate::parser::ParsedFile;
use crate::rules;
use crate::scan::FileCtx;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Runs every per-file rule pass (token + dataflow) over one lexed and
/// parsed source file; `fns` are its summaries, nodes of `graph`. The
/// raw violations come back in (line, rule) order, to be matched
/// against the file's directives by the caller (phase 2 of
/// [`crate::lint_workspace`]).
pub(crate) fn analyze_file(
    ctx: &FileCtx,
    parsed: &ParsedFile,
    fns: &[FnSummary],
    graph: &CallGraph,
    cfg: &Config,
) -> Vec<Violation> {
    let mut raw = rules::run_all(ctx, cfg);
    raw.extend(dataflow::run_all(ctx, parsed, fns, graph, cfg));
    raw.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    raw
}

/// `file` relative to `root`, with forward slashes.
pub fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `Cargo.toml` files: the root manifest plus one per crate.
#[must_use]
pub(crate) fn discover_manifests(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        out.push(root_manifest);
    }
    for dir in sorted_subdirs(&root.join("crates"))? {
        let m = dir.join("Cargo.toml");
        if m.is_file() {
            out.push(m);
        }
    }
    Ok(out)
}

/// All Rust sources: root `src`/`tests`/`examples`, and each crate's
/// `src`/`tests`/`benches`/`examples`.
#[must_use]
pub fn discover_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for sub in ["src", "tests", "examples"] {
        collect_rs(&root.join(sub), &mut out)?;
    }
    for dir in sorted_subdirs(&root.join("crates"))? {
        for sub in ["src", "tests", "benches", "examples"] {
            collect_rs(&dir.join(sub), &mut out)?;
        }
    }
    Ok(out)
}

fn sorted_subdirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
