//! Workspace walking and per-file rule orchestration.
//!
//! Discovery is deterministic: directory entries are sorted before
//! visiting (the linter holds itself to the invariants it enforces).
//! The workspace-wide pass lives in [`crate::driver`]; this module
//! owns discovery and what happens to *one* file.

use crate::config::{self, Config};
use crate::dataflow::{self, SigTable};
use crate::diag::Suppressed;
use crate::parser::ParsedFile;
use crate::rules;
use crate::scan::FileCtx;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one file's rule passes produced, before workspace-level
/// merging.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Unsuppressed violations.
    pub violations: Vec<crate::diag::Violation>,
    /// Suppressed violations with their directives.
    pub suppressed: Vec<Suppressed>,
    /// Lines of `lint:allow` directives that silenced nothing.
    pub unused_allows: Vec<u32>,
}

/// Runs every rule pass (token + dataflow) over one lexed and parsed
/// source file and applies its suppressions. Phase 2 of the driver.
pub(crate) fn analyze_file(
    ctx: &FileCtx,
    parsed: &ParsedFile,
    cfg: &Config,
    sigs: &SigTable,
) -> FileOutcome {
    let mut raw = rules::run_all(ctx, cfg);
    raw.extend(dataflow::run_all(ctx, parsed, sigs, cfg));
    raw.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    let mut outcome = FileOutcome::default();
    let mut used = vec![false; ctx.suppressions.len()];
    for v in raw {
        let matched = ctx.suppressions.iter().enumerate().find(|(_, s)| {
            s.rules.iter().any(|r| r == &v.rule) && s.covers.0 <= v.line && v.line <= s.covers.1
        });
        match matched {
            Some((idx, s)) => {
                used[idx] = true;
                outcome.suppressed.push(Suppressed {
                    violation: v,
                    reason: s.reason.clone(),
                    allow_line: s.line,
                });
            }
            None => outcome.violations.push(v),
        }
    }
    for (idx, s) in ctx.suppressions.iter().enumerate() {
        // Directives naming a centrally-matched rule (interprocedural
        // or concurrency) are matched by the central passes, which this
        // per-file view cannot see; they own the unused-allow reporting.
        if !used[idx] && !s.rules.iter().any(|r| config::is_central_rule(r)) {
            outcome.unused_allows.push(s.line);
        }
    }
    outcome
}

pub(crate) fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

pub(crate) fn crate_of(rel: &str) -> Option<String> {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(|s| s.to_string())
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
pub(crate) fn discover_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
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
