//! The lint driver: one serial pass over the workspace.
//!
//! Analysis runs in two phases because the cross-file rules need every
//! file's summaries before any rule runs:
//!
//! 1. **facts** — every source is lexed and parsed once; its context
//!    finds the file's hazard sites ([`FileCtx::hazards`]) and the
//!    parse yields its per-function summaries ([`crate::interproc`]),
//!    which merge into one workspace call graph.
//! 2. **rules** — the per-file rule passes run over phase 1's parses,
//!    resolving discarded calls (`result-dropped`) through the graph;
//!    then the interprocedural and concurrency rules evaluate
//!    centrally.
//!
//! Every finding goes through the one `lint:allow` matcher
//! (`interproc::justify`) against its file's directives. Files
//! are visited in sorted-path order, so the report is identical on
//! every run.

use crate::config::Config;
use crate::diag::{self, Report, StaleBaseline, Violation};
use crate::interproc::{self, CallGraph, Findings};
use crate::json::{self, Json};
use crate::layering;
use crate::parser;
use crate::scan::{crate_of, FileCtx};
use crate::workspace;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Baseline file schema tag.
const BASELINE_SCHEMA: &str = "webdeps-lint-baseline/1";

/// Lints the workspace rooted at `root`: the root package (if any),
/// root `tests/` and `examples/`, and every crate under `crates/`.
/// The findings `baseline` accepts move to `Report::baselined`; a
/// missing baseline file accepts none.
#[must_use]
pub fn lint_workspace(root: &Path, cfg: &Config, baseline: Option<&Path>) -> io::Result<Report> {
    let manifests = workspace::discover_manifests(root)?;
    let sources = workspace::discover_sources(root)?;
    let read = |paths: Vec<PathBuf>| -> io::Result<Vec<(String, String)>> {
        paths
            .into_iter()
            .map(|p| Ok((workspace::rel_path(root, &p), fs::read_to_string(&p)?)))
            .collect()
    };
    let mut report = lint_files(&read(manifests)?, &read(sources)?, cfg);
    if let Some(path) = baseline {
        apply_baseline(&mut report, &load_baseline(path));
    }
    report.sort();
    Ok(report)
}

/// Lints one source string in isolation and returns the finished
/// (sorted) report. Calls resolve against this file's fns alone, so
/// `result-dropped` and the interprocedural rules see only what the
/// snippet itself defines.
#[must_use]
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> Report {
    let mut report = lint_files(&[], &[(rel_path.to_string(), src.to_string())], cfg);
    report.sort();
    report
}

/// Both phases and the central passes over `(path, text)` pairs; the
/// report comes back unsorted.
fn lint_files(
    manifests: &[(String, String)],
    sources: &[(String, String)],
    cfg: &Config,
) -> Report {
    // Phase 1: lex and parse every source once, keeping the parse and
    // the range of its fns' node ids for phase 2.
    let mut files = Vec::with_capacity(sources.len());
    let mut nodes = Vec::new();
    let mut allows = Vec::new();
    for (rel, src) in sources {
        let ctx = FileCtx::new(rel, src);
        let parsed = parser::parse(&ctx.code);
        let summaries = interproc::extract(&ctx, &parsed);
        let ids = nodes.len()..nodes.len() + summaries.fns.len();
        nodes.extend(summaries.fns);
        allows.extend(
            summaries
                .allows
                .into_iter()
                .map(|a| (ctx.rel_path.clone(), a)),
        );
        files.push((ctx, parsed, ids));
    }
    // Sources are in sorted-path order, so node ids — and therefore the
    // propagated sources, witness chains, and lock-order edges — never
    // vary.
    let graph = CallGraph::build(nodes);

    // Phase 2: the per-file rule passes, then the central ones.
    let mut report = Report {
        files_scanned: manifests.len() + sources.len(),
        severities: cfg.severity_map(),
        ..Report::default()
    };
    for (rel, src) in manifests {
        report
            .violations
            .extend(layering::lint_manifest(rel, src, crate_of(rel), cfg));
    }
    let mut found = Findings::new(cfg, &mut allows);
    for (ctx, parsed, ids) in &files {
        for v in workspace::analyze_file(ctx, parsed, &graph.nodes[ids.clone()], &graph, cfg) {
            found.add(v);
        }
    }
    report.violations.append(&mut found.violations);
    report.suppressed.append(&mut found.suppressed);
    let (iviolations, isuppressed) = interproc::evaluate(&graph, cfg, &mut allows);
    report.violations.extend(iviolations);
    report.suppressed.extend(isuppressed);
    let (cviolations, csuppressed) = crate::concurrency::evaluate(&graph, cfg, &mut allows);
    report.violations.extend(cviolations);
    report.suppressed.extend(csuppressed);
    report.unused_allows = interproc::unused_allows(&allows);
    report
}

// ---- baseline ----

/// One accepted pre-existing finding: up to `count` violations matching
/// (rule, file, snippet) are absorbed instead of failing the run.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Rule name the entry absorbs.
    pub rule: String,
    /// Repo-relative file the finding lives in.
    pub file: String,
    /// Trimmed source snippet the finding anchors to (line-number-free
    /// so unrelated edits above it don't invalidate the entry).
    pub snippet: String,
    /// How many matching violations the entry absorbs.
    pub count: u64,
}

/// Loads the committed baseline; a missing or malformed file is an
/// empty baseline (absorbed findings then fail loudly as violations).
pub fn load_baseline(path: &Path) -> Vec<BaselineEntry> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(doc) = json::parse(&text) else {
        return Vec::new();
    };
    if doc.get("schema").and_then(Json::as_str) != Some(BASELINE_SCHEMA) {
        return Vec::new();
    }
    let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            Some(BaselineEntry {
                rule: e.get("rule")?.as_str()?.to_string(),
                file: e.get("file")?.as_str()?.to_string(),
                snippet: e.get("snippet")?.as_str()?.to_string(),
                count: e.get("count").and_then(Json::as_u64).unwrap_or(1),
            })
        })
        .collect()
}

/// Moves baseline-matched violations into `report.baselined` and
/// records entries with leftover capacity as stale (the finding was
/// fixed; the baseline should shrink).
pub fn apply_baseline(report: &mut Report, entries: &[BaselineEntry]) {
    if entries.is_empty() {
        return;
    }
    let mut left: Vec<u64> = entries.iter().map(|e| e.count).collect();
    let mut kept = Vec::new();
    for v in std::mem::take(&mut report.violations) {
        let hit = entries.iter().enumerate().position(|(i, e)| {
            left.get(i).copied().unwrap_or(0) > 0
                && e.rule == v.rule
                && e.file == v.file
                && e.snippet == v.snippet
        });
        match hit {
            Some(i) => {
                if let Some(slot) = left.get_mut(i) {
                    *slot -= 1;
                }
                report.baselined.push(v);
            }
            None => kept.push(v),
        }
    }
    report.violations = kept;
    for (e, leftover) in entries.iter().zip(&left) {
        if *leftover > 0 {
            report.stale_baseline.push(StaleBaseline {
                rule: e.rule.clone(),
                file: e.file.clone(),
                snippet: e.snippet.clone(),
            });
        }
    }
}

/// Renders a baseline file that would absorb exactly the given
/// violations (used by `--write-baseline`).
pub fn render_baseline(violations: &[Violation]) -> String {
    let mut counts: BTreeMap<(String, String, String), u64> = BTreeMap::new();
    for v in violations {
        *counts
            .entry((v.rule.clone(), v.file.clone(), v.snippet.clone()))
            .or_insert(0) += 1;
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": {},\n  \"entries\": [\n",
        diag::json_str(BASELINE_SCHEMA)
    );
    let entries: Vec<String> = counts
        .iter()
        .map(|((rule, file, snippet), count)| {
            format!(
                "    {{\"rule\": {}, \"file\": {}, \"snippet\": {}, \"count\": {}}}",
                diag::json_str(rule),
                diag::json_str(file),
                diag::json_str(snippet),
                count
            )
        })
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
