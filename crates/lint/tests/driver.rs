//! Integration tests for `lint_workspace`: cross-file call resolution
//! against throwaway workspaces built in a temp directory, and full
//! passes over the repository itself.

use std::fs;
use std::path::PathBuf;
use webdeps_lint::interproc::{self, CallGraph};
use webdeps_lint::scan::{crate_of, FileCtx};
use webdeps_lint::{config, lint_workspace, parser, workspace, Config, Report};

const LIB_A: &str = "\
//! Fixture crate a.

/// Doubles a value.
pub fn double(x: u32) -> u32 {
    x * 2
}
";

/// Defines a `Result`-returning fn for crate a to call.
const LIB_B_WITH_RESULT: &str = "\
//! Fixture crate b.

/// Triples a value.
pub fn triple(x: u32) -> u32 {
    x * 3
}

/// Fallible conversion.
#[must_use]
pub fn parse_positive(x: i64) -> Result<u32, String> {
    u32::try_from(x).map_err(|_| \"negative\".to_string())
}
";

/// Crate a discarding crate b's `Result` — the cross-file case only
/// resolution over every file's summaries can catch.
const LIB_A_DROPS: &str = "\
//! Fixture crate a.

/// Doubles a value.
pub fn double(x: u32) -> u32 {
    let _ = parse_positive(9);
    x * 2
}
";

/// Crate `model`, the bottom of the DAG: its `grow` and `Widget::new`
/// share names with `core`'s but neither panics nor fails, and its
/// private `walk` returns a `Result` that `core` cannot call.
const LIB_MODEL: &str = "\
//! Fixture crate model.

/// A growable pool.
pub struct Pool {
    items: Vec<u32>,
}

impl Pool {
    /// Adds one item.
    pub fn grow(&mut self) {
        self.items.push(0);
    }
}

/// Grows a pool by one item.
pub fn enlarge(x: &mut Pool) {
    x.grow();
}

/// The first value, which every caller guarantees exists.
pub fn take_head(v: &[u32]) -> u32 {
    v.first().copied().expect(\"non-empty\")
}

/// A widget whose constructor cannot fail.
pub struct Widget;

impl Widget {
    /// A fresh widget.
    pub fn new() -> Widget {
        Widget
    }
}

/// Warms the constructor, discarding the widget.
pub fn prime() {
    Widget::new();
}

fn walk(v: u32) -> Result<u32, String> {
    Ok(v)
}

/// Walks one value, keeping the outcome.
pub fn hike() -> Result<u32, String> {
    walk(2)
}
";

/// Crate `core`, which may depend on `model`: a panicking `grow`, a
/// fallible `Widget::new`, an infallible private `walk`, and a call down
/// into `model`.
const LIB_CORE: &str = "\
//! Fixture crate core.

/// A bounded heap.
pub struct Heap {
    items: Vec<u32>,
}

impl Heap {
    /// Adds one item, panicking when the heap is full.
    pub fn grow(&mut self) {
        if self.items.len() > 8 {
            panic!(\"heap full\");
        }
        self.items.push(0);
    }
}

/// The head of `v`, through model's helper.
pub fn first_of(v: &[u32]) -> u32 {
    webdeps_model::take_head(v)
}

/// A widget whose constructor can fail.
pub struct Widget;

impl Widget {
    /// A fresh widget, or why not.
    #[must_use]
    pub fn new() -> Result<Widget, String> {
        Ok(Widget)
    }
}

/// Builds a widget and drops the outcome.
pub fn careless() {
    Widget::new();
}

fn walk(v: u32) {
    let _ = v;
}

/// Walks one value.
pub fn stroll() {
    walk(1);
}
";

fn crate_manifest(name: &str) -> String {
    format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n")
}

/// A workspace in a fresh temp directory with one `crates/<name>`
/// member per `(name, lib.rs source)` pair.
fn mk_workspace(tag: &str, crates: &[(&str, &str)]) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("webdeps-lint-driver-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    let members: Vec<String> = crates
        .iter()
        .map(|(name, _)| format!("\"crates/{name}\""))
        .collect();
    for (name, lib) in crates {
        fs::create_dir_all(root.join(format!("crates/{name}/src"))).expect("mkdir");
        fs::write(
            root.join(format!("crates/{name}/Cargo.toml")),
            crate_manifest(name),
        )
        .expect("write manifest");
        fs::write(root.join(format!("crates/{name}/src/lib.rs")), lib).expect("write lib");
    }
    fs::write(
        root.join("Cargo.toml"),
        format!("[workspace]\nmembers = [{}]\n", members.join(", ")),
    )
    .expect("write root manifest");
    root
}

/// Lints a `model`/`core` workspace and returns the report.
fn lint_model_and_core(tag: &str) -> Report {
    let root = mk_workspace(tag, &[("model", LIB_MODEL), ("core", LIB_CORE)]);
    let report = lint_workspace(&root, &Config::default(), None).expect("lint");
    fs::remove_dir_all(&root).ok();
    report
}

#[test]
fn result_dropped_across_crates() {
    let root = mk_workspace("cross-file", &[("a", LIB_A), ("b", LIB_B_WITH_RESULT)]);
    let cfg = Config::default();

    let clean = lint_workspace(&root, &cfg, None).expect("clean lint");
    assert!(
        clean
            .violations
            .iter()
            .all(|v| v.file != "crates/a/src/lib.rs"),
        "{}",
        clean.render_json()
    );

    // a discards b's Result: only resolution over every file's
    // summaries, gathered before any rule runs, can catch this.
    fs::write(root.join("crates/a/src/lib.rs"), LIB_A_DROPS).expect("edit a");
    let dropped = lint_workspace(&root, &cfg, None).expect("dropped lint");
    assert!(
        dropped
            .violations
            .iter()
            .any(|v| v.rule == "result-dropped" && v.file == "crates/a/src/lib.rs"),
        "{}",
        dropped.render_json()
    );

    fs::remove_dir_all(&root).ok();
}

#[test]
fn real_workspace_lints_without_error() {
    // The repo's own sources are the largest parser corpus available:
    // the full pass must succeed (no panics, no I/O errors) and scan
    // a non-trivial number of files.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Config::default(), None).expect("workspace lint");
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
}

#[test]
fn method_calls_resolve_only_inside_the_crate_dag() {
    let report = lint_model_and_core("dag-methods");
    let reachable: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "panic-reachable")
        .collect();
    // `model` may not depend on `core`, so `x.grow()` in `enlarge`
    // resolves to `Pool::grow` alone, never to the panicking `Heap::grow`.
    assert!(
        reachable
            .iter()
            .all(|v| v.file != "crates/model/src/lib.rs"),
        "{}",
        report.render_json()
    );
    // `core` may depend on `model`: its call into `take_head` still
    // reaches the panic, through a chain inside the DAG.
    assert!(
        reachable.iter().any(|v| v.file == "crates/core/src/lib.rs"
            && v.message.contains("via first_of -> take_head")),
        "{}",
        report.render_json()
    );
}

#[test]
fn result_dropped_resolves_in_the_callers_scope() {
    let report = lint_model_and_core("dag-results");
    // `model`'s `Widget::new()` can only be its own infallible one, and
    // `core`'s `walk(1)` cannot reach `model`'s private fallible `walk`;
    // `core`'s discard reaches its fallible `Widget::new`.
    let dropped: Vec<(&str, &str)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "result-dropped")
        .map(|v| (v.file.as_str(), v.snippet.as_str()))
        .collect();
    assert_eq!(
        dropped,
        [("crates/core/src/lib.rs", "Widget::new();")],
        "{}",
        report.render_json()
    );
}

#[test]
fn live_call_graph_stays_inside_the_crate_dag() {
    // Every resolved edge of the repository's own call graph must be
    // one the `layering` rule allows: within the caller's crate, into a
    // crate `CRATE_DAG` lists for it, or from an unscoped crate (the
    // root package, a crate outside the DAG) — and never into the root
    // package.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut nodes = Vec::new();
    for path in workspace::discover_sources(&root).expect("discover sources") {
        let rel = workspace::rel_path(&root, &path);
        let src = fs::read_to_string(&path).expect("read source");
        let ctx = FileCtx::new(&rel, &src);
        nodes.extend(interproc::extract(&ctx, &parser::parse(&ctx.code)).fns);
    }
    let graph = CallGraph::build(nodes);
    let mut edges = 0usize;
    let mut crossing = Vec::new();
    for (id, callees) in graph.edge_lists().iter().enumerate() {
        let caller = &graph.nodes[id];
        let from = crate_of(&caller.file);
        for &t in callees {
            edges += 1;
            let callee = &graph.nodes[t as usize];
            let to = crate_of(&callee.file);
            let allowed = match from.and_then(config::allowed_deps) {
                None => to.is_some(),
                Some(deps) => to == from || to.is_some_and(|to| deps.contains(&to)),
            };
            if !allowed {
                crossing.push(format!(
                    "{} ({}) -> {} ({})",
                    caller.qualified(),
                    caller.file,
                    callee.qualified(),
                    callee.file
                ));
            }
        }
    }
    assert!(edges > 1000, "only {edges} edges resolved");
    assert!(
        crossing.is_empty(),
        "{} of {edges} edges leave the crate DAG, e.g. {:?}",
        crossing.len(),
        &crossing[..crossing.len().min(5)]
    );
}
