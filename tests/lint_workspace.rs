//! The linter's own acceptance gate: the live workspace must be clean.
//!
//! Any new `HashMap` iteration into output, stray `unwrap()` in a
//! library path, layering violation, or external dependency fails this
//! test — the static-analysis pass is part of the tier-1 suite, not an
//! optional extra.

use std::path::Path;

/// The gate `webdeps-lint --root .` applies: the committed baseline.
fn lint(root: &Path) -> webdeps_lint::Report {
    let baseline = root.join("LINT_BASELINE.json");
    webdeps_lint::lint_workspace(root, &webdeps_lint::Config::default(), Some(&baseline))
        .expect("workspace scan")
}

#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint(root);
    assert!(
        report.files_scanned > 100,
        "scan must cover the whole tree, saw only {} files",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.render_human(false)
    );
    // Every committed suppression must actually silence something;
    // stale allows rot into misleading documentation.
    assert!(
        report.unused_allows.is_empty(),
        "unused lint:allow directives: {:?}",
        report.unused_allows
    );
}

#[test]
fn suppressions_all_carry_reasons() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint(root);
    for s in &report.suppressed {
        assert!(
            !s.reason.is_empty(),
            "suppression at {}:{} has no reason",
            s.violation.file,
            s.allow_line
        );
    }
}
