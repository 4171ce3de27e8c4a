//! Integration tests for the workspace driver: the cross-file
//! `result-dropped` check against a throwaway workspace built in a
//! temp directory, and a full pass over the repository itself.

use std::fs;
use std::path::PathBuf;
use webdeps_lint::{lint_workspace, Config};

const ROOT_MANIFEST: &str = "[workspace]\nmembers = [\"crates/a\", \"crates/b\"]\n";

const LIB_A: &str = "\
//! Fixture crate a.

/// Doubles a value.
pub fn double(x: u32) -> u32 {
    x * 2
}
";

/// Puts a `Result`-returning fn in the workspace signature table.
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
/// the workspace signature table can catch.
const LIB_A_DROPS: &str = "\
//! Fixture crate a.

/// Doubles a value.
pub fn double(x: u32) -> u32 {
    let _ = parse_positive(9);
    x * 2
}
";

fn crate_manifest(name: &str) -> String {
    format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n")
}

fn mk_workspace(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("webdeps-lint-driver-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    for c in ["a", "b"] {
        fs::create_dir_all(root.join(format!("crates/{c}/src"))).expect("mkdir");
        fs::write(
            root.join(format!("crates/{c}/Cargo.toml")),
            crate_manifest(c),
        )
        .expect("write manifest");
    }
    fs::write(root.join("Cargo.toml"), ROOT_MANIFEST).expect("write root manifest");
    fs::write(root.join("crates/a/src/lib.rs"), LIB_A).expect("write a");
    fs::write(root.join("crates/b/src/lib.rs"), LIB_B_WITH_RESULT).expect("write b");
    root
}

#[test]
fn result_dropped_across_crates() {
    let root = mk_workspace("cross-file");
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

    // a discards b's Result: only the workspace signature table, built
    // from every file before any rule runs, can catch this.
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
