//! The `repro` and `audit` command lines treat their arguments as
//! untrusted input: a value that cannot describe a measurement is a
//! usage error with exit status 1, never a table of `NaN`s.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary runs")
}

fn assert_usage_error(out: &Output, usage: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(usage), "usage line missing: {stderr}");
    assert!(out.stdout.is_empty(), "printed output on a usage error");
}

#[test]
fn repro_rejects_scale_zero() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["--scale", "0"]);
    assert_usage_error(&out, "usage: repro");
}

#[test]
fn audit_rejects_scale_zero() {
    let out = run(env!("CARGO_BIN_EXE_audit"), &["--scale", "0"]);
    assert_usage_error(&out, "usage: audit");
}

#[test]
fn audit_rejects_worst_zero() {
    let out = run(
        env!("CARGO_BIN_EXE_audit"),
        &["--scale", "50", "--worst", "0"],
    );
    assert_usage_error(&out, "usage: audit");
}

#[test]
fn audit_selector_matching_nothing_fails_without_population_view() {
    let audit = env!("CARGO_BIN_EXE_audit");
    for args in [
        &["--scale", "300", "--rank", "999999"][..],
        &["--scale", "300", "--domain", "no-such-site.example"][..],
        &["--scale", "300", "--rank", "1", "--rank", "999999"][..],
    ] {
        let out = run(audit, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {stderr}");
        assert!(stderr.contains("no site"), "{args:?}: miss not reported");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: printed {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn audit_selector_that_matches_prints_that_site() {
    let out = run(
        env!("CARGO_BIN_EXE_audit"),
        &["--scale", "300", "--rank", "7"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("(rank #7)"), "{stdout}");
    assert!(!stdout.contains("score distribution"), "{stdout}");
}
