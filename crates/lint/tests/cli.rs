//! End-to-end CLI tests: run the compiled `webdeps-lint` binary
//! against the committed fixture workspaces and assert on exit codes
//! and report contents.

use std::process::{Command, Output};

const BAD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/bad");
const CLEAN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/clean");

/// Every rule the bad fixture trips: the token/manifest rules, the
/// five dataflow rules, the three interprocedural reachability rules,
/// and the five concurrency rules.
const ALL_RULES: &[&str] = &[
    "panic",
    "wall-clock",
    "env-rand",
    "hash-iter",
    "layering",
    "extern-dep",
    "dbg",
    "todo",
    "allow-syntax",
    "result-dropped",
    "seed-flow",
    "float-ord",
    "must-use-api",
    "thread-capture",
    "panic-reachable",
    "taint-escape",
    "seed-flow-transitive",
    "lock-order-cycle",
    "blocking-while-locked",
    "guard-across-fanout",
    "lock-poison-unwrap",
    "atomic-ordering-mixed",
];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_webdeps-lint"))
        .args(args)
        .output()
        .expect("spawn webdeps-lint")
}

#[test]
fn bad_fixture_fails_and_names_every_rule() {
    let out = run(&["--root", BAD, "--json"]);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let json = String::from_utf8(out.stdout).expect("utf8");
    for rule in ALL_RULES {
        assert!(
            json.contains(&format!("\"rule\": \"{rule}\"")),
            "fixture must trip rule {rule}; report:\n{json}"
        );
    }
    // The reasonless allow still suppresses (and is reported), but its
    // missing reason is an allow-syntax violation.
    assert!(json.contains("\"suppressed\": 1"), "report:\n{json}");
}

#[test]
fn clean_fixture_passes_and_counts_its_suppression() {
    let out = run(&["--root", CLEAN, "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert!(json.contains("\"violations\": 0"), "report:\n{json}");
    assert!(json.contains("\"suppressed\": 1"), "report:\n{json}");
    assert!(
        json.contains("fixture invariant: callers always pass non-empty slices"),
        "suppression reason must be attributed; report:\n{json}"
    );
}

#[test]
fn multi_line_allow_reason_is_captured_in_full() {
    // Regression: a reason wrapping onto following comment-only lines
    // used to be truncated at the first line.
    let out = run(&["--root", CLEAN, "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        json.contains("non-empty slices, so taking the head cannot fail"),
        "continuation lines must join the reason; report:\n{json}"
    );
}

#[test]
fn suppressions_flag_lists_reasons_in_human_output() {
    let out = run(&["--root", CLEAN, "--suppressions"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        text.contains("fixture invariant"),
        "human output must show the reason:\n{text}"
    );
}

#[test]
fn allow_flags_can_silence_the_bad_fixture() {
    let mut args = vec!["--root", BAD];
    for r in ALL_RULES {
        args.push("--allow");
        args.push(r);
    }
    let out = run(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "disabling every rule must make the bad fixture pass; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn warn_rules_gate_only_under_deny_warnings() {
    // Disable everything except must-use-api (warn by default): the
    // remaining violations are warnings, so the plain run passes …
    let mut args = vec!["--root", BAD];
    for r in ALL_RULES.iter().filter(|r| **r != "must-use-api") {
        args.push("--allow");
        args.push(r);
    }
    let out = run(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "warn-severity findings alone must not fail; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // … and --deny-warnings turns the same findings into failures.
    args.push("--deny-warnings");
    let out = run(&args);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn interprocedural_rules_cite_source_and_witness_chain() {
    let out = run(&["--root", BAD, "--json"]);
    let json = String::from_utf8(out.stdout).expect("utf8");
    for witness in [
        "via head -> hidden_panic",
        "via stamp -> now_tag",
        "via draw -> mint",
    ] {
        assert!(
            json.contains(witness),
            "interproc diagnostics must carry the call chain {witness:?}; report:\n{json}"
        );
    }
}

#[test]
fn lock_order_cycle_reports_a_deterministic_witness_chain() {
    // The bad fixture's `Pair::forward`/`Pair::backward` take `a` and
    // `b` in opposite orders through private helpers; the diagnostic
    // must spell out the full cycle with per-hop provenance, byte for
    // byte, on every run.
    let out = run(&["--root", BAD, "--json"]);
    let json = String::from_utf8(out.stdout).expect("utf8");
    let witness = "potential deadlock: lock-order cycle `Pair.a` -> `Pair.b` -> `Pair.a`: \
                   `Pair.a` held in `Pair::forward` (crates/web/src/lib.rs:128) -> \
                   calls `Pair::grab_b` -> acquires `Pair.b`; \
                   `Pair.b` held in `Pair::backward` (crates/web/src/lib.rs:133) -> \
                   calls `Pair::grab_a` -> acquires `Pair.a`; \
                   acquire locks in one global order or justify with lint:allow(lock-order-cycle)";
    assert!(
        json.contains(witness),
        "lock-order-cycle must carry the exact witness chain; report:\n{json}"
    );
}

#[test]
fn concurrency_rules_cite_guards_and_blocking_sites() {
    let out = run(&["--root", BAD, "--json"]);
    let json = String::from_utf8(out.stdout).expect("utf8");
    for needle in [
        // Direct blocking under a live guard.
        "`thread::sleep` blocks while the guard on `Mutex<u64>` (taken at line 138) is live",
        // Call-mediated blocking: the sleep hides in a helper.
        "call to `naps` can reach `thread::sleep` in `naps` (crates/web/src/lib.rs:144) \
         while the guard on `Mutex<u64>` (taken at line 148) is live",
        // A guard held across the parallel fan-out entry point.
        "is live across the parallel fan-out call at line 159",
        // Poisoned-lock unwrap names the recovery idiom.
        ".lock().unwrap() panics on a poisoned lock",
        // Mixed atomic orderings cite both sites.
        "atomic field `TICKS` is accessed with mixed orderings: \
         `Relaxed` (crates/web/src/lib.rs:170) vs `SeqCst` here",
    ] {
        assert!(
            json.contains(needle),
            "concurrency diagnostics must contain {needle:?}; report:\n{json}"
        );
    }
}

#[test]
fn justified_site_does_not_propagate_to_callers() {
    // The clean fixture's `head` calls `first`, whose panic site
    // carries a justified allow directive — the justification
    // discharges the hazard for every caller.
    let out = run(&["--root", CLEAN, "--json"]);
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        !json.contains("\"rule\": \"panic-reachable\""),
        "justified panic sites must not taint callers; report:\n{json}"
    );
}

#[test]
fn json_out_writes_the_report_to_disk() {
    let path = std::env::temp_dir().join(format!("webdeps-lint-cli-{}.json", std::process::id()));
    let out = run(&[
        "--root",
        CLEAN,
        "--json-out",
        path.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let written = std::fs::read_to_string(&path).expect("json-out file");
    assert!(written.contains("\"schema\": \"webdeps-lint/4\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_rule_and_unknown_flag_are_usage_errors() {
    let out = run(&["--allow", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn list_rules_prints_the_catalog() {
    let out = run(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf8");
    for rule in ALL_RULES {
        assert!(text.contains(rule), "catalog must list {rule}:\n{text}");
    }
}

#[test]
fn explain_covers_the_full_rule_registry() {
    // Every rule --list-rules names must have a complete --explain
    // entry: severity tag, a rationale, an example, and allow syntax.
    let listing = run(&["--list-rules"]);
    let listed: Vec<String> = String::from_utf8(listing.stdout)
        .expect("utf8")
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    assert_eq!(
        listed.len(),
        ALL_RULES.len(),
        "registry drifted: {listed:?}"
    );
    for rule in &listed {
        let out = run(&["--explain", rule]);
        assert_eq!(out.status.code(), Some(0), "--explain {rule} must succeed");
        let text = String::from_utf8(out.stdout).expect("utf8");
        for section in ["Why:", "Example (flagged):", "Justified sites:"] {
            assert!(
                text.contains(section),
                "--explain {rule} missing {section:?}:\n{text}"
            );
        }
        assert!(
            text.contains("[deny]") || text.contains("[warn]"),
            "--explain {rule} missing severity:\n{text}"
        );
    }
}

#[test]
fn explain_unknown_rule_is_a_usage_error() {
    let out = run(&["--explain", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
}
