//! Per-rule unit tests on inline source fixtures, exercised through
//! the same `lint_source` entry point the workspace driver uses.

use webdeps_lint::{lint_source, Config, Report};

fn report(path: &str, src: &str) -> Report {
    lint_source(path, src, &Config::default())
}

/// Rule names of every unsuppressed violation, in report order.
fn rules_hit(path: &str, src: &str) -> Vec<String> {
    report(path, src)
        .violations
        .iter()
        .map(|v| v.rule.clone())
        .collect()
}

// ---- panic ----

#[test]
fn panic_flags_unwrap_expect_and_panic_in_library_code() {
    let src = r#"
pub fn f(v: Option<u32>) -> u32 {
    v.unwrap()
}
pub fn g(v: Option<u32>) -> u32 {
    v.expect("set")
}
pub fn h() {
    panic!("boom");
}
pub fn k(byte: u8) -> bool {
    match byte {
        0 => false,
        _ => unreachable!("invalid byte"),
    }
}
"#;
    assert_eq!(
        rules_hit("crates/model/src/x.rs", src),
        vec!["panic", "panic", "panic", "panic"]
    );
}

#[test]
fn panic_reports_file_line_and_snippet() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
    let r = report("crates/model/src/x.rs", src);
    assert_eq!(r.violations.len(), 1);
    let v = &r.violations[0];
    assert_eq!(v.file, "crates/model/src/x.rs");
    assert_eq!(v.line, 2);
    assert_eq!(v.snippet, "v.unwrap()");
}

#[test]
fn panic_ignores_cfg_test_modules_and_test_fns() {
    let src = r#"
pub fn ok() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
"#;
    assert!(rules_hit("crates/model/src/x.rs", src).is_empty());
}

#[test]
fn panic_ignores_test_trees_binaries_and_bench() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert!(rules_hit("crates/model/tests/t.rs", src).is_empty());
    assert!(rules_hit("tests/t.rs", src).is_empty());
    assert!(rules_hit("crates/reports/src/bin/tool.rs", src).is_empty());
    assert!(rules_hit("crates/reports/src/main.rs", src).is_empty());
    assert!(rules_hit("crates/bench/src/lib.rs", src).is_empty());
    assert!(rules_hit("crates/model/examples/e.rs", src).is_empty());
}

#[test]
fn panic_does_not_flag_cfg_not_test_items() {
    let src = r#"
#[cfg(not(test))]
pub fn f(v: Option<u32>) -> u32 {
    v.unwrap()
}
"#;
    assert_eq!(rules_hit("crates/model/src/x.rs", src), vec!["panic"]);
}

// ---- wall-clock ----

#[test]
fn wall_clock_flags_instant_and_system_time() {
    let src = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    let hits = rules_hit("crates/measure/src/x.rs", src);
    assert!(hits.iter().all(|r| r == "wall-clock"));
    assert!(!hits.is_empty());

    let src = "pub fn now() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    assert!(!rules_hit("crates/measure/src/x.rs", src).is_empty());
}

#[test]
fn wall_clock_exempts_bench_and_simulated_clock() {
    let src = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(rules_hit("crates/bench/src/lib.rs", src).is_empty());
    assert!(rules_hit("crates/dns/src/clock.rs", src).is_empty());
}

// ---- env-rand ----

#[test]
fn env_rand_flags_env_reads_in_library_code() {
    let src = "pub fn seed() -> Option<String> { std::env::var(\"SEED\").ok() }\n";
    assert_eq!(rules_hit("crates/worldgen/src/x.rs", src), vec!["env-rand"]);
}

#[test]
fn env_rand_flags_ambient_randomness() {
    let src =
        "pub fn r() { let _s: std::collections::hash_map::RandomState = Default::default(); }\n";
    let hits = rules_hit("crates/worldgen/src/x.rs", src);
    assert!(hits.contains(&"env-rand".to_string()));
}

#[test]
fn env_rand_exempts_binaries_and_tests() {
    let src = "pub fn seed() -> Option<String> { std::env::var(\"SEED\").ok() }\n";
    assert!(rules_hit("crates/reports/src/bin/tool.rs", src).is_empty());
    assert!(rules_hit("crates/worldgen/tests/t.rs", src).is_empty());
}

// ---- hash-iter ----

#[test]
fn hash_iter_flags_unsorted_method_iteration() {
    let src = r#"
use std::collections::HashMap;
pub fn list(m: &HashMap<String, u32>) -> Vec<String> {
    let mut out = Vec::new();
    out.extend(m.keys().cloned());
    out
}
"#;
    assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["hash-iter"]);
}

#[test]
fn hash_iter_flags_for_loop_over_hash_collection() {
    let src = r#"
use std::collections::HashMap;
pub fn list(m: &HashMap<String, u32>) -> Vec<String> {
    let mut out = Vec::new();
    for k in m {
        out.push(k.0.clone());
    }
    out
}
"#;
    assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["hash-iter"]);
}

#[test]
fn hash_iter_accepts_adjacent_sort() {
    let src = r#"
use std::collections::HashMap;
pub fn list(m: &HashMap<String, u32>) -> Vec<String> {
    let mut out: Vec<String> = m.keys().cloned().collect();
    out.sort();
    out
}
"#;
    assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn hash_iter_accepts_btree_recollect_and_reductions() {
    let src = r#"
use std::collections::{BTreeMap, HashMap};
pub fn ordered(m: &HashMap<String, u32>) -> BTreeMap<String, u32> {
    m.iter().map(|(k, v)| (k.clone(), *v)).collect::<BTreeMap<_, _>>()
}
pub fn total(m: &HashMap<String, u32>) -> u32 {
    m.values().sum()
}
"#;
    assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn hash_iter_ignores_btree_collections() {
    let src = r#"
use std::collections::BTreeMap;
pub fn list(m: &BTreeMap<String, u32>) -> Vec<String> {
    let mut out = Vec::new();
    for k in m.keys() {
        out.push(k.clone());
    }
    out
}
"#;
    assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn hash_iter_resolves_receivers_by_binding() {
    // `shard.reps` is the Vec field, not the local map of the same
    // name; a bare `m` is the Vec parameter, not the map field `m`.
    let src = r#"
use std::collections::HashMap;
pub struct Shard {
    reps: Vec<(u32, u32)>,
    m: HashMap<u32, u32>,
}
pub fn merge(shard: Shard) -> Vec<u32> {
    let mut reps: HashMap<u32, u32> = HashMap::new();
    let mut out = Vec::new();
    for (k, v) in shard.reps {
        reps.insert(k, v);
        out.push(k);
    }
    out
}
pub fn copy(m: Vec<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for x in m {
        out.push(x);
    }
    out
}
"#;
    assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn hash_iter_scopes_bindings_to_their_fn() {
    // `seen` is a map in `dedup` only; `copy`'s `seen` is a Vec.
    let src = r#"
use std::collections::HashMap;
pub fn dedup(v: &[u32]) -> usize {
    let mut seen: HashMap<u32, ()> = HashMap::new();
    for x in v {
        seen.insert(*x, ());
    }
    seen.len()
}
pub fn copy(seen: Vec<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for x in seen {
        out.push(x);
    }
    out
}
"#;
    assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    // The map is still caught inside the fn that declares it.
    let flagged = src.replace(
        "    seen.len()\n",
        "    for k in seen {\n        let _ = k;\n    }\n    0\n",
    );
    assert_eq!(
        rules_hit("crates/core/src/x.rs", &flagged),
        vec!["hash-iter"]
    );
}

#[test]
fn hash_iter_flags_a_hash_field_through_self() {
    let src = r#"
use std::collections::HashMap;
pub struct Index {
    map: HashMap<String, u32>,
}
impl Index {
    pub fn names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, _) in &self.map {
            out.push(k.clone());
        }
        out
    }
}
"#;
    assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["hash-iter"]);
}

#[test]
fn hash_iter_flags_a_bare_hash_binding() {
    let src = r#"
use std::collections::HashMap;
pub fn list(m: HashMap<String, u32>) -> Vec<String> {
    let mut out = Vec::new();
    for (k, _) in m {
        out.push(k);
    }
    out
}
"#;
    assert_eq!(rules_hit("crates/core/src/x.rs", src), vec!["hash-iter"]);
}

// ---- dbg / todo ----

#[test]
fn dbg_flags_debug_macros_even_in_tests() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        dbg!(42);
    }
}
"#;
    assert_eq!(rules_hit("crates/model/src/x.rs", src), vec!["dbg"]);
    let src = "pub fn f() { todo!() }\npub fn g() { unimplemented!() }\n";
    let hits = rules_hit("crates/model/src/x.rs", src);
    assert_eq!(hits.iter().filter(|r| *r == "dbg").count(), 2);
}

#[test]
fn todo_requires_issue_reference() {
    let src = "// TODO: make this faster\npub fn f() {}\n";
    assert_eq!(rules_hit("crates/model/src/x.rs", src), vec!["todo"]);
    let src = "// TODO(#12): make this faster\npub fn f() {}\n";
    assert!(rules_hit("crates/model/src/x.rs", src).is_empty());
    let src = "// FIXME broken on leap days\npub fn f() {}\n";
    assert_eq!(rules_hit("crates/model/src/x.rs", src), vec!["todo"]);
}

// ---- layering (source side) ----

#[test]
fn layering_flags_upward_crate_references() {
    let src = "pub fn f() { let _ = webdeps_reports::VERSION; }\n";
    assert_eq!(rules_hit("crates/model/src/x.rs", src), vec!["layering"]);
}

#[test]
fn layering_accepts_declared_edges_and_testkit_in_tests() {
    let src = "pub fn f() { let _ = webdeps_model::VERSION; }\n";
    assert!(rules_hit("crates/dns/src/x.rs", src).is_empty());
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = webdeps_testkit::Config::default();
    }
}
"#;
    assert!(rules_hit("crates/dns/src/x.rs", src).is_empty());
}

#[test]
fn layering_rejects_testkit_outside_test_code() {
    let src = "pub fn f() { let _ = webdeps_testkit::Config::default(); }\n";
    assert_eq!(rules_hit("crates/dns/src/x.rs", src), vec!["layering"]);
}

// ---- suppressions ----

#[test]
fn trailing_allow_suppresses_and_is_counted() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(panic) — checked by caller\n}\n";
    let r = report("crates/model/src/x.rs", src);
    assert!(r.is_clean());
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].violation.rule, "panic");
    assert_eq!(r.suppressed[0].reason, "checked by caller");
    assert!(r.unused_allows.is_empty());
}

#[test]
fn standalone_allow_covers_next_statement() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    // lint:allow(panic) — checked by caller\n    v.unwrap()\n}\n";
    let r = report("crates/model/src/x.rs", src);
    assert!(r.is_clean());
    assert_eq!(r.suppressed.len(), 1);
}

#[test]
fn file_level_allow_covers_whole_file() {
    let src = "// lint:allow-file(panic) — generator invariants abort loudly\npub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\npub fn g(v: Option<u32>) -> u32 {\n    v.expect(\"set\")\n}\n";
    let r = report("crates/model/src/x.rs", src);
    assert!(r.is_clean());
    assert_eq!(r.suppressed.len(), 2);
}

#[test]
fn allow_does_not_leak_to_other_rules_or_lines() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(hash-iter) — wrong rule named\n}\n";
    let r = report("crates/model/src/x.rs", src);
    assert_eq!(r.violations.len(), 1);
    assert_eq!(r.violations[0].rule, "panic");
    // The directive silenced nothing.
    assert_eq!(r.unused_allows.len(), 1);
}

#[test]
fn allow_syntax_flags_unknown_rules_and_missing_reasons() {
    let src = "// lint:allow(made-up-rule) — because\npub fn f() {}\n";
    assert_eq!(
        rules_hit("crates/model/src/x.rs", src),
        vec!["allow-syntax"]
    );
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(panic)\n}\n";
    let hits = rules_hit("crates/model/src/x.rs", src);
    assert!(hits.contains(&"allow-syntax".to_string()));
}

#[test]
fn doc_comments_never_parse_as_directives() {
    let src = "/// Suppress with `// lint:allow(panic) — reason`.\npub fn f() {}\n";
    let r = report("crates/model/src/x.rs", src);
    assert!(r.is_clean());
    assert!(r.suppressed.is_empty());
    assert!(r.unused_allows.is_empty());
}

// ---- config ----

#[test]
fn disabled_rules_do_not_fire() {
    let mut cfg = Config::default();
    cfg.disabled.insert("panic".to_string());
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let r = lint_source("crates/model/src/x.rs", src, &cfg);
    assert!(r.is_clean());
}

#[test]
fn disabling_a_hazard_rule_silences_only_its_per_file_report() {
    // The site stays in the fn's summary, so a pub caller still reaches
    // it through `panic-reachable`.
    let mut cfg = Config::default();
    cfg.disabled.insert("panic".to_string());
    let src = "fn sink(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\npub fn api(v: Option<u32>) -> u32 {\n    sink(v)\n}\n";
    let r = lint_source("crates/model/src/x.rs", src, &cfg);
    let hits: Vec<&str> = r.violations.iter().map(|v| v.rule.as_str()).collect();
    assert_eq!(hits, ["panic-reachable"], "{r:?}");
}

#[test]
fn json_report_is_well_formed_enough_to_round_trip_counts() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let r = report("crates/model/src/x.rs", src);
    let json = r.render_json();
    assert!(json.contains("\"schema\": \"webdeps-lint/4\""));
    assert!(json.contains("\"rule\": \"panic\""));
    assert!(json.contains("crates/model/src/x.rs"));
}
