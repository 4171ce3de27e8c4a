//! Rule catalog (with default severities), the declared crate DAG, and
//! runtime configuration.

use crate::diag::Severity;
use std::collections::{BTreeMap, BTreeSet};

/// One catalog entry: the one-line summary feeds `--list-rules` and
/// diagnostics; the rationale/example/allow fields feed `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name, as used in directives and CLI flags.
    pub name: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line invariant statement.
    pub summary: &'static str,
    /// Why the rule exists — what breaks when it is violated.
    pub rationale: &'static str,
    /// A minimal offending snippet.
    pub example: &'static str,
    /// The suppression syntax for a justified site.
    pub allow_hint: &'static str,
}

/// The rule catalog (with default severities), as shown by
/// `--list-rules` and `--explain`.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "panic",
        severity: Severity::Deny,
        summary: "no unwrap()/expect()/panic!/unreachable! in non-test library code; propagate typed errors instead",
        rationale: "A panic in library code aborts the whole analysis run instead of surfacing a typed, testable error. The reproduction's pipeline is expected to process millions of adversarial generated sites; any reachable panic is a denial-of-service on the measurement itself.",
        example: "let site = sites.get(&id).unwrap();",
        allow_hint: "expr.expect(\"why\"); // lint:allow(panic) — <why the site cannot fire>",
    },
    RuleInfo {
        name: "wall-clock",
        severity: Severity::Deny,
        summary: "no Instant::now/SystemTime outside crates/bench and the simulated clock (dns::clock)",
        rationale: "Reading the wall clock makes output depend on when (and how fast) the run happened, so two runs of the same seed disagree. All simulated time flows through dns::clock; only the bench harness may time things for real.",
        example: "let start = std::time::Instant::now();",
        allow_hint: "// lint:allow(wall-clock) — <why real time is required here>",
    },
    RuleInfo {
        name: "env-rand",
        severity: Severity::Deny,
        summary: "no std::env reads or ambient randomness (thread_rng/RandomState) in library code",
        rationale: "Process environment and ambient RNG state make output depend on the machine the pass runs on. Configuration is threaded through explicit parameters and all randomness through seeded DetRng streams.",
        example: "let jobs = std::env::var(\"JOBS\")?;",
        allow_hint: "// lint:allow(env-rand) — <why this process-state read is sound>",
    },
    RuleInfo {
        name: "hash-iter",
        severity: Severity::Deny,
        summary: "no HashMap/HashSet iteration feeding ordered output without an adjacent sort/BTree collect",
        rationale: "Hash-table iteration order is unspecified and changes across runs and platforms; letting it reach output makes reports nondeterministic. Sort the iterated items, collect into a BTree map/set, or reduce order-insensitively.",
        example: "for (k, v) in map.iter() { out.push(k); }",
        allow_hint: "// lint:allow(hash-iter) — <why order cannot reach output>",
    },
    RuleInfo {
        name: "layering",
        severity: Severity::Deny,
        summary: "crate dependencies must follow the declared DAG (model -> dns/tls/web -> worldgen -> measure -> core -> chaos -> reports)",
        rationale: "The crate DAG is the architecture diagram as data; an undeclared edge couples layers that must stay independently testable and makes the build order ambiguous. Both Cargo.toml edges and webdeps_* source references are checked.",
        example: "use webdeps_reports::render; // from crates/dns",
        allow_hint: "declare the edge in config::CRATE_DAG instead of suppressing",
    },
    RuleInfo {
        name: "extern-dep",
        severity: Severity::Deny,
        summary: "no external (non-workspace) dependencies in any Cargo.toml; the build is hermetic",
        rationale: "The reproduction builds offline from a lockfile-free workspace; one external crate breaks hermeticity and pins the build to a registry snapshot. Everything — RNG, JSON, property testing, the linter itself — is implemented in-tree.",
        example: "[dependencies]\nserde = \"1\"",
        allow_hint: "no suppression; vendor the functionality into a workspace crate",
    },
    RuleInfo {
        name: "dbg",
        severity: Severity::Deny,
        summary: "no dbg!/todo!/unimplemented! anywhere, including tests",
        rationale: "dbg! is debug output that pollutes reports; todo!/unimplemented! are stubs that panic at runtime. None belong in a committed tree, test code included.",
        example: "let x = dbg!(compute());",
        allow_hint: "no suppression; remove the macro before committing",
    },
    RuleInfo {
        name: "todo",
        severity: Severity::Deny,
        summary: "no TODO/FIXME comment without an issue reference like TODO(#12)",
        rationale: "An unreferenced TODO rots: nothing links it to a tracked piece of work, so it survives forever. Referencing an issue number keeps every marker actionable and auditable.",
        example: "// TODO handle the empty case",
        allow_hint: "write TODO(#<issue>): … instead of suppressing",
    },
    RuleInfo {
        name: "allow-syntax",
        severity: Severity::Deny,
        summary: "lint:allow directives must name known rules and carry a reason",
        rationale: "A suppression without a reason (or naming a rule that does not exist) silences findings without accountability. Every allow is itself linted so the suppression inventory stays reviewable.",
        example: "x.unwrap(); // lint:allow(panic)",
        allow_hint: "// lint:allow(<rule>) — <reason>; the reason is mandatory",
    },
    RuleInfo {
        name: "result-dropped",
        severity: Severity::Deny,
        summary: "no discarding (statement position or `let _ =`) of workspace calls returning Result/Report",
        rationale: "Dropping a Result silently swallows the failure path; the measurement keeps running on partial state and publishes wrong numbers. Handle the error, bind the value, or propagate with ?.",
        example: "validate_world(&world);",
        allow_hint: "stmt; // lint:allow(result-dropped) — <why the error is ignorable>",
    },
    RuleInfo {
        name: "seed-flow",
        severity: Severity::Deny,
        summary: "randomness flows through &mut DetRng; constructing an RNG outside worldgen/testkit/bench is a violation",
        rationale: "Every draw must trace back to the world seed through one stream tree, or replays diverge. Minting a fresh generator mid-pipeline forks an untracked stream whose draws no seed controls.",
        example: "let mut rng = DetRng::new(42);",
        allow_hint: "// lint:allow(seed-flow) — <why this stream root is sound>",
    },
    RuleInfo {
        name: "float-ord",
        severity: Severity::Deny,
        summary: "no f32/f64 as a sort comparator (partial_cmp) or ordered-map key; use total_cmp or integer keys",
        rationale: "Floats are not totally ordered: one NaN makes partial_cmp-based comparators panic or leaves the order unspecified. total_cmp (or an integer projection) is a drop-in total order.",
        example: "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());",
        allow_hint: "// lint:allow(float-ord) — <why NaN is impossible here>",
    },
    RuleInfo {
        name: "must-use-api",
        severity: Severity::Warn,
        summary: "pub fns returning Result/Report must be #[must_use] (gradually enforced; see LINT_BASELINE.json)",
        rationale: "#[must_use] makes the compiler flag discarded calls at every call site, including ones in downstream crates the linter never sees. Without it the result-dropped rule is the only line of defense.",
        example: "pub fn validate(w: &World) -> Report { … }",
        allow_hint: "// lint:allow(must-use-api) — <why discarding is acceptable>",
    },
    RuleInfo {
        name: "thread-capture",
        severity: Severity::Deny,
        summary: "spawn closures must not mutate captured accumulators; workers return results merged after join",
        rationale: "A spawn closure mutating a captured accumulator makes output depend on thread scheduling. Workers own a chunk and return it; the merge happens after join in chunk order, so any worker count yields byte-identical output.",
        example: "s.spawn(|| acc.push(shard));",
        allow_hint: "// lint:allow(thread-capture) — <why ordering cannot leak>",
    },
    RuleInfo {
        name: "panic-reachable",
        severity: Severity::Deny,
        summary: "no pub fn (outside bench/testkit) from which an unjustified panic site in another fn is reachable",
        rationale: "Per-file rules see a panic only where it is written; helper indirection hides it from the API surface. The interprocedural pass propagates unjustified panic sites over the workspace call graph (SCC-condensed, like core's ReachIndex), so a pub fn is flagged when some callee chain can panic. Sites justified with lint:allow(panic) are considered discharged and do not propagate.",
        example: "fn helper(v: &[u32]) -> u32 { v[0] } // via pub fn api() { helper(&x) }",
        allow_hint: "pub fn api(…) // lint:allow(panic-reachable) — <why callers tolerate the panic>",
    },
    RuleInfo {
        name: "taint-escape",
        severity: Severity::Deny,
        summary: "no pub fn whose return value can carry wall-clock or hash-iteration-order taint minted in a callee",
        rationale: "Determinism hazards travel through data: a helper that reads Instant::now or iterates a HashMap in unspecified order taints every value computed from it. The interprocedural pass propagates unjustified wall-clock and unordered-iteration sites transitively; a pub fn with a non-unit return type reachable from such a site leaks the taint to callers.",
        example: "fn stamp_ms() -> u64 { SystemTime::now()… } // via pub fn report() -> u64 { stamp_ms() }",
        allow_hint: "pub fn api(…) // lint:allow(taint-escape) — <why the taint cannot reach output>",
    },
    RuleInfo {
        name: "seed-flow-transitive",
        severity: Severity::Deny,
        summary: "no pub fn (outside model/worldgen/testkit/bench) that can reach an unjustified RNG-minting site through any call chain",
        rationale: "seed-flow catches a fresh DetRng at the site that mints it; this rule catches the pub API that launders one through helpers. Any call chain from a pub fn in a seeded crate to an unjustified minting site means draws that no world seed controls. Sites justified with lint:allow(seed-flow) are stream roots and do not propagate.",
        example: "fn shuffle(xs: &mut [u32]) { let mut r = DetRng::new(7); … } // via pub fn order()",
        allow_hint: "pub fn api(…) // lint:allow(seed-flow-transitive) — <why the stream is controlled>",
    },
    RuleInfo {
        name: "lock-order-cycle",
        severity: Severity::Deny,
        summary: "no cycle in the interprocedural lock-order graph (lock A held while acquiring B, and B — possibly through calls — while acquiring A)",
        rationale: "Two threads taking the same locks in opposite orders deadlock the resident daemon exactly like the paper's correlated provider failure: one stuck worker wedges every request behind it. The concurrency pass records which lock each guard region holds, propagates acquired-lock sets callee→caller over the SCC-condensed call graph, and reports every cycle of the resulting lock-order graph with a witness chain naming the functions and call edges involved.",
        example: "fn ab(p: &Pair) { let a = p.a.lock()…; let b = p.b.lock()…; } // elsewhere: b before a",
        allow_hint: "let g = …; // lint:allow(lock-order-cycle) — <why the orders cannot interleave>",
    },
    RuleInfo {
        name: "blocking-while-locked",
        severity: Severity::Deny,
        summary: "no blocking operation (socket read/write/accept, channel recv, join, sleep) reachable while a lock guard is live",
        rationale: "A guard held across a blocking call stretches the critical section to the blocking op's worst case: one slow peer or stuck worker starves every thread waiting on the lock — the single-point-of-failure coupling the paper measures, reproduced in-process. Blocking sites propagate callee→caller, so a helper that sleeps is caught even when the guard lives in its caller. Condvar::wait is exempt: parking releases the lock.",
        example: "let g = m.lock()…; thread::sleep(tick); // guard still live",
        allow_hint: "// lint:allow(blocking-while-locked) — <why the block is bounded and safe>",
    },
    RuleInfo {
        name: "guard-across-fanout",
        severity: Severity::Deny,
        summary: "no lock guard live across a par::fan_out/fan_out_chunked call",
        rationale: "fan_out blocks until every worker joins; a guard held across it serializes the whole pool behind one lock, and a worker that needs the same lock deadlocks outright. Fan-out entry propagates callee→caller, so wrapping the call in a helper does not hide it. Split the work: read what you need, drop the guard, then fan out.",
        example: "let g = state.lock()…; let parts = fan_out(&items, work);",
        allow_hint: "// lint:allow(guard-across-fanout) — <why workers cannot touch this lock>",
    },
    RuleInfo {
        name: "lock-poison-unwrap",
        severity: Severity::Warn,
        summary: "no .lock()/.read()/.write() followed by .unwrap()/.expect(); recover from poisoning with into_inner",
        rationale: "Unwrapping a poisoned lock turns one panicked thread into a process-wide cascade: every later acquirer dies on the poison flag even though the data is intact. The workspace idiom is .unwrap_or_else(|poisoned| poisoned.into_inner()), which accepts the data and keeps serving — degraded, not down, exactly the resilience posture the paper argues for.",
        example: "let g = m.lock().unwrap();",
        allow_hint: "let g = m.lock().unwrap(); // lint:allow(lock-poison-unwrap) — <why poisoning must abort>",
    },
    RuleInfo {
        name: "atomic-ordering-mixed",
        severity: Severity::Warn,
        summary: "one atomic field, one ordering discipline: do not mix Relaxed with Acquire/Release or SeqCst accesses on the same field",
        rationale: "Mixed orderings on one field usually mean one site is wrong: either the Relaxed access silently lacks the synchronization the stronger site was written for, or the stronger site pays for ordering nothing needs. Counters are Relaxed everywhere; handshake flags are Acquire/Release (or SeqCst) everywhere. Field identity is by name, which errs toward reporting.",
        example: "TICKS.fetch_add(1, Ordering::Relaxed); … TICKS.load(Ordering::SeqCst);",
        allow_hint: "// lint:allow(atomic-ordering-mixed) — <why this site needs a different ordering>",
    },
];

/// All rule names.
pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// The catalog entry for `rule`, when it exists.
pub fn rule_info(rule: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == rule)
}

/// The default severity of `rule` (deny when unknown).
pub fn default_severity(rule: &str) -> Severity {
    rule_info(rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Deny)
}

/// Crates whose public APIs are declared panic-justified, exempting
/// them from `panic-reachable`: the bench harness aborts loudly by
/// design, and testkit's assertion helpers panic on property failure.
pub fn panic_reachable_exempt(crate_name: Option<&str>) -> bool {
    matches!(crate_name, Some("bench") | Some("testkit"))
}

/// The declared layering contract: each workspace crate and the crates
/// it may depend on. `testkit` is leaf-only (usable from dev-deps and
/// test code everywhere, but never a `[dependencies]` edge), `bench`
/// and `lint` are sinks nothing may depend on.
pub const CRATE_DAG: &[(&str, &[&str])] = &[
    ("model", &[]),
    ("dns", &["model"]),
    ("tls", &["model", "dns"]),
    ("web", &["model", "dns", "tls"]),
    ("worldgen", &["model", "dns", "tls", "web"]),
    ("measure", &["model", "dns", "tls", "web", "worldgen"]),
    (
        "core",
        &["model", "dns", "tls", "web", "worldgen", "measure"],
    ),
    (
        "chaos",
        &["model", "dns", "tls", "web", "worldgen", "measure", "core"],
    ),
    (
        "serve",
        &["model", "dns", "tls", "web", "worldgen", "measure", "core"],
    ),
    (
        "reports",
        &[
            "model", "dns", "tls", "web", "worldgen", "measure", "core", "chaos",
        ],
    ),
    ("testkit", &["model"]),
    (
        "bench",
        &[
            "model", "dns", "tls", "web", "worldgen", "measure", "core", "chaos", "serve",
            "reports",
        ],
    ),
    ("lint", &[]),
];

/// Crates that may never appear in another crate's `[dependencies]`.
pub const DEV_ONLY_CRATES: &[&str] = &["testkit", "lint"];

/// Allowed `[dependencies]` targets for `crate_name`, in DAG order, or
/// `None` when the crate is not part of the declared DAG (e.g. the root
/// facade, which may depend on everything).
pub fn allowed_deps(crate_name: &str) -> Option<&'static [&'static str]> {
    CRATE_DAG
        .iter()
        .find(|(n, _)| *n == crate_name)
        .map(|(_, deps)| *deps)
}

/// File paths (repo-relative, forward slashes) exempt from the
/// wall-clock rule: the simulated clock itself, the bench harness, the
/// resident daemon (`serve`), whose deadline budgets, read timeouts,
/// and latency histograms are real-time by design — the analyses it
/// *answers with* stay on the simulated clock — and the observe-only
/// phase-timing sink (`model/timing.rs`), which measures pipeline
/// phases for the bench trajectory and never feeds results back into
/// generation or measurement.
pub fn wall_clock_exempt(rel_path: &str, crate_name: Option<&str>) -> bool {
    crate_name == Some("bench")
        || crate_name == Some("serve")
        || rel_path == "crates/dns/src/clock.rs"
        || rel_path == "crates/model/src/timing.rs"
}

/// Crates exempt from the seed-flow rule: `worldgen` mints the world's
/// root streams, `testkit` mints per-case streams, `bench` is timing
/// scaffolding, and `model` *defines* the generator.
pub fn seed_flow_exempt(_rel_path: &str, crate_name: Option<&str>) -> bool {
    matches!(
        crate_name,
        Some("worldgen") | Some("testkit") | Some("bench") | Some("model")
    )
}

/// Runtime configuration assembled from CLI flags.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Rules disabled globally via `--allow <rule>`.
    pub disabled: BTreeSet<String>,
    /// Per-rule severity overrides (`--severity rule=warn`).
    pub severity_overrides: BTreeMap<String, Severity>,
}

impl Config {
    /// Whether `rule` is enabled.
    pub fn enabled(&self, rule: &str) -> bool {
        !self.disabled.contains(rule)
    }

    /// The effective severity of `rule`.
    pub fn severity(&self, rule: &str) -> Severity {
        self.severity_overrides
            .get(rule)
            .copied()
            .unwrap_or_else(|| default_severity(rule))
    }

    /// The full rule→severity map under this configuration (enabled
    /// rules only).
    pub fn severity_map(&self) -> BTreeMap<String, Severity> {
        rule_names()
            .into_iter()
            .filter(|r| self.enabled(r))
            .map(|r| (r.to_string(), self.severity(r)))
            .collect()
    }
}
