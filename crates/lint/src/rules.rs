//! Token-level rules. Each rule scans one [`FileCtx`] and returns raw
//! violations; suppression filtering happens in the workspace driver.

use crate::config::{self, Config};
use crate::diag::Violation;
use crate::lexer::{Tok, TokKind};
use crate::scan::FileCtx;
use std::collections::BTreeSet;

/// Runs every enabled token rule over one file.
pub fn run_all(ctx: &FileCtx, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if cfg.enabled("panic") {
        out.extend(rule_panic(ctx));
    }
    if cfg.enabled("wall-clock") {
        out.extend(rule_wall_clock(ctx));
    }
    if cfg.enabled("env-rand") {
        out.extend(rule_env_rand(ctx));
    }
    if cfg.enabled("hash-iter") {
        out.extend(rule_hash_iter(ctx));
    }
    if cfg.enabled("dbg") {
        out.extend(rule_dbg(ctx));
    }
    if cfg.enabled("todo") {
        out.extend(rule_todo(ctx));
    }
    if cfg.enabled("layering") {
        out.extend(rule_layering_source(ctx));
    }
    if cfg.enabled("allow-syntax") {
        out.extend(rule_allow_syntax(ctx));
    }
    if cfg.enabled("lock-poison-unwrap") {
        out.extend(rule_lock_poison(ctx));
    }
    // The rule bodies predate severities; stamp each violation with the
    // run's effective severity in one place.
    for v in &mut out {
        v.severity = cfg.severity(&v.rule);
    }
    out
}

fn violation(ctx: &FileCtx, rule: &str, line: u32, message: String) -> Violation {
    Violation {
        rule: rule.to_string(),
        severity: crate::diag::Severity::Deny,
        file: ctx.rel_path.clone(),
        line,
        message,
        snippet: ctx.snippet(line),
    }
}

/// `lock-poison-unwrap`: `.lock()`, `.read()`, or `.write()` (empty
/// argument lists — the guard-minting forms) immediately followed by
/// `.unwrap()`/`.expect(…)`. The workspace recovery idiom is
/// `.unwrap_or_else(|poisoned| poisoned.into_inner())`: the data under
/// a poisoned lock is intact, and unwrapping turns one panicked thread
/// into a process-wide cascade. Same exemptions as the panic rule.
fn rule_lock_poison(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.in_test_tree || ctx.is_bin || ctx.crate_name.as_deref() == Some("bench") {
        return out;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = &code[i];
        if ctx.is_test_line(t.line) {
            continue;
        }
        if !(t.is_ident("lock") || t.is_ident("read") || t.is_ident("write")) {
            continue;
        }
        let guard_call = i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 2).is_some_and(|n| n.is_punct(')'));
        if !guard_call {
            continue;
        }
        let Some(u) = code.get(i + 4) else {
            continue;
        };
        let unwrapping = code.get(i + 3).is_some_and(|n| n.is_punct('.'))
            && (u.is_ident("unwrap") || u.is_ident("expect"))
            && code.get(i + 5).is_some_and(|n| n.is_punct('('));
        if unwrapping {
            out.push(violation(
                ctx,
                "lock-poison-unwrap",
                t.line,
                format!(
                    ".{}().{}() panics on a poisoned lock; recover with .unwrap_or_else(|poisoned| poisoned.into_inner()) or justify with lint:allow(lock-poison-unwrap)",
                    t.text, u.text
                ),
            ));
        }
    }
    out
}

/// `panic`: `.unwrap()`, `.expect(…)`, `panic!` and `unreachable!` in
/// non-test library code. Binaries, bench code, and test trees are exempt; so
/// is anything inside `#[cfg(test)]` / `#[test]` regions.
fn rule_panic(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.in_test_tree || ctx.is_bin || ctx.crate_name.as_deref() == Some("bench") {
        return out;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = &code[i];
        if ctx.is_test_line(t.line) {
            continue;
        }
        let prev_dot = i > 0 && code[i - 1].is_punct('.');
        let next_paren = code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let next_bang = code.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if prev_dot && next_paren && (t.is_ident("unwrap") || t.is_ident("expect")) {
            out.push(violation(
                ctx,
                "panic",
                t.line,
                format!(
                    ".{}() can panic; propagate a typed error (model::error) or justify with lint:allow(panic)",
                    t.text
                ),
            ));
        } else if (t.is_ident("panic") || t.is_ident("unreachable")) && next_bang {
            out.push(violation(
                ctx,
                "panic",
                t.line,
                format!("{}! in library code; return a typed error instead", t.text),
            ));
        }
    }
    out
}

/// `wall-clock`: `Instant` / `SystemTime` anywhere except the bench
/// harness and the simulated clock. Wall-clock reads in a measurement
/// path make runs non-reproducible.
fn rule_wall_clock(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    if config::wall_clock_exempt(&ctx.rel_path, ctx.crate_name.as_deref()) {
        return out;
    }
    for t in &ctx.code {
        if ctx.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(violation(
                ctx,
                "wall-clock",
                t.line,
                format!(
                    "{} reads the wall clock; use the simulated clock (dns::clock) or move to crates/bench",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `env-rand`: process-environment reads and ambient randomness in
/// library code. Both make output depend on the machine the pass runs
/// on. Binaries (CLI arg/env parsing) and the bench harness are exempt.
fn rule_env_rand(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.in_test_tree || ctx.is_bin || ctx.crate_name.as_deref() == Some("bench") {
        return out;
    }
    const ENV_FNS: &[&str] = &[
        "var",
        "var_os",
        "vars",
        "vars_os",
        "set_var",
        "remove_var",
        "args",
        "args_os",
    ];
    const RAND_IDENTS: &[&str] = &["thread_rng", "from_entropy", "RandomState"];
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = &code[i];
        if ctx.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("env")
            && code.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && code.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && code
                .get(i + 3)
                .is_some_and(|f| ENV_FNS.iter().any(|n| f.is_ident(n)))
        {
            out.push(violation(
                ctx,
                "env-rand",
                t.line,
                format!(
                    "env::{} reads process state in library code; thread configuration through explicit parameters",
                    code[i + 3].text
                ),
            ));
        } else if RAND_IDENTS.iter().any(|n| t.is_ident(n)) {
            out.push(violation(
                ctx,
                "env-rand",
                t.line,
                format!(
                    "{} is ambient randomness; use the seeded DetRng streams instead",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Iterator-producing methods on hash collections.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers whose presence downstream of a hash iteration makes the
/// use order-insensitive (sorts, ordered re-collection, reductions).
const ORDER_SANCTIONS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "sum",
    "product",
    "count",
    "fold",
    "all",
    "any",
    "len",
    "is_empty",
    "contains",
    "contains_key",
];

/// How many tokens past an iteration site we search for an
/// order-restoring operation ("adjacent" in the rule's sense).
const SANCTION_WINDOW: usize = 80;

/// `hash-iter`: iteration over a `HashMap`/`HashSet` whose order can
/// leak into output, without an adjacent sort / ordered re-collection /
/// order-insensitive reduction. Heuristic: a name is hash-typed if the
/// file declares it with a `HashMap`/`HashSet` type annotation or
/// constructor; iteration is `.iter()`-family calls or `for … in`
/// over such a name.
fn rule_hash_iter(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.in_test_tree {
        return out;
    }
    let code = &ctx.code;
    let hash_names = collect_hash_names(code);
    if hash_names.is_empty() {
        return out;
    }
    for i in 0..code.len() {
        let t = &code[i];
        if ctx.is_test_line(t.line) {
            continue;
        }
        // `name . iter (` — method-call iteration.
        if t.kind == TokKind::Ident
            && ITER_METHODS.iter().any(|m| t.is_ident(m))
            && i >= 2
            && code[i - 1].is_punct('.')
            && code[i - 2].kind == TokKind::Ident
            && hash_names.contains(code[i - 2].text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !sanctioned(code, i)
        {
            out.push(violation(
                ctx,
                "hash-iter",
                t.line,
                format!(
                    "iterating hash collection `{}` in unspecified order; sort the result, collect into a BTree map/set, or justify with lint:allow(hash-iter)",
                    code[i - 2].text
                ),
            ));
        }
        // `for pat in [&mut] name {` — loop iteration.
        if t.is_ident("for") {
            if let Some((recv_idx, recv)) = for_loop_receiver(code, i) {
                if hash_names.contains(recv.as_str()) && !sanctioned(code, recv_idx) {
                    out.push(violation(
                        ctx,
                        "hash-iter",
                        code[recv_idx].line,
                        format!(
                            "for-loop over hash collection `{recv}` in unspecified order; iterate a sorted view or justify with lint:allow(hash-iter)"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Names declared with a hash-collection type or constructor anywhere
/// in the file: `name: HashMap<…>` (fields, params, lets) and
/// `let name = HashMap::new()` and friends.
pub(crate) fn collect_hash_names(code: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        let t = &code[i];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk backwards over `:` / `&` / `mut` / lifetimes to the
        // declared name (`name: &mut HashMap<…>`).
        let mut j = i;
        let mut saw_colon = false;
        while j > 0 {
            j -= 1;
            let p = &code[j];
            if p.is_punct(':') || p.is_punct('&') || p.is_ident("mut") || p.is_punct('\'') {
                saw_colon |= p.is_punct(':');
                continue;
            }
            if p.kind == TokKind::Lifetime {
                continue;
            }
            if saw_colon && p.kind == TokKind::Ident {
                // Exclude paths (`std::collections::HashMap`), where the
                // token before `::` is another path segment.
                if p.is_ident("collections") || p.is_ident("std") {
                    break;
                }
                names.insert(p.text.clone());
            }
            break;
        }
        // `let [mut] name = HashMap::new()` / `with_capacity` / `from`.
        if i >= 2
            && code[i - 1].is_punct('=')
            && code
                .get(i + 1)
                .is_some_and(|a| a.is_punct(':') || a.is_punct('<'))
        {
            let mut j = i - 1;
            while j > 0 {
                j -= 1;
                let p = &code[j];
                if p.kind == TokKind::Ident && !p.is_ident("mut") {
                    names.insert(p.text.clone());
                    break;
                }
                if !p.is_ident("mut") {
                    break;
                }
            }
        }
    }
    names
}

/// For `for … in <expr> {`, returns the receiver identifier when the
/// loop source is a plain (possibly `self.`-qualified, referenced)
/// path — calls and indexing disqualify it.
pub(crate) fn for_loop_receiver(code: &[Tok], for_idx: usize) -> Option<(usize, String)> {
    // Find `in` at depth 0 (patterns may contain parens/tuples).
    let mut depth = 0i32;
    let mut j = for_idx + 1;
    loop {
        let t = code.get(j)?;
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => return None, // body reached without `in`
                _ => {}
            }
        }
        if depth == 0 && t.is_ident("in") {
            break;
        }
        if j > for_idx + 64 {
            return None;
        }
        j += 1;
    }
    // Collect the source expression up to the body `{`.
    let mut last_ident: Option<usize> = None;
    let mut k = j + 1;
    loop {
        let t = code.get(k)?;
        if t.is_punct('{') {
            break;
        }
        match t.kind {
            TokKind::Ident if t.is_ident("mut") || t.is_ident("self") => {}
            TokKind::Ident => last_ident = Some(k),
            TokKind::Punct if matches!(t.text.as_str(), "&" | ".") => {}
            // Anything else (calls, indexing, literals, ranges) means
            // this is not a bare hash-collection walk.
            _ => return None,
        }
        if k > j + 16 {
            return None;
        }
        k += 1;
    }
    let idx = last_ident?;
    Some((idx, code[idx].text.clone()))
}

/// Whether an order-restoring / order-insensitive identifier appears
/// adjacent to the iteration at token `i`: within the rest of the
/// current statement plus the statement that follows it, without
/// leaving the enclosing block. This is what lets
/// `let mut v: Vec<_> = map.iter().collect(); v.sort();` pass while a
/// bare iteration into output is flagged.
pub(crate) fn sanctioned(code: &[Tok], i: usize) -> bool {
    let mut depth = 0i32;
    let mut semis = 0u32;
    for t in code[i..].iter().take(SANCTION_WINDOW) {
        if t.kind == TokKind::Ident && ORDER_SANCTIONS.iter().any(|s| t.is_ident(s)) {
            return true;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => depth -= 1,
                ";" if depth <= 0 => semis += 1,
                _ => {}
            }
            if depth < 0 || semis >= 2 {
                return false;
            }
        }
    }
    false
}

/// `dbg`: leftover debugging/stub macros, anywhere including tests.
fn rule_dbg(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = &code[i];
        let next_bang = code.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if next_bang
            && (t.is_ident("dbg") || t.is_ident("todo") || t.is_ident("unimplemented"))
            // `panic` rule owns panics; `todo!`/`unimplemented!` are
            // stubs and `dbg!` is debug output — none belong in a
            // committed tree.
            && !(i > 0 && code[i - 1].is_punct('.'))
        {
            out.push(violation(
                ctx,
                "dbg",
                t.line,
                format!("{}! must not be committed", t.text),
            ));
        }
    }
    out
}

/// `todo`: TODO/FIXME comments must carry an issue reference
/// (`TODO(#12): …`) so they stay actionable. Doc comments are exempt —
/// they are rendered documentation, not work markers.
fn rule_todo(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    for c in &ctx.comments {
        if c.is_doc_comment() {
            continue;
        }
        for marker in ["TODO", "FIXME"] {
            if let Some(pos) = c.text.find(marker) {
                let rest = &c.text[pos + marker.len()..];
                let has_ref = rest.starts_with("(#")
                    && rest[2..]
                        .split(')')
                        .next()
                        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
                if !has_ref {
                    out.push(violation(
                        ctx,
                        "todo",
                        c.line,
                        format!("{marker} without an issue reference like {marker}(#12)"),
                    ));
                    break;
                }
            }
        }
    }
    out
}

/// `layering` (source side): references to `webdeps_*` crates must be
/// edges the declared DAG allows. Test code may additionally use
/// `testkit` and `lint`.
fn rule_layering_source(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let self_crate = match &ctx.crate_name {
        Some(c) => c.as_str(),
        // Root facade package: may use every workspace crate.
        None => return out,
    };
    let allowed = match config::allowed_deps(self_crate) {
        Some(a) => a,
        None => return out,
    };
    let mut seen_lines: BTreeSet<(String, u32)> = BTreeSet::new();
    for t in &ctx.code {
        let Some(dep) = t.text.strip_prefix("webdeps_") else {
            continue;
        };
        if t.kind != TokKind::Ident || dep == self_crate {
            continue;
        }
        let test_ctx = ctx.is_test_line(t.line);
        if allowed.contains(dep) || (test_ctx && matches!(dep, "testkit" | "lint")) {
            continue;
        }
        if seen_lines.insert((dep.to_string(), t.line)) {
            out.push(violation(
                ctx,
                "layering",
                t.line,
                format!(
                    "crate `{self_crate}` may not depend on `{dep}` (allowed: {})",
                    allowed.iter().copied().collect::<Vec<_>>().join(", ")
                ),
            ));
        }
    }
    out
}

/// `allow-syntax`: malformed suppression directives.
fn rule_allow_syntax(ctx: &FileCtx) -> Vec<Violation> {
    ctx.bad_allows
        .iter()
        .map(|b| violation(ctx, "allow-syntax", b.line, b.problem.clone()))
        .collect()
}
