//! Interprocedural concurrency analysis: lock-order deadlock
//! detection, blocking-while-locked, guard-across-fanout, and atomics
//! hygiene.
//!
//! PR 8 made `webdeps-serve` the first subsystem where RwLocks, bounded
//! queues, atomics, and worker threads interact — exactly the invisible
//! coupling the paper warns about: a latent deadlock or a lock held
//! across a blocking socket read takes the whole resident daemon down
//! under load, the way one provider outage cascades through hidden
//! transitive dependencies. This pass closes the lint stack's blind
//! spot in three layers:
//!
//! 1. **Facet extraction** (`scan_fn`, called from
//!    [`crate::interproc::extract`]): every function summary gains a
//!    [`ConcFacet`] — lock acquisition sites with a *coarse lock
//!    identity* (see [`lock identity`](#lock-identity) below),
//!    distinguishing `Mutex::lock` from `RwLock::read`/`write`;
//!    blocking operations (socket `read_exact`/`write_all`/`accept`,
//!    channel `recv`, `JoinHandle::join`, `thread::sleep`); atomic
//!    accesses with their `Ordering`; and **guard regions** — the token
//!    range where a `let`-bound guard is live (binding to end of
//!    enclosing block, clipped at an explicit `drop(guard)`), with
//!    every acquisition, blocking op, fan-out, and call inside it.
//!    `Condvar::wait` is deliberately *not* blocking: parking releases
//!    the lock. Bare `.read(..)`/`.write(..)` with arguments are
//!    deliberately not blocking either — they collide with RwLock
//!    acquisition spelling; the exact-buffer forms are covered instead.
//! 2. **Propagation** ([`evaluate`]): three facts flow callee→caller
//!    over the same SCC-condensed call graph the hazard rules use
//!    (iterative Tarjan, components in reverse topological order,
//!    minimum-id sources — byte-identical at any worker count):
//!    the set of locks a call can transitively acquire, whether a call
//!    can transitively block, and whether it can transitively enter a
//!    `par::fan_out`/`fan_out_chunked` (any fn *named* like the fan-out
//!    helpers roots the latter).
//! 3. **Lock-order graph**: every guard region contributes edges
//!    `held lock -> acquired lock` — directly for acquisitions inside
//!    the region, and through the propagated lock sets for calls made
//!    inside it. Cycles of the resulting graph (size ≥ 2; same-lock
//!    edges are excluded by construction, so re-entrant same-lock
//!    acquisition is out of scope) are reported as potential deadlocks
//!    with a witness chain naming, for each hop, the holding function,
//!    the site, and the call that reaches the next acquisition.
//!
//! # Lock identity
//!
//! Without types, locks are identified by *where they live*:
//! `Type.field` for `self.field` receivers, the normalized parameter
//! type (e.g. `RwLock<IndexPair>`) for parameter roots,
//! `SCREAMING_CASE` statics by name, and `fn::binding` for locals.
//! Unknown receivers are skipped (under-approximation — a miss never
//! invents a deadlock). A guard minted by a helper (`read_indexes(…)`,
//! `lock(…)`) is resolved centrally: the helper's summary records the
//! lock its trailing expression acquires ([`ConcFacet::returns_guard`]),
//! and the region binds to the first (minimum-id) resolved candidate.
//!
//! Five rules read this state: `lock-order-cycle` (deny),
//! `blocking-while-locked` (deny), `guard-across-fanout` (deny),
//! `lock-poison-unwrap` (warn, per-file — see [`crate::rules`]), and
//! `atomic-ordering-mixed` (warn). Sites covered by a `lint:allow`
//! naming the matching rule are discharged at extraction time and do
//! not propagate, mirroring the hazard rules.

use crate::config::Config;
use crate::diag::{Suppressed, Violation};
use crate::interproc::{CallGraph, CallRef, FnSummary, InterprocAllow, Resolver, NON_CALLEES};
use crate::lexer::{Tok, TokKind};
use crate::parser::{Block, FnItem, StmtKind};
use crate::scan::FileCtx;
use std::collections::{BTreeMap, BTreeSet};

/// Lock operation: `Mutex::lock`.
pub const OP_MUTEX: u8 = 0;
/// Lock operation: `RwLock::read`.
pub const OP_READ: u8 = 1;
/// Lock operation: `RwLock::write`.
pub const OP_WRITE: u8 = 2;

/// "No source" sentinel for propagated facts and edge provenance.
const NONE: u32 = u32::MAX;

/// Guard-minting methods, matched only with *empty* argument lists —
/// `stream.read(&mut buf)` is io, `lock.read()` is RwLock.
const GUARD_METHODS: &[(&str, u8)] = &[("lock", OP_MUTEX), ("read", OP_READ), ("write", OP_WRITE)];

/// Adapters that may follow an acquisition and still yield the guard.
const POISON_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Blocking methods matched with empty argument lists.
const BLOCKING_EMPTY: &[&str] = &["join", "recv", "accept"];

/// Blocking methods matched with arguments (the exact-buffer io forms;
/// bare `.read(`/`.write(` collide with RwLock acquisition spelling).
const BLOCKING_ARGS: &[&str] = &[
    "recv_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
];

/// Call names that root the fan-out fact: the workspace batch-parallel
/// helpers. Any fn *named* like one is treated as a fan-out root, so
/// the fact survives re-exports and conservative call resolution.
const FANOUT_FNS: &[&str] = &["fan_out", "fan_out_chunked"];

/// Atomic access methods whose arguments carry an `Ordering`.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// The `Ordering` variants, grouped into three disciplines by
/// [`ordering_class`]: relaxed, acquire/release, sequentially
/// consistent.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The discipline class of an `Ordering` variant name: mixing variants
/// *within* a class (e.g. `Acquire` loads with `Release` stores) is the
/// idiomatic pairing; mixing across classes on one field is the smell
/// the rule reports.
fn ordering_class(ord: &str) -> u8 {
    match ord {
        "Relaxed" => 0,
        "SeqCst" => 2,
        _ => 1,
    }
}

/// One guard region: a `let`-bound lock guard and everything that
/// happens while it is live (to the end of the enclosing block, clipped
/// at an explicit `drop(guard)`).
#[derive(Debug, Clone, Default)]
pub struct GuardRegion {
    /// Coarse lock identity for direct acquisitions; empty when the
    /// guard came from a helper call (resolved centrally).
    pub lock: String,
    /// The helper call that minted the guard, when not acquired inline.
    pub helper: Option<CallRef>,
    /// Lock op of a direct acquisition ([`OP_MUTEX`]/[`OP_READ`]/
    /// [`OP_WRITE`]); for helper regions the helper's summary decides.
    pub op: u8,
    /// 1-based line of the binding statement.
    pub line: u32,
    /// Later acquisitions inside the region: `(lock, line, op)`.
    pub acquires: Vec<(String, u32, u8)>,
    /// Blocking operations inside the region: `(line, description)`.
    pub blocking: Vec<(u32, String)>,
    /// Lines of direct fan-out calls inside the region.
    pub fanout: Vec<u32>,
    /// Deduplicated calls inside the region with their first line.
    pub calls: Vec<(CallRef, u32)>,
}

/// Per-function concurrency facet, extracted alongside the hazard
/// summary.
#[derive(Debug, Clone, Default)]
pub struct ConcFacet {
    /// Guard regions in binding order.
    pub regions: Vec<GuardRegion>,
    /// Every unjustified acquisition site in the body (regions
    /// included): `(lock, line, op)`. This is what a *call* to the fn
    /// acquires, transitively unioned over the call graph.
    pub acquires: Vec<(String, u32, u8)>,
    /// When the fn's trailing expression is itself an acquisition
    /// chain, the lock and op the returned guard holds — the
    /// guard-returning helper idiom (`read_indexes`, `par::lock`).
    pub returns_guard: Option<(String, u8)>,
    /// Unjustified blocking operations in the body: `(line, desc)`.
    pub blocking: Vec<(u32, String)>,
    /// Atomic accesses: `(field, ordering, first line)`.
    pub atomics: Vec<(String, String, u32)>,
}

impl ConcFacet {
    /// Whether the facet carries any information worth caching.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
            && self.acquires.is_empty()
            && self.returns_guard.is_none()
            && self.blocking.is_empty()
            && self.atomics.is_empty()
    }
}

/// Whether a concurrency site at `line` is justified by a central
/// allow naming `rule`. Concurrency rules have no distinct per-file
/// base rule, so — unlike the hazard rules' two-level lookup — only
/// the central allow list is consulted, and a match is marked used.
fn conc_justified(allows: &mut [InterprocAllow], line: u32, rule: &str) -> bool {
    for a in allows.iter_mut() {
        if a.rules.iter().any(|r| r == rule) && a.covers.0 <= line && line <= a.covers.1 {
            a.used = true;
            return true;
        }
    }
    false
}

/// Extracts the concurrency facet for one fn body into `s.conc`.
/// Called from [`crate::interproc::extract`] after the hazard scan, so
/// it shares the test-line and suppression context.
pub(crate) fn scan_fn(
    ctx: &FileCtx,
    func: &FnItem,
    body: &Block,
    allows: &mut [InterprocAllow],
    s: &mut FnSummary,
) {
    scan_events(ctx, func, body, allows, s);
    // Guard-returning helper: a trailing expression that is exactly an
    // acquisition chain on a fn with a return type.
    if !func.ret.is_empty() {
        if let Some(stmt) = body.stmts.last() {
            if matches!(stmt.kind, StmtKind::Expr { has_semi: false })
                && !ctx.is_test_line(stmt.line)
            {
                if let Some((lock, op, _)) =
                    acquisition_chain(&ctx.code, stmt.start, stmt.end, func, s)
                {
                    s.conc.returns_guard = Some((lock, op));
                }
            }
        }
    }
    collect_regions(ctx, func, body, allows, s);
}

/// One pass over the whole body for fn-level facts: acquisition sites,
/// blocking operations, and atomic accesses.
fn scan_events(
    ctx: &FileCtx,
    func: &FnItem,
    body: &Block,
    allows: &mut [InterprocAllow],
    s: &mut FnSummary,
) {
    let code = &ctx.code;
    let start = body.start;
    let end = body.end.min(code.len());
    let mut acqs: BTreeMap<(String, u8), u32> = BTreeMap::new();
    let mut blks: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut atoms: BTreeMap<(String, String), u32> = BTreeMap::new();
    for i in start..end {
        let t = &code[i];
        if t.kind != TokKind::Ident || ctx.is_test_line(t.line) {
            continue;
        }
        let prev_dot = i > start && code[i - 1].is_punct('.');
        let next_paren = code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let empty_parens = next_paren && code.get(i + 2).is_some_and(|n| n.is_punct(')'));

        if prev_dot && empty_parens {
            if let Some(&(_, op)) = GUARD_METHODS.iter().find(|(m, _)| t.is_ident(m)) {
                if let Some(lock) = lock_identity(code, start, i - 1, func, s) {
                    if !conc_justified(allows, t.line, "lock-order-cycle") {
                        acqs.entry((lock, op)).or_insert(t.line);
                    }
                }
                continue;
            }
        }
        if let Some(desc) = blocking_desc(code, start, i) {
            if !conc_justified(allows, t.line, "blocking-while-locked") {
                blks.insert((t.line, desc));
            }
            continue;
        }
        if prev_dot && next_paren && ATOMIC_METHODS.iter().any(|m| t.is_ident(m)) {
            let Some(field) = atomic_field(code, start, i - 1) else {
                continue;
            };
            for ord in call_orderings(code, i + 1, end) {
                if !conc_justified(allows, t.line, "atomic-ordering-mixed") {
                    atoms.entry((field.clone(), ord)).or_insert(t.line);
                }
            }
        }
    }
    s.conc.acquires = acqs
        .into_iter()
        .map(|((lock, op), line)| (lock, line, op))
        .collect();
    s.conc.blocking = blks.into_iter().collect();
    s.conc.atomics = atoms
        .into_iter()
        .map(|((field, ord), line)| (field, ord, line))
        .collect();
}

/// Finds every `let`-bound guard region in the body and scans its
/// liveness range. Event-less regions are dropped — they can neither
/// violate a rule nor contribute a lock-order edge.
fn collect_regions(
    ctx: &FileCtx,
    func: &FnItem,
    body: &Block,
    allows: &mut [InterprocAllow],
    s: &mut FnSummary,
) {
    let code = &ctx.code;
    let mut stack: Vec<&Block> = vec![body];
    while let Some(b) = stack.pop() {
        for (idx, stmt) in b.stmts.iter().enumerate() {
            for nested in &stmt.nested {
                stack.push(nested);
            }
            let StmtKind::Let {
                name: Some(name),
                init_start: Some(init),
                ..
            } = &stmt.kind
            else {
                continue;
            };
            if ctx.is_test_line(stmt.line) {
                continue;
            }
            let mut region =
                if let Some((lock, op, _)) = acquisition_chain(code, *init, stmt.end, func, s) {
                    GuardRegion {
                        lock,
                        op,
                        line: stmt.line,
                        ..GuardRegion::default()
                    }
                } else if stmt.nested.is_empty() {
                    // A helper-minted guard: the init is exactly one call
                    // (plus poison adapters). Whether the callee really
                    // returns a guard is resolved centrally against the
                    // summaries; a non-guard callee drops the region.
                    let Some((call, _)) = helper_call(code, *init, stmt.end) else {
                        continue;
                    };
                    GuardRegion {
                        helper: Some(call),
                        line: stmt.line,
                        ..GuardRegion::default()
                    }
                } else {
                    continue;
                };
            // Liveness: from past the binding to the end of the block,
            // clipped at the first sibling `drop(name)`.
            let mut hi = b.end.min(code.len());
            for later in &b.stmts[idx + 1..] {
                if is_drop_of(code, later, name) {
                    hi = later.start;
                    break;
                }
            }
            scan_region(ctx, func, allows, s, stmt.end, hi, &mut region);
            if region.acquires.is_empty()
                && region.blocking.is_empty()
                && region.fanout.is_empty()
                && region.calls.is_empty()
            {
                continue;
            }
            s.conc.regions.push(region);
        }
    }
    s.conc
        .regions
        .sort_by(|a, b| (a.line, &a.lock).cmp(&(b.line, &b.lock)));
}

/// Whether `stmt` is exactly `drop ( name )` (with or without `;`).
fn is_drop_of(code: &[Tok], stmt: &crate::parser::Stmt, name: &str) -> bool {
    let s = stmt.start;
    s + 3 < stmt.end.min(code.len())
        && code[s].is_ident("drop")
        && code[s + 1].is_punct('(')
        && code[s + 2].is_ident(name)
        && code[s + 3].is_punct(')')
}

/// Scans one region's token range `[lo, hi)` for later acquisitions,
/// blocking operations, fan-out entries, and calls.
fn scan_region(
    ctx: &FileCtx,
    func: &FnItem,
    allows: &mut [InterprocAllow],
    s: &FnSummary,
    lo: usize,
    hi: usize,
    region: &mut GuardRegion,
) {
    let code = &ctx.code;
    let mut calls: BTreeMap<CallRef, u32> = BTreeMap::new();
    for i in lo..hi.min(code.len()) {
        let t = &code[i];
        if t.kind != TokKind::Ident || ctx.is_test_line(t.line) {
            continue;
        }
        let prev_dot = i > lo && code[i - 1].is_punct('.');
        let next_paren = code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let empty_parens = next_paren && code.get(i + 2).is_some_and(|n| n.is_punct(')'));

        if prev_dot && empty_parens {
            if let Some(&(_, op)) = GUARD_METHODS.iter().find(|(m, _)| t.is_ident(m)) {
                // An unknown receiver is skipped entirely: recording it
                // as a call would resolve `read`/`write`/`lock` against
                // unrelated workspace methods of the same name.
                if let Some(lock) = lock_identity(code, lo, i - 1, func, s) {
                    if !conc_justified(allows, t.line, "lock-order-cycle") {
                        region.acquires.push((lock, t.line, op));
                    }
                }
                continue;
            }
        }
        if let Some(desc) = blocking_desc(code, lo, i) {
            if !conc_justified(allows, t.line, "blocking-while-locked") {
                region.blocking.push((t.line, desc));
            }
            continue;
        }
        if next_paren && FANOUT_FNS.iter().any(|f| t.is_ident(f)) {
            if !conc_justified(allows, t.line, "guard-across-fanout") {
                region.fanout.push(t.line);
            }
            continue;
        }
        if next_paren && !NON_CALLEES.iter().any(|k| t.is_ident(k)) {
            let qual = if i >= lo + 3
                && code[i - 1].is_punct(':')
                && code[i - 2].is_punct(':')
                && code[i - 3].kind == TokKind::Ident
            {
                code[i - 3].text.clone()
            } else {
                String::new()
            };
            let call = CallRef {
                method: prev_dot,
                qual: if prev_dot { String::new() } else { qual },
                name: t.text.clone(),
            };
            calls.entry(call).or_insert(t.line);
        }
    }
    region.calls = calls.into_iter().collect();
}

/// Classifies the token at `i` as a blocking operation, returning its
/// human-readable description.
fn blocking_desc(code: &[Tok], lo: usize, i: usize) -> Option<String> {
    let t = &code[i];
    let next_paren = code.get(i + 1).is_some_and(|n| n.is_punct('('));
    if !next_paren {
        return None;
    }
    if t.is_ident("sleep")
        && i >= lo + 3
        && code[i - 1].is_punct(':')
        && code[i - 2].is_punct(':')
        && code[i - 3].is_ident("thread")
    {
        return Some("thread::sleep".to_string());
    }
    if i == lo || !code[i - 1].is_punct('.') {
        return None;
    }
    let empty = code.get(i + 2).is_some_and(|n| n.is_punct(')'));
    if empty && BLOCKING_EMPTY.iter().any(|m| t.is_ident(m)) {
        return Some(format!(".{}()", t.text));
    }
    if !empty && BLOCKING_ARGS.iter().any(|m| t.is_ident(m)) {
        return Some(format!(".{}(..)", t.text));
    }
    None
}

/// Parses an initializer range `[lo, hi)` as exactly one acquisition
/// chain: `receiver.lock()`/`.read()`/`.write()` (empty parens) followed
/// only by poison adapters, consuming the whole range. Returns the
/// coarse lock identity, the op, and the acquisition line.
fn acquisition_chain(
    code: &[Tok],
    lo: usize,
    hi: usize,
    func: &FnItem,
    s: &FnSummary,
) -> Option<(String, u8, u32)> {
    let mut hi = hi.min(code.len());
    if hi > lo && code[hi - 1].is_punct(';') {
        hi -= 1;
    }
    if hi <= lo {
        return None;
    }
    // `*m.lock()…` copies the value out and drops the guard at the end
    // of the statement; `&…` binds a borrow, not the guard itself.
    if code[lo].is_punct('*') || code[lo].is_punct('&') {
        return None;
    }
    let mut found: Option<(usize, u8)> = None;
    for j in lo + 1..hi {
        if code[j].kind != TokKind::Ident || !code[j - 1].is_punct('.') {
            continue;
        }
        if !code.get(j + 1).is_some_and(|n| n.is_punct('('))
            || !code.get(j + 2).is_some_and(|n| n.is_punct(')'))
        {
            continue;
        }
        if let Some(&(_, op)) = GUARD_METHODS.iter().find(|(m, _)| code[j].is_ident(m)) {
            found = Some((j, op));
            break;
        }
    }
    let (j, op) = found?;
    let lock = lock_identity(code, lo, j - 1, func, s)?;
    let mut pos = j + 3;
    while pos < hi {
        if !code[pos].is_punct('.') {
            return None;
        }
        let name = code.get(pos + 1)?;
        if name.kind != TokKind::Ident || !POISON_ADAPTERS.iter().any(|a| name.is_ident(a)) {
            return None;
        }
        if !code.get(pos + 2).is_some_and(|n| n.is_punct('(')) {
            return None;
        }
        pos = balanced_close(code, pos + 2, hi)? + 1;
    }
    Some((lock, op, code[j].line))
}

/// Parses an initializer range `[lo, hi)` as exactly one call (path or
/// method, no operand prefix beyond `&`/`.`/`::`) optionally followed
/// by poison adapters, consuming the whole range.
fn helper_call(code: &[Tok], lo: usize, hi: usize) -> Option<(CallRef, u32)> {
    let mut hi = hi.min(code.len());
    if hi > lo && code[hi - 1].is_punct(';') {
        hi -= 1;
    }
    let mut p = lo;
    while p < hi && !code[p].is_punct('(') {
        let ok = code[p].kind == TokKind::Ident
            || code[p].is_punct('.')
            || code[p].is_punct(':')
            || code[p].is_punct('&');
        if !ok {
            return None;
        }
        p += 1;
    }
    if p >= hi || p == lo {
        return None;
    }
    let callee = &code[p - 1];
    if callee.kind != TokKind::Ident || NON_CALLEES.iter().any(|k| callee.is_ident(k)) {
        return None;
    }
    let method = p >= lo + 2 && code[p - 2].is_punct('.');
    let qual = if !method
        && p >= lo + 4
        && code[p - 2].is_punct(':')
        && code[p - 3].is_punct(':')
        && code[p - 4].kind == TokKind::Ident
    {
        code[p - 4].text.clone()
    } else {
        String::new()
    };
    let mut pos = balanced_close(code, p, hi)? + 1;
    while pos < hi {
        if !code[pos].is_punct('.') {
            return None;
        }
        let name = code.get(pos + 1)?;
        if name.kind != TokKind::Ident || !POISON_ADAPTERS.iter().any(|a| name.is_ident(a)) {
            return None;
        }
        if !code.get(pos + 2).is_some_and(|n| n.is_punct('(')) {
            return None;
        }
        pos = balanced_close(code, pos + 2, hi)? + 1;
    }
    Some((
        CallRef {
            qual,
            name: callee.text.clone(),
            method,
        },
        callee.line,
    ))
}

/// Index of the `)` matching the `(` at `open`, within `[open, hi)`.
fn balanced_close(code: &[Tok], open: usize, hi: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().take(hi.min(code.len())).skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Coarse lock identity of the receiver path ending just before the
/// `.` at `dot`. Walks the path right-to-left (skipping balanced
/// `[…]` index suffixes) down to its root, then classifies the root:
/// `self` → `ImplType.field`, a parameter → its normalized type,
/// `SCREAMING_CASE` → the static's name, anything else → a fn-local
/// `fn::binding`. Non-path receivers (call results, parenthesized
/// expressions) yield `None` — skipped, never guessed.
fn lock_identity(
    code: &[Tok],
    lo: usize,
    dot: usize,
    func: &FnItem,
    s: &FnSummary,
) -> Option<String> {
    let mut segs: Vec<&str> = Vec::new();
    let mut i = dot;
    loop {
        if i <= lo {
            return None;
        }
        let mut j = i - 1;
        while code[j].is_punct(']') {
            let mut depth = 1usize;
            while depth > 0 {
                if j <= lo {
                    return None;
                }
                j -= 1;
                if code[j].is_punct(']') {
                    depth += 1;
                } else if code[j].is_punct('[') {
                    depth -= 1;
                }
            }
            if j <= lo {
                return None;
            }
            j -= 1;
        }
        if code[j].kind != TokKind::Ident {
            return None;
        }
        segs.push(code[j].text.as_str());
        if j > lo && code[j - 1].is_punct('.') {
            i = j - 1;
            continue;
        }
        break;
    }
    segs.reverse();
    let (root, fields) = segs.split_first()?;
    let fields = fields.join(".");
    if *root == "self" {
        if fields.is_empty() {
            return None;
        }
        let base = if s.impl_type.is_empty() {
            "Self"
        } else {
            &s.impl_type
        };
        return Some(format!("{base}.{fields}"));
    }
    let base = if let Some(p) = func.params.iter().find(|p| p.name == *root) {
        normalize_ty(&p.ty)
    } else if root
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && root.chars().any(|c| c.is_ascii_uppercase())
    {
        (*root).to_string()
    } else {
        format!("{}::{root}", s.qualified())
    };
    if fields.is_empty() {
        Some(base)
    } else {
        Some(format!("{base}.{fields}"))
    }
}

/// Flattened parameter type text with borrows, `mut`, lifetimes, and
/// spacing stripped: `& 'a mut RwLock < IndexPair >` →
/// `RwLock<IndexPair>`.
fn normalize_ty(ty: &str) -> String {
    ty.split_whitespace()
        .filter(|w| *w != "&" && *w != "mut" && !w.starts_with('\''))
        .collect()
}

/// The atomic field a method at `dot + 1` is called on: the last path
/// segment of the receiver (with a balanced `[…]` suffix skipped), so
/// `self.buckets[i].fetch_add` and `stats.buckets[i].load` agree on
/// `buckets`. Coarse by design — same-named fields on different types
/// are grouped, which errs toward reporting.
fn atomic_field(code: &[Tok], lo: usize, dot: usize) -> Option<String> {
    if dot <= lo {
        return None;
    }
    let mut j = dot - 1;
    while code[j].is_punct(']') {
        let mut depth = 1usize;
        while depth > 0 {
            if j <= lo {
                return None;
            }
            j -= 1;
            if code[j].is_punct(']') {
                depth += 1;
            } else if code[j].is_punct('[') {
                depth -= 1;
            }
        }
        if j <= lo {
            return None;
        }
        j -= 1;
    }
    (code[j].kind == TokKind::Ident).then(|| code[j].text.clone())
}

/// `Ordering::X` variant names appearing in the argument list opened by
/// the `(` at `open`.
fn call_orderings(code: &[Tok], open: usize, hi: usize) -> Vec<String> {
    let Some(close) = balanced_close(code, open, hi) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for k in open + 1..close {
        let t = &code[k];
        if t.kind == TokKind::Ident
            && ORDERINGS.iter().any(|o| t.is_ident(o))
            && k >= open + 3
            && code[k - 1].is_punct(':')
            && code[k - 2].is_punct(':')
            && code[k - 3].is_ident("Ordering")
        {
            out.push(t.text.clone());
        }
    }
    out
}

// ---- central evaluation ----

/// Provenance of one lock-order edge `from -> to`: the node whose
/// region held `from`, the line of the acquisition or call, and the
/// callee that reaches the acquisition ([`NONE`] for direct ones).
#[derive(Debug, Clone, Copy)]
struct Prov {
    node: u32,
    line: u32,
    via: u32,
}

/// Propagated concurrency facts, per call-graph component.
struct ConcReach {
    comp_of: Vec<u32>,
    locks: Vec<BTreeSet<u32>>,
    blk: Vec<u32>,
    fan: Vec<u32>,
}

impl ConcReach {
    fn locks_of(&self, id: usize) -> &BTreeSet<u32> {
        &self.locks[self.comp_of[id] as usize]
    }
    fn blk_src(&self, id: usize) -> u32 {
        self.blk[self.comp_of[id] as usize]
    }
    fn fan_src(&self, id: usize) -> u32 {
        self.fan[self.comp_of[id] as usize]
    }
}

/// Evaluates the four central concurrency rules over the propagated
/// call graph. Mirrors [`crate::interproc::evaluate`]: suppressions
/// are matched against the central allow list, and
/// [`crate::interproc::unused_allows`] must run *after* both passes.
pub fn evaluate(
    graph: &CallGraph,
    cfg: &Config,
    allows: &mut [(String, InterprocAllow)],
) -> (Vec<Violation>, Vec<Suppressed>) {
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    let nodes = &graph.nodes;
    let resolver = Resolver::new(nodes);

    // Intern every lock identity the workspace mentions.
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for n in nodes {
        for (lock, _, _) in &n.conc.acquires {
            names.insert(lock);
        }
        if let Some((lock, _)) = &n.conc.returns_guard {
            names.insert(lock);
        }
        for r in &n.conc.regions {
            if !r.lock.is_empty() {
                names.insert(&r.lock);
            }
            for (lock, _, _) in &r.acquires {
                names.insert(lock);
            }
        }
    }
    let lock_names: Vec<&str> = names.into_iter().collect();
    let lock_id =
        |name: &str| -> Option<u32> { lock_names.binary_search(&name).ok().map(|i| i as u32) };

    // Per-node own facts, then callee→caller propagation.
    let own: Vec<(BTreeSet<u32>, bool, bool)> = nodes
        .iter()
        .enumerate()
        .map(|(id, n)| {
            let mut locks: BTreeSet<u32> = BTreeSet::new();
            for (lock, _, _) in &n.conc.acquires {
                locks.extend(lock_id(lock));
            }
            if let Some((lock, _)) = &n.conc.returns_guard {
                locks.extend(lock_id(lock));
            }
            let _ = id;
            let blocks = !n.conc.blocking.is_empty();
            let fans = FANOUT_FNS.contains(&n.name.as_str());
            (locks, blocks, fans)
        })
        .collect();
    let reach = propagate_conc(&own, graph.edge_lists());

    // Resolve each region to a held lock; assemble the lock-order
    // graph and evaluate the per-region rules in one sweep.
    let mut ledges: BTreeMap<(u32, u32), Prov> = BTreeMap::new();
    let mut per_region: Vec<(u32, &GuardRegion, u32, u8)> = Vec::new();
    for (id, n) in nodes.iter().enumerate() {
        for r in &n.conc.regions {
            let resolved: Option<(u32, u8)> = if !r.lock.is_empty() {
                lock_id(&r.lock).map(|l| (l, r.op))
            } else if let Some(h) = &r.helper {
                resolver
                    .targets(n, h)
                    .iter()
                    .find_map(|&t| nodes[t as usize].conc.returns_guard.as_ref())
                    .and_then(|(lock, op)| lock_id(lock).map(|l| (l, *op)))
            } else {
                None
            };
            let Some((held, op)) = resolved else {
                continue;
            };
            per_region.push((id as u32, r, held, op));
            for (lock, line, _) in &r.acquires {
                if let Some(to) = lock_id(lock) {
                    add_edge(&mut ledges, held, to, id as u32, *line, NONE);
                }
            }
            for (c, line) in &r.calls {
                for &t in resolver.targets(n, c) {
                    for &to in reach.locks_of(t as usize) {
                        add_edge(&mut ledges, held, to, id as u32, *line, t);
                    }
                }
            }
        }
    }

    // Lock-order cycles: SCCs of the lock graph, one report per cycle,
    // anchored at the first hop's holder.
    if cfg.enabled("lock-order-cycle") {
        let nlocks = lock_names.len();
        let mut ladj: Vec<Vec<u32>> = vec![Vec::new(); nlocks];
        for &(a, b) in ledges.keys() {
            ladj[a as usize].push(b);
        }
        let comp_of = lock_sccs(&ladj);
        let mut members: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (l, &c) in comp_of.iter().enumerate() {
            members.entry(c).or_default().push(l as u32);
        }
        for group in members.values() {
            if group.len() < 2 {
                continue;
            }
            let cycle = shortest_cycle(&ladj, &comp_of, group[0]);
            if cycle.len() < 2 {
                continue;
            }
            let mut hops: Vec<(u32, u32)> = cycle.windows(2).map(|w| (w[0], w[1])).collect();
            hops.push((cycle[cycle.len() - 1], cycle[0]));
            let head: Vec<String> = cycle
                .iter()
                .chain(std::iter::once(&cycle[0]))
                .map(|&l| format!("`{}`", lock_names[l as usize]))
                .collect();
            let mut parts: Vec<String> = Vec::new();
            let mut anchor: Option<(u32, u32)> = None;
            for (a, b) in &hops {
                let Some(p) = ledges.get(&(*a, *b)) else {
                    continue;
                };
                let holder = &nodes[p.node as usize];
                let step = if p.via == NONE {
                    format!(
                        "`{}` held in `{}` ({}:{}) -> acquires `{}`",
                        lock_names[*a as usize],
                        holder.qualified(),
                        holder.file,
                        p.line,
                        lock_names[*b as usize]
                    )
                } else {
                    format!(
                        "`{}` held in `{}` ({}:{}) -> calls `{}` -> acquires `{}`",
                        lock_names[*a as usize],
                        holder.qualified(),
                        holder.file,
                        p.line,
                        nodes[p.via as usize].qualified(),
                        lock_names[*b as usize]
                    )
                };
                parts.push(step);
                if anchor.is_none() {
                    anchor = Some((p.node, p.line));
                }
            }
            let Some((anode, aline)) = anchor else {
                continue;
            };
            emit(
                &mut violations,
                &mut suppressed,
                allows,
                cfg,
                "lock-order-cycle",
                &nodes[anode as usize],
                aline,
                format!(
                    "potential deadlock: lock-order cycle {}: {}; acquire locks in one global order or justify with lint:allow(lock-order-cycle)",
                    head.join(" -> "),
                    parts.join("; ")
                ),
            );
        }
    }

    // Per-region rules. A fan-out inside the region outranks the
    // blocking rule for that region: `fan_out_chunked` joins its
    // workers, so the same site would otherwise double-report.
    for &(id, r, held, _op) in &per_region {
        let n = &nodes[id as usize];
        let lock = lock_names[held as usize];
        let mut fan_hit: Option<(u32, u32)> = r.fanout.first().map(|&l| (l, NONE));
        for (c, line) in &r.calls {
            for &t in resolver.targets(n, c) {
                let src = reach.fan_src(t as usize);
                if src != NONE && fan_hit.is_none_or(|(bl, bt)| (*line, t) < (bl, bt)) {
                    fan_hit = Some((*line, t));
                }
            }
        }
        if let Some((line, via)) = fan_hit {
            if cfg.enabled("guard-across-fanout") {
                let how = if via == NONE {
                    "the parallel fan-out call".to_string()
                } else {
                    format!(
                        "the call to `{}`, which enters a parallel fan-out",
                        nodes[via as usize].qualified()
                    )
                };
                emit(
                    &mut violations,
                    &mut suppressed,
                    allows,
                    cfg,
                    "guard-across-fanout",
                    n,
                    line,
                    format!(
                        "guard on `{lock}` (taken at line {}) is live across {how} at line {line}; join the workers before taking the guard, or drop it first, or justify with lint:allow(guard-across-fanout)",
                        r.line
                    ),
                );
            }
            continue;
        }
        if !cfg.enabled("blocking-while-locked") {
            continue;
        }
        if let Some((line, desc)) = r.blocking.first() {
            emit(
                &mut violations,
                &mut suppressed,
                allows,
                cfg,
                "blocking-while-locked",
                n,
                *line,
                format!(
                    "`{desc}` blocks while the guard on `{lock}` (taken at line {}) is live; release the guard before blocking or justify with lint:allow(blocking-while-locked)",
                    r.line
                ),
            );
            continue;
        }
        let mut blk_hit: Option<(u32, u32)> = None;
        for (c, line) in &r.calls {
            for &t in resolver.targets(n, c) {
                let src = reach.blk_src(t as usize);
                if src != NONE && blk_hit.is_none_or(|(bl, bt)| (*line, t) < (bl, bt)) {
                    blk_hit = Some((*line, t));
                }
            }
        }
        if let Some((line, via)) = blk_hit {
            let via_n = &nodes[via as usize];
            let src = reach.blk_src(via as usize);
            let src_n = &nodes[src as usize];
            let (sline, sdesc) = src_n
                .conc
                .blocking
                .first()
                .map(|(l, d)| (*l, d.as_str()))
                .unwrap_or((src_n.line, "a blocking operation"));
            emit(
                &mut violations,
                &mut suppressed,
                allows,
                cfg,
                "blocking-while-locked",
                n,
                line,
                format!(
                    "call to `{}` can reach `{sdesc}` in `{}` ({}:{sline}) while the guard on `{lock}` (taken at line {}) is live; release the guard before blocking or justify with lint:allow(blocking-while-locked)",
                    via_n.qualified(),
                    src_n.qualified(),
                    src_n.file,
                    r.line
                ),
            );
        }
    }

    // Atomics hygiene: one field, one ordering discipline.
    if cfg.enabled("atomic-ordering-mixed") {
        let mut by_field: BTreeMap<&str, Vec<(u32, &str, u32)>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            for (field, ord, line) in &n.conc.atomics {
                by_field
                    .entry(field)
                    .or_default()
                    .push((id as u32, ord, *line));
            }
        }
        for (field, sites) in &by_field {
            let Some(&(n0, ord0, line0)) = sites.first() else {
                continue;
            };
            let c0 = ordering_class(ord0);
            let Some(&(nd, ordd, lined)) =
                sites.iter().find(|(_, ord, _)| ordering_class(ord) != c0)
            else {
                continue;
            };
            let first = &nodes[n0 as usize];
            emit(
                &mut violations,
                &mut suppressed,
                allows,
                cfg,
                "atomic-ordering-mixed",
                &nodes[nd as usize],
                lined,
                format!(
                    "atomic field `{field}` is accessed with mixed orderings: `{ord0}` ({}:{line0}) vs `{ordd}` here; pick one ordering discipline per field or justify with lint:allow(atomic-ordering-mixed)",
                    first.file
                ),
            );
        }
    }

    (violations, suppressed)
}

/// Records a lock-order edge, keeping the minimum provenance so the
/// reported witness is independent of discovery order.
fn add_edge(
    edges: &mut BTreeMap<(u32, u32), Prov>,
    from: u32,
    to: u32,
    node: u32,
    line: u32,
    via: u32,
) {
    if from == to {
        return;
    }
    let p = Prov { node, line, via };
    edges
        .entry((from, to))
        .and_modify(|old| {
            if (p.node, p.line, p.via) < (old.node, old.line, old.via) {
                *old = p;
            }
        })
        .or_insert(p);
}

/// Emits one violation, routing it through the central allow list the
/// same way [`crate::interproc::evaluate`] does.
fn emit(
    out: &mut Vec<Violation>,
    sup: &mut Vec<Suppressed>,
    allows: &mut [(String, InterprocAllow)],
    cfg: &Config,
    rule: &str,
    node: &FnSummary,
    line: u32,
    message: String,
) {
    let v = Violation {
        rule: rule.to_string(),
        severity: cfg.severity(rule),
        file: node.file.clone(),
        line,
        message,
        snippet: node.snippet.clone(),
    };
    let matched = allows.iter_mut().find(|(file, a)| {
        file == &node.file
            && a.rules.iter().any(|r| r == rule)
            && a.covers.0 <= line
            && line <= a.covers.1
    });
    match matched {
        Some((_, a)) => {
            a.used = true;
            sup.push(Suppressed {
                violation: v,
                reason: a.reason.clone(),
                allow_line: a.line,
            });
        }
        None => out.push(v),
    }
}

/// Propagates `(lock set, can block, can fan out)` callee→caller over
/// the SCC condensation — the same iterative Tarjan pattern as
/// [`crate::interproc`]'s hazard propagation and `core`'s `ReachIndex`.
/// Sources kept per component are minimum node ids, so the result is
/// independent of traversal order and worker count.
fn propagate_conc(own: &[(BTreeSet<u32>, bool, bool)], edges: &[Vec<u32>]) -> ConcReach {
    let n = own.len();
    let mut index_of = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![u32::MAX; n];
    let mut comp_locks: Vec<BTreeSet<u32>> = Vec::new();
    let mut comp_blk: Vec<u32> = Vec::new();
    let mut comp_fan: Vec<u32> = Vec::new();
    let mut next_index = 1u32;
    let mut dfs: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index_of[root as usize] != 0 {
            continue;
        }
        dfs.push((root, 0));
        index_of[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut row)) = dfs.last_mut() {
            let vu = v as usize;
            if let Some(&w) = edges[vu].get(*row) {
                *row += 1;
                let wu = w as usize;
                if index_of[wu] == 0 {
                    index_of[wu] = next_index;
                    low[wu] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wu] = true;
                    dfs.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index_of[wu]);
                }
                continue;
            }
            dfs.pop();
            if let Some(&(p, _)) = dfs.last() {
                let pu = p as usize;
                low[pu] = low[pu].min(low[vu]);
            }
            if low[vu] != index_of[vu] {
                continue;
            }
            let c = comp_locks.len() as u32;
            let mut members: Vec<u32> = Vec::new();
            while let Some(w) = stack.pop() {
                on_stack[w as usize] = false;
                comp_of[w as usize] = c;
                members.push(w);
                if w == v {
                    break;
                }
            }
            let mut locks: BTreeSet<u32> = BTreeSet::new();
            let mut blk = NONE;
            let mut fan = NONE;
            for &m in &members {
                let mu = m as usize;
                locks.extend(own[mu].0.iter().copied());
                if own[mu].1 {
                    blk = blk.min(m);
                }
                if own[mu].2 {
                    fan = fan.min(m);
                }
                for &w in &edges[mu] {
                    let wc = comp_of[w as usize];
                    if wc == c {
                        continue;
                    }
                    locks.extend(comp_locks[wc as usize].iter().copied());
                    blk = blk.min(comp_blk[wc as usize]);
                    fan = fan.min(comp_fan[wc as usize]);
                }
            }
            comp_locks.push(locks);
            comp_blk.push(blk);
            comp_fan.push(fan);
        }
    }

    ConcReach {
        comp_of,
        locks: comp_locks,
        blk: comp_blk,
        fan: comp_fan,
    }
}

/// SCC component ids of the lock-order graph (plain iterative Tarjan,
/// no payload).
fn lock_sccs(edges: &[Vec<u32>]) -> Vec<u32> {
    let n = edges.len();
    let mut index_of = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![u32::MAX; n];
    let mut ncomps = 0u32;
    let mut next_index = 1u32;
    let mut dfs: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index_of[root as usize] != 0 {
            continue;
        }
        dfs.push((root, 0));
        index_of[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut row)) = dfs.last_mut() {
            let vu = v as usize;
            if let Some(&w) = edges[vu].get(*row) {
                *row += 1;
                let wu = w as usize;
                if index_of[wu] == 0 {
                    index_of[wu] = next_index;
                    low[wu] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wu] = true;
                    dfs.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index_of[wu]);
                }
                continue;
            }
            dfs.pop();
            if let Some(&(p, _)) = dfs.last() {
                let pu = p as usize;
                low[pu] = low[pu].min(low[vu]);
            }
            if low[vu] != index_of[vu] {
                continue;
            }
            while let Some(w) = stack.pop() {
                on_stack[w as usize] = false;
                comp_of[w as usize] = ncomps;
                if w == v {
                    break;
                }
            }
            ncomps += 1;
        }
    }
    comp_of
}

/// The shortest cycle through `start` inside its SCC, as the node
/// sequence `[start, …, last]` (the closing edge `last -> start` is
/// implicit). BFS with sorted adjacency and first-wins parents, so the
/// result is deterministic.
fn shortest_cycle(adj: &[Vec<u32>], comp_of: &[u32], start: u32) -> Vec<u32> {
    let comp = comp_of[start as usize];
    let mut parent: BTreeMap<u32, u32> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v as usize] {
            if comp_of[w as usize] != comp {
                continue;
            }
            if w == start {
                // Reconstruct start -> … -> v.
                let mut chain = vec![v];
                let mut cur = v;
                while cur != start {
                    let Some(&p) = parent.get(&cur) else {
                        break;
                    };
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                return chain;
            }
            if w != start && !parent.contains_key(&w) {
                parent.insert(w, v);
                queue.push_back(w);
            }
        }
    }
    Vec::new()
}
