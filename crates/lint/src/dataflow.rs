//! Dataflow/semantic rules over the parsed item/statement tree.
//!
//! These rules see *structure* the token rules cannot: which
//! statements discard values, what a spawn closure captures. Four rules
//! live here:
//!
//! * `result-dropped` — a discarded call that resolves to a workspace
//!   fn returning `Result`/`Report`, in library code;
//! * `float-ord` — no `f32`/`f64` as a sort comparator (via
//!   `partial_cmp`) or as an ordered-map key;
//! * `must-use-api` — pub fns returning `Result`/`Report` must carry
//!   `#[must_use]`;
//! * `thread-capture` — closures passed to scoped-thread spawns must
//!   not mutate shared accumulators captured from the enclosing fn;
//!   workers return values that merge after join.

use crate::config::Config;
use crate::diag::Violation;
use crate::interproc::{CallGraph, CallRef, FnSummary};
use crate::lexer::{Tok, TokKind};
use crate::parser::{self, Block, FnItem, Item, ParsedFile, StmtKind};
use crate::scan::FileCtx;
use std::collections::BTreeSet;

/// Runs every enabled dataflow rule over one parsed file; `fns` are the
/// file's summaries, nodes of `graph`.
pub fn run_all(
    ctx: &FileCtx,
    parsed: &ParsedFile,
    fns: &[FnSummary],
    graph: &CallGraph,
    cfg: &Config,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if cfg.enabled("result-dropped") {
        out.extend(rule_result_dropped(ctx, fns, graph, cfg));
    }
    if cfg.enabled("float-ord") {
        out.extend(rule_float_ord(ctx, cfg));
    }
    if cfg.enabled("must-use-api") {
        out.extend(rule_must_use_api(ctx, parsed, cfg));
    }
    if cfg.enabled("thread-capture") {
        out.extend(rule_thread_capture(ctx, parsed, cfg));
    }
    out
}

fn violation(ctx: &FileCtx, cfg: &Config, rule: &str, line: u32, message: String) -> Violation {
    Violation {
        rule: rule.to_string(),
        severity: cfg.severity(rule),
        file: ctx.rel_path.clone(),
        line,
        message,
        snippet: ctx.snippet(line),
    }
}

// ---- result-dropped ----

/// The calls one fn body discards, with the callee's line: statement-
/// position calls and `let _ =` initializers. Macro invocations and
/// calls whose value is consumed (`?`, a trailing combinator,
/// assignment to a named binding) are not discards.
/// [`crate::interproc::extract`] records them in the fn's summary.
pub(crate) fn discarded_calls(ctx: &FileCtx, body: &Block) -> Vec<(CallRef, u32)> {
    let code = &ctx.code;
    let mut out = Vec::new();
    parser::walk_blocks(body, &mut |block: &Block| {
        for stmt in &block.stmts {
            // Where the discarded expression starts: a `let _ =`
            // statement from its initializer, an expression statement
            // from its first token.
            let scan_start = match &stmt.kind {
                StmtKind::Expr { has_semi: true } => stmt.start,
                StmtKind::Let {
                    discard: true,
                    init_start: Some(init),
                    ..
                } => *init,
                _ => continue,
            };
            if consumes_value(code, scan_start, stmt.end) {
                continue;
            }
            let Some(callee) = trailing_call(code, scan_start, stmt.end) else {
                continue;
            };
            let line = code[callee].line;
            if !ctx.is_test_line(line) {
                out.push((CallRef::at(code, scan_start, callee), line));
            }
        }
    });
    out
}

/// `result-dropped`: a discarded call (see [`discarded_calls`]) with an
/// in-scope candidate that returns `Result`/`Report`, in library code.
fn rule_result_dropped(
    ctx: &FileCtx,
    fns: &[FnSummary],
    graph: &CallGraph,
    cfg: &Config,
) -> Vec<Violation> {
    if ctx.is_bin || ctx.crate_name.as_deref() == Some("bench") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in fns {
        for (call, line) in &f.discards {
            if graph
                .targets(f, call)
                .iter()
                .any(|&t| graph.nodes[t as usize].returns_result)
            {
                out.push(violation(
                    ctx,
                    cfg,
                    "result-dropped",
                    *line,
                    format!(
                        "result of `{}` (returns Result/Report) is discarded; handle the error, bind the value, or justify with lint:allow(result-dropped)",
                        call.name
                    ),
                ));
            }
        }
    }
    out
}

/// Whether the statement's value is consumed after all: it is a
/// `return`/`break` (the value leaves the block) or contains a
/// top-level `=` (an assignment binds it). Match-arm and closure-body
/// `=` tokens sit inside braces/parens and do not count.
fn consumes_value(code: &[Tok], start: usize, end: usize) -> bool {
    if code
        .get(start)
        .is_some_and(|t| t.is_ident("return") || t.is_ident("break"))
    {
        return true;
    }
    let mut depth = 0i32;
    for t in code.iter().take(end.min(code.len())).skip(start) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 => return true,
                _ => {}
            }
        }
    }
    false
}

/// For a statement in `code[start..end]` ending `… name(args);` (or
/// `let _ = … name(args);`), returns the callee's token index. `None`
/// when the statement does not end in a plain call —
/// trailing `?`, macros (`name!(…)`), struct literals, and index
/// expressions all disqualify it.
fn trailing_call(code: &[Tok], start: usize, end: usize) -> Option<usize> {
    let mut j = end.min(code.len());
    // Step back over the `;`.
    while j > start {
        j -= 1;
        let t = code.get(j)?;
        if t.is_punct(';') {
            continue;
        }
        if !t.is_punct(')') {
            return None; // not a call-terminated statement
        }
        break;
    }
    // `code[j]` is the closing paren; match backwards to its opener.
    let mut depth = 0i32;
    let mut k = j;
    loop {
        let t = code.get(k)?;
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" | "}" => depth += 1,
                "(" | "[" | "{" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        if k == start || k == 0 {
            return None;
        }
        k -= 1;
    }
    // Token before the `(` is the callee; `name!(…)` is a macro.
    if k == 0 || k <= start {
        return None;
    }
    let callee = code.get(k - 1)?;
    if callee.kind != TokKind::Ident {
        return None;
    }
    if k >= 2 && code.get(k - 2).is_some_and(|t| t.is_punct('!')) {
        return None;
    }
    Some(k - 1)
}

// ---- float-ord ----

/// Comparator-position methods whose argument ranges are scanned.
const CMP_METHODS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "binary_search_by",
    "binary_search_by_key",
];

/// `float-ord`: `partial_cmp` (or a bare `f32`/`f64` key) inside a
/// sort/min/max/binary-search comparator, and float-keyed ordered maps
/// (`BTreeMap<f64, …>`). Floats are not totally ordered — a single NaN
/// makes the comparator panic or the order unspecified; use
/// `total_cmp` or an integer key.
fn rule_float_ord(ctx: &FileCtx, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.in_test_tree {
        return out;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = &code[i];
        if ctx.is_test_line(t.line) {
            continue;
        }
        // `.sort_by(| … |)`-family: scan the argument range.
        if t.kind == TokKind::Ident
            && CMP_METHODS.iter().any(|m| t.is_ident(m))
            && i >= 1
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let close = match matching_paren(code, i + 1) {
                Some(c) => c,
                None => continue,
            };
            for arg in &code[i + 2..close] {
                if arg.is_ident("partial_cmp") {
                    out.push(violation(
                        ctx,
                        cfg,
                        "float-ord",
                        arg.line,
                        format!(
                            "partial_cmp as a `{}` comparator is not a total order (NaN); use f64::total_cmp or an integer key",
                            t.text
                        ),
                    ));
                    break;
                }
                if arg.is_ident("f32") || arg.is_ident("f64") {
                    out.push(violation(
                        ctx,
                        cfg,
                        "float-ord",
                        arg.line,
                        format!(
                            "{} as a `{}` sort key is not totally ordered; sort by an integer projection or total_cmp",
                            arg.text, t.text
                        ),
                    ));
                    break;
                }
            }
        }
        // `BTreeMap<f64, …>` / `BTreeSet<f32>` ordered-float keys.
        if (t.is_ident("BTreeMap") || t.is_ident("BTreeSet"))
            && code.get(i + 1).is_some_and(|n| n.is_punct('<'))
            && code
                .get(i + 2)
                .is_some_and(|k| k.is_ident("f32") || k.is_ident("f64"))
        {
            out.push(violation(
                ctx,
                cfg,
                "float-ord",
                t.line,
                format!(
                    "{} keyed by a float is not totally ordered; key by an integer (e.g. scaled fixed-point) instead",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(code: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = code.get(j) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

// ---- must-use-api ----

/// `must-use-api`: public functions returning `Result`/`Report` in
/// library code must be annotated `#[must_use]` so the obligation is
/// visible at every call site (and survives re-export).
fn rule_must_use_api(ctx: &FileCtx, parsed: &ParsedFile, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.in_test_tree || ctx.is_bin {
        return out;
    }
    parser::walk_fns(&parsed.items, &mut |item: &Item, func: &FnItem, _| {
        if !item.is_pub {
            return;
        }
        let head = func.ret_head();
        if head != "Result" && head != "Report" {
            return;
        }
        if ctx.is_test_line(item.line) {
            return;
        }
        let has_must_use = item
            .attrs
            .iter()
            .any(|a| a.split_whitespace().next() == Some("must_use"));
        if !has_must_use {
            out.push(violation(
                ctx,
                cfg,
                "must-use-api",
                item.line,
                format!(
                    "pub fn `{}` returns {head} but is not #[must_use]; annotate it so discarded calls are caught at every call site",
                    func.name
                ),
            ));
        }
    });
    out
}

// ---- thread-capture ----

/// Methods that mutate their receiver; a captured accumulator touched
/// through one of these inside a spawn closure is shared mutable state.
const MUT_METHODS: &[&str] = &[
    "push",
    "push_str",
    "push_front",
    "push_back",
    "pop",
    "extend",
    "extend_from_slice",
    "insert",
    "remove",
    "clear",
    "append",
    "truncate",
    "drain",
    "entry",
    "get_mut",
    "sort",
    "sort_by",
    "sort_unstable",
    "retain",
];

/// `thread-capture`: a closure passed to a scoped-thread `spawn` must
/// not mutate a `let mut` accumulator captured from the enclosing
/// function. Workers must *return* their shard's results and merge
/// after join — merge order, not scheduling order, then defines the
/// output (see `crates/measure/src/pipeline.rs`).
fn rule_thread_capture(ctx: &FileCtx, parsed: &ParsedFile, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.in_test_tree {
        return out;
    }
    let code = &ctx.code;
    parser::walk_fns(&parsed.items, &mut |_item, func, _| {
        let Some(body) = &func.body else {
            return;
        };
        // All `let mut` bindings anywhere in this fn (outer candidates).
        let mut mut_locals: BTreeSet<(String, usize)> = BTreeSet::new();
        parser::walk_blocks(body, &mut |block: &Block| {
            for stmt in &block.stmts {
                if let StmtKind::Let {
                    name: Some(name),
                    is_mut: true,
                    ..
                } = &stmt.kind
                {
                    mut_locals.insert((name.clone(), stmt.start));
                }
            }
        });
        if mut_locals.is_empty() {
            return;
        }
        // Find `spawn(…)` calls inside the body.
        let mut i = body.start;
        while i < body.end.min(code.len()) {
            let t = &code[i];
            let is_spawn = t.is_ident("spawn")
                && code.get(i + 1).is_some_and(|n| n.is_punct('('))
                && i >= 1
                && (code[i - 1].is_punct('.') || code[i - 1].is_punct(':'));
            if !is_spawn {
                i += 1;
                continue;
            }
            let Some(close) = matching_paren(code, i + 1) else {
                i += 1;
                continue;
            };
            let (arg_start, arg_end) = (i + 2, close);
            // Locate the closure: optional `move`, then `|params|`.
            if let Some((body_start, params)) = closure_parts(code, arg_start, arg_end) {
                let shadowed = closure_locals(code, body_start, arg_end);
                for (name, decl_idx) in &mut_locals {
                    // The binding must be declared *outside* the closure.
                    if *decl_idx >= arg_start && *decl_idx < arg_end {
                        continue;
                    }
                    if params.contains(name) || shadowed.contains(name) {
                        continue;
                    }
                    if let Some(use_idx) = mutating_use(code, body_start, arg_end, name) {
                        let line = code.get(use_idx).map_or(t.line, |u| u.line);
                        if ctx.is_test_line(line) {
                            continue;
                        }
                        out.push(violation(
                            ctx,
                            cfg,
                            "thread-capture",
                            line,
                            format!(
                                "spawn closure mutates captured accumulator `{name}`; return the shard's result and merge after join so output order is deterministic"
                            ),
                        ));
                    }
                }
            }
            i = close + 1;
        }
    });
    out
}

/// Finds the closure inside `code[start..end)`: returns (index of the
/// first body token, parameter names).
fn closure_parts(code: &[Tok], start: usize, end: usize) -> Option<(usize, BTreeSet<String>)> {
    let mut j = start;
    if code.get(j).is_some_and(|t| t.is_ident("move")) {
        j += 1;
    }
    if !code.get(j).is_some_and(|t| t.is_punct('|')) {
        return None;
    }
    j += 1;
    let mut params = BTreeSet::new();
    // `||` (no params) lexes as two `|` tokens.
    while j < end {
        let Some(t) = code.get(j) else {
            return None;
        };
        if t.is_punct('|') {
            return Some((j + 1, params));
        }
        if t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref") {
            params.insert(t.text.clone());
        }
        j += 1;
    }
    None
}

/// Names bound by `let` inside the closure body (shadowing captures).
fn closure_locals(code: &[Tok], start: usize, end: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut j = start;
    while j < end.min(code.len()) {
        if code[j].is_ident("let") {
            let mut k = j + 1;
            while code
                .get(k)
                .is_some_and(|t| t.is_ident("mut") || t.is_ident("ref"))
            {
                k += 1;
            }
            if let Some(t) = code.get(k) {
                if t.kind == TokKind::Ident {
                    out.insert(t.text.clone());
                }
            }
        }
        j += 1;
    }
    out
}

/// First mutating use of `name` in `code[start..end)`: `name += …`,
/// `name = …` (single `=`), `name.push(…)`-family, `&mut name`, or
/// `name[…] = …`.
fn mutating_use(code: &[Tok], start: usize, end: usize, name: &str) -> Option<usize> {
    let end = end.min(code.len());
    let mut j = start;
    while j < end {
        let t = &code[j];
        if !t.is_ident(name) {
            j += 1;
            continue;
        }
        // `&mut name`
        if j >= 2 && code[j - 1].is_ident("mut") && code[j - 2].is_punct('&') {
            return Some(j);
        }
        // Skip field/path accesses of something else (`other.name`).
        if j >= 1 && (code[j - 1].is_punct('.') || code[j - 1].is_punct(':')) {
            j += 1;
            continue;
        }
        let mut k = j + 1;
        // `name[…]` indexing: skip to past the `]`.
        if code.get(k).is_some_and(|n| n.is_punct('[')) {
            let mut depth = 0i32;
            while let Some(b) = code.get(k) {
                if b.is_punct('[') {
                    depth += 1;
                } else if b.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        match (code.get(k), code.get(k + 1)) {
            // compound assignment `+=`, `-=`, … and plain `=` (not `==`).
            (Some(a), Some(b))
                if matches!(
                    a.text.as_str(),
                    "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|"
                ) && b.is_punct('=') =>
            {
                return Some(j);
            }
            (Some(a), b)
                if a.is_punct('=')
                    && !b.is_some_and(|n| n.is_punct('='))
                    && !code.get(k.wrapping_sub(1)).is_some_and(|p| {
                        p.is_punct('=') || p.is_punct('!') || p.is_punct('<') || p.is_punct('>')
                    }) =>
            {
                // Ensure it's assignment, not `==` read: the token before
                // `=` is the name/`]` itself here, so this is a write.
                return Some(j);
            }
            (Some(a), Some(b))
                if a.is_punct('.')
                    && b.kind == TokKind::Ident
                    && MUT_METHODS.iter().any(|m| b.is_ident(m))
                    && code.get(k + 2).is_some_and(|p| p.is_punct('(')) =>
            {
                return Some(j);
            }
            _ => {}
        }
        j += 1;
    }
    None
}
