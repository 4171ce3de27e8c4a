//! Interprocedural layer: per-function summaries, a workspace call
//! graph, and transitive hazard propagation.
//!
//! The per-file rules see a hazard only where it is written; helper
//! indirection hides it from the API surface exactly the way the
//! paper's hidden transitive dependencies hide a DNS provider behind a
//! CDN. This module closes that gap in three steps:
//!
//! 1. **Summaries** ([`extract`]): for every function in a file,
//!    record its declaration (name, enclosing impl type, visibility,
//!    whether it returns a value) and the first *unjustified* hazard
//!    site of each kind in its body — panic (`panic!`/`unreachable!`/
//!    `unwrap`/`expect`), wall-clock (`Instant`/`SystemTime`), RNG minting
//!    (`DetRng::new`, `Xoshiro256pp::seed_from_u64`/`from_seed`), and
//!    unordered hash iteration — plus every call it makes. Indexing
//!    sites and explicit `let _ =` discards are counted as summary
//!    statistics. A site covered by a `lint:allow` naming the base
//!    rule (or the matching interprocedural rule) is *discharged*: the
//!    justification holds for every caller, so it does not propagate.
//! 2. **Call graph** ([`CallGraph::build`]): conservative name/path
//!    resolution across the whole workspace. Method calls (`x.f()`)
//!    link to every method named `f`; `Type::f(…)` links to the
//!    associated fns of `Type` (falling back to free fns for module
//!    paths); bare `f(…)` links to every free fn named `f`. Closure
//!    bodies are scanned as part of their enclosing fn, so calls made
//!    through closures are over-approximated as direct.
//! 3. **Propagation** ([`CallGraph::build`] + [`evaluate`]): hazards
//!    flow callee→caller over the condensation of the graph. The
//!    condensation comes from `sccs`, the lint's one iterative Tarjan
//!    pass, which the concurrency layer shares for its call-graph
//!    facts and its lock-order cycles. Components come callee-first,
//!    so one linear pass suffices; the recorded source for each hazard
//!    is the minimum node id, which makes the result independent of
//!    edge order.
//!
//! Three rules read the propagated state: `panic-reachable` (a pub fn
//! outside bench/testkit can reach a panic site beyond its own body),
//! `taint-escape` (wall-clock or iteration-order taint can reach a pub
//! fn's return value), and `seed-flow-transitive` (a pub fn outside
//! the seeded crates can reach an RNG-minting site). Each fires only
//! when the function has no unjustified site of that kind in its *own*
//! body — those are already reported, at the site, by the per-file
//! rules.

use crate::config::{self, Config};
use crate::dataflow::path_call;
use crate::diag::{Suppressed, Violation};
use crate::lexer::TokKind;
use crate::parser::{Block, FnItem, Item, ItemKind, ParsedFile, StmtKind};
use crate::rules;
use crate::scan::FileCtx;
use std::collections::{BTreeMap, BTreeSet};

/// Number of propagated hazard kinds.
pub const NHAZ: usize = 4;
/// Hazard index: a panic site is reachable.
pub const H_PANIC: usize = 0;
/// Hazard index: a wall-clock read is reachable.
pub const H_WALL: usize = 1;
/// Hazard index: an RNG-minting site is reachable.
pub const H_RNG: usize = 2;
/// Hazard index: unordered hash iteration is reachable.
pub const H_UNORD: usize = 3;

/// "No source" sentinel in per-node/per-component hazard sources.
const NONE: u32 = u32::MAX;

/// Hop cap when reconstructing a witness chain (defensive; workspace
/// call chains are far shorter).
const MAX_WITNESS_HOPS: usize = 12;

/// One call site, as recorded in a function summary.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallRef {
    /// Path qualifier immediately before `::name(` (empty for bare and
    /// method calls). `Self` is resolved against the caller's impl.
    pub qual: String,
    /// Callee name.
    pub name: String,
    /// Whether this was a method call (`receiver.name(…)`).
    pub method: bool,
}

/// Per-function summary: everything propagation needs to know about
/// one fn without re-reading its source.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// Head identifier of the enclosing `impl` type (empty for free fns).
    pub impl_type: String,
    /// Repo-relative path of the defining file.
    pub file: String,
    /// 1-based line of the declaration.
    pub line: u32,
    /// Trimmed declaration-line text, for diagnostics on warm runs.
    pub snippet: String,
    /// Whether the fn is `pub` (any visibility scope).
    pub is_pub: bool,
    /// Whether the fn takes a `self` receiver.
    pub has_self: bool,
    /// Whether the fn returns a value (non-`()` return type).
    pub ret_nonempty: bool,
    /// Line of the first unjustified panic site in the body (0 = none).
    pub panic_line: u32,
    /// Line of the first unjustified wall-clock read (0 = none).
    pub wall_line: u32,
    /// Line of the first unjustified RNG-minting site (0 = none).
    pub rng_line: u32,
    /// Line of the first unjustified unordered hash iteration (0 = none).
    pub unordered_line: u32,
    /// Count of indexing sites (`name[…]`) in the body. Summarized but
    /// not gated: without type information every slice read would taint
    /// its callers.
    pub index_count: u32,
    /// Count of explicit `let _ =` discards in the body. The precise
    /// per-file `result-dropped` rule gates these; the summary keeps
    /// the statistic available to tooling.
    pub discard_count: u32,
    /// Deduplicated calls the body makes.
    pub calls: Vec<CallRef>,
    /// Concurrency facet: guard regions, lock acquisitions, blocking
    /// operations, and atomic accesses (see [`crate::concurrency`]).
    pub conc: crate::concurrency::ConcFacet,
}

impl FnSummary {
    /// Display name: `Type::name` for methods/associated fns, `name`
    /// for free fns.
    pub fn qualified(&self) -> String {
        if self.impl_type.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.impl_type, self.name)
        }
    }

    /// First unjustified site line of hazard `h` in this fn's own body
    /// (0 = none).
    pub fn own_site(&self, h: usize) -> u32 {
        match h {
            H_PANIC => self.panic_line,
            H_WALL => self.wall_line,
            H_RNG => self.rng_line,
            _ => self.unordered_line,
        }
    }
}

/// A suppression directive naming at least one interprocedural rule.
/// These are matched centrally (per-file passes cannot see reachability)
/// and travel with the file's summaries.
#[derive(Debug, Clone)]
pub struct InterprocAllow {
    /// The centrally-matched rules the directive names (interprocedural
    /// hazard rules and concurrency rules alike).
    pub rules: Vec<String>,
    /// Whether *every* rule the directive names is centrally matched.
    /// Only then do the central passes own its unused-allow reporting.
    pub all_interproc: bool,
    /// Justification text.
    pub reason: String,
    /// Line of the directive.
    pub line: u32,
    /// Inclusive line range the directive covers.
    pub covers: (u32, u32),
    /// Whether the directive has discharged a hazard site or matched a
    /// violation. Extraction-time discharges are recorded with the file.
    pub used: bool,
}

/// One file's contribution to the interprocedural pass.
#[derive(Debug, Clone, Default)]
pub struct FileSummaries {
    /// Function summaries in source order.
    pub fns: Vec<FnSummary>,
    /// Suppressions naming interprocedural rules.
    pub allows: Vec<InterprocAllow>,
}

/// Extracts function summaries and interprocedural allows from one
/// parsed file. Test trees contribute nothing; fns declared on test
/// lines are skipped; hazard sites follow the same exemptions as the
/// per-file rules, so a site that is fine where it is written never
/// taints a caller.
pub fn extract(ctx: &FileCtx, parsed: &ParsedFile) -> FileSummaries {
    if ctx.in_test_tree {
        return FileSummaries::default();
    }
    let mut out = FileSummaries {
        fns: Vec::new(),
        allows: collect_allows(ctx),
    };
    let hash_names = rules::collect_hash_names(&ctx.code);
    let mut fns: Vec<(&Item, &FnItem, String)> = Vec::new();
    walk_with_impl(&parsed.items, "", &mut |item, func, impl_type| {
        fns.push((item, func, impl_type.to_string()));
    });
    for (item, func, impl_type) in fns {
        if ctx.is_test_line(item.line) {
            continue;
        }
        let Some(body) = &func.body else {
            continue;
        };
        let mut s = FnSummary {
            name: func.name.clone(),
            impl_type,
            file: ctx.rel_path.clone(),
            line: item.line,
            snippet: ctx.snippet(item.line),
            is_pub: item.is_pub,
            has_self: func.has_self,
            ret_nonempty: !func.ret.is_empty(),
            ..FnSummary::default()
        };
        scan_body(ctx, body, &hash_names, &mut out.allows, &mut s);
        crate::concurrency::scan_fn(ctx, func, body, &mut out.allows, &mut s);
        s.discard_count = count_discards(body);
        out.fns.push(s);
    }
    out
}

/// Retains the suppressions that name at least one centrally-matched
/// rule (interprocedural or concurrency), in directive order.
fn collect_allows(ctx: &FileCtx) -> Vec<InterprocAllow> {
    ctx.suppressions
        .iter()
        .filter(|s| s.rules.iter().any(|r| config::is_central_rule(r)))
        .map(|s| InterprocAllow {
            rules: s
                .rules
                .iter()
                .filter(|r| config::is_central_rule(r))
                .cloned()
                .collect(),
            all_interproc: s.rules.iter().all(|r| config::is_central_rule(r)),
            reason: s.reason.clone(),
            line: s.line,
            covers: s.covers,
            used: false,
        })
        .collect()
}

/// Whether a hazard site at `line` is justified: covered by a
/// suppression naming the base (per-file) rule, or by an
/// interprocedural allow naming `inter_rule` (which is marked used —
/// it discharged the site for every caller).
fn site_justified(
    ctx: &FileCtx,
    allows: &mut [InterprocAllow],
    line: u32,
    base_rule: &str,
    inter_rule: &str,
) -> bool {
    if ctx
        .suppressions
        .iter()
        .any(|s| s.rules.iter().any(|r| r == base_rule) && s.covers.0 <= line && line <= s.covers.1)
    {
        return true;
    }
    for a in allows.iter_mut() {
        if a.rules.iter().any(|r| r == inter_rule) && a.covers.0 <= line && line <= a.covers.1 {
            a.used = true;
            return true;
        }
    }
    false
}

/// Call-position names that are never workspace functions: control
/// keywords and the std prelude's tuple constructors. Filtering them
/// keeps summaries small; anything else unresolvable simply produces
/// no edge.
pub(crate) const NON_CALLEES: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "let", "else", "move", "fn",
    "unsafe", "await", "Some", "None", "Ok", "Err",
];

/// Scans one fn body's token range for hazard sites and calls. Nested
/// fn items' ranges are inside their parent's, so their sites are
/// conservatively attributed to both.
fn scan_body(
    ctx: &FileCtx,
    body: &Block,
    hash_names: &BTreeSet<String>,
    allows: &mut [InterprocAllow],
    s: &mut FnSummary,
) {
    let code = &ctx.code;
    let crate_name = ctx.crate_name.as_deref();
    let panic_site_exempt = ctx.is_bin || crate_name == Some("bench");
    let wall_site_exempt = config::wall_clock_exempt(&ctx.rel_path, crate_name);
    let rng_site_exempt = config::seed_flow_exempt(&ctx.rel_path, crate_name);
    let mut calls: BTreeSet<CallRef> = BTreeSet::new();
    let end = body.end.min(code.len());
    for i in body.start..end {
        let t = &code[i];
        if t.kind != TokKind::Ident || ctx.is_test_line(t.line) {
            continue;
        }
        let prev_dot = i > body.start && code[i - 1].is_punct('.');
        let next_paren = code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let next_bang = code.get(i + 1).is_some_and(|n| n.is_punct('!'));

        // Panic sites, mirroring rule_panic's exemptions.
        if !panic_site_exempt
            && s.panic_line == 0
            && ((prev_dot && next_paren && (t.is_ident("unwrap") || t.is_ident("expect")))
                || ((t.is_ident("panic") || t.is_ident("unreachable")) && next_bang))
            && !site_justified(ctx, allows, t.line, "panic", "panic-reachable")
        {
            s.panic_line = t.line;
        }

        // Wall-clock reads, mirroring rule_wall_clock.
        if !wall_site_exempt
            && s.wall_line == 0
            && (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && !site_justified(ctx, allows, t.line, "wall-clock", "taint-escape")
        {
            s.wall_line = t.line;
        }

        // RNG-minting sites, mirroring rule_seed_flow.
        if !rng_site_exempt && s.rng_line == 0 {
            let is_ctor = (t.is_ident("DetRng") && path_call(code, i, "new"))
                || (t.is_ident("Xoshiro256pp")
                    && (path_call(code, i, "seed_from_u64") || path_call(code, i, "from_seed")));
            if is_ctor && !site_justified(ctx, allows, t.line, "seed-flow", "seed-flow-transitive")
            {
                s.rng_line = t.line;
            }
        }

        // Unordered hash iteration, mirroring rule_hash_iter.
        if s.unordered_line == 0 && !hash_names.is_empty() {
            let method_iter = rules::ITER_METHODS.iter().any(|m| t.is_ident(m))
                && i >= body.start + 2
                && code[i - 1].is_punct('.')
                && code[i - 2].kind == TokKind::Ident
                && hash_names.contains(code[i - 2].text.as_str())
                && next_paren
                && !rules::sanctioned(code, i);
            let loop_site = if t.is_ident("for") {
                rules::for_loop_receiver(code, i).filter(|(idx, recv)| {
                    hash_names.contains(recv.as_str()) && !rules::sanctioned(code, *idx)
                })
            } else {
                None
            };
            if let Some((idx, _)) = loop_site {
                if !site_justified(ctx, allows, code[idx].line, "hash-iter", "taint-escape") {
                    s.unordered_line = code[idx].line;
                }
            } else if method_iter
                && !site_justified(ctx, allows, t.line, "hash-iter", "taint-escape")
            {
                s.unordered_line = t.line;
            }
        }

        // Indexing sites (summarized, not gated).
        if code.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            s.index_count += 1;
        }

        // Call sites: `name(` / `recv.name(` / `Qual::name(`.
        if next_paren && !NON_CALLEES.iter().any(|k| t.is_ident(k)) {
            let qual = if i >= body.start + 3
                && code[i - 1].is_punct(':')
                && code[i - 2].is_punct(':')
                && code[i - 3].kind == TokKind::Ident
            {
                code[i - 3].text.clone()
            } else {
                String::new()
            };
            calls.insert(CallRef {
                method: prev_dot,
                qual: if prev_dot { String::new() } else { qual },
                name: t.text.clone(),
            });
        }
    }
    s.calls = calls.into_iter().collect();
}

/// Counts explicit `let _ =` discards in a body, nested blocks included.
fn count_discards(body: &Block) -> u32 {
    let mut n = 0u32;
    let mut stack = vec![body];
    while let Some(b) = stack.pop() {
        for stmt in &b.stmts {
            if matches!(stmt.kind, StmtKind::Let { discard: true, .. }) {
                n += 1;
            }
            for nested in &stmt.nested {
                stack.push(nested);
            }
        }
    }
    n
}

/// Walks every fn with the head type of its enclosing `impl` block (an
/// empty string for free fns). Fns nested in statement position are
/// free; [`crate::parser::walk_fns`] lacks the impl context, hence the
/// local walker.
fn walk_with_impl<'a>(
    items: &'a [Item],
    impl_type: &str,
    f: &mut dyn FnMut(&'a Item, &'a FnItem, &str),
) {
    for item in items {
        walk_item(item, impl_type, f);
    }
}

fn walk_item<'a>(item: &'a Item, impl_type: &str, f: &mut dyn FnMut(&'a Item, &'a FnItem, &str)) {
    match &item.kind {
        ItemKind::Fn(func) => {
            f(item, func, impl_type);
            if let Some(body) = &func.body {
                walk_body(body, f);
            }
        }
        ItemKind::Mod { items, .. } => walk_with_impl(items, "", f),
        ItemKind::Impl { type_name, items } => walk_with_impl(items, type_name, f),
        _ => {}
    }
}

fn walk_body<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Item, &'a FnItem, &str)) {
    for stmt in &block.stmts {
        if let StmtKind::Item(item) = &stmt.kind {
            walk_item(item, "", f);
        }
        for b in &stmt.nested {
            walk_body(b, f);
        }
    }
}

/// The workspace call graph with propagated hazard state.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function summaries, in (file, declaration) order. The node
    /// id is the index; ids are deterministic because file order is.
    pub nodes: Vec<FnSummary>,
    /// Resolved callee node ids per node, sorted and deduplicated.
    edges: Vec<Vec<u32>>,
    /// Per-node, per-hazard: node id of the minimum-id reachable
    /// source fn with an unjustified site ([`NONE`] when unreachable).
    sources: Vec<[u32; NHAZ]>,
}

/// Conservative call-target resolution over a node set: free fns and
/// methods by name, associated fns by (type, name). Duplicates keep
/// every candidate. Shared by [`CallGraph::build`] and the concurrency
/// pass's helper-guard resolution.
pub(crate) struct Resolver<'a> {
    free: BTreeMap<&'a str, Vec<u32>>,
    methods: BTreeMap<&'a str, Vec<u32>>,
    assoc: BTreeMap<(&'a str, &'a str), Vec<u32>>,
}

impl<'a> Resolver<'a> {
    /// Indexes the node set. Candidate lists are in node-id order.
    pub(crate) fn new(nodes: &'a [FnSummary]) -> Resolver<'a> {
        let mut free: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        let mut assoc: BTreeMap<(&str, &str), Vec<u32>> = BTreeMap::new();
        for (id, s) in nodes.iter().enumerate() {
            let id = id as u32;
            if s.impl_type.is_empty() && !s.has_self {
                free.entry(&s.name).or_default().push(id);
            }
            if !s.impl_type.is_empty() {
                assoc.entry((&s.impl_type, &s.name)).or_default().push(id);
            }
            if s.has_self {
                methods.entry(&s.name).or_default().push(id);
            }
        }
        Resolver {
            free,
            methods,
            assoc,
        }
    }

    /// Candidate callee ids for one call site from `caller`, in node-id
    /// order (empty when nothing resolves).
    pub(crate) fn targets<'s>(&'s self, caller: &'s FnSummary, c: &'s CallRef) -> &'s [u32] {
        let targets: Option<&Vec<u32>> = if c.method {
            self.methods.get(c.name.as_str())
        } else if !c.qual.is_empty() {
            let ty: &str = if c.qual == "Self" {
                &caller.impl_type
            } else {
                &c.qual
            };
            // A miss means the qualifier was a module path, not a
            // type; fall back to free-fn resolution.
            self.assoc
                .get(&(ty, c.name.as_str()))
                .or_else(|| self.free.get(c.name.as_str()))
        } else {
            self.free.get(c.name.as_str())
        };
        targets.map(Vec::as_slice).unwrap_or(&[])
    }
}

impl CallGraph {
    /// Builds the graph from all files' summaries (already in sorted
    /// file order) and propagates hazards over its SCC condensation.
    pub fn build(nodes: Vec<FnSummary>) -> CallGraph {
        let n = nodes.len();
        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); n];
        {
            let resolver = Resolver::new(&nodes);
            for (id, s) in nodes.iter().enumerate() {
                let mut out: BTreeSet<u32> = BTreeSet::new();
                for c in &s.calls {
                    out.extend(resolver.targets(s, c).iter().copied());
                }
                edges[id] = out.into_iter().collect();
            }
        }
        let sources = propagate(&nodes, &edges);
        CallGraph {
            nodes,
            edges,
            sources,
        }
    }

    /// The resolved adjacency lists (callee ids per node, sorted).
    pub(crate) fn edge_lists(&self) -> &[Vec<u32>] {
        &self.edges
    }

    /// The propagated hazard sources of node `id`.
    pub fn sources_of(&self, id: usize) -> [u32; NHAZ] {
        self.sources.get(id).copied().unwrap_or([NONE; NHAZ])
    }

    /// Reconstructs a witness call chain from node `from` to the
    /// hazard-`h` source node `src`, as ` via a -> b -> c`. Greedy and
    /// deterministic: each hop takes the smallest-id unvisited callee
    /// whose propagated source is still `src`. Returns an empty string
    /// when `from` is the source itself or no chain is found within
    /// the hop cap.
    fn witness(&self, from: usize, h: usize, src: u32) -> String {
        if from as u32 == src {
            return String::new();
        }
        let mut chain = vec![from];
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        visited.insert(from);
        let mut cur = from;
        for _ in 0..MAX_WITNESS_HOPS {
            let next = self
                .edges
                .get(cur)
                .into_iter()
                .flatten()
                .map(|&w| w as usize)
                .find(|&w| !visited.contains(&w) && (w as u32 == src || self.sources[w][h] == src));
            let Some(w) = next else {
                return String::new();
            };
            chain.push(w);
            visited.insert(w);
            if w as u32 == src {
                let names: Vec<String> = chain.iter().map(|&i| self.nodes[i].qualified()).collect();
                return format!(" via {}", names.join(" -> "));
            }
            cur = w;
        }
        String::new()
    }
}

/// Strongly connected components of a graph given as successor lists,
/// by iterative Tarjan — the lint's one SCC pass. Returns each node's
/// component id and each component's members. Components come in
/// emission order, which is callee-first: a component comes after every
/// other component its members have edges into, so a pass in this
/// order sees each callee's result before any caller needs it. Roots
/// are tried in node-id order and edges in list order, so the
/// numbering is a function of the graph alone.
pub(crate) fn sccs(edges: &[Vec<u32>]) -> (Vec<u32>, Vec<Vec<u32>>) {
    let n = edges.len();
    let mut index_of = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![u32::MAX; n];
    let mut comps: Vec<Vec<u32>> = Vec::new();
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
            // v is exhausted: pop, merge low into parent, and emit a
            // component when v is its root.
            dfs.pop();
            if let Some(&(p, _)) = dfs.last() {
                let pu = p as usize;
                low[pu] = low[pu].min(low[vu]);
            }
            if low[vu] != index_of[vu] {
                continue;
            }
            let c = comps.len() as u32;
            let mut members: Vec<u32> = Vec::new();
            while let Some(w) = stack.pop() {
                on_stack[w as usize] = false;
                comp_of[w as usize] = c;
                members.push(w);
                if w == v {
                    break;
                }
            }
            comps.push(members);
        }
    }
    (comp_of, comps)
}

/// Propagates hazard sources callee→caller over the SCC condensation:
/// in [`sccs`]'s callee-first order each component's sources are final
/// the moment it is reached. The source kept per component is the
/// minimum contributing node id — independent of traversal order.
fn propagate(nodes: &[FnSummary], edges: &[Vec<u32>]) -> Vec<[u32; NHAZ]> {
    let (comp_of, comps) = sccs(edges);
    let mut comp_sources: Vec<[u32; NHAZ]> = Vec::with_capacity(comps.len());
    for (c, members) in comps.iter().enumerate() {
        let mut src = [NONE; NHAZ];
        for &m in members {
            let mu = m as usize;
            for (h, s) in src.iter_mut().enumerate() {
                if nodes[mu].own_site(h) != 0 {
                    *s = (*s).min(m);
                }
            }
            for &w in &edges[mu] {
                let wc = comp_of[w as usize] as usize;
                if wc == c {
                    continue;
                }
                for (s, callee) in src.iter_mut().zip(comp_sources[wc]) {
                    *s = (*s).min(callee);
                }
            }
        }
        comp_sources.push(src);
    }
    comp_of.iter().map(|&c| comp_sources[c as usize]).collect()
}

/// The three interprocedural hazard rules, evaluated over the
/// propagated graph. Unused-allow reporting is split out into
/// [`unused_allows`] so it can run after *both* central passes (this
/// one and [`crate::concurrency::evaluate`] share the allow list).
pub fn evaluate(
    graph: &CallGraph,
    cfg: &Config,
    allows: &mut [(String, InterprocAllow)],
) -> (Vec<Violation>, Vec<Suppressed>) {
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if !node.is_pub || node.file.ends_with("src/main.rs") || node.file.contains("/bin/") {
            continue;
        }
        let crate_name = crate_of(&node.file);
        let crate_name = crate_name.as_deref();
        let src = graph.sources_of(id);

        let mut emit = |rule: &str, message: String| {
            let v = Violation {
                rule: rule.to_string(),
                severity: cfg.severity(rule),
                file: node.file.clone(),
                line: node.line,
                message,
                snippet: node.snippet.clone(),
            };
            let matched = allows.iter_mut().find(|(file, a)| {
                file == &node.file
                    && a.rules.iter().any(|r| r == rule)
                    && a.covers.0 <= node.line
                    && node.line <= a.covers.1
            });
            match matched {
                Some((_, a)) => {
                    a.used = true;
                    suppressed.push(Suppressed {
                        violation: v,
                        reason: a.reason.clone(),
                        allow_line: a.line,
                    });
                }
                None => violations.push(v),
            }
        };

        if cfg.enabled("panic-reachable")
            && !config::panic_reachable_exempt(crate_name)
            && src[H_PANIC] != NONE
            && node.panic_line == 0
        {
            let s = &graph.nodes[src[H_PANIC] as usize];
            emit(
                "panic-reachable",
                format!(
                    "pub fn `{}` can reach a panic site in `{}` ({}:{}){}; return a typed error or justify with lint:allow(panic-reachable)",
                    node.qualified(),
                    s.qualified(),
                    s.file,
                    s.panic_line,
                    graph.witness(id, H_PANIC, src[H_PANIC]),
                ),
            );
        }
        if cfg.enabled("taint-escape") && node.ret_nonempty {
            if src[H_WALL] != NONE
                && node.wall_line == 0
                && !config::wall_clock_exempt(&node.file, crate_name)
            {
                let s = &graph.nodes[src[H_WALL] as usize];
                emit(
                    "taint-escape",
                    format!(
                        "return value of pub fn `{}` can carry wall-clock taint from `{}` ({}:{}){}; route time through dns::clock or justify with lint:allow(taint-escape)",
                        node.qualified(),
                        s.qualified(),
                        s.file,
                        s.wall_line,
                        graph.witness(id, H_WALL, src[H_WALL]),
                    ),
                );
            }
            if src[H_UNORD] != NONE && node.unordered_line == 0 {
                let s = &graph.nodes[src[H_UNORD] as usize];
                emit(
                    "taint-escape",
                    format!(
                        "return value of pub fn `{}` can carry hash-iteration-order taint from `{}` ({}:{}){}; sort at the source or justify with lint:allow(taint-escape)",
                        node.qualified(),
                        s.qualified(),
                        s.file,
                        s.unordered_line,
                        graph.witness(id, H_UNORD, src[H_UNORD]),
                    ),
                );
            }
        }
        if cfg.enabled("seed-flow-transitive")
            && !config::seed_flow_exempt(&node.file, crate_name)
            && src[H_RNG] != NONE
            && node.rng_line == 0
        {
            let s = &graph.nodes[src[H_RNG] as usize];
            emit(
                "seed-flow-transitive",
                format!(
                    "pub fn `{}` can reach an RNG-minting site in `{}` ({}:{}){}; thread &mut DetRng from the world seed or justify with lint:allow(seed-flow-transitive)",
                    node.qualified(),
                    s.qualified(),
                    s.file,
                    s.rng_line,
                    graph.witness(id, H_RNG, src[H_RNG]),
                ),
            );
        }
    }
    (violations, suppressed)
}

/// Unused-allow sites: `(file, line)` pairs for directives that name
/// *only* centrally-matched rules and silenced nothing (mixed
/// directives stay owned by the per-file pass). Must run after every
/// central pass has had its chance to mark directives used.
pub fn unused_allows(allows: &[(String, InterprocAllow)]) -> Vec<(String, u32)> {
    allows
        .iter()
        .filter(|(_, a)| !a.used && a.all_interproc)
        .map(|(file, a)| (file.clone(), a.line))
        .collect()
}

fn crate_of(rel: &str) -> Option<String> {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(|s| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::sccs;

    /// Two cycles joined by a chain, plus a caller of the first cycle
    /// that no earlier root reaches: `5 → {0 ⇄ 1} → 2 → {3 ⇄ 4}`.
    #[test]
    fn sccs_emits_components_callee_first() {
        let edges: Vec<Vec<u32>> = vec![
            vec![1],    // 0
            vec![0, 2], // 1
            vec![3],    // 2
            vec![4],    // 3
            vec![3],    // 4
            vec![0],    // 5
        ];
        let (comp_of, comps) = sccs(&edges);
        assert_eq!(comp_of, vec![2, 2, 1, 0, 0, 3]);
        assert_eq!(comps, vec![vec![4, 3], vec![2], vec![1, 0], vec![5]]);
        // Callee-first: every edge stays inside its component or leads
        // to one emitted earlier.
        for (v, out) in edges.iter().enumerate() {
            for &w in out {
                assert!(comp_of[w as usize] <= comp_of[v], "{v} -> {w}");
            }
        }
    }
}
