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
//!    whether it returns a value and whether that value is a
//!    `Result`/`Report`), the first *unjustified* site of each hazard
//!    kind in its body — panic, wall-clock, RNG minting and unordered
//!    hash iteration, taken from the file's one site list per kind
//!    ([`FileCtx::hazards`], which the per-file rules report) — every
//!    call it makes, and the calls it discards. A site covered by a
//!    `lint:allow` naming the base rule (or the matching
//!    interprocedural rule) is *discharged*: the justification holds
//!    for every caller, so it does not propagate.
//! 2. **Call graph** ([`CallGraph::build`]): conservative name/path
//!    resolution scoped by the crate DAG. A call resolves only into the
//!    caller's crate and the crates [`config::allowed_deps`] lists for
//!    it; root-package files and crates outside the DAG are unscoped, as
//!    the `layering` rule treats them, nothing resolves into the root
//!    package, and another crate's free fn must be `pub`. In scope,
//!    method calls (`x.f()`) link to every
//!    method named `f`; `Type::f(…)` links to the associated fns of
//!    `Type` (falling back to free fns for module paths); bare `f(…)`
//!    links to every free fn named `f`. Closure bodies are scanned as
//!    part of their enclosing fn, so calls made through closures are
//!    over-approximated as direct. The graph's one resolver also serves
//!    the concurrency pass and `result-dropped`.
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
use crate::dataflow;
use crate::diag::{Suppressed, Violation};
use crate::lexer::{Tok, TokKind};
use crate::parser::{self, Block, FnItem, Item, ParsedFile};
use crate::scan::{crate_of, FileCtx, Suppression};
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

/// Per hazard kind: the per-file rule that reports its sites, and the
/// interprocedural rule a `lint:allow` may name instead to discharge a
/// site for every caller.
pub const HAZARD_RULES: [(&str, &str); NHAZ] = [
    ("panic", "panic-reachable"),
    ("wall-clock", "taint-escape"),
    ("seed-flow", "seed-flow-transitive"),
    ("hash-iter", "taint-escape"),
];

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

impl CallRef {
    /// The call whose callee is the ident at `code[i]`, reading its
    /// receiver dot or `Qual::` prefix no further back than `lo`.
    pub(crate) fn at(code: &[Tok], lo: usize, i: usize) -> CallRef {
        let method = i > lo && code[i - 1].is_punct('.');
        let qual = if !method
            && i >= lo + 3
            && code[i - 1].is_punct(':')
            && code[i - 2].is_punct(':')
            && code[i - 3].kind == TokKind::Ident
        {
            code[i - 3].text.clone()
        } else {
            String::new()
        };
        CallRef {
            qual,
            name: code[i].text.clone(),
            method,
        }
    }
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
    /// Whether the return type's head is `Result` or `Report`.
    pub returns_result: bool,
    /// Per hazard kind ([`H_PANIC`], …): line of the first unjustified
    /// site in the body (0 = none).
    pub own: [u32; NHAZ],
    /// Deduplicated calls the body makes.
    pub calls: Vec<CallRef>,
    /// Calls the body discards, with their lines (`result-dropped`).
    pub discards: Vec<(CallRef, u32)>,
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
}

/// One `lint:allow` directive as every pass matches it: the per-file
/// rules, hazard discharge at extraction and the central passes all
/// find it through `justify`, which marks it used, and a directive
/// nothing used is reported once, by [`unused_allows`].
#[derive(Debug, Clone)]
pub struct InterprocAllow {
    /// The directive.
    pub dir: Suppression,
    /// Whether the directive has discharged a hazard site or matched a
    /// violation.
    pub used: bool,
}

/// One file's contribution to the workspace passes.
#[derive(Debug, Clone, Default)]
pub struct FileSummaries {
    /// Function summaries in source order.
    pub fns: Vec<FnSummary>,
    /// The file's `lint:allow` directives, with the hazard discharges
    /// extraction made marked used.
    pub allows: Vec<InterprocAllow>,
}

/// The one `lint:allow` matcher: the first of `allows` that names
/// `rule` and covers `line`, marked used.
pub(crate) fn justify<'a>(
    allows: impl IntoIterator<Item = &'a mut InterprocAllow>,
    rule: &str,
    line: u32,
) -> Option<&'a InterprocAllow> {
    let a = allows.into_iter().find(|a| {
        a.dir.covers.0 <= line && line <= a.dir.covers.1 && a.dir.rules.iter().any(|r| r == rule)
    })?;
    a.used = true;
    Some(a)
}

/// Extracts function summaries and the directives from one parsed
/// file. Test trees contribute no fns; fns declared on test lines are
/// skipped; hazard sites come from the file's site lists, so a site
/// that is fine where it is written never taints a caller.
pub fn extract(ctx: &FileCtx, parsed: &ParsedFile) -> FileSummaries {
    let mut out = FileSummaries {
        fns: Vec::new(),
        allows: ctx
            .suppressions
            .iter()
            .map(|dir| InterprocAllow {
                dir: dir.clone(),
                used: false,
            })
            .collect(),
    };
    if ctx.in_test_tree {
        return out;
    }
    let mut fns: Vec<(&Item, &FnItem, String)> = Vec::new();
    parser::walk_fns(&parsed.items, &mut |item, func, impl_type| {
        fns.push((item, func, impl_type.to_string()));
    });
    for (item, func, impl_type) in fns {
        if ctx.is_test_line(item.line) {
            continue;
        }
        let Some(body) = &func.body else {
            continue;
        };
        let head = func.ret_head();
        let mut s = FnSummary {
            name: func.name.clone(),
            impl_type,
            file: ctx.rel_path.clone(),
            line: item.line,
            snippet: ctx.snippet(item.line),
            is_pub: item.is_pub,
            has_self: func.has_self,
            ret_nonempty: !func.ret.is_empty(),
            returns_result: head == "Result" || head == "Report",
            calls: body_calls(ctx, body),
            discards: dataflow::discarded_calls(ctx, body),
            ..FnSummary::default()
        };
        // Nested fn items' ranges are inside their parent's, so their
        // sites are conservatively attributed to both.
        for (h, (base, inter)) in HAZARD_RULES.iter().enumerate() {
            let sites = &ctx.hazards[h];
            let first = sites.partition_point(|site| site.tok < body.start);
            s.own[h] = sites[first..]
                .iter()
                .take_while(|site| site.tok < body.end)
                .find(|site| {
                    justify(&mut out.allows, base, site.line).is_none()
                        && justify(&mut out.allows, inter, site.line).is_none()
                })
                .map_or(0, |site| site.line);
        }
        crate::concurrency::scan_fn(ctx, func, body, &mut out.allows, &mut s);
        out.fns.push(s);
    }
    out
}

/// Call-position names that are never workspace functions: control
/// keywords and the std prelude's tuple constructors. Filtering them
/// keeps summaries small; anything else unresolvable simply produces
/// no edge.
pub(crate) const NON_CALLEES: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "let", "else", "move", "fn",
    "unsafe", "await", "Some", "None", "Ok", "Err",
];

/// The deduplicated calls in one fn body's token range: `name(`,
/// `recv.name(` and `Qual::name(`.
fn body_calls(ctx: &FileCtx, body: &Block) -> Vec<CallRef> {
    let code = &ctx.code;
    let mut calls: BTreeSet<CallRef> = BTreeSet::new();
    for i in body.start..body.end.min(code.len()) {
        let t = &code[i];
        if t.kind != TokKind::Ident
            || ctx.is_test_line(t.line)
            || !code.get(i + 1).is_some_and(|n| n.is_punct('('))
            || NON_CALLEES.iter().any(|k| t.is_ident(k))
        {
            continue;
        }
        calls.insert(CallRef::at(code, body.start, i));
    }
    calls.into_iter().collect()
}

/// The workspace call graph with propagated hazard state.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function summaries, in (file, declaration) order. The node
    /// id is the index; ids are deterministic because file order is.
    pub nodes: Vec<FnSummary>,
    /// The one call resolver over `nodes`.
    resolver: Resolver,
    /// Resolved callee node ids per node, sorted and deduplicated.
    edges: Vec<Vec<u32>>,
    /// Per-node, per-hazard: node id of the minimum-id reachable
    /// source fn with an unjustified site ([`NONE`] when unreachable).
    sources: Vec<[u32; NHAZ]>,
}

/// Conservative call-target resolution over a node set, scoped by the
/// crate DAG (see the module docs): free fns and methods by name,
/// associated fns by (type, name). Duplicates keep every candidate.
#[derive(Debug, Default)]
struct Resolver {
    free: BTreeMap<String, Vec<u32>>,
    methods: BTreeMap<String, Vec<u32>>,
    /// Associated fns by type, then name.
    assoc: BTreeMap<String, BTreeMap<String, Vec<u32>>>,
}

impl Resolver {
    /// Indexes every node outside the root package. Candidate lists are
    /// in node-id order.
    fn new(nodes: &[FnSummary]) -> Resolver {
        let mut r = Resolver::default();
        for (id, s) in nodes.iter().enumerate() {
            if crate_of(&s.file).is_none() {
                continue;
            }
            let id = id as u32;
            if s.impl_type.is_empty() && !s.has_self {
                r.free.entry(s.name.clone()).or_default().push(id);
            }
            if !s.impl_type.is_empty() {
                r.assoc
                    .entry(s.impl_type.clone())
                    .or_default()
                    .entry(s.name.clone())
                    .or_default()
                    .push(id);
            }
            if s.has_self {
                r.methods.entry(s.name.clone()).or_default().push(id);
            }
        }
        r
    }

    /// The candidates for call `c` from `caller` that lie in its scope,
    /// in node-id order (empty when nothing resolves).
    fn targets(&self, nodes: &[FnSummary], caller: &FnSummary, c: &CallRef) -> Vec<u32> {
        let from = crate_of(&caller.file);
        let deps = from.and_then(config::allowed_deps);
        let in_scope = |&t: &u32| {
            let callee = &nodes[t as usize];
            let to = crate_of(&callee.file);
            if to == from {
                return true;
            }
            // Another crate's free fn is callable only when `pub`; a
            // method or associated fn may come through a trait impl,
            // which carries no `pub`.
            let free = callee.impl_type.is_empty() && !callee.has_self;
            (callee.is_pub || !free)
                && deps.is_none_or(|deps| to.is_some_and(|to| deps.contains(&to)))
        };
        let pick = |ids: Option<&Vec<u32>>| -> Vec<u32> {
            ids.into_iter()
                .flatten()
                .copied()
                .filter(in_scope)
                .collect()
        };
        if c.method {
            return pick(self.methods.get(&c.name));
        }
        if c.qual.is_empty() {
            return pick(self.free.get(&c.name));
        }
        let ty = if c.qual == "Self" {
            &caller.impl_type
        } else {
            &c.qual
        };
        // A miss means the qualifier was a module path, not a type in
        // scope; fall back to free-fn resolution.
        let assoc = pick(self.assoc.get(ty).and_then(|fns| fns.get(&c.name)));
        if assoc.is_empty() {
            pick(self.free.get(&c.name))
        } else {
            assoc
        }
    }
}

impl CallGraph {
    /// Builds the graph from all files' summaries (already in sorted
    /// file order) and propagates hazards over its SCC condensation.
    pub fn build(nodes: Vec<FnSummary>) -> CallGraph {
        let resolver = Resolver::new(&nodes);
        let edges: Vec<Vec<u32>> = nodes
            .iter()
            .map(|s| {
                let mut out: BTreeSet<u32> = BTreeSet::new();
                for c in &s.calls {
                    out.extend(resolver.targets(&nodes, s, c));
                }
                out.into_iter().collect()
            })
            .collect();
        let sources = propagate(&nodes, &edges);
        CallGraph {
            nodes,
            resolver,
            edges,
            sources,
        }
    }

    /// The in-scope candidate callees of call `c` from `caller`, in
    /// node-id order: the one resolution the call graph, the
    /// concurrency pass and `result-dropped` share.
    pub(crate) fn targets(&self, caller: &FnSummary, c: &CallRef) -> Vec<u32> {
        self.resolver.targets(&self.nodes, caller, c)
    }

    /// The resolved adjacency lists (callee ids per node, sorted).
    pub fn edge_lists(&self) -> &[Vec<u32>] {
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
                if nodes[mu].own[h] != 0 {
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

/// What the passes find: each finding goes through [`justify`] against
/// its own file's directives and lands in `suppressed` under the one
/// that covers it, or in `violations`.
pub(crate) struct Findings<'a> {
    cfg: &'a Config,
    allows: &'a mut [(String, InterprocAllow)],
    /// Findings no directive covers.
    pub(crate) violations: Vec<Violation>,
    /// Findings a directive silenced.
    pub(crate) suppressed: Vec<Suppressed>,
}

impl<'a> Findings<'a> {
    pub(crate) fn new(cfg: &'a Config, allows: &'a mut [(String, InterprocAllow)]) -> Self {
        Findings {
            cfg,
            allows,
            violations: Vec::new(),
            suppressed: Vec::new(),
        }
    }

    /// Adds `v`: suppressed under the first directive of its file that
    /// names its rule and covers its line, else a violation.
    pub(crate) fn add(&mut self, v: Violation) {
        let own = self
            .allows
            .iter_mut()
            .filter(|(file, _)| *file == v.file)
            .map(|(_, a)| a);
        match justify(own, &v.rule, v.line) {
            Some(a) => self.suppressed.push(Suppressed {
                reason: a.dir.reason.clone(),
                allow_line: a.dir.line,
                violation: v,
            }),
            None => self.violations.push(v),
        }
    }

    /// Adds a central finding of `rule` at `line` of `node`'s file,
    /// shown with the fn's declaration snippet.
    pub(crate) fn emit(&mut self, rule: &str, node: &FnSummary, line: u32, message: String) {
        let v = Violation {
            rule: rule.to_string(),
            severity: self.cfg.severity(rule),
            file: node.file.clone(),
            line,
            message,
            snippet: node.snippet.clone(),
        };
        self.add(v);
    }
}

/// The three interprocedural hazard rules, evaluated over the
/// propagated graph. Unused-allow reporting is split out into
/// [`unused_allows`] so it can run after every pass has had its chance
/// to use a directive.
pub fn evaluate(
    graph: &CallGraph,
    cfg: &Config,
    allows: &mut [(String, InterprocAllow)],
) -> (Vec<Violation>, Vec<Suppressed>) {
    let mut out = Findings::new(cfg, allows);
    for (id, node) in graph.nodes.iter().enumerate() {
        if !node.is_pub || node.file.ends_with("src/main.rs") || node.file.contains("/bin/") {
            continue;
        }
        let crate_name = crate_of(&node.file);
        let src = graph.sources_of(id);
        // The source fn of hazard `h` and the witness chain to it, when
        // the hazard reaches `node` from beyond its own body.
        let reached = |h: usize| {
            (src[h] != NONE && node.own[h] == 0).then(|| {
                let s = &graph.nodes[src[h] as usize];
                (s, s.own[h], graph.witness(id, h, src[h]))
            })
        };

        if cfg.enabled("panic-reachable") && !config::panic_reachable_exempt(crate_name) {
            if let Some((s, line, via)) = reached(H_PANIC) {
                out.emit(
                    "panic-reachable",
                    node,
                    node.line,
                    format!(
                        "pub fn `{}` can reach a panic site in `{}` ({}:{line}){via}; return a typed error or justify with lint:allow(panic-reachable)",
                        node.qualified(),
                        s.qualified(),
                        s.file,
                    ),
                );
            }
        }
        if cfg.enabled("taint-escape") && node.ret_nonempty {
            if let Some((s, line, via)) =
                reached(H_WALL).filter(|_| !config::wall_clock_exempt(&node.file, crate_name))
            {
                out.emit(
                    "taint-escape",
                    node,
                    node.line,
                    format!(
                        "return value of pub fn `{}` can carry wall-clock taint from `{}` ({}:{line}){via}; route time through dns::clock or justify with lint:allow(taint-escape)",
                        node.qualified(),
                        s.qualified(),
                        s.file,
                    ),
                );
            }
            if let Some((s, line, via)) = reached(H_UNORD) {
                out.emit(
                    "taint-escape",
                    node,
                    node.line,
                    format!(
                        "return value of pub fn `{}` can carry hash-iteration-order taint from `{}` ({}:{line}){via}; sort at the source or justify with lint:allow(taint-escape)",
                        node.qualified(),
                        s.qualified(),
                        s.file,
                    ),
                );
            }
        }
        if cfg.enabled("seed-flow-transitive") && !config::seed_flow_exempt(&node.file, crate_name)
        {
            if let Some((s, line, via)) = reached(H_RNG) {
                out.emit(
                    "seed-flow-transitive",
                    node,
                    node.line,
                    format!(
                        "pub fn `{}` can reach an RNG-minting site in `{}` ({}:{line}){via}; thread &mut DetRng from the world seed or justify with lint:allow(seed-flow-transitive)",
                        node.qualified(),
                        s.qualified(),
                        s.file,
                    ),
                );
            }
        }
    }
    (out.violations, out.suppressed)
}

/// Unused-allow sites: `(file, line)` pairs for directives that
/// discharged no site and silenced no finding. Must run after every
/// pass has had its chance to mark directives used.
pub fn unused_allows(allows: &[(String, InterprocAllow)]) -> Vec<(String, u32)> {
    allows
        .iter()
        .filter(|(_, a)| !a.used)
        .map(|(file, a)| (file.clone(), a.dir.line))
        .collect()
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
