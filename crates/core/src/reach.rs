//! Memoized reverse reachability.
//!
//! [`crate::metrics::Metrics::dependent_sites`] answers "which sites
//! depend on provider `p`?" with one reverse BFS per provider — ranking
//! every provider of a kind repeats the same frontier expansions over
//! and over, so a full ranking scales as (providers × full BFS). A
//! [`ReachIndex`] shares that work: it condenses the provider-consumer
//! subgraph into strongly connected components once, then computes each
//! component's dependent-site set in a single pass over the
//! condensation, so every provider's answer is a table lookup.
//!
//! Correctness under cycles is the point of the SCC step: naive
//! per-provider memoization is wrong when providers depend on each
//! other mutually (the set "reachable from `p`" is not a function of
//! `p`'s direct consumers alone), but every member of an SCC reaches
//! exactly the same sites, and Tarjan's algorithm emits components in
//! reverse topological order — all consumer components of `C` are
//! finished before `C` itself — so one union pass suffices. The result
//! equals the BFS for every provider, which the tests here and
//! `tests/parallel_determinism.rs` assert.
//!
//! One routine does the condensation for both indexes. `condense` runs
//! the iterative Tarjan pass and builds each component's set as the
//! component is emitted; it reads consumer rows through the small
//! `ConsumerRows` abstraction, implemented once for [`DepGraph`]'s CSR
//! in-edge rows (no adjacency materialization) and once for
//! [`MutableReach`]'s owned rows, and is monomorphized for each. The
//! edge filter (criticality and the option-allowed hop kinds) and the
//! per-component set builder exist once and are shared by the Tarjan
//! pass and by `MutableReach`'s patches. The only per-provider state is
//! a [`SiteSet`] bitset per component.
//!
//! Invalidation: an index borrows its graph immutably for its entire
//! lifetime, so it can never observe a stale graph — rebuilding after a
//! mutation is enforced at compile time (the columnar [`DepGraph`] is
//! immutable once built). The index also deliberately has no hooks into
//! the *behavioral* layer: schedule-aware outage questions
//! (`OutageIndex::affected_at`) probe the simulator afresh at every
//! instant precisely because availability at time `t` is not a graph
//! property, so nothing cached here can go stale across ticks.

use crate::graph::{DepGraph, NodeId, NodeKind};
use crate::metrics::MetricOptions;
use std::collections::BTreeMap;
use webdeps_model::{ServiceKind, SiteId};

/// A dense bitset over [`SiteId`]s.
#[derive(Debug, Clone, Default)]
pub struct SiteSet {
    words: Vec<u64>,
}

/// Sets are equal when they hold the same sites, whatever their
/// bounds: words past the end of the shorter set read as zero.
impl PartialEq for SiteSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let (head, tail) = long.split_at(short.len());
        head == short.as_slice() && tail.iter().all(|&w| w == 0)
    }
}

impl Eq for SiteSet {}

impl SiteSet {
    /// An empty set with room for raw site indexes `< bound`.
    pub fn with_bound(bound: usize) -> Self {
        SiteSet {
            words: vec![0; bound.div_ceil(64)],
        }
    }

    /// Inserts a site.
    pub fn insert(&mut self, site: SiteId) {
        let idx = site.index();
        let word = idx / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (idx % 64);
    }

    /// Membership test.
    pub fn contains(&self, site: SiteId) -> bool {
        let idx = site.index();
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: &SiteSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of sites in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sites in ascending id order. Iteration is proportional to the
    /// *population*, not the bound: each word yields its set bits via
    /// `trailing_zeros` and clear-lowest-bit, and zero words cost one
    /// comparison — this is the hot loop under serve's `SITES` and the
    /// per-site critical-dependency counts, where a 64-probe-per-word
    /// scan would burn a fixed 64× overhead on sparse sets.
    pub fn iter(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(SiteId::from_index(wi * 64 + bit))
            })
        })
    }

    /// Bytes of heap owned by the bitset.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Sentinel kind byte for site nodes.
const SITE_KIND: u8 = u8::MAX;

/// Sentinel for "no value" in dense u32 columns.
const NONE_U32: u32 = u32::MAX;

fn kind_byte(kind: ServiceKind) -> u8 {
    kind as u8
}

fn kind_back(b: u8) -> ServiceKind {
    match b {
        0 => ServiceKind::Dns,
        1 => ServiceKind::Cdn,
        2 => ServiceKind::Ca,
        _ => ServiceKind::Cloud,
    }
}

/// The edges one index configuration traverses — the BFS's traversal
/// filter, in one place for the Tarjan pass and every patch.
struct EdgeFilter {
    /// `true` indexes impact, `false` concentration.
    critical_only: bool,
    opts: MetricOptions,
}

impl EdgeFilter {
    /// Whether an edge of this criticality participates at all; a site
    /// edge needs nothing more.
    fn admits(&self, critical: bool) -> bool {
        critical || !self.critical_only
    }

    /// Whether a consumer of kind byte `consumer` reaches a provider of
    /// kind byte `provider` through an edge of this criticality: the
    /// consumer must be a provider and the hop an allowed one.
    fn step(&self, consumer: u8, provider: u8, critical: bool) -> bool {
        self.admits(critical)
            && consumer != SITE_KIND
            && self.opts.allows(kind_back(consumer), kind_back(provider))
    }
}

/// Consumer rows of a provider-consumer graph, as the condensation
/// reads them: row `v` lists the edges into node `v`, each resolving
/// to `(consumer node, critical)`.
trait ConsumerRows {
    /// One entry of a row.
    type Edge: Copy;
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Provider kind byte of node `v`; [`SITE_KIND`] for a site.
    fn kind(&self, v: usize) -> u8;
    /// The site of node `v`; `None` for a provider.
    fn site(&self, v: usize) -> Option<SiteId>;
    /// Node `v`'s row.
    fn row(&self, v: usize) -> &[Self::Edge];
    /// The consumer node and criticality of one row entry.
    fn consumer(&self, e: Self::Edge) -> (u32, bool);
}

/// [`DepGraph`]'s CSR in-edge rows, with the provider kinds unpacked
/// once into a byte column.
struct CsrRows<'g> {
    graph: &'g DepGraph,
    kinds: Vec<u8>,
}

impl<'g> CsrRows<'g> {
    fn new(graph: &'g DepGraph) -> Self {
        let kinds = (0..graph.node_count())
            .map(|v| match graph.node(NodeId(v as u32)) {
                NodeKind::Provider(_, k) => kind_byte(k),
                NodeKind::Site(_) => SITE_KIND,
            })
            .collect();
        CsrRows { graph, kinds }
    }
}

impl ConsumerRows for CsrRows<'_> {
    /// An edge id into the graph's edge columns.
    type Edge = u32;

    fn node_count(&self) -> usize {
        self.kinds.len()
    }

    fn kind(&self, v: usize) -> u8 {
        self.kinds[v]
    }

    fn site(&self, v: usize) -> Option<SiteId> {
        match self.graph.node(NodeId(v as u32)) {
            NodeKind::Site(site) => Some(site),
            NodeKind::Provider(..) => None,
        }
    }

    fn row(&self, v: usize) -> &[u32] {
        self.graph.in_edge_ids(v)
    }

    fn consumer(&self, e: u32) -> (u32, bool) {
        let (w, ek) = self.graph.edge_source(e);
        (w, ek.critical)
    }
}

/// [`MutableReach`]'s owned graph: per-node columns plus one consumer
/// row per node (node `i` is node `i` of the graph it was copied from).
struct OwnedRows {
    /// Per node: provider kind byte, [`SITE_KIND`] for sites.
    kinds: Vec<u8>,
    /// Per node: raw site index for site nodes ([`NONE_U32`] otherwise).
    site_of: Vec<u32>,
    /// Per node: consumer edges `(consumer node, critical)`.
    in_edges: Vec<Vec<(u32, bool)>>,
}

impl ConsumerRows for OwnedRows {
    type Edge = (u32, bool);

    fn node_count(&self) -> usize {
        self.kinds.len()
    }

    fn kind(&self, v: usize) -> u8 {
        self.kinds[v]
    }

    fn site(&self, v: usize) -> Option<SiteId> {
        (self.kinds[v] == SITE_KIND).then(|| SiteId(self.site_of[v]))
    }

    fn row(&self, v: usize) -> &[(u32, bool)] {
        &self.in_edges[v]
    }

    fn consumer(&self, e: (u32, bool)) -> (u32, bool) {
        e
    }
}

/// One condensation: each node's component ([`NONE_U32`] for sites)
/// and, per component in Tarjan emission order, its member nodes,
/// dependent-site set and set size.
struct Condensation {
    comp_of: Vec<u32>,
    members: Vec<Vec<u32>>,
    sets: Vec<SiteSet>,
    counts: Vec<usize>,
}

/// The one Tarjan pass: iterative Tarjan over the provider nodes of
/// `rows` along the hops `filter` admits, building each component's
/// dependent-site set as the component is emitted. Tarjan emits
/// components in reverse topological order, so every consumer
/// component's set is final before a component reads it.
fn condense<R: ConsumerRows>(rows: &R, filter: &EdgeFilter, bound: usize) -> Condensation {
    let n = rows.node_count();
    // `index_of` doubles as the visited marker (0 = unvisited, else
    // DFS index + 1).
    let mut index_of = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 1u32;
    let mut out = Condensation {
        comp_of: vec![NONE_U32; n],
        members: Vec::new(),
        sets: Vec::new(),
        counts: Vec::new(),
    };
    for start in 0..n {
        if index_of[start] != 0 || rows.kind(start) == SITE_KIND {
            continue;
        }
        index_of[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start as u32);
        on_stack[start] = true;
        // DFS frame: (node, position within its row).
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = dfs.last_mut() {
            let v = frame.0;
            let (row, kind) = (rows.row(v), rows.kind(v));
            let mut descended = false;
            while frame.1 < row.len() {
                let (w, critical) = rows.consumer(row[frame.1]);
                frame.1 += 1;
                let w = w as usize;
                if !filter.step(rows.kind(w), kind, critical) {
                    continue;
                }
                if index_of[w] == 0 {
                    index_of[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    dfs.push((w, 0));
                    descended = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index_of[w]);
                }
            }
            if descended {
                continue;
            }
            dfs.pop();
            if let Some(parent) = dfs.last() {
                low[parent.0] = low[parent.0].min(low[v]);
            }
            if low[v] != index_of[v] {
                continue;
            }
            let comp = out.sets.len() as u32;
            let mut members: Vec<u32> = Vec::new();
            while let Some(w) = stack.pop() {
                on_stack[w as usize] = false;
                out.comp_of[w as usize] = comp;
                members.push(w);
                if w as usize == v {
                    break;
                }
            }
            let set = component_set(rows, filter, bound, &members, &out.comp_of, |c| {
                &out.sets[c as usize]
            });
            out.counts.push(set.count());
            out.sets.push(set);
            out.members.push(members);
        }
    }
    out
}

/// One component's dependent-site set: the sites its members' rows
/// admit, unioned with the set of every other component one of whose
/// members consumes a member through an admitted hop. `set_of` hands
/// back those consumer components' finished sets.
fn component_set<'s, R: ConsumerRows>(
    rows: &R,
    filter: &EdgeFilter,
    bound: usize,
    members: &[u32],
    comp_of: &[u32],
    set_of: impl Fn(u32) -> &'s SiteSet,
) -> SiteSet {
    let mut set = SiteSet::with_bound(bound);
    for &m in members {
        let m = m as usize;
        let kind = rows.kind(m);
        for &e in rows.row(m) {
            let (w, critical) = rows.consumer(e);
            if !filter.admits(critical) {
                continue;
            }
            if let Some(site) = rows.site(w as usize) {
                set.insert(site);
            } else if filter.step(rows.kind(w as usize), kind, critical) {
                let c = comp_of[w as usize];
                if c != comp_of[m] {
                    debug_assert_ne!(c, NONE_U32, "consumer component emitted first");
                    set.union_with(set_of(c));
                }
            }
        }
    }
    set
}

/// Shared reverse-reachability over one `(critical_only, opts)`
/// configuration of a graph.
pub struct ReachIndex<'g> {
    graph: &'g DepGraph,
    /// Node → condensation component (`u32::MAX` for non-providers).
    comp_of: Vec<u32>,
    /// Per-component dependent-site sets, in Tarjan emission order.
    sets: Vec<SiteSet>,
    /// Per-component popcounts, precomputed so scoring is O(1).
    counts: Vec<usize>,
}

impl<'g> ReachIndex<'g> {
    /// Builds the index: SCC condensation of the allowed
    /// provider-consumer subgraph, then one dependent-site set per
    /// component. `critical_only = true` indexes impact, `false`
    /// concentration — the same switch as
    /// [`crate::metrics::Metrics::dependent_sites`]. The DFS streams the
    /// CSR in-edge rows directly and applies the traversal filter per
    /// edge.
    pub fn build(graph: &'g DepGraph, critical_only: bool, opts: &MetricOptions) -> Self {
        let filter = EdgeFilter {
            critical_only,
            opts: opts.clone(),
        };
        let Condensation {
            comp_of,
            sets,
            counts,
            ..
        } = condense(&CsrRows::new(graph), &filter, graph.site_id_bound());
        ReachIndex {
            graph,
            comp_of,
            sets,
            counts,
        }
    }

    /// Number of sites depending on `provider` — the size of
    /// [`ReachIndex::dependent_set`]. Non-provider nodes score 0, like
    /// the BFS.
    pub fn dependent_count(&self, provider: NodeId) -> usize {
        match self.comp_of.get(provider.index()) {
            Some(&c) if c != u32::MAX => self.counts[c as usize],
            _ => 0,
        }
    }

    /// The dependent-site bitset of `provider`, or `None` for
    /// non-provider nodes.
    pub fn dependent_set(&self, provider: NodeId) -> Option<&SiteSet> {
        match self.comp_of.get(provider.index()) {
            Some(&c) if c != u32::MAX => Some(&self.sets[c as usize]),
            _ => None,
        }
    }

    /// The graph this index was built over.
    pub fn graph(&self) -> &'g DepGraph {
        self.graph
    }

    /// Bytes of heap owned by the index (component map, popcounts, and
    /// every component bitset).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.comp_of.capacity() * size_of::<u32>()
            + self.counts.capacity() * size_of::<usize>()
            + self.sets.capacity() * size_of::<SiteSet>()
            + self.sets.iter().map(|s| s.heap_bytes()).sum::<usize>()
    }
}

/// A provider endpoint in a [`Churn`] delta: wire key plus service
/// kind. The service of an edge is always the kind of the provider
/// being consumed, matching how [`DepGraph::from_dataset`] wires edges.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProviderRef {
    /// Registrable-domain wire identity, e.g. `"dynect.net"`.
    pub key: String,
    /// The service this provider offers.
    pub kind: ServiceKind,
}

impl ProviderRef {
    /// Convenience constructor.
    pub fn new(key: impl Into<String>, kind: ServiceKind) -> Self {
        ProviderRef {
            key: key.into(),
            kind,
        }
    }
}

/// One churn delta against the provider-consumer graph — the events a
/// resident service must absorb without a full re-measurement: sites
/// switching CDN/DNS, providers multi-homing or dropping a dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Churn {
    /// A site gains a dependency on a provider (e.g. adopts a CDN).
    AddSiteEdge {
        /// The consuming site.
        site: SiteId,
        /// The provider gained.
        provider: ProviderRef,
        /// Whether the new dependency is critical (sole provider).
        critical: bool,
    },
    /// A site drops a dependency on a provider.
    RemoveSiteEdge {
        /// The consuming site.
        site: SiteId,
        /// The provider dropped.
        provider: ProviderRef,
        /// Criticality of the specific edge instance to remove.
        critical: bool,
    },
    /// A provider starts consuming another provider (multi-homes onto
    /// a DNS operator, fronts itself with a CDN, …).
    AddProviderEdge {
        /// The consuming provider.
        from: ProviderRef,
        /// The provider consumed.
        to: ProviderRef,
        /// Whether the new dependency is critical.
        critical: bool,
    },
    /// A provider drops a dependency on another provider.
    RemoveProviderEdge {
        /// The consuming provider.
        from: ProviderRef,
        /// The provider no longer consumed.
        to: ProviderRef,
        /// Criticality of the specific edge instance to remove.
        critical: bool,
    },
}

/// Why a churn delta could not be applied. The index is untouched when
/// an error is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnError {
    /// A removal referenced an edge that does not exist.
    NoSuchEdge {
        /// Human-readable description of the missing edge.
        detail: String,
    },
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::NoSuchEdge { detail } => write!(f, "no such edge: {detail}"),
        }
    }
}

/// How a delta was absorbed: an SCC-local patch or a full Tarjan
/// rebuild (taken automatically whenever the patch would invalidate a
/// condensation invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyKind {
    /// The condensation structure was provably unchanged; only the
    /// affected components' site sets were touched.
    Patched,
    /// The delta could merge or split strongly connected components;
    /// the whole condensation was rebuilt from scratch.
    Rebuilt,
}

/// An **epoch-versioned, incrementally patchable** reach index — the
/// index a resident query service keeps warm across churn instead of
/// rebuilding per query.
///
/// It runs the same condensation as [`ReachIndex`] (one SCC pass over
/// the allowed provider-consumer subgraph, one dependent-site bitset
/// per component) over its own copy of the graph, so it has no lifetime
/// tie to a [`DepGraph`] and can absorb [`Churn`] deltas in place:
///
/// * **site edge add** — sites are never SCC members, so the
///   condensation is untouched; the new site bit is ORed into the
///   provider's component and every component it transitively
///   consumes.
/// * **site edge remove / cross-component provider edge remove** — the
///   condensation is still valid; the affected downstream components'
///   sets are rebuilt, in topological order, by the same per-component
///   set builder the Tarjan pass uses.
/// * **provider edge add** — if the new edge closes a cycle between
///   two existing components the condensation would merge SCCs, so the
///   index **falls back to a full Tarjan rebuild**; otherwise the
///   condensation gains one DAG edge and the consumer component's set
///   is ORed downstream.
/// * **intra-component provider edge remove** — could split an SCC:
///   always a full rebuild.
///
/// Every successful apply bumps the **epoch**. Patch computations are
/// staged and committed at the end, so a panic mid-patch can never
/// leave a half-written epoch behind: readers either see the previous
/// epoch or the complete next one. [`MutableReach::verify_fresh`]
/// recomputes the condensation from scratch and diffs it against the
/// patched state — the serve daemon's paranoid mode runs it after
/// every patch, and the churn property tests hold every patched set
/// equal to a fresh [`ReachIndex::build`] and to the BFS.
pub struct MutableReach {
    filter: EdgeFilter,
    rows: OwnedRows,
    /// `(key, kind byte)` → node.
    provider_index: BTreeMap<(String, u8), u32>,
    /// Raw site index → node.
    site_index: BTreeMap<u32, u32>,
    /// Exclusive upper bound on raw site indexes (bitset capacity).
    site_bound: usize,
    /// Monotonic version; bumped once per applied delta.
    epoch: u64,
    /// The current condensation, patched in place between rebuilds.
    cond: Condensation,
    /// Condensation out-edges with multiplicity: `comp_deps[x][y]` =
    /// number of visible edges from members of consumer component `x`
    /// into members of component `y` (i.e. `x` consumes `y`).
    comp_deps: Vec<BTreeMap<u32, u32>>,
    /// Condensation in-edges with multiplicity (reverse of
    /// [`MutableReach::comp_deps`]).
    comp_consumers: Vec<BTreeMap<u32, u32>>,
    /// Deltas absorbed by SCC-local patching.
    patches: u64,
    /// Deltas that forced a full Tarjan rebuild.
    rebuilds: u64,
}

impl MutableReach {
    /// Builds the mutable index from a frozen graph, copying nodes and
    /// edges into owned columns (node `i` here is node `i` there) and
    /// running one full condensation pass. Epoch starts at 0.
    pub fn from_graph(graph: &DepGraph, critical_only: bool, opts: &MetricOptions) -> Self {
        let n = graph.node_count();
        let mut rows = OwnedRows {
            kinds: Vec::with_capacity(n),
            site_of: Vec::with_capacity(n),
            in_edges: vec![Vec::new(); n],
        };
        let mut provider_index = BTreeMap::new();
        let mut site_index = BTreeMap::new();
        let mut site_bound = graph.site_id_bound();
        for v in 0..n {
            match graph.node(NodeId(v as u32)) {
                NodeKind::Site(site) => {
                    rows.kinds.push(SITE_KIND);
                    rows.site_of.push(site.0);
                    site_index.insert(site.0, v as u32);
                    site_bound = site_bound.max(site.index() + 1);
                }
                NodeKind::Provider(name, kind) => {
                    rows.kinds.push(kind_byte(kind));
                    rows.site_of.push(NONE_U32);
                    provider_index
                        .insert((graph.name(name).to_string(), kind_byte(kind)), v as u32);
                }
            }
            for (consumer, ek) in graph.consumers_of(NodeId(v as u32)) {
                rows.in_edges[v].push((consumer.0, ek.critical));
            }
        }
        let filter = EdgeFilter {
            critical_only,
            opts: opts.clone(),
        };
        let cond = condense(&rows, &filter, site_bound);
        let mut mr = MutableReach {
            filter,
            rows,
            provider_index,
            site_index,
            site_bound,
            epoch: 0,
            cond,
            comp_deps: Vec::new(),
            comp_consumers: Vec::new(),
            patches: 0,
            rebuilds: 0,
        };
        mr.count_comp_edges();
        mr
    }

    /// The index's current epoch. Every applied delta bumps it by one,
    /// so an answer tagged with an epoch names exactly one graph state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Deltas absorbed without touching the condensation structure.
    pub fn patch_count(&self) -> u64 {
        self.patches
    }

    /// Deltas that forced a full Tarjan rebuild.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Number of sites depending on provider `(key, kind)` at the
    /// current epoch; 0 for unknown providers.
    pub fn dependent_count(&self, key: &str, kind: ServiceKind) -> usize {
        self.provider_node(key, kind)
            .map(|v| self.cond.counts[self.cond.comp_of[v as usize] as usize])
            .unwrap_or(0)
    }

    /// The dependent-site bitset of provider `(key, kind)`, or `None`
    /// for unknown providers.
    pub fn dependent_set(&self, key: &str, kind: ServiceKind) -> Option<&SiteSet> {
        self.provider_node(key, kind)
            .map(|v| &self.cond.sets[self.cond.comp_of[v as usize] as usize])
    }

    /// All provider keys of `kind`, in key order, with their dependent
    /// counts at the current epoch.
    pub fn providers_of(&self, kind: ServiceKind) -> Vec<(&str, usize)> {
        let kb = kind_byte(kind);
        self.provider_index
            .iter()
            .filter(move |((_, k), _)| *k == kb)
            .map(|((key, _), &v)| {
                let comp = self.cond.comp_of[v as usize];
                (key.as_str(), self.cond.counts[comp as usize])
            })
            .collect()
    }

    /// Applies one churn delta. On success the epoch advances by one
    /// and the returned [`ApplyKind`] says whether the delta was
    /// SCC-locally patched or forced a rebuild; on error the index is
    /// unchanged (same epoch, same answers).
    #[must_use]
    pub fn apply(&mut self, delta: &Churn) -> Result<ApplyKind, ChurnError> {
        let kind = match delta {
            Churn::AddSiteEdge {
                site,
                provider,
                critical,
            } => self.add_site_edge(*site, provider, *critical),
            Churn::RemoveSiteEdge {
                site,
                provider,
                critical,
            } => self.remove_site_edge(*site, provider, *critical)?,
            Churn::AddProviderEdge { from, to, critical } => {
                self.add_provider_edge(from, to, *critical)
            }
            Churn::RemoveProviderEdge { from, to, critical } => {
                self.remove_provider_edge(from, to, *critical)?
            }
        };
        self.epoch += 1;
        match kind {
            ApplyKind::Patched => self.patches += 1,
            ApplyKind::Rebuilt => self.rebuilds += 1,
        }
        Ok(kind)
    }

    /// Recomputes the condensation from scratch into a fresh state and
    /// diffs every provider's set and count against the patched state.
    /// Returns a description of the first divergence — the executable
    /// form of "every patched epoch is cross-checked against a fresh
    /// build".
    #[must_use]
    pub fn verify_fresh(&self) -> Result<(), String> {
        let fresh = condense(&self.rows, &self.filter, self.site_bound);
        for (&(ref key, kb), &v) in &self.provider_index {
            let (pc, fc) = (
                self.cond.comp_of[v as usize] as usize,
                fresh.comp_of[v as usize] as usize,
            );
            let (patched, rebuilt) = (&self.cond.sets[pc], &fresh.sets[fc]);
            if patched != rebuilt {
                return Err(format!(
                    "provider {key}/{:?}: patched set (|{}|) != fresh set (|{}|)",
                    kind_back(kb),
                    patched.count(),
                    rebuilt.count()
                ));
            }
            let (patched_n, fresh_n) = (self.cond.counts[pc], fresh.counts[fc]);
            if patched_n != fresh_n {
                return Err(format!(
                    "provider {key}/{:?}: patched count {patched_n} != fresh count {fresh_n}",
                    kind_back(kb)
                ));
            }
        }
        Ok(())
    }

    /// Discards the cached condensation and rebuilds it from the owned
    /// edge list. The logical graph state is unchanged, so the epoch
    /// does not advance — this is the recovery hammer a resident
    /// service reaches for if [`MutableReach::verify_fresh`] ever
    /// reports a divergence.
    pub fn force_rebuild(&mut self) {
        self.rebuild_condensation();
        self.rebuilds += 1;
    }

    // ---- node plumbing ----

    fn provider_node(&self, key: &str, kind: ServiceKind) -> Option<u32> {
        // BTreeMap<(String, u8)> lookups need an owned key; provider
        // churn is rare enough that the allocation is irrelevant.
        self.provider_index
            .get(&(key.to_string(), kind_byte(kind)))
            .copied()
    }

    fn ensure_site(&mut self, site: SiteId) -> u32 {
        if let Some(&v) = self.site_index.get(&site.0) {
            return v;
        }
        let v = self.push_node(SITE_KIND, site.0);
        self.site_index.insert(site.0, v);
        self.site_bound = self.site_bound.max(site.index() + 1);
        self.cond.comp_of.push(NONE_U32);
        v
    }

    fn ensure_provider(&mut self, p: &ProviderRef) -> u32 {
        if let Some(v) = self.provider_node(&p.key, p.kind) {
            return v;
        }
        let v = self.push_node(kind_byte(p.kind), NONE_U32);
        self.provider_index
            .insert((p.key.clone(), kind_byte(p.kind)), v);
        // A brand-new provider is its own singleton component with an
        // empty dependent set — no structural invariant can break.
        let comp = self.cond.sets.len() as u32;
        self.cond.comp_of.push(comp);
        self.cond.members.push(vec![v]);
        self.cond.sets.push(SiteSet::with_bound(self.site_bound));
        self.cond.counts.push(0);
        self.comp_deps.push(BTreeMap::new());
        self.comp_consumers.push(BTreeMap::new());
        v
    }

    fn push_node(&mut self, kind: u8, site_raw: u32) -> u32 {
        assert!(
            u32::try_from(self.rows.kinds.len()).is_ok(),
            "mutable reach overflow: {} nodes exhaust the u32 id space",
            self.rows.kinds.len()
        );
        let v = self.rows.kinds.len() as u32;
        self.rows.kinds.push(kind);
        self.rows.site_of.push(site_raw);
        self.rows.in_edges.push(Vec::new());
        v
    }

    /// Whether the provider→provider edge `from → to` participates in
    /// this index.
    fn provider_edge_visible(&self, from: u32, to: u32, critical: bool) -> bool {
        let kinds = &self.rows.kinds;
        self.filter
            .step(kinds[from as usize], kinds[to as usize], critical)
    }

    // ---- patch operations ----

    fn add_site_edge(&mut self, site: SiteId, provider: &ProviderRef, critical: bool) -> ApplyKind {
        let s = self.ensure_site(site);
        let p = self.ensure_provider(provider);
        self.rows.in_edges[p as usize].push((s, critical));
        if self.filter.admits(critical) {
            // The site now reaches p's component and, transitively,
            // every component p consumes. Sites are never SCC members,
            // so the condensation itself cannot change: pure bit OR.
            for comp in self.downstream_of(self.cond.comp_of[p as usize]) {
                let set = &mut self.cond.sets[comp as usize];
                if !set.contains(site) {
                    set.insert(site);
                    self.cond.counts[comp as usize] += 1;
                }
            }
        }
        ApplyKind::Patched
    }

    fn remove_site_edge(
        &mut self,
        site: SiteId,
        provider: &ProviderRef,
        critical: bool,
    ) -> Result<ApplyKind, ChurnError> {
        let missing = |detail: String| ChurnError::NoSuchEdge { detail };
        let s = self
            .site_index
            .get(&site.0)
            .copied()
            .ok_or_else(|| missing(format!("site {site} has no node")))?;
        let p = self
            .provider_node(&provider.key, provider.kind)
            .ok_or_else(|| missing(format!("provider {} is unknown", provider.key)))?;
        let row = &mut self.rows.in_edges[p as usize];
        let pos = row
            .iter()
            .position(|&(w, c)| w == s && c == critical)
            .ok_or_else(|| missing(format!("{site} -> {} (critical={critical})", provider.key)))?;
        row.remove(pos);
        if self.filter.admits(critical) {
            // The site may still reach the affected components via
            // other edges; recompute their sets from scratch, in
            // topological order, leaving the condensation untouched
            // (site edges never define SCCs).
            self.recompute_downstream(self.cond.comp_of[p as usize]);
        }
        Ok(ApplyKind::Patched)
    }

    fn add_provider_edge(
        &mut self,
        from: &ProviderRef,
        to: &ProviderRef,
        critical: bool,
    ) -> ApplyKind {
        let w = self.ensure_provider(from);
        let v = self.ensure_provider(to);
        self.rows.in_edges[v as usize].push((w, critical));
        if !self.provider_edge_visible(w, v, critical) {
            // Recorded for future rebuilds, invisible to this
            // configuration — nothing cached can change.
            return ApplyKind::Patched;
        }
        let (cw, cv) = (self.cond.comp_of[w as usize], self.cond.comp_of[v as usize]);
        if cw == cv {
            // An extra edge inside one component changes neither the
            // condensation nor any set.
            return ApplyKind::Patched;
        }
        if self.downstream_of(cv).contains(&cw) {
            // to ⇒ … ⇒ from already exists, so from → to closes a
            // cycle: components must merge. Condensation invariant
            // invalidated — full rebuild.
            self.rebuild_condensation();
            return ApplyKind::Rebuilt;
        }
        // The condensation stays a DAG and gains one edge cw → cv.
        *self.comp_deps[cw as usize].entry(cv).or_insert(0) += 1;
        *self.comp_consumers[cv as usize].entry(cw).or_insert(0) += 1;
        // Everything the consumer component reaches flows into cv and
        // everything cv consumes. Stage the unions, then commit.
        let source = self.cond.sets[cw as usize].clone();
        let mut staged: Vec<(u32, SiteSet)> = Vec::new();
        for comp in self.downstream_of(cv) {
            let mut merged = self.cond.sets[comp as usize].clone();
            merged.union_with(&source);
            staged.push((comp, merged));
        }
        for (comp, set) in staged {
            self.cond.counts[comp as usize] = set.count();
            self.cond.sets[comp as usize] = set;
        }
        ApplyKind::Patched
    }

    fn remove_provider_edge(
        &mut self,
        from: &ProviderRef,
        to: &ProviderRef,
        critical: bool,
    ) -> Result<ApplyKind, ChurnError> {
        let missing = |detail: String| ChurnError::NoSuchEdge { detail };
        let w = self
            .provider_node(&from.key, from.kind)
            .ok_or_else(|| missing(format!("provider {} is unknown", from.key)))?;
        let v = self
            .provider_node(&to.key, to.kind)
            .ok_or_else(|| missing(format!("provider {} is unknown", to.key)))?;
        let row = &mut self.rows.in_edges[v as usize];
        let pos = row
            .iter()
            .position(|&(x, c)| x == w && c == critical)
            .ok_or_else(|| missing(format!("{} -> {} (critical={critical})", from.key, to.key)))?;
        row.remove(pos);
        if !self.provider_edge_visible(w, v, critical) {
            return Ok(ApplyKind::Patched);
        }
        let (cw, cv) = (self.cond.comp_of[w as usize], self.cond.comp_of[v as usize]);
        if cw == cv {
            // Removing an intra-component edge can split the SCC:
            // always rebuild.
            self.rebuild_condensation();
            return Ok(ApplyKind::Rebuilt);
        }
        // Cross-component removal keeps the condensation a DAG; drop
        // one unit of edge multiplicity and recompute downstream sets.
        let gone = {
            let slot = self.comp_deps[cw as usize].entry(cv).or_insert(0);
            *slot = slot.saturating_sub(1);
            *slot == 0
        };
        if gone {
            self.comp_deps[cw as usize].remove(&cv);
            let slot = self.comp_consumers[cv as usize].entry(cw).or_insert(0);
            *slot = slot.saturating_sub(1);
            self.comp_consumers[cv as usize].remove(&cw);
        } else {
            let slot = self.comp_consumers[cv as usize].entry(cw).or_insert(0);
            *slot = slot.saturating_sub(1);
        }
        self.recompute_downstream(cv);
        Ok(ApplyKind::Patched)
    }

    // ---- condensation plumbing ----

    /// Components reachable from `start` (inclusive) along consumption
    /// edges — exactly the components whose dependent sets include
    /// every site that reaches `start`.
    fn downstream_of(&self, start: u32) -> Vec<u32> {
        let mut seen: Vec<u32> = vec![start];
        let mut order: Vec<u32> = Vec::new();
        let mut stack = vec![start];
        while let Some(c) = stack.pop() {
            order.push(c);
            for (&next, _) in &self.comp_deps[c as usize] {
                if !seen.contains(&next) {
                    seen.push(next);
                    stack.push(next);
                }
            }
        }
        order
    }

    /// Rebuilds the dependent sets of every component downstream of
    /// `start` (inclusive) with the Tarjan pass's set builder,
    /// processing the affected sub-DAG in topological order so each
    /// set reads only finished inputs. Staged, then committed.
    fn recompute_downstream(&mut self, start: u32) {
        let affected = self.downstream_of(start);
        let in_affected = |c: u32| affected.contains(&c);
        // Kahn over the affected sub-DAG (consumer → consumed edges).
        let mut indeg: BTreeMap<u32, usize> = BTreeMap::new();
        for &c in &affected {
            let d = self.comp_consumers[c as usize]
                .keys()
                .filter(|&&x| in_affected(x))
                .count();
            indeg.insert(c, d);
        }
        let mut ready: Vec<u32> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&c, _)| c)
            .collect();
        let mut staged: BTreeMap<u32, SiteSet> = BTreeMap::new();
        while let Some(c) = ready.pop() {
            let set = component_set(
                &self.rows,
                &self.filter,
                self.site_bound,
                &self.cond.members[c as usize],
                &self.cond.comp_of,
                |x| staged.get(&x).unwrap_or(&self.cond.sets[x as usize]),
            );
            staged.insert(c, set);
            for &next in self.comp_deps[c as usize].keys() {
                if let Some(d) = indeg.get_mut(&next) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(next);
                    }
                }
            }
        }
        debug_assert_eq!(staged.len(), affected.len(), "condensation must be acyclic");
        for (comp, set) in staged {
            self.cond.counts[comp as usize] = set.count();
            self.cond.sets[comp as usize] = set;
        }
    }

    /// Counts the condensation's edges with multiplicity, in one pass
    /// over the visible inter-component provider edges — the state the
    /// patch paths keep beside the condensation.
    fn count_comp_edges(&mut self) {
        let ncomp = self.cond.sets.len();
        let mut deps: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); ncomp];
        let mut consumers: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); ncomp];
        for (v, row) in self.rows.in_edges.iter().enumerate() {
            let cv = self.cond.comp_of[v];
            if cv == NONE_U32 {
                continue;
            }
            for &(w, critical) in row {
                if !self.provider_edge_visible(w, v as u32, critical) {
                    continue;
                }
                let cw = self.cond.comp_of[w as usize];
                if cw != cv {
                    *deps[cw as usize].entry(cv).or_insert(0) += 1;
                    *consumers[cv as usize].entry(cw).or_insert(0) += 1;
                }
            }
        }
        self.comp_deps = deps;
        self.comp_consumers = consumers;
    }

    fn rebuild_condensation(&mut self) {
        self.cond = condense(&self.rows, &self.filter, self.site_bound);
        self.count_comp_edges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, GraphBuilder, NodeRef};
    use crate::metrics::Metrics;
    use std::collections::HashSet;
    use webdeps_measure::{measure_world, ProviderKey};
    use webdeps_model::ServiceKind;
    use webdeps_testkit::{check_with, gen, tk_assert, Config};
    use webdeps_worldgen::{World, WorldConfig};

    /// A bitset's members as a hash set (empty for `None`), the shape
    /// of [`Metrics::dependent_sites`].
    fn members(set: Option<&SiteSet>) -> HashSet<SiteId> {
        set.map(|s| s.iter().collect()).unwrap_or_default()
    }

    #[test]
    fn site_set_basics() {
        let mut s = SiteSet::with_bound(10);
        assert_eq!(s.count(), 0);
        s.insert(SiteId(3));
        s.insert(SiteId(70)); // beyond the initial bound
        s.insert(SiteId(3));
        assert_eq!(s.count(), 2);
        assert!(s.contains(SiteId(3)));
        assert!(s.contains(SiteId(70)));
        assert!(!s.contains(SiteId(4)));
        assert!(!s.contains(SiteId(1_000)));
        let ids: Vec<SiteId> = s.iter().collect();
        assert_eq!(ids, vec![SiteId(3), SiteId(70)]);

        let mut t = SiteSet::with_bound(128);
        t.insert(SiteId(100));
        t.union_with(&s);
        assert_eq!(t.count(), 3);

        // Equality ignores the bound.
        let (mut narrow, mut wide) = (SiteSet::with_bound(10), SiteSet::with_bound(1_000));
        narrow.insert(SiteId(3));
        wide.insert(SiteId(3));
        assert_eq!(narrow, wide);
        assert_eq!(wide, narrow);
        wide.insert(SiteId(999));
        assert_ne!(narrow, wide);
        assert_ne!(wide, narrow);
    }

    #[test]
    fn site_set_matches_hashset_reference() {
        // Property: insert/contains/count/iter agree with a HashSet
        // reference under random workloads, including word-boundary
        // indexes (the bit-twiddled iterator must not skip or invent
        // members).
        check_with(
            &Config {
                cases: 64,
                ..Config::default()
            },
            "site_set_matches_hashset_reference",
            &gen::u64_any(),
            |&seed| {
                let mut state = seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let bound = (next() % 400) as usize;
                let mut set = SiteSet::with_bound(bound);
                let mut reference: HashSet<u32> = HashSet::new();
                for _ in 0..(next() % 200) {
                    // Bias toward word boundaries: raw % 65 lands on
                    // 0, 63, 64 often.
                    let raw = if next() % 4 == 0 {
                        (next() % 65) as u32
                    } else {
                        (next() % 1_000) as u32
                    };
                    set.insert(SiteId(raw));
                    reference.insert(raw);
                }
                tk_assert!(set.count() == reference.len(), "count != |reference|");
                let iterated: Vec<u32> = set.iter().map(|s| s.0).collect();
                let mut expected: Vec<u32> = reference.iter().copied().collect();
                expected.sort_unstable();
                tk_assert!(iterated == expected, "iter() diverged from reference");
                for probe in 0..1_000u32 {
                    tk_assert!(
                        set.contains(SiteId(probe)) == reference.contains(&probe),
                        "contains({probe}) diverged"
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn index_matches_bfs_on_measured_world() {
        let world = World::generate(WorldConfig::small(123));
        let ds = measure_world(&world);
        let g = crate::graph::DepGraph::from_dataset(&ds);
        let m = Metrics::new(&g);
        for critical in [false, true] {
            for opts in [
                MetricOptions::direct_only(),
                MetricOptions::full(),
                MetricOptions::only(ServiceKind::Ca, ServiceKind::Dns),
            ] {
                let index = ReachIndex::build(&g, critical, &opts);
                for kind in [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca] {
                    for p in g.providers_of(kind) {
                        let bfs = m.dependent_sites(p, critical, &opts);
                        assert_eq!(
                            index.dependent_count(p),
                            bfs.len(),
                            "count mismatch at {:?} critical={critical}",
                            g.node_ref(p)
                        );
                        assert_eq!(
                            members(index.dependent_set(p)),
                            bfs,
                            "set mismatch at {:?} critical={critical}",
                            g.node_ref(p)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cycles_share_one_component_set() {
        // A ↔ B provider cycle (via allowed hops) with one site each.
        let mut b = GraphBuilder::new();
        let s0 = b.intern(NodeRef::Site(SiteId(0)));
        let s1 = b.intern(NodeRef::Site(SiteId(1)));
        let a = b.intern(NodeRef::Provider(
            ProviderKey::new("a.com"),
            ServiceKind::Dns,
        ));
        let bp = b.intern(NodeRef::Provider(
            ProviderKey::new("b.com"),
            ServiceKind::Cdn,
        ));
        let crit = |service| EdgeKind {
            service,
            critical: true,
        };
        b.add_edge(s0, a, crit(ServiceKind::Dns));
        b.add_edge(s1, bp, crit(ServiceKind::Cdn));
        b.add_edge(a, bp, crit(ServiceKind::Cdn));
        b.add_edge(bp, a, crit(ServiceKind::Dns));
        let g = b.build();
        // Both hop kinds allowed → a true 2-cycle.
        let opts = MetricOptions {
            interservice: vec![
                (ServiceKind::Cdn, ServiceKind::Dns),
                (ServiceKind::Dns, ServiceKind::Cdn),
            ],
        };
        let index = ReachIndex::build(&g, true, &opts);
        assert_eq!(index.dependent_count(a), 2);
        assert_eq!(index.dependent_count(bp), 2);
        let m = Metrics::new(&g);
        assert_eq!(
            members(index.dependent_set(a)),
            m.dependent_sites(a, true, &opts)
        );
        assert_eq!(
            members(index.dependent_set(bp)),
            m.dependent_sites(bp, true, &opts)
        );
        // Site nodes score zero, like the BFS.
        assert_eq!(index.dependent_count(s0), 0);
        assert!(index.dependent_set(s0).is_none());
    }

    // ---- MutableReach ----

    /// A churn delta plus the edge universe it ran against, mirrored
    /// outside the index so a fresh graph can be rebuilt per step.
    #[derive(Clone, Debug)]
    enum MirrorEdge {
        Site(SiteId, ProviderRef, bool),
        Prov(ProviderRef, ProviderRef, bool),
    }

    fn fresh_graph(sites: &[SiteId], providers: &[ProviderRef], edges: &[MirrorEdge]) -> DepGraph {
        let mut b = GraphBuilder::new();
        for &s in sites {
            b.intern(NodeRef::Site(s));
        }
        for p in providers {
            b.intern(NodeRef::Provider(ProviderKey::new(p.key.as_str()), p.kind));
        }
        for e in edges {
            let (from, to, critical, service) = match e {
                MirrorEdge::Site(s, p, c) => (
                    b.intern(NodeRef::Site(*s)),
                    b.intern(NodeRef::Provider(ProviderKey::new(p.key.as_str()), p.kind)),
                    *c,
                    p.kind,
                ),
                MirrorEdge::Prov(f, t, c) => (
                    b.intern(NodeRef::Provider(ProviderKey::new(f.key.as_str()), f.kind)),
                    b.intern(NodeRef::Provider(ProviderKey::new(t.key.as_str()), t.kind)),
                    *c,
                    t.kind,
                ),
            };
            b.add_edge(from, to, EdgeKind { service, critical });
        }
        b.build()
    }

    fn assert_matches_fresh(
        mr: &MutableReach,
        g: &DepGraph,
        critical: bool,
        opts: &MetricOptions,
        ctx: &str,
    ) -> Result<(), String> {
        let fresh = ReachIndex::build(g, critical, opts);
        let bfs = Metrics::new(g);
        for kind in [
            ServiceKind::Dns,
            ServiceKind::Cdn,
            ServiceKind::Ca,
            ServiceKind::Cloud,
        ] {
            for (key, count) in mr.providers_of(kind) {
                let node = g
                    .find(&NodeRef::Provider(ProviderKey::new(key), kind))
                    .ok_or_else(|| format!("{ctx}: provider {key}/{kind} missing from mirror"))?;
                tk_assert!(
                    count == fresh.dependent_count(node),
                    "{ctx}: {key}/{kind} patched count {count} != fresh {}",
                    fresh.dependent_count(node)
                );
                let patched = members(mr.dependent_set(key, kind));
                tk_assert!(
                    patched == members(fresh.dependent_set(node)),
                    "{ctx}: {key}/{kind} patched set diverged from fresh build"
                );
                // The BFS shares no code with the condensation, so the
                // patched sets are never checked only against the
                // routine that produced them.
                tk_assert!(
                    patched == bfs.dependent_sites(node, critical, opts),
                    "{ctx}: {key}/{kind} patched set diverged from the BFS"
                );
            }
        }
        mr.verify_fresh().map_err(|e| format!("{ctx}: {e}"))
    }

    /// The churn cross-check: random churn streams applied to
    /// `MutableReach`, with every patched epoch compared exhaustively
    /// against `ReachIndex::build` and the BFS over a freshly assembled
    /// graph.
    #[test]
    fn mutable_reach_matches_fresh_build_under_churn() {
        let sites: Vec<SiteId> = (0..10).map(SiteId).collect();
        let providers: Vec<ProviderRef> = vec![
            ProviderRef::new("d0.com", ServiceKind::Dns),
            ProviderRef::new("d1.com", ServiceKind::Dns),
            ProviderRef::new("c0.com", ServiceKind::Cdn),
            ProviderRef::new("c1.com", ServiceKind::Cdn),
            ProviderRef::new("a0.com", ServiceKind::Ca),
        ];
        check_with(
            &Config {
                cases: 48,
                ..Config::default()
            },
            "mutable_reach_matches_fresh_build_under_churn",
            &gen::u64_any(),
            |&seed| {
                let mut state = seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let critical = next() % 2 == 0;
                let opts = if next() % 2 == 0 {
                    MetricOptions::full()
                } else {
                    MetricOptions::direct_only()
                };
                let mut edges: Vec<MirrorEdge> = Vec::new();
                for _ in 0..(next() % 12) {
                    let s = sites[(next() % sites.len() as u64) as usize];
                    let p = providers[(next() % providers.len() as u64) as usize].clone();
                    edges.push(MirrorEdge::Site(s, p, next() % 2 == 0));
                }
                let g0 = fresh_graph(&sites, &providers, &edges);
                let mut mr = MutableReach::from_graph(&g0, critical, &opts);
                tk_assert!(mr.epoch() == 0, "fresh index must start at epoch 0");

                for step in 0..24 {
                    let op = next() % 4;
                    let delta = match op {
                        0 => {
                            let s = sites[(next() % sites.len() as u64) as usize];
                            let p = providers[(next() % providers.len() as u64) as usize].clone();
                            let c = next() % 2 == 0;
                            edges.push(MirrorEdge::Site(s, p.clone(), c));
                            Churn::AddSiteEdge {
                                site: s,
                                provider: p,
                                critical: c,
                            }
                        }
                        1 => {
                            let f = providers[(next() % providers.len() as u64) as usize].clone();
                            let t = providers[(next() % providers.len() as u64) as usize].clone();
                            if f == t {
                                continue;
                            }
                            let c = next() % 2 == 0;
                            edges.push(MirrorEdge::Prov(f.clone(), t.clone(), c));
                            Churn::AddProviderEdge {
                                from: f,
                                to: t,
                                critical: c,
                            }
                        }
                        _ => {
                            // Remove a random existing edge; with no
                            // edges left, exercise the error path.
                            if edges.is_empty() {
                                let p = providers[0].clone();
                                let before = mr.epoch();
                                let r = mr.apply(&Churn::RemoveSiteEdge {
                                    site: sites[0],
                                    provider: p,
                                    critical: true,
                                });
                                tk_assert!(r.is_err(), "phantom removal must fail");
                                tk_assert!(
                                    mr.epoch() == before,
                                    "failed apply must not advance the epoch"
                                );
                                continue;
                            }
                            let at = (next() % edges.len() as u64) as usize;
                            match edges.remove(at) {
                                MirrorEdge::Site(s, p, c) => Churn::RemoveSiteEdge {
                                    site: s,
                                    provider: p,
                                    critical: c,
                                },
                                MirrorEdge::Prov(f, t, c) => Churn::RemoveProviderEdge {
                                    from: f,
                                    to: t,
                                    critical: c,
                                },
                            }
                        }
                    };
                    let before = mr.epoch();
                    mr.apply(&delta)
                        .map_err(|e| format!("step {step}: apply failed: {e}"))?;
                    tk_assert!(
                        mr.epoch() == before + 1,
                        "each applied delta must bump the epoch by exactly one"
                    );
                    let g = fresh_graph(&sites, &providers, &edges);
                    assert_matches_fresh(
                        &mr,
                        &g,
                        critical,
                        &opts,
                        &format!("step {step} critical={critical}"),
                    )?;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn cycle_closing_edge_falls_back_to_rebuild() {
        // c.com (CDN) consumes d.com (DNS); adding the reverse edge
        // closes a 2-cycle, which must merge their components via a
        // full rebuild — and both must then score both sites.
        let sites = [SiteId(0), SiteId(1)];
        let d = ProviderRef::new("d.com", ServiceKind::Dns);
        let c = ProviderRef::new("c.com", ServiceKind::Cdn);
        let edges = vec![
            MirrorEdge::Site(sites[0], d.clone(), true),
            MirrorEdge::Site(sites[1], c.clone(), true),
            MirrorEdge::Prov(c.clone(), d.clone(), true),
        ];
        let providers = [d.clone(), c.clone()];
        let g = fresh_graph(&sites, &providers, &edges);
        // Both hop directions allowed → the reverse edge is a cycle.
        let opts = MetricOptions {
            interservice: vec![
                (ServiceKind::Cdn, ServiceKind::Dns),
                (ServiceKind::Dns, ServiceKind::Cdn),
            ],
        };
        let mut mr = MutableReach::from_graph(&g, true, &opts);
        assert_eq!(mr.dependent_count("d.com", ServiceKind::Dns), 2);
        assert_eq!(mr.dependent_count("c.com", ServiceKind::Cdn), 1);

        let kind = mr
            .apply(&Churn::AddProviderEdge {
                from: d.clone(),
                to: c.clone(),
                critical: true,
            })
            .expect("cycle edge applies");
        assert_eq!(kind, ApplyKind::Rebuilt);
        assert_eq!(mr.rebuild_count(), 1);
        assert_eq!(mr.dependent_count("c.com", ServiceKind::Cdn), 2);
        assert_eq!(mr.dependent_count("d.com", ServiceKind::Dns), 2);
        mr.verify_fresh().expect("rebuilt epoch cross-checks");

        // Removing an intra-component edge can split the SCC — also a
        // rebuild. With c → d gone, only d → c remains.
        let kind = mr
            .apply(&Churn::RemoveProviderEdge {
                from: c,
                to: d,
                critical: true,
            })
            .expect("intra-component removal applies");
        assert_eq!(kind, ApplyKind::Rebuilt);
        assert_eq!(mr.dependent_count("c.com", ServiceKind::Cdn), 2);
        assert_eq!(mr.dependent_count("d.com", ServiceKind::Dns), 1);
        mr.verify_fresh().expect("post-split epoch cross-checks");
    }

    #[test]
    fn site_churn_patches_without_rebuild() {
        // c.com (CDN) consumes d.com (DNS) — an allowed full() hop —
        // so site churn on either provider flows into d.com's set.
        let sites = [SiteId(0), SiteId(1), SiteId(2)];
        let d = ProviderRef::new("d.com", ServiceKind::Dns);
        let c = ProviderRef::new("c.com", ServiceKind::Cdn);
        let providers = [d.clone(), c.clone()];
        let edges = vec![
            MirrorEdge::Site(sites[0], c.clone(), true),
            MirrorEdge::Prov(c.clone(), d.clone(), true),
        ];
        let g = fresh_graph(&sites, &providers, &edges);
        let opts = MetricOptions::full();
        let mut mr = MutableReach::from_graph(&g, true, &opts);
        assert_eq!(mr.dependent_count("d.com", ServiceKind::Dns), 1);
        // Site 1 adopts the DNS provider directly: pure bit OR.
        mr.apply(&Churn::AddSiteEdge {
            site: sites[1],
            provider: d.clone(),
            critical: true,
        })
        .expect("site add applies");
        // Site 2 adopts the CDN: reaches the DNS operator transitively.
        mr.apply(&Churn::AddSiteEdge {
            site: sites[2],
            provider: c.clone(),
            critical: true,
        })
        .expect("site add applies");
        assert_eq!(mr.dependent_count("c.com", ServiceKind::Cdn), 2);
        assert_eq!(mr.dependent_count("d.com", ServiceKind::Dns), 3);
        // Site 0 drops the CDN: d.com keeps its direct consumer and
        // the remaining transitive one.
        mr.apply(&Churn::RemoveSiteEdge {
            site: sites[0],
            provider: c,
            critical: true,
        })
        .expect("site removal applies");
        assert_eq!(mr.dependent_count("c.com", ServiceKind::Cdn), 1);
        assert_eq!(mr.dependent_count("d.com", ServiceKind::Dns), 2);
        assert_eq!(mr.rebuild_count(), 0, "site churn never rebuilds");
        assert_eq!(mr.patch_count(), 3);
        assert_eq!(mr.epoch(), 3);
        mr.verify_fresh().expect("patched epochs cross-check");
    }

    #[test]
    fn churn_past_the_site_bound_verifies_fresh() {
        // Adding a site far past the bound widens one patched set; the
        // fresh rebuild sizes every set to the new bound.
        let sites = [SiteId(0), SiteId(1)];
        let d = ProviderRef::new("d.com", ServiceKind::Dns);
        let c = ProviderRef::new("c.com", ServiceKind::Cdn);
        let edges = vec![
            MirrorEdge::Site(sites[0], d.clone(), true),
            MirrorEdge::Site(sites[1], c.clone(), true),
        ];
        let g = fresh_graph(&sites, &[d, c.clone()], &edges);
        let mut mr = MutableReach::from_graph(&g, true, &MetricOptions::full());
        mr.apply(&Churn::AddSiteEdge {
            site: SiteId(1_000),
            provider: c,
            critical: true,
        })
        .expect("site add applies");
        assert_eq!(mr.dependent_count("c.com", ServiceKind::Cdn), 2);
        assert_eq!(mr.verify_fresh(), Ok(()));
    }
}
