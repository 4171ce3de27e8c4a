//! Memoized reverse reachability: the one index behind concentration
//! `C_p` and impact `I_p` (§2.2).
//!
//! Both metrics ask one question — which sites reach provider `p` over
//! consumer edges? — concentration over every edge, impact over
//! critical edges only, with [`MetricOptions`] choosing the allowed
//! provider → provider hops. A reverse BFS per provider would repeat the
//! same frontier expansions for every provider, so a full ranking would
//! scale as (providers × full BFS). A [`ReachIndex`] shares that work:
//! [`ReachIndex::build`] copies the graph's consumer rows once, then, for
//! each metric, condenses the provider-consumer subgraph into strongly
//! connected components and computes each component's dependent-site
//! set in a single pass over the condensation, so every provider's
//! answer under either metric is a table lookup.
//!
//! Correctness under cycles is the point of the SCC step: naive
//! per-provider memoization is wrong when providers depend on each
//! other mutually (the set "reachable from `p`" is not a function of
//! `p`'s direct consumers alone), but every member of an SCC reaches
//! exactly the same sites, and Tarjan's algorithm emits components in
//! reverse topological order — all consumer components of `C` are
//! finished before `C` itself — so one union pass suffices. The tests
//! here hold every set equal to a reverse BFS, and `tests/properties.rs`
//! holds the index equal to the paper's literal recursion.
//!
//! Rows exist only for providers, since sites consume but are never
//! consumed; a row names each consumer as a site id or a provider slot.
//! The index owns them, so it has no lifetime tie to the [`DepGraph`] it
//! was built from and absorbs [`Churn`] deltas in place (see
//! [`ReachIndex::apply`]). One routine, `condense`, runs the iterative
//! Tarjan pass for the build, every rebuild and
//! [`ReachIndex::verify_fresh`], and its per-component set builder also
//! rebuilds the sets a patch touches. The only per-provider state is a
//! [`SiteSet`] bitset per component.
//!
//! The index deliberately has no hooks into the *behavioral* layer:
//! schedule-aware outage questions (`OutageIndex::affected_at`) probe
//! the simulator afresh at every instant, because availability at time
//! `t` is not a graph property, so nothing cached here can go stale
//! across ticks.

use crate::graph::{DepGraph, NodeId, NodeKind};
use crate::metrics::{MetricOptions, ProviderScore};
use std::collections::{BTreeMap, HashMap};
use webdeps_measure::ProviderKey;
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

/// Sentinel for a component not yet emitted by the Tarjan pass.
const NONE_U32: u32 = u32::MAX;

/// One of the paper's two reach metrics (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Concentration `C_p`: sites reaching `p` over any consumer edges.
    Concentration,
    /// Impact `I_p`: sites reaching `p` over critical edges only.
    Impact,
}

impl Metric {
    /// Both metrics, in the order an index keeps their condensations.
    pub const ALL: [Metric; 2] = [Metric::Concentration, Metric::Impact];
}

/// One entry of a provider's consumer row.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Consumer {
    /// A raw site index, or a provider slot when `provider` is set.
    id: u32,
    provider: bool,
    critical: bool,
}

/// A provider and the edges into it, in the graph's CSR order.
struct Provider {
    key: ProviderKey,
    kind: ServiceKind,
    row: Vec<Consumer>,
}

/// The provider rows as one metric traverses them: the metric's edge
/// filter, in one place for the Tarjan pass and every patch, plus the
/// bound new site sets are sized to.
struct Rows<'a> {
    providers: &'a [Provider],
    critical_only: bool,
    opts: &'a MetricOptions,
    bound: usize,
}

impl<'a> Rows<'a> {
    fn new(
        metric: Metric,
        providers: &'a [Provider],
        opts: &'a MetricOptions,
        bound: usize,
    ) -> Self {
        Rows {
            providers,
            critical_only: metric == Metric::Impact,
            opts,
            bound,
        }
    }

    /// Whether an edge of this criticality participates at all; a site
    /// edge needs nothing more.
    fn admits(&self, critical: bool) -> bool {
        critical || !self.critical_only
    }

    /// Whether consumer `c` reaches a provider of kind `kind` through
    /// its edge: the consumer must be a provider and the hop an allowed
    /// one.
    fn step(&self, c: Consumer, kind: ServiceKind) -> bool {
        self.admits(c.critical)
            && c.provider
            && self.opts.allows(self.providers[c.id as usize].kind, kind)
    }
}

/// One metric's condensation: each provider slot's component and, per
/// component in Tarjan emission order, its member slots, dependent-site
/// set and set size, plus the condensation's edges.
struct Condensation {
    comp_of: Vec<u32>,
    members: Vec<Vec<u32>>,
    sets: Vec<SiteSet>,
    counts: Vec<usize>,
    /// `deps[x][y]` = number of traversed edges from members of
    /// consumer component `x` into members of component `y` (`x`
    /// consumes `y`), kept for the patches.
    deps: Vec<BTreeMap<u32, u32>>,
}

/// The one Tarjan pass: iterative Tarjan over the provider slots along
/// the hops `rows` traverses, building each component's dependent-site
/// set as the component is emitted, then counting the condensation's
/// edges. Tarjan emits components in reverse topological order, so
/// every consumer component's set is final before a component reads it.
fn condense(rows: &Rows) -> Condensation {
    let n = rows.providers.len();
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
        deps: Vec::new(),
    };
    for start in 0..n {
        if index_of[start] != 0 {
            continue;
        }
        index_of[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start as u32);
        on_stack[start] = true;
        // DFS frame: (slot, position within its row).
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = dfs.last_mut() {
            let v = frame.0;
            let provider = &rows.providers[v];
            let mut descended = false;
            while frame.1 < provider.row.len() {
                let c = provider.row[frame.1];
                frame.1 += 1;
                if !rows.step(c, provider.kind) {
                    continue;
                }
                let w = c.id as usize;
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
            let set = component_set(rows, &members, &out.comp_of, |c| &out.sets[c as usize]);
            out.counts.push(set.count());
            out.sets.push(set);
            out.members.push(members);
        }
    }
    out.deps = vec![BTreeMap::new(); out.sets.len()];
    for (v, provider) in rows.providers.iter().enumerate() {
        let cv = out.comp_of[v];
        for &c in &provider.row {
            if rows.step(c, provider.kind) {
                let cw = out.comp_of[c.id as usize];
                if cw != cv {
                    *out.deps[cw as usize].entry(cv).or_insert(0) += 1;
                }
            }
        }
    }
    out
}

/// One component's dependent-site set: the sites its members' rows
/// admit, unioned with the set of every other component one of whose
/// members consumes a member through a traversed hop. `set_of` hands
/// back those consumer components' finished sets.
fn component_set<'s>(
    rows: &Rows,
    members: &[u32],
    comp_of: &[u32],
    set_of: impl Fn(u32) -> &'s SiteSet,
) -> SiteSet {
    let mut set = SiteSet::with_bound(rows.bound);
    for &m in members {
        let provider = &rows.providers[m as usize];
        for &c in &provider.row {
            if !rows.admits(c.critical) {
                continue;
            }
            if !c.provider {
                set.insert(SiteId(c.id));
            } else if rows.step(c, provider.kind) {
                let comp = comp_of[c.id as usize];
                if comp != comp_of[m as usize] {
                    debug_assert_ne!(comp, NONE_U32, "consumer component emitted first");
                    set.union_with(set_of(comp));
                }
            }
        }
    }
    set
}

/// A churn delta after its row edit: the slots it touched.
#[derive(Clone, Copy)]
enum Edit {
    /// A site edge into provider `p` was added or removed.
    Site {
        p: u32,
        site: SiteId,
        critical: bool,
        added: bool,
    },
    /// An edge from provider `w` into provider `v` was added or removed.
    Provider {
        w: u32,
        v: u32,
        critical: bool,
        added: bool,
    },
}

impl Condensation {
    fn set(&self, slot: usize) -> &SiteSet {
        &self.sets[self.comp_of[slot] as usize]
    }

    fn count(&self, slot: usize) -> usize {
        self.counts[self.comp_of[slot] as usize]
    }

    /// Adds a new provider as its own singleton component with an empty
    /// dependent set — no structural invariant can break.
    fn push_singleton(&mut self, slot: u32, bound: usize) {
        self.comp_of.push(self.sets.len() as u32);
        self.members.push(vec![slot]);
        self.sets.push(SiteSet::with_bound(bound));
        self.counts.push(0);
        self.deps.push(BTreeMap::new());
    }

    /// Absorbs one row edit already made to `rows`, patching the
    /// affected sets or rebuilding the whole condensation when the edit
    /// could merge or split components.
    fn patch(&mut self, rows: &Rows, edit: Edit) -> ApplyKind {
        match edit {
            Edit::Site {
                p,
                site,
                critical,
                added,
            } => {
                if !rows.admits(critical) {
                    return ApplyKind::Patched;
                }
                let comp = self.comp_of[p as usize];
                if added {
                    // The site now reaches p's component and,
                    // transitively, every component p consumes. Sites
                    // are never SCC members, so the condensation itself
                    // cannot change: pure bit OR.
                    for c in self.downstream_of(comp) {
                        let set = &mut self.sets[c as usize];
                        if !set.contains(site) {
                            set.insert(site);
                            self.counts[c as usize] += 1;
                        }
                    }
                } else {
                    // The site may still reach the affected components
                    // via other edges; recompute their sets.
                    self.recompute_downstream(rows, comp);
                }
                ApplyKind::Patched
            }
            Edit::Provider {
                w,
                v,
                critical,
                added,
            } => {
                let edge = Consumer {
                    id: w,
                    provider: true,
                    critical,
                };
                if !rows.step(edge, rows.providers[v as usize].kind) {
                    // Recorded for future rebuilds, invisible to this
                    // metric — nothing cached can change.
                    return ApplyKind::Patched;
                }
                let (cw, cv) = (self.comp_of[w as usize], self.comp_of[v as usize]);
                if added {
                    if cw == cv {
                        // An extra edge inside one component changes
                        // neither the condensation nor any set.
                        return ApplyKind::Patched;
                    }
                    if self.downstream_of(cv).contains(&cw) {
                        // to ⇒ … ⇒ from already exists, so from → to
                        // closes a cycle: components must merge.
                        *self = condense(rows);
                        return ApplyKind::Rebuilt;
                    }
                    // The condensation stays a DAG and gains one edge
                    // cw → cv. Everything the consumer component reaches
                    // flows into cv and everything cv consumes. Stage
                    // the unions, then commit.
                    *self.deps[cw as usize].entry(cv).or_insert(0) += 1;
                    let source = &self.sets[cw as usize];
                    let staged: Vec<(u32, SiteSet)> = self
                        .downstream_of(cv)
                        .into_iter()
                        .map(|c| {
                            let mut merged = self.sets[c as usize].clone();
                            merged.union_with(source);
                            (c, merged)
                        })
                        .collect();
                    for (c, set) in staged {
                        self.counts[c as usize] = set.count();
                        self.sets[c as usize] = set;
                    }
                    ApplyKind::Patched
                } else {
                    if cw == cv {
                        // Removing an intra-component edge can split
                        // the SCC: always rebuild.
                        *self = condense(rows);
                        return ApplyKind::Rebuilt;
                    }
                    // Cross-component removal keeps the condensation a
                    // DAG; drop one unit of edge multiplicity and
                    // recompute the downstream sets.
                    let deps = &mut self.deps[cw as usize];
                    if let Some(n) = deps.get_mut(&cv) {
                        *n -= 1;
                        if *n == 0 {
                            deps.remove(&cv);
                        }
                    }
                    self.recompute_downstream(rows, cv);
                    ApplyKind::Patched
                }
            }
        }
    }

    /// Components reachable from `start` (inclusive) along consumption
    /// edges — exactly the components whose dependent sets include
    /// every site that reaches `start`.
    fn downstream_of(&self, start: u32) -> Vec<u32> {
        let mut seen: Vec<u32> = vec![start];
        let mut order: Vec<u32> = Vec::new();
        let mut stack = vec![start];
        while let Some(c) = stack.pop() {
            order.push(c);
            for &next in self.deps[c as usize].keys() {
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
    fn recompute_downstream(&mut self, rows: &Rows, start: u32) {
        let affected = self.downstream_of(start);
        // Kahn over the affected sub-DAG (consumer → consumed edges).
        // It is closed under `deps`, so every edge out of it lands in it.
        let mut indeg: BTreeMap<u32, usize> = affected.iter().map(|&c| (c, 0)).collect();
        for &c in &affected {
            for next in self.deps[c as usize].keys() {
                if let Some(d) = indeg.get_mut(next) {
                    *d += 1;
                }
            }
        }
        let mut ready: Vec<u32> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&c, _)| c)
            .collect();
        let mut staged: BTreeMap<u32, SiteSet> = BTreeMap::new();
        while let Some(c) = ready.pop() {
            let set = component_set(rows, &self.members[c as usize], &self.comp_of, |x| {
                staged.get(&x).unwrap_or(&self.sets[x as usize])
            });
            staged.insert(c, set);
            for &next in self.deps[c as usize].keys() {
                if let Some(d) = indeg.get_mut(&next) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(next);
                    }
                }
            }
        }
        debug_assert_eq!(staged.len(), affected.len(), "condensation must be acyclic");
        for (c, set) in staged {
            self.counts[c as usize] = set.count();
            self.sets[c as usize] = set;
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.comp_of.capacity() * size_of::<u32>()
            + self.members.capacity() * size_of::<Vec<u32>>()
            + self
                .members
                .iter()
                .map(|m| m.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.sets.capacity() * size_of::<SiteSet>()
            + self.sets.iter().map(SiteSet::heap_bytes).sum::<usize>()
            + self.counts.capacity() * size_of::<usize>()
            + self.deps.capacity() * size_of::<BTreeMap<u32, u32>>()
            + self
                .deps
                .iter()
                .map(|d| d.len() * 2 * size_of::<u32>())
                .sum::<usize>()
    }
}

/// How one delta was absorbed by each metric's condensation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// The concentration condensation's path.
    pub concentration: ApplyKind,
    /// The impact condensation's path.
    pub impact: ApplyKind,
}

/// Concentration and impact for every provider of one graph under one
/// [`MetricOptions`] — an **epoch-versioned, incrementally patchable**
/// index that a report builds once and asks everything, and that a
/// resident query service keeps warm across churn.
///
/// It keeps one copy of the consumer rows and, side by side, one
/// condensation per [`Metric`]. [`ReachIndex::apply`] edits the rows
/// once, then patches or rebuilds each condensation:
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
///   two existing components the condensation would merge SCCs, so it
///   **falls back to a full Tarjan rebuild**; otherwise the
///   condensation gains one DAG edge and the consumer component's set
///   is ORed downstream.
/// * **intra-component provider edge remove** — could split an SCC:
///   always a full rebuild.
///
/// A delta takes the same path in both condensations except where the
/// metrics see different edges: a non-critical provider edge that
/// closes a cycle is invisible to impact, which patches, while
/// concentration merges components and rebuilds.
///
/// Every successful apply bumps the one **epoch**, so an answer tagged
/// with an epoch names exactly one graph state. Each patch stages its
/// set recomputations and commits them at the end.
/// [`ReachIndex::verify_fresh`] recomputes both condensations from
/// scratch and diffs them against the patched state — the serve
/// daemon's paranoid mode runs it after every patch, and the churn
/// property tests hold every patched set equal to a fresh
/// [`ReachIndex::build`] and to a reverse BFS.
pub struct ReachIndex {
    opts: MetricOptions,
    /// Provider slots: the graph's providers in node order, then the
    /// providers churn introduced, in arrival order.
    providers: Vec<Provider>,
    /// `(kind, key)` → slot.
    slots: BTreeMap<(ServiceKind, ProviderKey), u32>,
    /// Exclusive upper bound on raw site indexes (bitset capacity).
    site_bound: usize,
    /// Monotonic version; bumped once per applied delta.
    epoch: u64,
    /// One condensation per metric, in [`Metric::ALL`] order.
    conds: [Condensation; 2],
    /// Condensation patches, summed over both metrics.
    patches: u64,
    /// Full Tarjan rebuilds, summed over both metrics.
    rebuilds: u64,
}

impl ReachIndex {
    /// Builds the index: copies each provider's consumer row from the
    /// graph once (provider slots in node order, so rankings break ties
    /// in node order), then condenses the rows once per metric. Epoch
    /// starts at 0.
    pub fn build(graph: &DepGraph, opts: &MetricOptions) -> Self {
        let nodes: Vec<(NodeId, ProviderKey, ServiceKind)> = (0..graph.node_count() as u32)
            .map(NodeId)
            .filter_map(|v| match graph.node(v) {
                NodeKind::Provider(name, kind) => {
                    Some((v, ProviderKey::new(graph.name(name)), kind))
                }
                NodeKind::Site(_) => None,
            })
            .collect();
        let mut slot_of = vec![NONE_U32; graph.node_count()];
        for (slot, (v, ..)) in nodes.iter().enumerate() {
            slot_of[v.index()] = slot as u32;
        }
        let providers: Vec<Provider> = nodes
            .into_iter()
            .map(|(v, key, kind)| Provider {
                key,
                kind,
                row: graph
                    .consumers_of(v)
                    .map(|(w, edge)| match graph.node(w) {
                        NodeKind::Site(site) => Consumer {
                            id: site.0,
                            provider: false,
                            critical: edge.critical,
                        },
                        NodeKind::Provider(..) => Consumer {
                            id: slot_of[w.index()],
                            provider: true,
                            critical: edge.critical,
                        },
                    })
                    .collect(),
            })
            .collect();
        let slots = providers
            .iter()
            .enumerate()
            .map(|(slot, p)| ((p.kind, p.key.clone()), slot as u32))
            .collect();
        let site_bound = graph.site_id_bound();
        let conds =
            Metric::ALL.map(|metric| condense(&Rows::new(metric, &providers, opts, site_bound)));
        ReachIndex {
            opts: opts.clone(),
            providers,
            slots,
            site_bound,
            epoch: 0,
            conds,
            patches: 0,
            rebuilds: 0,
        }
    }

    /// The index's current epoch. Every applied delta bumps it by one,
    /// so an answer tagged with an epoch names exactly one graph state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Condensation patches so far, summed over both metrics (a delta
    /// counts once per metric).
    pub fn patch_count(&self) -> u64 {
        self.patches
    }

    /// Full Tarjan rebuilds so far, summed over both metrics.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Number of sites depending on provider `(key, kind)` under
    /// `metric` at the current epoch; 0 for unknown providers.
    pub fn dependent_count(&self, metric: Metric, key: &str, kind: ServiceKind) -> usize {
        self.slot(key, kind)
            .map_or(0, |slot| self.conds[metric as usize].count(slot))
    }

    /// The dependent-site bitset of provider `(key, kind)` under
    /// `metric`, or `None` for unknown providers.
    pub fn dependent_set(&self, metric: Metric, key: &str, kind: ServiceKind) -> Option<&SiteSet> {
        self.slot(key, kind)
            .map(|slot| self.conds[metric as usize].set(slot))
    }

    /// All providers of `kind`, scored and ordered by impact
    /// (descending), then concentration; ties keep graph node order.
    pub fn ranking(&self, kind: ServiceKind) -> Vec<ProviderScore> {
        let mut out: Vec<ProviderScore> = (0..self.providers.len())
            .filter(|&slot| self.providers[slot].kind == kind)
            .map(|slot| self.score(slot))
            .collect();
        out.sort_by(|a, b| {
            b.impact
                .cmp(&a.impact)
                .then(b.concentration.cmp(&a.concentration))
        });
        out
    }

    /// All providers of `kind`, in key order, with both counts at the
    /// current epoch.
    pub fn providers_of(&self, kind: ServiceKind) -> Vec<ProviderScore> {
        self.slots
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, &slot)| self.score(slot as usize))
            .collect()
    }

    /// Number of *critical* dependencies each site has (direct plus, if
    /// the options allow, transitive through critical provider chains)
    /// — the §8.1 "critical dependencies per website" distribution: one
    /// pass over the DNS, CDN and CA providers' impact sets.
    pub fn critical_deps_per_site(&self) -> HashMap<SiteId, usize> {
        let impact = &self.conds[Metric::Impact as usize];
        let mut dense = vec![0usize; self.site_bound];
        for (slot, provider) in self.providers.iter().enumerate() {
            if ServiceKind::WEB_SERVICES.contains(&provider.kind) {
                for site in impact.set(slot).iter() {
                    dense[site.index()] += 1;
                }
            }
        }
        dense
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .map(|(idx, n)| (SiteId::from_index(idx), n))
            .collect()
    }

    /// Applies one churn delta: edits the rows once, then patches or
    /// rebuilds each metric's condensation. On success the epoch
    /// advances by one and the returned [`Applied`] says which path each
    /// condensation took; on error the index is unchanged (same epoch,
    /// same answers).
    #[must_use]
    pub fn apply(&mut self, delta: &Churn) -> Result<Applied, ChurnError> {
        let edit = self.edit_rows(delta)?;
        let mut kinds = [ApplyKind::Patched; 2];
        for ((kind, cond), metric) in kinds.iter_mut().zip(&mut self.conds).zip(Metric::ALL) {
            *kind = cond.patch(
                &Rows::new(metric, &self.providers, &self.opts, self.site_bound),
                edit,
            );
            match kind {
                ApplyKind::Patched => self.patches += 1,
                ApplyKind::Rebuilt => self.rebuilds += 1,
            }
        }
        self.epoch += 1;
        let [concentration, impact] = kinds;
        Ok(Applied {
            concentration,
            impact,
        })
    }

    /// Recomputes both condensations from scratch and diffs every
    /// provider's set and count against the patched state. Returns a
    /// description of the first divergence — the executable form of
    /// "every patched epoch is cross-checked against a fresh build".
    #[must_use]
    pub fn verify_fresh(&self) -> Result<(), String> {
        for (cond, metric) in self.conds.iter().zip(Metric::ALL) {
            let fresh = condense(&Rows::new(
                metric,
                &self.providers,
                &self.opts,
                self.site_bound,
            ));
            for ((kind, key), &slot) in &self.slots {
                let slot = slot as usize;
                let (patched, rebuilt) = (cond.set(slot), fresh.set(slot));
                if patched != rebuilt {
                    return Err(format!(
                        "{metric:?} of {key}/{kind:?}: patched set (|{}|) != fresh set (|{}|)",
                        patched.count(),
                        rebuilt.count()
                    ));
                }
                let (patched_n, fresh_n) = (cond.count(slot), fresh.count(slot));
                if patched_n != fresh_n {
                    return Err(format!(
                        "{metric:?} of {key}/{kind:?}: patched count {patched_n} != fresh count {fresh_n}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Discards both cached condensations and rebuilds them from the
    /// owned rows. The logical graph state is unchanged, so the epoch
    /// does not advance — this is the recovery hammer a resident
    /// service reaches for if [`ReachIndex::verify_fresh`] ever reports
    /// a divergence. Counts one rebuild per metric.
    pub fn force_rebuild(&mut self) {
        for (cond, metric) in self.conds.iter_mut().zip(Metric::ALL) {
            *cond = condense(&Rows::new(
                metric,
                &self.providers,
                &self.opts,
                self.site_bound,
            ));
            self.rebuilds += 1;
        }
    }

    /// Bytes of heap owned by the index: the row copy, the provider
    /// keys and lookup table, and both condensations (component maps,
    /// popcounts, condensation edges and every component bitset).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.providers.capacity() * size_of::<Provider>()
            + self
                .providers
                .iter()
                .map(|p| p.row.capacity() * size_of::<Consumer>() + p.key.as_str().len())
                .sum::<usize>()
            + self.slots.len() * (size_of::<(ServiceKind, ProviderKey)>() + size_of::<u32>())
            + self
                .conds
                .iter()
                .map(Condensation::heap_bytes)
                .sum::<usize>()
    }

    // ---- lookups and row edits ----

    fn slot(&self, key: &str, kind: ServiceKind) -> Option<usize> {
        self.slots
            .get(&(kind, ProviderKey::new(key)))
            .map(|&slot| slot as usize)
    }

    fn score(&self, slot: usize) -> ProviderScore {
        ProviderScore {
            key: self.providers[slot].key.clone(),
            concentration: self.conds[Metric::Concentration as usize].count(slot),
            impact: self.conds[Metric::Impact as usize].count(slot),
        }
    }

    fn ensure_provider(&mut self, p: &ProviderRef) -> u32 {
        if let Some(slot) = self.slot(&p.key, p.kind) {
            return slot as u32;
        }
        assert!(
            u32::try_from(self.providers.len()).is_ok(),
            "reach index overflow: {} providers exhaust the u32 slot space",
            self.providers.len()
        );
        let slot = self.providers.len() as u32;
        let key = ProviderKey::new(p.key.as_str());
        self.slots.insert((p.kind, key.clone()), slot);
        self.providers.push(Provider {
            key,
            kind: p.kind,
            row: Vec::new(),
        });
        for cond in &mut self.conds {
            cond.push_singleton(slot, self.site_bound);
        }
        slot
    }

    /// Makes a delta's one row edit, or fails with the index untouched.
    fn edit_rows(&mut self, delta: &Churn) -> Result<Edit, ChurnError> {
        let missing = |detail: String| ChurnError::NoSuchEdge { detail };
        let known = |index: &Self, p: &ProviderRef| {
            index
                .slot(&p.key, p.kind)
                .map(|slot| slot as u32)
                .ok_or_else(|| missing(format!("provider {} is unknown", p.key)))
        };
        Ok(match *delta {
            Churn::AddSiteEdge {
                site,
                ref provider,
                critical,
            } => {
                let p = self.ensure_provider(provider);
                self.providers[p as usize].row.push(Consumer {
                    id: site.0,
                    provider: false,
                    critical,
                });
                self.site_bound = self.site_bound.max(site.index() + 1);
                Edit::Site {
                    p,
                    site,
                    critical,
                    added: true,
                }
            }
            Churn::RemoveSiteEdge {
                site,
                ref provider,
                critical,
            } => {
                let p = known(self, provider)?;
                let edge = Consumer {
                    id: site.0,
                    provider: false,
                    critical,
                };
                self.remove_from_row(p, edge).ok_or_else(|| {
                    missing(format!("{site} -> {} (critical={critical})", provider.key))
                })?;
                Edit::Site {
                    p,
                    site,
                    critical,
                    added: false,
                }
            }
            Churn::AddProviderEdge {
                ref from,
                ref to,
                critical,
            } => {
                let w = self.ensure_provider(from);
                let v = self.ensure_provider(to);
                self.providers[v as usize].row.push(Consumer {
                    id: w,
                    provider: true,
                    critical,
                });
                Edit::Provider {
                    w,
                    v,
                    critical,
                    added: true,
                }
            }
            Churn::RemoveProviderEdge {
                ref from,
                ref to,
                critical,
            } => {
                let w = known(self, from)?;
                let v = known(self, to)?;
                let edge = Consumer {
                    id: w,
                    provider: true,
                    critical,
                };
                self.remove_from_row(v, edge).ok_or_else(|| {
                    missing(format!("{} -> {} (critical={critical})", from.key, to.key))
                })?;
                Edit::Provider {
                    w,
                    v,
                    critical,
                    added: false,
                }
            }
        })
    }

    /// Removes one instance of `edge` from provider `p`'s row.
    fn remove_from_row(&mut self, p: u32, edge: Consumer) -> Option<()> {
        let row = &mut self.providers[p as usize].row;
        let pos = row.iter().position(|&c| c == edge)?;
        row.remove(pos);
        Some(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, GraphBuilder, NodeRef};
    use std::collections::HashSet;
    use webdeps_measure::measure_world;
    use webdeps_testkit::{check_with, gen, tk_assert, Config};
    use webdeps_worldgen::{World, WorldConfig};

    /// The reference every index set is held to: the sites depending on
    /// `provider` under `metric`, by one reverse BFS from the provider
    /// over the graph's consumer edges. It shares no code with the
    /// condensation, so a patched set is never checked only against the
    /// routine that produced it.
    fn bfs(
        graph: &DepGraph,
        provider: NodeId,
        metric: Metric,
        opts: &MetricOptions,
    ) -> HashSet<SiteId> {
        let mut sites = HashSet::new();
        let mut visited: HashSet<NodeId> = HashSet::from([provider]);
        let mut frontier = vec![provider];
        while let Some(node) = frontier.pop() {
            // Consumers reach `node` via edges of the service it provides.
            let NodeKind::Provider(_, node_kind) = graph.node(node) else {
                continue;
            };
            for (consumer, kind) in graph.consumers_of(node) {
                if metric == Metric::Impact && !kind.critical {
                    continue;
                }
                match graph.node(consumer) {
                    NodeKind::Site(site) => {
                        sites.insert(site);
                    }
                    NodeKind::Provider(_, consumer_kind) => {
                        if opts.allows(consumer_kind, node_kind) && visited.insert(consumer) {
                            frontier.push(consumer);
                        }
                    }
                }
            }
        }
        sites
    }

    /// A bitset's members as a hash set (empty for `None`), the shape
    /// of [`bfs`].
    fn members(set: Option<&SiteSet>) -> HashSet<SiteId> {
        set.map(|s| s.iter().collect()).unwrap_or_default()
    }

    /// Every provider of `g` scores under both metrics exactly what the
    /// BFS finds.
    fn assert_matches_bfs(
        index: &ReachIndex,
        g: &DepGraph,
        opts: &MetricOptions,
        ctx: &str,
    ) -> Result<(), String> {
        for v in (0..g.node_count() as u32).map(NodeId) {
            let NodeKind::Provider(name, kind) = g.node(v) else {
                continue;
            };
            let key = g.name(name);
            for metric in Metric::ALL {
                let want = bfs(g, v, metric, opts);
                tk_assert!(
                    index.dependent_count(metric, key, kind) == want.len(),
                    "{ctx}: {metric:?} count of {key}/{kind} != BFS ({})",
                    want.len()
                );
                tk_assert!(
                    members(index.dependent_set(metric, key, kind)) == want,
                    "{ctx}: {metric:?} set of {key}/{kind} diverged from the BFS"
                );
            }
        }
        Ok(())
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
        let g = DepGraph::from_dataset(&ds);
        for opts in [
            MetricOptions::direct_only(),
            MetricOptions::full(),
            MetricOptions::only(ServiceKind::Ca, ServiceKind::Dns),
        ] {
            let index = ReachIndex::build(&g, &opts);
            assert_matches_bfs(&index, &g, &opts, &format!("{opts:?}"))
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn cycles_share_one_component_set() {
        // A ↔ B provider cycle (via allowed hops) with one site each.
        let mut b = GraphBuilder::new();
        let s0 = b.intern(NodeRef::Site(SiteId(0)));
        let s1 = b.intern(NodeRef::Site(SiteId(1)));
        let a = b.intern_provider("a.com", ServiceKind::Dns);
        let bp = b.intern_provider("b.com", ServiceKind::Cdn);
        let crit = |service| EdgeKind {
            service,
            critical: true,
        };
        b.add_edge(s0, a, crit(ServiceKind::Dns));
        b.add_edge(s1, bp, crit(ServiceKind::Cdn));
        b.add_edge(a, bp, crit(ServiceKind::Cdn));
        b.add_edge(bp, a, crit(ServiceKind::Dns));
        let g = b.build();
        let index = ReachIndex::build(&g, &both_hops());
        assert_eq!(
            index.dependent_count(Metric::Impact, "a.com", ServiceKind::Dns),
            2
        );
        assert_eq!(
            index.dependent_count(Metric::Impact, "b.com", ServiceKind::Cdn),
            2
        );
        assert_matches_bfs(&index, &g, &both_hops(), "2-cycle").unwrap_or_else(|e| panic!("{e}"));
        // Unknown providers score zero, like the BFS from a non-provider.
        assert_eq!(
            index.dependent_count(Metric::Impact, "a.com", ServiceKind::Cdn),
            0
        );
        assert!(index
            .dependent_set(Metric::Concentration, "nope.com", ServiceKind::Dns)
            .is_none());
    }

    // ---- churn ----

    /// CDN → DNS and DNS → CDN both allowed, so provider cycles count.
    fn both_hops() -> MetricOptions {
        MetricOptions {
            interservice: vec![
                (ServiceKind::Cdn, ServiceKind::Dns),
                (ServiceKind::Dns, ServiceKind::Cdn),
            ],
        }
    }

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
            b.intern_site(s);
        }
        for p in providers {
            b.intern_provider(&p.key, p.kind);
        }
        for e in edges {
            let (from, to, critical, service) = match e {
                MirrorEdge::Site(s, p, c) => (
                    b.intern_site(*s),
                    b.intern_provider(&p.key, p.kind),
                    *c,
                    p.kind,
                ),
                MirrorEdge::Prov(f, t, c) => (
                    b.intern_provider(&f.key, f.kind),
                    b.intern_provider(&t.key, t.kind),
                    *c,
                    t.kind,
                ),
            };
            b.add_edge(from, to, EdgeKind { service, critical });
        }
        b.build()
    }

    /// Both metrics of a patched index equal a fresh build over the
    /// mirrored graph and the BFS, for every provider, and
    /// `verify_fresh` agrees.
    fn assert_matches_fresh(
        index: &ReachIndex,
        g: &DepGraph,
        opts: &MetricOptions,
        ctx: &str,
    ) -> Result<(), String> {
        let fresh = ReachIndex::build(g, opts);
        for kind in [
            ServiceKind::Dns,
            ServiceKind::Cdn,
            ServiceKind::Ca,
            ServiceKind::Cloud,
        ] {
            tk_assert!(
                index.providers_of(kind) == fresh.providers_of(kind),
                "{ctx}: {kind} providers or counts diverged from a fresh build"
            );
            for score in index.providers_of(kind) {
                let key = score.key.as_str();
                for metric in Metric::ALL {
                    tk_assert!(
                        index.dependent_set(metric, key, kind)
                            == fresh.dependent_set(metric, key, kind),
                        "{ctx}: {metric:?} set of {key}/{kind} diverged from a fresh build"
                    );
                }
            }
        }
        assert_matches_bfs(index, g, opts, ctx)?;
        index.verify_fresh().map_err(|e| format!("{ctx}: {e}"))
    }

    /// The churn cross-check: random churn streams applied to one
    /// index, with both metrics of every patched epoch compared
    /// exhaustively against `ReachIndex::build` and the BFS over a
    /// freshly assembled graph.
    #[test]
    fn index_matches_fresh_build_under_churn() {
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
            "index_matches_fresh_build_under_churn",
            &gen::u64_any(),
            |&seed| {
                let mut state = seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let opts = match next() % 3 {
                    0 => MetricOptions::full(),
                    1 => MetricOptions::direct_only(),
                    _ => both_hops(),
                };
                let mut edges: Vec<MirrorEdge> = Vec::new();
                for _ in 0..(next() % 12) {
                    let s = sites[(next() % sites.len() as u64) as usize];
                    let p = providers[(next() % providers.len() as u64) as usize].clone();
                    edges.push(MirrorEdge::Site(s, p, next() % 2 == 0));
                }
                let g0 = fresh_graph(&sites, &providers, &edges);
                let mut index = ReachIndex::build(&g0, &opts);
                tk_assert!(index.epoch() == 0, "fresh index must start at epoch 0");

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
                                let before = index.epoch();
                                let r = index.apply(&Churn::RemoveSiteEdge {
                                    site: sites[0],
                                    provider: p,
                                    critical: true,
                                });
                                tk_assert!(r.is_err(), "phantom removal must fail");
                                tk_assert!(
                                    index.epoch() == before,
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
                    let before = (index.epoch(), index.patch_count() + index.rebuild_count());
                    index
                        .apply(&delta)
                        .map_err(|e| format!("step {step}: apply failed: {e}"))?;
                    tk_assert!(
                        index.epoch() == before.0 + 1,
                        "each applied delta must bump the epoch by exactly one"
                    );
                    tk_assert!(
                        index.patch_count() + index.rebuild_count() == before.1 + 2,
                        "each applied delta counts once per metric"
                    );
                    let g = fresh_graph(&sites, &providers, &edges);
                    assert_matches_fresh(&index, &g, &opts, &format!("step {step} {opts:?}"))?;
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
        let mut edges = vec![
            MirrorEdge::Site(sites[0], d.clone(), true),
            MirrorEdge::Site(sites[1], c.clone(), true),
            MirrorEdge::Prov(c.clone(), d.clone(), true),
        ];
        let providers = [d.clone(), c.clone()];
        let g = fresh_graph(&sites, &providers, &edges);
        let mut index = ReachIndex::build(&g, &both_hops());
        assert_eq!(
            index.dependent_count(Metric::Impact, "d.com", ServiceKind::Dns),
            2
        );
        assert_eq!(
            index.dependent_count(Metric::Impact, "c.com", ServiceKind::Cdn),
            1
        );

        let applied = index
            .apply(&Churn::AddProviderEdge {
                from: d.clone(),
                to: c.clone(),
                critical: true,
            })
            .expect("cycle edge applies");
        // A critical edge is visible to both metrics: both merge.
        assert_eq!(
            applied,
            Applied {
                concentration: ApplyKind::Rebuilt,
                impact: ApplyKind::Rebuilt,
            }
        );
        assert_eq!(index.rebuild_count(), 2);
        assert_eq!(
            index.dependent_count(Metric::Impact, "c.com", ServiceKind::Cdn),
            2
        );
        assert_eq!(
            index.dependent_count(Metric::Impact, "d.com", ServiceKind::Dns),
            2
        );
        edges.push(MirrorEdge::Prov(d.clone(), c.clone(), true));
        let g = fresh_graph(&sites, &providers, &edges);
        assert_matches_fresh(&index, &g, &both_hops(), "merged").unwrap_or_else(|e| panic!("{e}"));

        // Removing an intra-component edge can split the SCC — also a
        // rebuild. With c → d gone, only d → c remains.
        let applied = index
            .apply(&Churn::RemoveProviderEdge {
                from: c.clone(),
                to: d.clone(),
                critical: true,
            })
            .expect("intra-component removal applies");
        assert_eq!(applied.impact, ApplyKind::Rebuilt);
        assert_eq!(applied.concentration, ApplyKind::Rebuilt);
        assert_eq!(
            index.dependent_count(Metric::Impact, "c.com", ServiceKind::Cdn),
            2
        );
        assert_eq!(
            index.dependent_count(Metric::Impact, "d.com", ServiceKind::Dns),
            1
        );
        edges.remove(2);
        let g = fresh_graph(&sites, &providers, &edges);
        assert_matches_fresh(&index, &g, &both_hops(), "split").unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn non_critical_cycle_edge_patches_impact_and_rebuilds_concentration() {
        // c.com (CDN) critically consumes d.com (DNS). A non-critical
        // d → c edge closes a cycle only for concentration: impact
        // never sees it and patches, concentration merges the two
        // components and rebuilds — then splits them again on removal.
        let sites = [SiteId(0), SiteId(1)];
        let d = ProviderRef::new("d.com", ServiceKind::Dns);
        let c = ProviderRef::new("c.com", ServiceKind::Cdn);
        let providers = [d.clone(), c.clone()];
        let mut edges = vec![
            MirrorEdge::Site(sites[0], d.clone(), true),
            MirrorEdge::Site(sites[1], c.clone(), true),
            MirrorEdge::Prov(c.clone(), d.clone(), true),
        ];
        let opts = both_hops();
        let mut index = ReachIndex::build(&fresh_graph(&sites, &providers, &edges), &opts);
        let split = Applied {
            concentration: ApplyKind::Rebuilt,
            impact: ApplyKind::Patched,
        };

        let applied = index
            .apply(&Churn::AddProviderEdge {
                from: d.clone(),
                to: c.clone(),
                critical: false,
            })
            .expect("non-critical cycle edge applies");
        assert_eq!(applied, split);
        assert_eq!((index.patch_count(), index.rebuild_count()), (1, 1));
        assert_eq!(index.epoch(), 1);
        assert_eq!(
            index.dependent_count(Metric::Concentration, "c.com", ServiceKind::Cdn),
            2
        );
        assert_eq!(
            index.dependent_count(Metric::Impact, "c.com", ServiceKind::Cdn),
            1
        );
        edges.push(MirrorEdge::Prov(d.clone(), c.clone(), false));
        let g = fresh_graph(&sites, &providers, &edges);
        assert_matches_fresh(&index, &g, &opts, "added").unwrap_or_else(|e| panic!("{e}"));

        let applied = index
            .apply(&Churn::RemoveProviderEdge {
                from: d,
                to: c,
                critical: false,
            })
            .expect("non-critical cycle edge removes");
        assert_eq!(applied, split);
        assert_eq!((index.patch_count(), index.rebuild_count()), (2, 2));
        assert_eq!(index.epoch(), 2);
        assert_eq!(
            index.dependent_count(Metric::Concentration, "c.com", ServiceKind::Cdn),
            1
        );
        edges.pop();
        let g = fresh_graph(&sites, &providers, &edges);
        assert_matches_fresh(&index, &g, &opts, "removed").unwrap_or_else(|e| panic!("{e}"));
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
        let mut index = ReachIndex::build(&g, &MetricOptions::full());
        let impact = |index: &ReachIndex, p: &ProviderRef| {
            index.dependent_count(Metric::Impact, &p.key, p.kind)
        };
        assert_eq!(impact(&index, &d), 1);
        // Site 1 adopts the DNS provider directly: pure bit OR.
        index
            .apply(&Churn::AddSiteEdge {
                site: sites[1],
                provider: d.clone(),
                critical: true,
            })
            .expect("site add applies");
        // Site 2 adopts the CDN: reaches the DNS operator transitively.
        index
            .apply(&Churn::AddSiteEdge {
                site: sites[2],
                provider: c.clone(),
                critical: true,
            })
            .expect("site add applies");
        assert_eq!(impact(&index, &c), 2);
        assert_eq!(impact(&index, &d), 3);
        // Site 0 drops the CDN: d.com keeps its direct consumer and
        // the remaining transitive one.
        index
            .apply(&Churn::RemoveSiteEdge {
                site: sites[0],
                provider: c.clone(),
                critical: true,
            })
            .expect("site removal applies");
        assert_eq!(impact(&index, &c), 1);
        assert_eq!(impact(&index, &d), 2);
        assert_eq!(index.rebuild_count(), 0, "site churn never rebuilds");
        assert_eq!(index.patch_count(), 6, "three deltas, two metrics each");
        assert_eq!(index.epoch(), 3);
        index.verify_fresh().expect("patched epochs cross-check");
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
        let mut index = ReachIndex::build(&g, &MetricOptions::full());
        index
            .apply(&Churn::AddSiteEdge {
                site: SiteId(1_000),
                provider: c,
                critical: true,
            })
            .expect("site add applies");
        assert_eq!(
            index.dependent_count(Metric::Impact, "c.com", ServiceKind::Cdn),
            2
        );
        assert_eq!(index.verify_fresh(), Ok(()));
        assert_eq!(index.critical_deps_per_site().get(&SiteId(1_000)), Some(&1));
    }
}
