//! Memoized reverse reachability: the one index behind concentration
//! `C_p` and impact `I_p` (§2.2).
//!
//! Both metrics ask one question — which sites reach provider `p` over
//! consumer edges? — concentration over every edge, impact over
//! critical edges only, with [`MetricOptions`] choosing which of the
//! paper's three inter-service [`Hop`](crate::metrics::Hop)s are traversed. A reverse BFS per
//! provider would repeat the same frontier expansions for every
//! provider, so a full ranking would scale as (providers × full BFS). A
//! [`ReachIndex`] shares that work: [`ReachIndex::build`] copies the
//! graph's consumer rows once, then builds one dependent-site set per
//! provider and metric, so every provider's answer under either metric
//! is a table lookup.
//!
//! The sets are built layer by layer. Every `Hop` runs from a provider
//! kind to a later one in the order CA, CDN, DNS, and [`MetricOptions`]
//! can name nothing but those hops, so a traversed provider → provider
//! edge always leaves an earlier layer for a later one: the traversed
//! graph is acyclic and at most two hops deep. A provider's set is the
//! sites in its row plus the sets of the provider consumers the metric
//! traverses, and those consumers sit in earlier layers, so building the
//! layers in order (CA, CDN, DNS, then Cloud, which no hop reaches)
//! reads only finished sets. Rows may still hold edges no hop names
//! (a DNS provider consuming a CDN, one CDN consuming another); they are
//! kept for the churn that may remove them and never traversed. The
//! tests here hold every set equal to a reverse BFS, and
//! `tests/properties.rs` holds the index equal to the paper's literal
//! recursion under all eight hop subsets.
//!
//! Rows exist only for providers, since sites consume but are never
//! consumed; a row names each consumer as a site id or a provider slot.
//! The index owns them, so it has no lifetime tie to the [`DepGraph`] it
//! was built from and absorbs [`Churn`] deltas in place (see
//! [`ReachIndex::apply`]). One routine, `provider_set`, builds a
//! provider's set for the build, every churn recompute and
//! [`ReachIndex::verify_fresh`]. The per-provider state is a [`SiteSet`]
//! bitset and its size per metric.
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

/// Sentinel in the build's node → slot map for a site node.
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
    /// Both metrics, in the order an index keeps their sets.
    pub const ALL: [Metric; 2] = [Metric::Concentration, Metric::Impact];
}

/// A provider kind's layer: every `Hop` runs from a lower layer to a
/// higher one, so sets built in layer order read only finished sets.
fn layer(kind: ServiceKind) -> u8 {
    match kind {
        ServiceKind::Ca => 0,
        ServiceKind::Cdn => 1,
        ServiceKind::Dns => 2,
        ServiceKind::Cloud => 3,
    }
}

/// One entry of a provider's consumer row.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Consumer {
    /// A raw site index, or a provider slot when `provider` is set.
    id: u32,
    provider: bool,
    critical: bool,
}

/// A provider, the edges into it in the graph's CSR order, and the
/// edges out of it.
struct Provider {
    key: ProviderKey,
    kind: ServiceKind,
    row: Vec<Consumer>,
    /// One `(slot, critical)` entry per provider edge out of this
    /// provider — the rows' provider entries seen from the consumer
    /// side, so a churn delta finds the providers below the one it
    /// edits without scanning rows.
    consumes: Vec<(u32, bool)>,
}

/// The provider rows as one metric traverses them: the metric's edge
/// filter, in one place for every set build, plus the bound new sets
/// are sized to.
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

    /// Whether the metric traverses an edge of this criticality from a
    /// provider of kind `from` into one of kind `to`.
    fn hop(&self, critical: bool, from: ServiceKind, to: ServiceKind) -> bool {
        self.admits(critical) && self.opts.allows(from, to)
    }

    /// `p` and every provider it reaches over traversed hops — the
    /// sets a change to `p`'s set flows into — with `p` first and the
    /// rest in layer order, so each comes after its consumers among
    /// them. A slot past the last provider (one the delta being staged
    /// introduces) consumes nothing yet.
    fn below(&self, p: u32) -> Vec<u32> {
        let mut out = vec![p];
        let mut next = 0;
        while let Some(&q) = out.get(next) {
            next += 1;
            let Some(provider) = self.providers.get(q as usize) else {
                continue;
            };
            for &(r, critical) in &provider.consumes {
                let to = self.providers[r as usize].kind;
                if self.hop(critical, provider.kind, to) && !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out[1..].sort_by_key(|&q| layer(self.providers[q as usize].kind));
        out
    }
}

/// One provider's dependent-site set from a row of its consumers: the
/// sites the row admits, unioned with the set of every provider
/// consumer the metric traverses. Those consumers sit in earlier
/// layers; `set_of` hands back their finished sets.
fn provider_set<'r, 's>(
    rows: &Rows,
    kind: ServiceKind,
    row: impl Iterator<Item = &'r Consumer>,
    set_of: impl Fn(u32) -> &'s SiteSet,
) -> SiteSet {
    let mut set = SiteSet::with_bound(rows.bound);
    for c in row {
        if !c.provider {
            if rows.admits(c.critical) {
                set.insert(SiteId(c.id));
            }
        } else if rows.hop(c.critical, rows.providers[c.id as usize].kind, kind) {
            set.union_with(set_of(c.id));
        }
    }
    set
}

/// One metric's answers: each provider slot's dependent-site set and
/// its size.
struct Sets {
    sets: Vec<SiteSet>,
    counts: Vec<usize>,
}

impl Sets {
    /// Every provider's set, built layer by layer.
    fn build(rows: &Rows) -> Self {
        let n = rows.providers.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&slot| layer(rows.providers[slot as usize].kind));
        let mut sets = vec![SiteSet::default(); n];
        for slot in order {
            let provider = &rows.providers[slot as usize];
            let set = provider_set(rows, provider.kind, provider.row.iter(), |c| {
                &sets[c as usize]
            });
            sets[slot as usize] = set;
        }
        let counts = sets.iter().map(SiteSet::count).collect();
        Sets { sets, counts }
    }

    fn heap_bytes(&self) -> usize {
        self.sets.capacity() * std::mem::size_of::<SiteSet>()
            + self.sets.iter().map(SiteSet::heap_bytes).sum::<usize>()
            + self.counts.capacity() * std::mem::size_of::<usize>()
    }
}

/// A churn delta resolved to slots, with nothing yet changed: provider
/// `p`'s row gains `consumer`, or loses the entry at `removed_at`.
struct Edit {
    p: u32,
    kind: ServiceKind,
    consumer: Consumer,
    /// The consuming provider's kind, for a provider edge.
    consumer_kind: Option<ServiceKind>,
    removed_at: Option<usize>,
    /// Providers the delta introduces, in the slot order they take
    /// after the last provider.
    fresh: Vec<ProviderRef>,
}

/// The consuming end of the edge a [`Churn`] delta names.
enum ConsumerRef<'a> {
    Site(SiteId),
    Provider(&'a ProviderRef),
}

/// One metric's staged change to one provider's set.
enum Change {
    /// The site joins the set.
    Insert(SiteId),
    /// The set is replaced.
    Replace(SiteSet),
}

/// Concentration and impact for every provider of one graph under one
/// [`MetricOptions`] — an **epoch-versioned, incrementally patchable**
/// index that a report builds once and asks everything, and that a
/// resident query service keeps warm across churn.
///
/// It keeps one copy of the consumer rows and, per [`Metric`], one set
/// per provider. [`ReachIndex::apply`] absorbs a churn delta by
/// touching only the edited provider and the providers below it;
/// [`ReachIndex::verify_fresh`] rebuilds every set from the rows and
/// diffs them against the patched state — the serve daemon's paranoid
/// mode runs it after every delta, and the churn property tests hold
/// every patched set equal to a fresh [`ReachIndex::build`] and to a
/// reverse BFS.
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
    /// One `Sets` per metric, in [`Metric::ALL`] order.
    reach: [Sets; 2],
    /// Deltas applied, counted once per metric.
    patches: u64,
    /// [`ReachIndex::force_rebuild`] calls, counted once per metric.
    rebuilds: u64,
}

impl ReachIndex {
    /// Builds the index: copies each provider's consumer row from the
    /// graph once (provider slots in node order, so rankings break ties
    /// in node order), then builds each metric's sets layer by layer.
    /// Epoch starts at 0.
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
        let mut providers: Vec<Provider> = nodes
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
                consumes: Vec::new(),
            })
            .collect();
        let edges: Vec<(u32, u32, bool)> = providers
            .iter()
            .enumerate()
            .flat_map(|(v, p)| {
                p.row
                    .iter()
                    .filter(|c| c.provider)
                    .map(move |c| (c.id, v as u32, c.critical))
            })
            .collect();
        for (w, v, critical) in edges {
            providers[w as usize].consumes.push((v, critical));
        }
        let slots = providers
            .iter()
            .enumerate()
            .map(|(slot, p)| ((p.kind, p.key.clone()), slot as u32))
            .collect();
        let site_bound = graph.site_id_bound();
        let reach =
            Metric::ALL.map(|metric| Sets::build(&Rows::new(metric, &providers, opts, site_bound)));
        ReachIndex {
            opts: *opts,
            providers,
            slots,
            site_bound,
            epoch: 0,
            reach,
            patches: 0,
            rebuilds: 0,
        }
    }

    /// The index's current epoch. Every applied delta bumps it by one,
    /// so an answer tagged with an epoch names exactly one graph state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Deltas applied so far, counted once per metric.
    pub fn patch_count(&self) -> u64 {
        self.patches
    }

    /// [`ReachIndex::force_rebuild`] calls so far, counted once per
    /// metric.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Number of sites depending on provider `(key, kind)` under
    /// `metric` at the current epoch; 0 for unknown providers.
    pub fn dependent_count(&self, metric: Metric, key: &str, kind: ServiceKind) -> usize {
        self.slot(key, kind)
            .map_or(0, |slot| self.reach[metric as usize].counts[slot])
    }

    /// The dependent-site bitset of provider `(key, kind)` under
    /// `metric`, or `None` for unknown providers.
    pub fn dependent_set(&self, metric: Metric, key: &str, kind: ServiceKind) -> Option<&SiteSet> {
        self.slot(key, kind)
            .map(|slot| &self.reach[metric as usize].sets[slot])
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
        let impact = &self.reach[Metric::Impact as usize];
        let mut dense = vec![0usize; self.site_bound];
        for (provider, set) in self.providers.iter().zip(&impact.sets) {
            if ServiceKind::WEB_SERVICES.contains(&provider.kind) {
                for site in set.iter() {
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

    /// Applies one churn delta in two steps.
    ///
    /// 1. **Stage.** Resolve the delta to slots and compute both
    ///    metrics' new sets against the row as it will be after the
    ///    edit (a removal's recompute skips the removed entry), changing
    ///    nothing. Removing an edge that does not exist fails here, so
    ///    an error leaves every answer and the epoch as they were.
    /// 2. **Commit.** Register the providers the delta introduces, make
    ///    the row edit, update the consumed-provider list, and store the
    ///    new sets and counts; then advance the epoch by one.
    ///
    /// Per metric, an edge the metric does not traverse (a non-critical
    /// edge under impact, a provider edge no allowed `Hop` names)
    /// changes no set. Otherwise the edited provider and the providers
    /// below it change — at most two hops, CA → CDN → DNS:
    ///
    /// * **site add / provider-edge add** — a bit OR: the site, or the
    ///   consuming provider's set, joins each of those sets;
    /// * **removal** — those sets are recomputed from the rows, in
    ///   layer order, by the builder [`ReachIndex::build`] uses.
    #[must_use]
    pub fn apply(&mut self, delta: &Churn) -> Result<(), ChurnError> {
        let edit = self.resolve(delta)?;
        let changes = Metric::ALL.map(|metric| self.stage(metric, &edit));
        self.commit(edit, changes);
        Ok(())
    }

    /// Rebuilds both metrics' sets from the rows and diffs every
    /// provider's set and count against the patched state. Returns a
    /// description of the first divergence — the executable form of
    /// "every patched epoch is cross-checked against a fresh build".
    #[must_use]
    pub fn verify_fresh(&self) -> Result<(), String> {
        for (patched, metric) in self.reach.iter().zip(Metric::ALL) {
            let fresh = Sets::build(&self.rows(metric));
            for ((kind, key), &slot) in &self.slots {
                let slot = slot as usize;
                let (set, want) = (&patched.sets[slot], &fresh.sets[slot]);
                if set != want {
                    return Err(format!(
                        "{metric:?} of {key}/{kind:?}: patched set (|{}|) != fresh set (|{}|)",
                        set.count(),
                        want.count()
                    ));
                }
                let (n, want_n) = (patched.counts[slot], fresh.counts[slot]);
                if n != want_n {
                    return Err(format!(
                        "{metric:?} of {key}/{kind:?}: patched count {n} != fresh count {want_n}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Discards both metrics' sets and rebuilds them from the owned
    /// rows. The logical graph state is unchanged, so the epoch does
    /// not advance — this is the recovery hammer a resident service
    /// reaches for if [`ReachIndex::verify_fresh`] ever reports a
    /// divergence. Counts one rebuild per metric.
    pub fn force_rebuild(&mut self) {
        self.reach = Metric::ALL.map(|metric| Sets::build(&self.rows(metric)));
        self.rebuilds += 2;
    }

    /// Bytes of heap owned by the index: the row copy with each
    /// provider's consumed-provider list, the provider keys and lookup
    /// table, and both metrics' sets and counts.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.providers.capacity() * size_of::<Provider>()
            + self
                .providers
                .iter()
                .map(|p| {
                    p.row.capacity() * size_of::<Consumer>()
                        + p.consumes.capacity() * size_of::<(u32, bool)>()
                        + p.key.as_str().len()
                })
                .sum::<usize>()
            + self.slots.len() * (size_of::<(ServiceKind, ProviderKey)>() + size_of::<u32>())
            + self.reach.iter().map(Sets::heap_bytes).sum::<usize>()
    }

    // ---- lookups ----

    fn rows(&self, metric: Metric) -> Rows<'_> {
        Rows::new(metric, &self.providers, &self.opts, self.site_bound)
    }

    fn slot(&self, key: &str, kind: ServiceKind) -> Option<usize> {
        self.slots
            .get(&(kind, ProviderKey::new(key)))
            .map(|&slot| slot as usize)
    }

    fn score(&self, slot: usize) -> ProviderScore {
        ProviderScore {
            key: self.providers[slot].key.clone(),
            concentration: self.reach[Metric::Concentration as usize].counts[slot],
            impact: self.reach[Metric::Impact as usize].counts[slot],
        }
    }

    // ---- apply's two steps ----

    /// Resolves a delta to its row edit without making it: an unknown
    /// provider of an add gets the slot it will take on commit; a
    /// removal fails unless its providers and edge exist.
    fn resolve(&self, delta: &Churn) -> Result<Edit, ChurnError> {
        let (removal, provider, from, critical) = match delta {
            Churn::AddSiteEdge {
                site,
                provider,
                critical,
            } => (false, provider, ConsumerRef::Site(*site), *critical),
            Churn::RemoveSiteEdge {
                site,
                provider,
                critical,
            } => (true, provider, ConsumerRef::Site(*site), *critical),
            Churn::AddProviderEdge { from, to, critical } => {
                (false, to, ConsumerRef::Provider(from), *critical)
            }
            Churn::RemoveProviderEdge { from, to, critical } => {
                (true, to, ConsumerRef::Provider(from), *critical)
            }
        };
        let mut fresh: Vec<ProviderRef> = Vec::new();
        let mut slot_of = |p: &ProviderRef| -> Result<u32, ChurnError> {
            if let Some(slot) = self.slot(&p.key, p.kind) {
                return Ok(slot as u32);
            }
            if removal {
                return Err(ChurnError::NoSuchEdge {
                    detail: format!("provider {} is unknown", p.key),
                });
            }
            let at = fresh.iter().position(|f| f == p).unwrap_or_else(|| {
                fresh.push(p.clone());
                fresh.len() - 1
            });
            let slot = self.providers.len() + at;
            assert!(
                u32::try_from(slot).is_ok(),
                "reach index overflow: {slot} providers exhaust the u32 slot space"
            );
            Ok(slot as u32)
        };
        let (consumer, consumer_kind) = match from {
            ConsumerRef::Site(site) => (
                Consumer {
                    id: site.0,
                    provider: false,
                    critical,
                },
                None,
            ),
            ConsumerRef::Provider(from) => (
                Consumer {
                    id: slot_of(from)?,
                    provider: true,
                    critical,
                },
                Some(from.kind),
            ),
        };
        let p = slot_of(provider)?;
        let removed_at = if removal {
            let at = self.providers[p as usize]
                .row
                .iter()
                .position(|&c| c == consumer);
            let name = match from {
                ConsumerRef::Site(site) => site.to_string(),
                ConsumerRef::Provider(from) => from.key.clone(),
            };
            Some(at.ok_or_else(|| ChurnError::NoSuchEdge {
                detail: format!("{name} -> {} (critical={critical})", provider.key),
            })?)
        } else {
            None
        };
        Ok(Edit {
            p,
            kind: provider.kind,
            consumer,
            consumer_kind,
            removed_at,
            fresh,
        })
    }

    /// One metric's new sets for a resolved edit, in the order to
    /// store them; the index is not changed.
    fn stage(&self, metric: Metric, edit: &Edit) -> Vec<(u32, Change)> {
        let rows = self.rows(metric);
        let Sets { sets, .. } = &self.reach[metric as usize];
        let c = edit.consumer;
        let traversed = match edit.consumer_kind {
            None => rows.admits(c.critical),
            Some(from) => rows.hop(c.critical, from, edit.kind),
        };
        if !traversed {
            return Vec::new();
        }
        let below = rows.below(edit.p);
        if let Some(at) = edit.removed_at {
            let mut staged: Vec<(u32, SiteSet)> = Vec::new();
            for q in below {
                let provider = &self.providers[q as usize];
                let row = provider.row.as_slice();
                let (head, tail) = if q == edit.p {
                    (&row[..at], &row[at + 1..])
                } else {
                    (row, &[][..])
                };
                let set = provider_set(&rows, provider.kind, head.iter().chain(tail), |r| {
                    staged
                        .iter()
                        .find(|(s, _)| *s == r)
                        .map_or(&sets[r as usize], |(_, set)| set)
                });
                staged.push((q, set));
            }
            return staged
                .into_iter()
                .map(|(q, set)| (q, Change::Replace(set)))
                .collect();
        }
        if !c.provider {
            let site = SiteId(c.id);
            return below
                .into_iter()
                .filter(|&q| !sets.get(q as usize).is_some_and(|set| set.contains(site)))
                .map(|q| (q, Change::Insert(site)))
                .collect();
        }
        // A provider the delta introduces has an empty set: adding its
        // edge moves nothing.
        let Some(source) = sets.get(c.id as usize) else {
            return Vec::new();
        };
        below
            .into_iter()
            .map(|q| {
                let mut set = sets
                    .get(q as usize)
                    .cloned()
                    .unwrap_or_else(|| SiteSet::with_bound(rows.bound));
                set.union_with(source);
                (q, Change::Replace(set))
            })
            .collect()
    }

    /// Makes a resolved edit and stores its staged sets, then advances
    /// the epoch.
    fn commit(&mut self, edit: Edit, changes: [Vec<(u32, Change)>; 2]) {
        for p in edit.fresh {
            let key = ProviderKey::new(p.key.as_str());
            self.slots
                .insert((p.kind, key.clone()), self.providers.len() as u32);
            self.providers.push(Provider {
                key,
                kind: p.kind,
                row: Vec::new(),
                consumes: Vec::new(),
            });
            for reach in &mut self.reach {
                reach.sets.push(SiteSet::with_bound(self.site_bound));
                reach.counts.push(0);
            }
        }
        let c = edit.consumer;
        let row = &mut self.providers[edit.p as usize].row;
        match edit.removed_at {
            None => row.push(c),
            Some(at) => {
                row.remove(at);
            }
        }
        if c.provider {
            let consumes = &mut self.providers[c.id as usize].consumes;
            let entry = (edit.p, c.critical);
            match edit.removed_at {
                None => consumes.push(entry),
                Some(_) => {
                    if let Some(at) = consumes.iter().position(|&e| e == entry) {
                        consumes.swap_remove(at);
                    }
                }
            }
        } else {
            self.site_bound = self.site_bound.max(c.id as usize + 1);
        }
        for (reach, changes) in self.reach.iter_mut().zip(changes) {
            for (q, change) in changes {
                let q = q as usize;
                match change {
                    Change::Insert(site) => {
                        reach.sets[q].insert(site);
                        reach.counts[q] += 1;
                    }
                    Change::Replace(set) => {
                        reach.counts[q] = set.count();
                        reach.sets[q] = set;
                    }
                }
            }
        }
        self.patches += 2;
        self.epoch += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, GraphBuilder};
    use crate::metrics::Hop;
    use std::collections::HashSet;
    use webdeps_measure::measure_world;
    use webdeps_testkit::{check_with, gen, tk_assert, Config};
    use webdeps_worldgen::{World, WorldConfig};

    /// The reference every index set is held to: the sites depending on
    /// `provider` under `metric`, by one reverse BFS from the provider
    /// over the graph's consumer edges. It shares no code with the
    /// layered build, so a patched set is never checked only against the
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

    /// Every subset of the three hops, from none to all.
    fn every_subset() -> impl Iterator<Item = MetricOptions> {
        (0..8u8).map(|mask| {
            let hops: Vec<Hop> = Hop::ALL
                .into_iter()
                .filter(|&hop| mask & (1 << hop as u8) != 0)
                .collect();
            MetricOptions::of(&hops)
        })
    }

    #[test]
    fn index_matches_bfs_on_measured_world() {
        let world = World::generate(WorldConfig::small(123));
        let ds = measure_world(&world);
        let g = DepGraph::from_dataset(&ds);
        for opts in [
            MetricOptions::direct_only(),
            MetricOptions::full(),
            MetricOptions::only(Hop::CaDns),
        ] {
            let index = ReachIndex::build(&g, &opts);
            assert_matches_bfs(&index, &g, &opts, &format!("{opts:?}"))
                .unwrap_or_else(|e| panic!("{e}"));
        }
        // Unknown providers score zero, like the BFS from a non-provider.
        let index = ReachIndex::build(&g, &MetricOptions::full());
        assert_eq!(
            index.dependent_count(Metric::Impact, "nope.com", ServiceKind::Dns),
            0
        );
        assert!(index
            .dependent_set(Metric::Concentration, "nope.com", ServiceKind::Dns)
            .is_none());
    }

    // ---- churn ----

    /// A churn delta plus the edge universe it ran against, mirrored
    /// outside the index so a fresh graph can be rebuilt per step.
    #[derive(Clone, Debug, PartialEq)]
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
    /// index under each of the eight hop subsets, with both metrics of
    /// every epoch compared exhaustively against `ReachIndex::build`
    /// and the BFS over a freshly assembled graph. Provider edges join
    /// every ordered pair of kinds, upward and same-kind ones included,
    /// and about half the providers first appear through churn.
    #[test]
    fn index_matches_fresh_build_under_churn() {
        let sites: Vec<SiteId> = (0..10).map(SiteId).collect();
        let universe: Vec<ProviderRef> = vec![
            ProviderRef::new("d0.com", ServiceKind::Dns),
            ProviderRef::new("d1.com", ServiceKind::Dns),
            ProviderRef::new("c0.com", ServiceKind::Cdn),
            ProviderRef::new("c1.com", ServiceKind::Cdn),
            ProviderRef::new("a0.com", ServiceKind::Ca),
            ProviderRef::new("a1.com", ServiceKind::Ca),
            ProviderRef::new("k0.com", ServiceKind::Cloud),
        ];
        let subsets: Vec<MetricOptions> = every_subset().collect();
        check_with(
            &Config {
                cases: 64,
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
                let opts = subsets[(next() % 8) as usize];
                // The providers the index knows: the initial graph's,
                // then each one churn introduces.
                let mut known: Vec<ProviderRef> = universe
                    .iter()
                    .filter(|_| next() % 2 == 0)
                    .cloned()
                    .collect();
                let mut edges: Vec<MirrorEdge> = Vec::new();
                for _ in 0..(next() % 12) {
                    if known.is_empty() {
                        break;
                    }
                    let s = sites[(next() % sites.len() as u64) as usize];
                    let p = known[(next() % known.len() as u64) as usize].clone();
                    edges.push(MirrorEdge::Site(s, p, next() % 2 == 0));
                }
                for _ in 0..(next() % 4) {
                    if known.len() < 2 {
                        break;
                    }
                    let f = known[(next() % known.len() as u64) as usize].clone();
                    let t = known[(next() % known.len() as u64) as usize].clone();
                    if f != t {
                        edges.push(MirrorEdge::Prov(f, t, next() % 2 == 0));
                    }
                }
                let g0 = fresh_graph(&sites, &known, &edges);
                let mut index = ReachIndex::build(&g0, &opts);
                tk_assert!(index.epoch() == 0, "fresh index must start at epoch 0");

                for step in 0..24 {
                    let pick = |r: u64| universe[(r % universe.len() as u64) as usize].clone();
                    let delta = match next() % 5 {
                        0 => {
                            let s = sites[(next() % sites.len() as u64) as usize];
                            let p = pick(next());
                            let c = next() % 2 == 0;
                            edges.push(MirrorEdge::Site(s, p.clone(), c));
                            Churn::AddSiteEdge {
                                site: s,
                                provider: p,
                                critical: c,
                            }
                        }
                        1 => {
                            let f = pick(next());
                            let t = pick(next());
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
                        2 => {
                            // A removal the mirror does not hold (an
                            // unknown provider or a missing edge) fails
                            // and changes no answer and no epoch.
                            let (s, p, f) = (
                                sites[(next() % sites.len() as u64) as usize],
                                pick(next()),
                                pick(next()),
                            );
                            let c = next() % 2 == 0;
                            let (phantom, delta) = if next() % 2 == 0 {
                                (
                                    MirrorEdge::Site(s, p.clone(), c),
                                    Churn::RemoveSiteEdge {
                                        site: s,
                                        provider: p,
                                        critical: c,
                                    },
                                )
                            } else {
                                (
                                    MirrorEdge::Prov(f.clone(), p.clone(), c),
                                    Churn::RemoveProviderEdge {
                                        from: f,
                                        to: p,
                                        critical: c,
                                    },
                                )
                            };
                            if edges.contains(&phantom) {
                                continue;
                            }
                            let before = (index.epoch(), index.patch_count());
                            tk_assert!(
                                index.apply(&delta).is_err(),
                                "step {step}: phantom removal must fail"
                            );
                            tk_assert!(
                                (index.epoch(), index.patch_count()) == before,
                                "step {step}: a failed apply must not advance the epoch"
                            );
                            let g = fresh_graph(&sites, &known, &edges);
                            assert_matches_fresh(&index, &g, &opts, &format!("step {step}"))?;
                            continue;
                        }
                        _ => {
                            if edges.is_empty() {
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
                    for p in match &delta {
                        Churn::AddSiteEdge { provider, .. } => vec![provider],
                        Churn::AddProviderEdge { from, to, .. } => vec![from, to],
                        _ => vec![],
                    } {
                        if !known.contains(p) {
                            known.push(p.clone());
                        }
                    }
                    let before = (index.epoch(), index.patch_count());
                    index
                        .apply(&delta)
                        .map_err(|e| format!("step {step}: apply failed: {e}"))?;
                    tk_assert!(
                        index.epoch() == before.0 + 1,
                        "each applied delta must bump the epoch by exactly one"
                    );
                    tk_assert!(
                        index.patch_count() == before.1 + 2,
                        "each applied delta counts once per metric"
                    );
                    let g = fresh_graph(&sites, &known, &edges);
                    assert_matches_fresh(&index, &g, &opts, &format!("step {step} {opts:?}"))?;
                }
                Ok(())
            },
        );
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
        // Only the repair rebuilds, once per metric, on the same epoch.
        index.force_rebuild();
        assert_eq!((index.rebuild_count(), index.epoch()), (2, 3));
        assert_eq!(impact(&index, &d), 2);
    }

    #[test]
    fn removal_recomputes_the_providers_below_in_layer_order() {
        // a.com (CA) consumes d.com (DNS) and c.com (CDN), and c.com
        // consumes d.com, so a change at the CA reaches the DNS
        // provider both directly and through the CDN. d.com takes the
        // lower slot, so only the layer order recomputes the CDN first.
        let site = SiteId(0);
        let d = ProviderRef::new("d.com", ServiceKind::Dns);
        let c = ProviderRef::new("c.com", ServiceKind::Cdn);
        let a = ProviderRef::new("a.com", ServiceKind::Ca);
        let providers = [d.clone(), c.clone(), a.clone()];
        let mut edges = vec![
            MirrorEdge::Site(site, a.clone(), true),
            MirrorEdge::Prov(a.clone(), d.clone(), true),
            MirrorEdge::Prov(a.clone(), c.clone(), true),
            MirrorEdge::Prov(c, d.clone(), true),
        ];
        let opts = MetricOptions::full();
        let mut index = ReachIndex::build(&fresh_graph(&[site], &providers, &edges), &opts);
        let impact = |index: &ReachIndex| index.dependent_count(Metric::Impact, &d.key, d.kind);
        assert_eq!(impact(&index), 1);
        index
            .apply(&Churn::RemoveSiteEdge {
                site,
                provider: a,
                critical: true,
            })
            .expect("site removal applies");
        assert_eq!(impact(&index), 0);
        edges.remove(0);
        let g = fresh_graph(&[site], &providers, &edges);
        assert_matches_fresh(&index, &g, &opts, "removed").unwrap_or_else(|e| panic!("{e}"));
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
