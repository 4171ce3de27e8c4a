//! The typed dependency graph.
//!
//! Nodes are websites and (wire-identified) providers; edges are "uses
//! service" relations carrying the service kind and a criticality flag
//! (single provider, no redundancy). Both direct (website → provider)
//! and inter-service (provider → provider) dependencies live in one
//! graph, which is what lets the §5 analysis light up hidden paths like
//! *site → DigiCert → DNSMadeEasy*.
//!
//! Storage is columnar: node payloads are one [`NodeKind`] word each
//! (provider keys live once in a string [`Interner`]), edges are three
//! parallel flat columns, and adjacency is CSR — two `u32` arrays per
//! direction instead of a `Vec<Vec<usize>>` of per-node heap
//! allocations. Mutation happens in a [`GraphBuilder`]; [`DepGraph`]
//! itself is immutable, so the CSR offsets can never go stale. Ids are
//! assigned in insertion order, so the same build sequence always
//! yields the same graph: [`DepGraph::from_dataset`], the one builder,
//! walks the dataset serially and is identical for identical datasets.

use std::collections::BTreeMap;
use webdeps_measure::{MeasurementDataset, ProviderKey};
use webdeps_model::{Interner, NameId, ServiceKind, SiteId};
use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel in dense id columns ("no node here").
const NO_NODE: u32 = u32::MAX;

/// What a node is — the compact, copyable payload stored in the node
/// column. Provider identities are interned; resolve them with
/// [`DepGraph::name`] (or go through [`DepGraph::node_ref`] for the
/// owned form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// A website from the measured population.
    Site(SiteId),
    /// A provider of a service, identified by its interned key.
    Provider(NameId, ServiceKind),
}

/// A node in owned, human-readable form — the lookup/display type.
/// ([`NodeKind`] is what the columns store; this is what callers who
/// need the provider-key *string* work with.)
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeRef {
    /// A website from the measured population.
    Site(SiteId),
    /// A provider of a service.
    Provider(ProviderKey, ServiceKind),
}

/// One dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeKind {
    /// The service being consumed.
    pub service: ServiceKind,
    /// Whether the consumer is critically dependent through this edge
    /// (sole provider of this service, no redundancy).
    pub critical: bool,
}

/// The mutable assembly stage of a [`DepGraph`].
///
/// Interns nodes (assigning dense ids in insertion order) and records
/// edges into flat columns; [`GraphBuilder::build`] freezes the result
/// and derives the CSR adjacency. Splitting building from querying is
/// what keeps the immutable graph's offsets trustworthy for its whole
/// lifetime.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    nodes: Vec<NodeKind>,
    names: Interner,
    provider_index: BTreeMap<(NameId, ServiceKind), NodeId>,
    site_index: Vec<u32>,
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    edge_kind: Vec<EdgeKind>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Interns a node, returning its id.
    pub fn intern(&mut self, node: NodeRef) -> NodeId {
        match node {
            NodeRef::Site(site) => self.intern_site(site),
            NodeRef::Provider(key, kind) => self.intern_provider(key.as_str(), kind),
        }
    }

    /// Interns a site node.
    pub fn intern_site(&mut self, site: SiteId) -> NodeId {
        let idx = site.index();
        if idx >= self.site_index.len() {
            self.site_index.resize(idx + 1, NO_NODE);
        }
        if self.site_index[idx] != NO_NODE {
            return NodeId(self.site_index[idx]);
        }
        let id = self.push_node(NodeKind::Site(site));
        self.site_index[idx] = id.0;
        id
    }

    /// Interns a provider node by key string.
    pub fn intern_provider(&mut self, key: &str, kind: ServiceKind) -> NodeId {
        let name = self.names.intern(key);
        if let Some(&id) = self.provider_index.get(&(name, kind)) {
            return id;
        }
        let id = self.push_node(NodeKind::Provider(name, kind));
        self.provider_index.insert((name, kind), id);
        id
    }

    fn push_node(&mut self, node: NodeKind) -> NodeId {
        // Checked id assignment: a plain `as u32` would silently wrap
        // past 4Gi nodes and alias existing ids.
        assert!(
            u32::try_from(self.nodes.len()).is_ok(),
            "graph overflow: {} nodes exhaust the u32 NodeId space",
            self.nodes.len()
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        assert!(
            u32::try_from(self.edge_from.len()).is_ok(),
            "graph overflow: {} edges exhaust the u32 edge-id space",
            self.edge_from.len()
        );
        self.edge_from.push(from.0);
        self.edge_to.push(to.0);
        self.edge_kind.push(kind);
    }

    /// Freezes the builder into an immutable [`DepGraph`], deriving the
    /// CSR adjacency (a counting sort per direction, so per-node edge
    /// lists keep insertion order — the order a `Vec<Vec<_>>` would
    /// have had).
    pub fn build(self) -> DepGraph {
        let n = self.nodes.len();
        let m = self.edge_from.len();

        let csr = |endpoints: &[u32]| -> (Vec<u32>, Vec<u32>) {
            let mut start = vec![0u32; n + 1];
            for &v in endpoints {
                start[v as usize + 1] += 1;
            }
            for i in 0..n {
                start[i + 1] += start[i];
            }
            let mut cursor = start[..n].to_vec();
            let mut edges = vec![0u32; m];
            for (e, &v) in endpoints.iter().enumerate() {
                let slot = cursor[v as usize];
                edges[slot as usize] = e as u32;
                cursor[v as usize] += 1;
            }
            (start, edges)
        };
        let (out_start, out_edges) = csr(&self.edge_from);
        let (in_start, in_edges) = csr(&self.edge_to);

        let provider_nodes: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, NodeKind::Provider(..)))
            .map(|(i, _)| NodeId(i as u32))
            .collect();

        DepGraph {
            nodes: self.nodes,
            names: self.names,
            provider_index: self.provider_index,
            site_index: self.site_index,
            provider_nodes,
            edge_from: self.edge_from,
            edge_to: self.edge_to,
            edge_kind: self.edge_kind,
            out_start,
            out_edges,
            in_start,
            in_edges,
        }
    }
}

/// The assembled, immutable graph.
///
/// Node lookup is fully interned: provider keys live once in a string
/// [`Interner`] so the provider index compares `(u32, kind)` pairs
/// instead of hashing/comparing registrable-domain strings, and sites
/// index a dense array by [`SiteId`]. Edges live in three flat columns
/// (`from`, `to`, kind) with CSR offset arrays per direction; every
/// traversal streams contiguous `u32`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepGraph {
    nodes: Vec<NodeKind>,
    names: Interner,
    provider_index: BTreeMap<(NameId, ServiceKind), NodeId>,
    site_index: Vec<u32>,
    /// Provider node ids in id order (dense `providers_of` scans).
    provider_nodes: Vec<NodeId>,
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    edge_kind: Vec<EdgeKind>,
    out_start: Vec<u32>,
    out_edges: Vec<u32>,
    in_start: Vec<u32>,
    in_edges: Vec<u32>,
}

impl Default for DepGraph {
    /// An empty (but structurally valid) graph.
    fn default() -> Self {
        GraphBuilder::new().build()
    }
}

impl DepGraph {
    /// Builds the graph from a measurement dataset.
    ///
    /// One serial pass over the sites, in dataset order: each site node,
    /// then an edge to every third-party provider of each service whose
    /// state was characterized (critical when the state is the single
    /// third-party one), then the provider → provider edges of the §3.4
    /// table. Dataset [`NameId`]s map to graph nodes through three dense
    /// per-kind tables, so no edge hashes a key string.
    pub fn from_dataset(ds: &MeasurementDataset) -> DepGraph {
        let mut g = GraphBuilder::new();
        g.site_index = vec![NO_NODE; ds.len()];
        // Dense dataset-name → graph-node remap tables, one per service
        // kind a site can consume.
        let mut remap = [
            vec![NO_NODE; ds.names_len()],
            vec![NO_NODE; ds.names_len()],
            vec![NO_NODE; ds.names_len()],
        ];
        for site in ds.sites() {
            let site_node = g.intern_site(site.id());
            let services = [
                (
                    ServiceKind::Dns,
                    site.dns_state().map(|s| s == DepState::SingleThird),
                ),
                (
                    ServiceKind::Cdn,
                    site.cdn_state().map(|s| s == CdnProfile::SingleThird),
                ),
                (
                    ServiceKind::Ca,
                    site.ca_state().map(|s| s == CaProfile::ThirdNoStaple),
                ),
            ];
            for (slot, (service, critical)) in services.into_iter().enumerate() {
                let Some(critical) = critical else {
                    continue;
                };
                for name in site.third_parties(service) {
                    let node = &mut remap[slot][name.index()];
                    if *node == NO_NODE {
                        *node = g.intern_provider(ds.name(name), service).0;
                    }
                    g.add_edge(site_node, NodeId(*node), EdgeKind { service, critical });
                }
            }
        }
        for pm in ds.providers() {
            let from = g.intern_provider(pm.key.as_str(), pm.kind);
            for (dep, service) in [
                (&pm.dns_dep, ServiceKind::Dns),
                (&pm.cdn_dep, ServiceKind::Cdn),
            ] {
                let Some(dep) = dep else {
                    continue;
                };
                for key in &dep.providers {
                    let to = g.intern_provider(key.as_str(), service);
                    let critical = dep.critical;
                    g.add_edge(from, to, EdgeKind { service, critical });
                }
            }
        }
        g.build()
    }

    /// Exclusive upper bound on raw [`SiteId`] indexes present in the
    /// graph — the capacity dense per-site tables need.
    pub fn site_id_bound(&self) -> usize {
        self.site_index.len()
    }

    /// Node payload (one copyable word).
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()]
    }

    /// Node payload in owned, display form (allocates for providers;
    /// prefer [`DepGraph::node`] on hot paths).
    pub fn node_ref(&self, id: NodeId) -> NodeRef {
        match self.node(id) {
            NodeKind::Site(site) => NodeRef::Site(site),
            NodeKind::Provider(name, kind) => {
                NodeRef::Provider(ProviderKey::new(self.names.resolve(name)), kind)
            }
        }
    }

    /// The string behind an interned provider identity.
    #[inline]
    pub fn name(&self, id: NameId) -> &str {
        self.names.resolve(id)
    }

    /// The provider key string of a node, if it is a provider.
    pub fn provider_key_of(&self, id: NodeId) -> Option<&str> {
        match self.node(id) {
            NodeKind::Provider(name, _) => Some(self.names.resolve(name)),
            NodeKind::Site(_) => None,
        }
    }

    /// Looks up a node id.
    pub fn find(&self, node: &NodeRef) -> Option<NodeId> {
        match node {
            NodeRef::Site(site) => match self.site_index.get(site.index()) {
                Some(&raw) if raw != NO_NODE => Some(NodeId(raw)),
                _ => None,
            },
            NodeRef::Provider(key, kind) => {
                let name = self.names.get(key.as_str())?;
                self.provider_index.get(&(name, *kind)).copied()
            }
        }
    }

    /// Looks up a provider node.
    pub fn provider(&self, key: &str, kind: ServiceKind) -> Option<NodeId> {
        let name = self.names.get(key)?;
        self.provider_index.get(&(name, kind)).copied()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_from.len()
    }

    /// All provider nodes of a kind (a scan of the dense provider
    /// column, not the whole node table).
    pub fn providers_of(&self, kind: ServiceKind) -> impl Iterator<Item = NodeId> + '_ {
        self.provider_nodes.iter().copied().filter(
            move |&id| matches!(self.nodes[id.index()], NodeKind::Provider(_, k) if k == kind),
        )
    }

    /// Outgoing dependencies of a node: `(target, kind)`.
    #[inline]
    pub fn deps_of(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeKind)> + '_ {
        let lo = self.out_start[id.index()] as usize;
        let hi = self.out_start[id.index() + 1] as usize;
        self.out_edges[lo..hi]
            .iter()
            .map(move |&e| (NodeId(self.edge_to[e as usize]), self.edge_kind[e as usize]))
    }

    /// Incoming consumers of a node: `(source, kind)`.
    #[inline]
    pub fn consumers_of(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeKind)> + '_ {
        let lo = self.in_start[id.index()] as usize;
        let hi = self.in_start[id.index() + 1] as usize;
        self.in_edges[lo..hi].iter().map(move |&e| {
            (
                NodeId(self.edge_from[e as usize]),
                self.edge_kind[e as usize],
            )
        })
    }

    /// Bytes of heap owned by the graph's arenas and indexes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<NodeKind>()
            + self.names.heap_bytes()
            + self.provider_index.len() * (size_of::<(NameId, ServiceKind)>() + size_of::<NodeId>())
            + self.site_index.capacity() * size_of::<u32>()
            + self.provider_nodes.capacity() * size_of::<NodeId>()
            + self.edge_from.capacity() * size_of::<u32>()
            + self.edge_to.capacity() * size_of::<u32>()
            + self.edge_kind.capacity() * size_of::<EdgeKind>()
            + self.out_start.capacity() * size_of::<u32>()
            + self.out_edges.capacity() * size_of::<u32>()
            + self.in_start.capacity() * size_of::<u32>()
            + self.in_edges.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_measure::measure_world;
    use webdeps_worldgen::{World, WorldConfig};

    fn graph() -> (World, MeasurementDataset, DepGraph) {
        let world = World::generate(WorldConfig::small(123));
        let ds = measure_world(&world);
        let g = DepGraph::from_dataset(&ds);
        (world, ds, g)
    }

    #[test]
    fn graph_has_sites_and_providers() {
        let (world, _, g) = graph();
        assert!(
            g.node_count() > world.truth.len(),
            "providers add nodes beyond sites"
        );
        assert!(
            g.edge_count() > world.truth.len(),
            "most sites have multiple dependencies"
        );
        assert!(g.providers_of(ServiceKind::Dns).count() > 5);
        assert!(g.providers_of(ServiceKind::Cdn).count() > 5);
        assert!(g.providers_of(ServiceKind::Ca).count() > 5);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut g = GraphBuilder::new();
        let a = g.intern(NodeRef::Site(SiteId(1)));
        let b = g.intern(NodeRef::Site(SiteId(1)));
        assert_eq!(a, b);
        let g = g.build();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.find(&NodeRef::Site(SiteId(1))), Some(a));
        assert_eq!(g.find(&NodeRef::Site(SiteId(2))), None);
    }

    #[test]
    fn digicert_chain_is_wired() {
        let (_, _, g) = graph();
        let digicert = g
            .provider("digicert.com", ServiceKind::Ca)
            .expect("DigiCert node");
        let deps: Vec<_> = g.deps_of(digicert).collect();
        assert!(
            deps.iter().any(|(to, kind)| {
                kind.service == ServiceKind::Dns
                    && kind.critical
                    && g.provider_key_of(*to) == Some("dnsmadeeasy.com")
            }),
            "DigiCert → DNSMadeEasy critical edge, got {deps:?}"
        );
        assert!(deps.iter().any(|(to, kind)| {
            kind.service == ServiceKind::Cdn && g.provider_key_of(*to) == Some("incapdns.net")
        }));
        // And sites consume DigiCert.
        assert!(g.consumers_of(digicert).count() > 0);
    }

    #[test]
    fn criticality_flags_follow_states() {
        let (world, ds, g) = graph();
        for s in ds.sites().take(400) {
            let truth = world.site(s.id());
            if truth.dns.state == DepState::MultiThird {
                let node = g.find(&NodeRef::Site(s.id())).expect("site node");
                let dns_edges: Vec<_> = g
                    .deps_of(node)
                    .filter(|(_, k)| k.service == ServiceKind::Dns)
                    .collect();
                if dns_edges.len() >= 2 {
                    assert!(
                        dns_edges.iter().all(|(_, k)| !k.critical),
                        "multi-provider sites are never critical"
                    );
                }
            }
        }
    }

    #[test]
    fn csr_adjacency_matches_naive_edge_lists() {
        use webdeps_testkit::{check_with, gen, tk_assert, Config};
        // Random small graphs: CSR deps_of/consumers_of must equal a
        // Vec<Vec<_>> reference built from the same insertion sequence,
        // in the same per-node order.
        check_with(
            &Config {
                cases: 48,
                ..Config::default()
            },
            "csr_adjacency_matches_naive_edge_lists",
            &gen::u64_any(),
            |&seed| {
                let mut state = seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let n_sites = 1 + (next() % 12) as usize;
                let n_providers = 1 + (next() % 6) as usize;
                let mut b = GraphBuilder::new();
                let mut ids: Vec<NodeId> = Vec::new();
                for i in 0..n_sites {
                    ids.push(b.intern_site(SiteId(i as u32)));
                }
                for p in 0..n_providers {
                    let kind = [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca][p % 3];
                    ids.push(b.intern_provider(&format!("p{p}.net"), kind));
                }
                let n_edges = (next() % 40) as usize;
                let mut out_ref: Vec<Vec<(NodeId, EdgeKind)>> = vec![Vec::new(); ids.len()];
                let mut in_ref: Vec<Vec<(NodeId, EdgeKind)>> = vec![Vec::new(); ids.len()];
                for _ in 0..n_edges {
                    let from = ids[(next() as usize) % ids.len()];
                    let to = ids[(next() as usize) % ids.len()];
                    let kind = EdgeKind {
                        service: [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca]
                            [(next() % 3) as usize],
                        critical: next() % 2 == 0,
                    };
                    b.add_edge(from, to, kind);
                    out_ref[from.index()].push((to, kind));
                    in_ref[to.index()].push((from, kind));
                }
                let g = b.build();
                for &id in &ids {
                    let deps: Vec<_> = g.deps_of(id).collect();
                    tk_assert!(
                        deps == out_ref[id.index()],
                        "deps_of({id:?}) diverged from the naive edge list"
                    );
                    let cons: Vec<_> = g.consumers_of(id).collect();
                    tk_assert!(
                        cons == in_ref[id.index()],
                        "consumers_of({id:?}) diverged from the naive edge list"
                    );
                }
                tk_assert!(g.edge_count() == n_edges, "edge count");
                Ok(())
            },
        );
    }
}
