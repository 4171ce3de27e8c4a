//! Concentration and impact (§2.2).
//!
//! *Concentration* `C_p`: websites depending on provider `p` directly or
//! through inter-service chains. *Impact* `I_p`: websites *critically*
//! depending on `p` — every edge on the chain must be critical.
//!
//! [`Metrics::dependent_sites`] answers one provider with a reverse
//! breadth-first search over consumer edges; the rankings and
//! per-site counts read a shared [`ReachIndex`] instead, and the tests
//! hold every index set equal to the BFS. The paper's `f_c`/`f_i`
//! recursive set unions are transcribed literally only as a test
//! oracle (`tests/properties.rs` holds the BFS equal to them).
//!
//! [`MetricOptions`] restricts which inter-service edge types may be
//! traversed — Figures 7, 8, 9 each consider exactly one of CA→DNS,
//! CA→CDN, CDN→DNS on top of the direct site edges.

use crate::graph::{DepGraph, NodeId, NodeKind};
use crate::reach::ReachIndex;
use std::collections::HashSet;
use webdeps_measure::ProviderKey;
use webdeps_model::{fan_out, fan_out_chunked, ServiceKind, SiteId};

/// Which inter-service (provider → provider) hops are considered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricOptions {
    /// Allowed `(consumer provider kind, consumed service)` hops.
    /// Empty = direct dependencies only.
    pub interservice: Vec<(ServiceKind, ServiceKind)>,
}

impl MetricOptions {
    /// Direct dependencies only (the §4 analysis).
    pub fn direct_only() -> Self {
        MetricOptions {
            interservice: vec![],
        }
    }

    /// Everything (the §8.1 "full picture" numbers).
    pub fn full() -> Self {
        MetricOptions {
            interservice: vec![
                (ServiceKind::Ca, ServiceKind::Dns),
                (ServiceKind::Ca, ServiceKind::Cdn),
                (ServiceKind::Cdn, ServiceKind::Dns),
            ],
        }
    }

    /// Exactly one inter-service type (Figures 7, 8, 9).
    pub fn only(consumer: ServiceKind, service: ServiceKind) -> Self {
        MetricOptions {
            interservice: vec![(consumer, service)],
        }
    }

    pub(crate) fn allows(&self, consumer_kind: ServiceKind, service: ServiceKind) -> bool {
        self.interservice.contains(&(consumer_kind, service))
    }
}

/// A provider's computed metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderScore {
    /// Provider identity.
    pub key: ProviderKey,
    /// Concentration: sites depending directly or indirectly.
    pub concentration: usize,
    /// Impact: sites critically depending.
    pub impact: usize,
}

/// Metric computation engine over a dependency graph.
pub struct Metrics<'g> {
    graph: &'g DepGraph,
}

impl<'g> Metrics<'g> {
    /// Binds the engine to a graph.
    pub fn new(graph: &'g DepGraph) -> Self {
        Metrics { graph }
    }

    /// The set of sites depending on `provider` under `opts`, by one
    /// reverse BFS from the provider over consumer edges.
    /// `critical_only = true` computes impact, `false` concentration.
    pub fn dependent_sites(
        &self,
        provider: NodeId,
        critical_only: bool,
        opts: &MetricOptions,
    ) -> HashSet<SiteId> {
        let mut sites = HashSet::new();
        let mut visited: HashSet<NodeId> = HashSet::new();
        let mut frontier = vec![provider];
        visited.insert(provider);
        while let Some(node) = frontier.pop() {
            // Which service does `node` provide? Consumers reach it via
            // edges of that service kind.
            let NodeKind::Provider(_, node_kind) = self.graph.node(node) else {
                continue;
            };
            for (consumer, kind) in self.graph.consumers_of(node) {
                if critical_only && !kind.critical {
                    continue;
                }
                match self.graph.node(consumer) {
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

    /// Concentration of a provider.
    pub fn concentration(&self, provider: NodeId, opts: &MetricOptions) -> usize {
        self.dependent_sites(provider, false, opts).len()
    }

    /// Impact of a provider.
    pub fn impact(&self, provider: NodeId, opts: &MetricOptions) -> usize {
        self.dependent_sites(provider, true, opts).len()
    }

    /// All providers of `kind`, scored and ordered by impact
    /// (descending), then concentration.
    ///
    /// Instead of one full reverse BFS per provider, both metric
    /// configurations are indexed once ([`ReachIndex`], shared SCC
    /// condensation) and the per-provider pass is an O(1) table lookup
    /// fanned across the `WEBDEPS_JOBS` workers in `providers_of` order.
    /// The ordered merge plus stable sort keep the ranking — including
    /// tie order — byte-identical to the serial per-provider BFS at any
    /// worker count.
    pub fn ranking(&self, kind: ServiceKind, opts: &MetricOptions) -> Vec<ProviderScore> {
        let providers: Vec<NodeId> = self.graph.providers_of(kind).collect();
        // The two index builds are independent; overlap them (the
        // worker clamp caps this fan-out at two).
        let configs = [false, true];
        let mut indexes = fan_out(&configs, 0, |&c| ReachIndex::build(self.graph, c, opts));
        let impact_index = indexes
            .pop()
            .unwrap_or_else(|| ReachIndex::build(self.graph, true, opts));
        let conc_index = indexes
            .pop()
            .unwrap_or_else(|| ReachIndex::build(self.graph, false, opts));
        let mut out = fan_out(&providers, 0, |&id| {
            let key = match self.graph.node(id) {
                NodeKind::Provider(name, _) => ProviderKey::new(self.graph.name(name)),
                NodeKind::Site(_) => unreachable!("providers_of returns providers"),
            };
            ProviderScore {
                key,
                concentration: conc_index.dependent_count(id),
                impact: impact_index.dependent_count(id),
            }
        });
        out.sort_by(|a, b| {
            b.impact
                .cmp(&a.impact)
                .then(b.concentration.cmp(&a.concentration))
        });
        out
    }

    /// Number of *critical* dependencies each site has (direct plus, if
    /// allowed, transitive through critical provider chains) — the
    /// §8.1 "critical dependencies per website" distribution.
    ///
    /// One shared impact [`ReachIndex`] replaces the per-provider BFS,
    /// and providers are fanned across the `WEBDEPS_JOBS` workers, each
    /// chunk accumulating a dense per-site count vector; the merged
    /// result is an elementwise sum, so it is identical at any worker
    /// count.
    pub fn critical_deps_per_site(
        &self,
        opts: &MetricOptions,
    ) -> std::collections::HashMap<SiteId, usize> {
        let index = ReachIndex::build(self.graph, true, opts);
        let bound = self.graph.site_id_bound();
        let providers: Vec<NodeId> = [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca]
            .into_iter()
            .flat_map(|kind| self.graph.providers_of(kind).collect::<Vec<_>>())
            .collect();
        let partials = fan_out_chunked(&providers, 0, |chunk| {
            let mut dense = vec![0usize; bound];
            for &p in chunk {
                if let Some(set) = index.dependent_set(p) {
                    for site in set.iter() {
                        dense[site.index()] += 1;
                    }
                }
            }
            vec![dense]
        });
        let mut counts: std::collections::HashMap<SiteId, usize> = std::collections::HashMap::new();
        for dense in partials {
            for (idx, n) in dense.into_iter().enumerate() {
                if n > 0 {
                    *counts.entry(SiteId::from_index(idx)).or_default() += n;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, GraphBuilder, NodeRef};
    use webdeps_measure::ProviderKey;

    /// site0 → CA (critical) → DNSME (critical)
    /// site1 → DNSME (critical, direct)
    /// site2 → CA (non-critical)
    fn toy_graph() -> (DepGraph, NodeId, NodeId) {
        let mut g = GraphBuilder::new();
        let s0 = g.intern(NodeRef::Site(SiteId(0)));
        let s1 = g.intern(NodeRef::Site(SiteId(1)));
        let s2 = g.intern(NodeRef::Site(SiteId(2)));
        let ca = g.intern(NodeRef::Provider(
            ProviderKey::new("ca.com"),
            ServiceKind::Ca,
        ));
        let dnsme = g.intern(NodeRef::Provider(
            ProviderKey::new("dnsme.com"),
            ServiceKind::Dns,
        ));
        g.add_edge(
            s0,
            ca,
            EdgeKind {
                service: ServiceKind::Ca,
                critical: true,
            },
        );
        g.add_edge(
            s2,
            ca,
            EdgeKind {
                service: ServiceKind::Ca,
                critical: false,
            },
        );
        g.add_edge(
            s1,
            dnsme,
            EdgeKind {
                service: ServiceKind::Dns,
                critical: true,
            },
        );
        g.add_edge(
            ca,
            dnsme,
            EdgeKind {
                service: ServiceKind::Dns,
                critical: true,
            },
        );
        (g.build(), ca, dnsme)
    }

    #[test]
    fn direct_only_ignores_interservice() {
        let (g, _, dnsme) = toy_graph();
        let m = Metrics::new(&g);
        let opts = MetricOptions::direct_only();
        assert_eq!(m.concentration(dnsme, &opts), 1, "only site1 directly");
        assert_eq!(m.impact(dnsme, &opts), 1);
    }

    #[test]
    fn ca_dns_amplification() {
        let (g, _, dnsme) = toy_graph();
        let m = Metrics::new(&g);
        let opts = MetricOptions::only(ServiceKind::Ca, ServiceKind::Dns);
        // Concentration picks up site0 and site2 through the CA.
        assert_eq!(m.concentration(dnsme, &opts), 3);
        // Impact requires critical edges end to end: site2's CA edge is
        // not critical, so only site0 and site1.
        assert_eq!(m.impact(dnsme, &opts), 2);
    }

    #[test]
    fn wrong_interservice_kind_does_not_traverse() {
        let (g, _, dnsme) = toy_graph();
        let m = Metrics::new(&g);
        let opts = MetricOptions::only(ServiceKind::Cdn, ServiceKind::Dns);
        assert_eq!(m.concentration(dnsme, &opts), 1, "CA→DNS hop not allowed");
    }

    #[test]
    fn cycles_terminate() {
        // A ↔ B provider cycle plus one site each.
        let mut g = GraphBuilder::new();
        let s0 = g.intern(NodeRef::Site(SiteId(0)));
        let s1 = g.intern(NodeRef::Site(SiteId(1)));
        let a = g.intern(NodeRef::Provider(
            ProviderKey::new("a.com"),
            ServiceKind::Dns,
        ));
        let b = g.intern(NodeRef::Provider(
            ProviderKey::new("b.com"),
            ServiceKind::Cdn,
        ));
        g.add_edge(
            s0,
            a,
            EdgeKind {
                service: ServiceKind::Dns,
                critical: true,
            },
        );
        g.add_edge(
            s1,
            b,
            EdgeKind {
                service: ServiceKind::Cdn,
                critical: true,
            },
        );
        g.add_edge(
            a,
            b,
            EdgeKind {
                service: ServiceKind::Cdn,
                critical: true,
            },
        );
        g.add_edge(
            b,
            a,
            EdgeKind {
                service: ServiceKind::Dns,
                critical: true,
            },
        );
        let g = g.build();
        let m = Metrics::new(&g);
        let opts = MetricOptions::full();
        // Both sites depend on both providers through the cycle.
        assert_eq!(
            m.impact(
                g.find(&NodeRef::Provider(
                    ProviderKey::new("a.com"),
                    ServiceKind::Dns
                ))
                .unwrap(),
                &opts
            ),
            2
        );
        // From B the cycle back through A needs a DNS-provider→CDN hop,
        // which the paper's inter-service set never includes, so only
        // B's direct consumer is reached.
        assert_eq!(
            m.impact(
                g.find(&NodeRef::Provider(
                    ProviderKey::new("b.com"),
                    ServiceKind::Cdn
                ))
                .unwrap(),
                &opts
            ),
            1
        );
    }

    #[test]
    fn ranking_orders_by_impact() {
        let (g, _, _) = toy_graph();
        let m = Metrics::new(&g);
        let ranking = m.ranking(ServiceKind::Dns, &MetricOptions::full());
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].key.as_str(), "dnsme.com");
        assert_eq!(ranking[0].impact, 2);
        assert_eq!(ranking[0].concentration, 3);
    }

    #[test]
    fn critical_deps_per_site_counts_chains() {
        let (g, _, _) = toy_graph();
        let m = Metrics::new(&g);
        let counts = m.critical_deps_per_site(&MetricOptions::full());
        // site0: CA + (via CA) DNSME = 2 critical deps.
        assert_eq!(counts.get(&SiteId(0)), Some(&2));
        // site1: DNSME only.
        assert_eq!(counts.get(&SiteId(1)), Some(&1));
        // site2: nothing critical.
        assert_eq!(counts.get(&SiteId(2)), None);
        let direct = m.critical_deps_per_site(&MetricOptions::direct_only());
        assert_eq!(
            direct.get(&SiteId(0)),
            Some(&1),
            "direct-only sees just the CA"
        );
    }
}
