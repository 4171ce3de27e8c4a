//! Concentration and impact (§2.2).
//!
//! *Concentration* `C_p`: websites depending on provider `p` directly or
//! through inter-service chains. *Impact* `I_p`: websites *critically*
//! depending on `p` — every edge on the chain must be critical.
//!
//! Both are answered by one [`crate::reach::ReachIndex`], built once per
//! [`MetricOptions`]: its rankings, per-provider counts and sets, and
//! the per-site critical-dependency counts. A reverse BFS per provider
//! is the oracle the index's tests hold it to, and the paper's
//! `f_c`/`f_i` recursive set unions are transcribed literally only as
//! the oracle of `tests/properties.rs`.
//!
//! [`MetricOptions`] is a subset of the paper's three inter-service
//! [`Hop`]s (Table 6) on top of the direct site edges: none for the §4
//! analysis, all three for §8.1, and exactly one for each of Figures 7,
//! 8 and 9. All three hops point down the kind order CA → CDN → DNS,
//! and no other provider → provider hop can be written, so no choice of
//! options lets a chain of traversed hops return to a provider it left.

use std::fmt;
use webdeps_measure::ProviderKey;
use webdeps_model::ServiceKind;

/// One of the paper's three inter-service hops: a provider of one kind
/// consuming a service of a kind further down CA → CDN → DNS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// A CA's revocation hosts served by a DNS provider (Figure 7).
    CaDns,
    /// A CA's revocation hosts served by a CDN (Figure 8).
    CaCdn,
    /// A CDN's own names served by a DNS provider (Figure 9).
    CdnDns,
}

impl Hop {
    /// The three hops.
    pub const ALL: [Hop; 3] = [Hop::CaDns, Hop::CaCdn, Hop::CdnDns];

    /// `(consumer provider kind, consumed service)`.
    pub fn kinds(self) -> (ServiceKind, ServiceKind) {
        match self {
            Hop::CaDns => (ServiceKind::Ca, ServiceKind::Dns),
            Hop::CaCdn => (ServiceKind::Ca, ServiceKind::Cdn),
            Hop::CdnDns => (ServiceKind::Cdn, ServiceKind::Dns),
        }
    }
}

/// Which inter-service hops are traversed: any subset of [`Hop::ALL`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MetricOptions {
    /// Indexed by `Hop as usize`.
    hops: [bool; 3],
}

impl MetricOptions {
    /// Direct dependencies only (the §4 analysis).
    pub fn direct_only() -> Self {
        MetricOptions::of(&[])
    }

    /// Every hop (the §8.1 "full picture" numbers).
    pub fn full() -> Self {
        MetricOptions::of(&Hop::ALL)
    }

    /// Exactly one hop (Figures 7, 8, 9).
    pub fn only(hop: Hop) -> Self {
        MetricOptions::of(&[hop])
    }

    /// Exactly the given hops.
    pub fn of(hops: &[Hop]) -> Self {
        let mut on = [false; 3];
        for &hop in hops {
            on[hop as usize] = true;
        }
        MetricOptions { hops: on }
    }

    /// Whether a provider of kind `consumer` reaches the `service` it
    /// consumes over a traversed hop.
    pub fn allows(&self, consumer: ServiceKind, service: ServiceKind) -> bool {
        Hop::ALL
            .into_iter()
            .any(|hop| self.hops[hop as usize] && hop.kinds() == (consumer, service))
    }
}

/// The traversed hops, e.g. `{CaDns, CdnDns}`.
impl fmt::Debug for MetricOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(Hop::ALL.into_iter().filter(|&hop| self.hops[hop as usize]))
            .finish()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepGraph, EdgeKind, GraphBuilder};
    use crate::reach::{Metric, ReachIndex};
    use webdeps_model::SiteId;

    /// site0 → CA (critical) → DNSME (critical)
    /// site1 → DNSME (critical, direct)
    /// site2 → CA (non-critical)
    fn toy_graph() -> DepGraph {
        let mut g = GraphBuilder::new();
        let s0 = g.intern_site(SiteId(0));
        let s1 = g.intern_site(SiteId(1));
        let s2 = g.intern_site(SiteId(2));
        let ca = g.intern_provider("ca.com", ServiceKind::Ca);
        let dnsme = g.intern_provider("dnsme.com", ServiceKind::Dns);
        let edge = |service, critical| EdgeKind { service, critical };
        g.add_edge(s0, ca, edge(ServiceKind::Ca, true));
        g.add_edge(s2, ca, edge(ServiceKind::Ca, false));
        g.add_edge(s1, dnsme, edge(ServiceKind::Dns, true));
        g.add_edge(ca, dnsme, edge(ServiceKind::Dns, true));
        g.build()
    }

    /// `(concentration, impact)` of DNSMadeEasy under `opts`.
    fn dnsme(opts: &MetricOptions) -> (usize, usize) {
        let index = ReachIndex::build(&toy_graph(), opts);
        let count = |metric| index.dependent_count(metric, "dnsme.com", ServiceKind::Dns);
        (count(Metric::Concentration), count(Metric::Impact))
    }

    #[test]
    fn direct_only_ignores_interservice() {
        assert_eq!(
            dnsme(&MetricOptions::direct_only()),
            (1, 1),
            "only site1 directly"
        );
    }

    #[test]
    fn ca_dns_amplification() {
        // Concentration picks up site0 and site2 through the CA; impact
        // requires critical edges end to end: site2's CA edge is not
        // critical, so only site0 and site1.
        assert_eq!(dnsme(&MetricOptions::only(Hop::CaDns)), (3, 2));
    }

    #[test]
    fn wrong_interservice_kind_does_not_traverse() {
        let (concentration, _) = dnsme(&MetricOptions::only(Hop::CdnDns));
        assert_eq!(concentration, 1, "CA→DNS hop not allowed");
    }

    #[test]
    fn upward_edge_is_not_traversed() {
        // A (DNS) ↔ B (CDN) plus one site each: B → A is the CDN→DNS
        // hop, A → B an upward DNS→CDN edge that no hop names.
        let mut g = GraphBuilder::new();
        let s0 = g.intern_site(SiteId(0));
        let s1 = g.intern_site(SiteId(1));
        let a = g.intern_provider("a.com", ServiceKind::Dns);
        let b = g.intern_provider("b.com", ServiceKind::Cdn);
        let edge = |service| EdgeKind {
            service,
            critical: true,
        };
        g.add_edge(s0, a, edge(ServiceKind::Dns));
        g.add_edge(s1, b, edge(ServiceKind::Cdn));
        g.add_edge(a, b, edge(ServiceKind::Cdn));
        g.add_edge(b, a, edge(ServiceKind::Dns));
        let index = ReachIndex::build(&g.build(), &MetricOptions::full());
        // Both sites depend on A, site 1 through B.
        assert_eq!(
            index.dependent_count(Metric::Impact, "a.com", ServiceKind::Dns),
            2
        );
        // Reaching B through A would take the upward edge, so only B's
        // direct consumer counts.
        assert_eq!(
            index.dependent_count(Metric::Impact, "b.com", ServiceKind::Cdn),
            1
        );
    }

    #[test]
    fn ranking_orders_by_impact() {
        let index = ReachIndex::build(&toy_graph(), &MetricOptions::full());
        let ranking = index.ranking(ServiceKind::Dns);
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].key.as_str(), "dnsme.com");
        assert_eq!(ranking[0].impact, 2);
        assert_eq!(ranking[0].concentration, 3);
    }

    #[test]
    fn critical_deps_per_site_counts_chains() {
        let counts =
            ReachIndex::build(&toy_graph(), &MetricOptions::full()).critical_deps_per_site();
        // site0: CA + (via CA) DNSME = 2 critical deps.
        assert_eq!(counts.get(&SiteId(0)), Some(&2));
        // site1: DNSME only.
        assert_eq!(counts.get(&SiteId(1)), Some(&1));
        // site2: nothing critical.
        assert_eq!(counts.get(&SiteId(2)), None);
        let direct =
            ReachIndex::build(&toy_graph(), &MetricOptions::direct_only()).critical_deps_per_site();
        assert_eq!(
            direct.get(&SiteId(0)),
            Some(&1),
            "direct-only sees just the CA"
        );
    }
}
