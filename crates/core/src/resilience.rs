//! Per-site dependency audit (§8.3's envisioned service).
//!
//! Given the measured dataset and its dependency graph, produce for one
//! website the analysis the paper recommends websites run before
//! choosing providers: direct critical dependencies, *hidden* indirect
//! dependencies (the academia.edu → MaxCDN → AWS DNS chains), and
//! actionable recommendations.

use crate::graph::{DepGraph, NodeId, NodeKind, NodeRef};
use webdeps_measure::{MeasurementDataset, ProviderKey};
use webdeps_model::{ServiceKind, SiteId};

/// Coarse risk grade for a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RiskLevel {
    /// No critical third-party dependencies.
    Low,
    /// One or two critical dependencies.
    Medium,
    /// Three or more critical dependencies (the §8.1 tail).
    High,
}

/// One discovered dependency chain, e.g.
/// `site → digicert.com (CA) → dnsmadeeasy.com (DNS)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DependencyChain {
    /// Provider hops from the site outward.
    pub hops: Vec<(ProviderKey, ServiceKind)>,
    /// Whether the chain is critical end to end.
    pub critical: bool,
}

impl DependencyChain {
    /// Human-readable rendering.
    pub fn describe(&self) -> String {
        let mut s = String::from("site");
        for (key, kind) in &self.hops {
            s.push_str(&format!(" → {key} ({kind})"));
        }
        if self.critical {
            s.push_str(" [critical]");
        }
        s
    }
}

/// The audit report for one site.
#[derive(Debug, Clone)]
pub struct SiteAudit {
    /// The audited site.
    pub site: SiteId,
    /// All dependency chains up to depth 3 (direct = length 1).
    pub chains: Vec<DependencyChain>,
    /// Number of critical dependencies (distinct providers on critical
    /// chains).
    pub critical_providers: usize,
    /// Risk grade.
    pub risk: RiskLevel,
    /// Quantitative robustness score, 0–100 (the §8.3 "defense metric").
    pub score: f64,
    /// Actionable recommendations.
    pub recommendations: Vec<String>,
}

/// Computes the 0–100 robustness score the paper sketches as future
/// work (§8.3): start from 100 and charge each *critical* single point
/// of failure by how hard its loss hits the site; hidden (transitive)
/// chains carry a smaller, capped charge and redundancy costs nothing.
///
/// | failure | weight |
/// |---|---|
/// | critical DNS (site unreachable) | 30 |
/// | critical CDN (content undeliverable) | 20 |
/// | critical CA (HTTPS denied under strict revocation) | 15 |
/// | each hidden critical chain (≥2 hops) | 10, capped at 25 total |
pub fn robustness_score(chains: &[DependencyChain]) -> f64 {
    let mut score: f64 = 100.0;
    let mut hidden_penalty: f64 = 0.0;
    let mut seen_direct: std::collections::HashSet<(&ProviderKey, ServiceKind)> =
        std::collections::HashSet::new();
    for chain in chains.iter().filter(|c| c.critical) {
        if chain.hops.len() == 1 {
            let (key, kind) = &chain.hops[0];
            if seen_direct.insert((key, *kind)) {
                score -= match kind {
                    ServiceKind::Dns => 30.0,
                    ServiceKind::Cdn => 20.0,
                    ServiceKind::Ca => 15.0,
                    ServiceKind::Cloud => 20.0,
                };
            }
        } else {
            hidden_penalty += 10.0;
        }
    }
    score -= hidden_penalty.min(25.0);
    score.max(0.0)
}

/// Audits one site.
pub fn audit_site(graph: &DepGraph, ds: &MeasurementDataset, site: SiteId) -> SiteAudit {
    let mut chains = Vec::new();
    if let Some(node) = graph.find(&NodeRef::Site(site)) {
        walk(graph, node, Vec::new(), true, &mut chains, 3);
    }

    let mut critical_set: std::collections::HashSet<&ProviderKey> =
        std::collections::HashSet::new();
    for chain in chains.iter().filter(|c| c.critical) {
        if let Some((key, _)) = chain.hops.last() {
            critical_set.insert(key);
        }
    }
    let critical_providers = critical_set.len();
    let risk = match critical_providers {
        0 => RiskLevel::Low,
        1 | 2 => RiskLevel::Medium,
        _ => RiskLevel::High,
    };
    let score = robustness_score(&chains);

    let mut recommendations = Vec::new();
    if let Some(m) = ds.row_of(site).map(|i| ds.site(i)) {
        if m.dns_state().is_some_and(|s| s.is_critical()) {
            recommendations.push(
                "Add a secondary DNS provider (the provider must support secondary \
                 configurations)."
                    .to_string(),
            );
        }
        if m.cdn_state().is_some_and(|s| s.is_critical()) {
            recommendations
                .push("Adopt a multi-CDN strategy or keep an origin fallback.".to_string());
        }
        if m.ca_state().is_some_and(|s| s.is_critical()) {
            recommendations.push(
                "Enable OCSP stapling so clients need not reach the CA's responders.".to_string(),
            );
        }
    }
    for chain in chains.iter().filter(|c| c.critical && c.hops.len() > 1) {
        recommendations.push(format!(
            "Hidden dependency: {} — ask the provider about its own redundancy.",
            chain.describe()
        ));
    }

    SiteAudit {
        site,
        chains,
        critical_providers,
        risk,
        score,
        recommendations,
    }
}

fn walk(
    graph: &DepGraph,
    node: NodeId,
    path: Vec<(ProviderKey, ServiceKind)>,
    critical_so_far: bool,
    out: &mut Vec<DependencyChain>,
    depth_left: usize,
) {
    if depth_left == 0 {
        return;
    }
    for (target, kind) in graph.deps_of(node) {
        let NodeKind::Provider(name, provider_kind) = graph.node(target) else {
            continue;
        };
        let key = ProviderKey::new(graph.name(name));
        // Avoid revisiting a provider already on the path (cycles).
        if path.iter().any(|(k, _)| *k == key) {
            continue;
        }
        let mut hops = path.clone();
        hops.push((key, provider_kind));
        let critical = critical_so_far && kind.critical;
        out.push(DependencyChain {
            hops: hops.clone(),
            critical,
        });
        walk(graph, target, hops, critical, out, depth_left - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_measure::measure_world;
    use webdeps_worldgen::profiles::{CaProfile, DepState};
    use webdeps_worldgen::{World, WorldConfig};

    fn setup() -> (World, MeasurementDataset, DepGraph) {
        let world = World::generate(WorldConfig::small(83));
        let ds = measure_world(&world);
        let g = DepGraph::from_dataset(&ds);
        (world, ds, g)
    }

    #[test]
    fn critical_site_gets_recommendations() {
        let (world, ds, g) = setup();
        let victim = world
            .truth
            .sites
            .iter()
            .find(|s| {
                s.dns.state == DepState::SingleThird
                    && s.ca.state == CaProfile::ThirdNoStaple
                    && s.dns.providers.iter().all(|p| !p.starts_with("Micro"))
            })
            .expect("critical site exists");
        let audit = audit_site(&g, &ds, victim.id);
        assert!(audit.risk >= RiskLevel::Medium, "{audit:?}");
        assert!(audit.critical_providers >= 2);
        assert!(audit
            .recommendations
            .iter()
            .any(|r| r.contains("secondary DNS")));
        assert!(audit.recommendations.iter().any(|r| r.contains("stapling")));
    }

    #[test]
    fn hidden_chains_are_surfaced() {
        let (world, ds, g) = setup();
        // A DigiCert customer inherits the DNSMadeEasy dependency.
        let victim = world
            .truth
            .sites
            .iter()
            .find(|s| {
                s.ca.ca.as_deref() == Some("DigiCert") && s.ca.state == CaProfile::ThirdNoStaple
            })
            .expect("DigiCert-critical site exists");
        let audit = audit_site(&g, &ds, victim.id);
        let hidden: Vec<_> = audit
            .chains
            .iter()
            .filter(|c| c.critical && c.hops.len() == 2)
            .collect();
        assert!(
            hidden
                .iter()
                .any(|c| c.hops[1].0.as_str() == "dnsmadeeasy.com"),
            "expected site → digicert.com → dnsmadeeasy.com, got {:?}",
            audit.chains
        );
        assert!(audit
            .recommendations
            .iter()
            .any(|r| r.contains("Hidden dependency")));
    }

    #[test]
    fn private_site_is_low_risk() {
        let (world, ds, g) = setup();
        let safe = world
            .truth
            .sites
            .iter()
            .find(|s| {
                s.dns.state == DepState::Private
                    && !s.cdn.state.uses_cdn()
                    && !s.https()
                    && !s.dns.alias_ns
            })
            .expect("fully private site exists");
        let audit = audit_site(&g, &ds, safe.id);
        assert_eq!(audit.risk, RiskLevel::Low, "{audit:?}");
        assert_eq!(audit.critical_providers, 0);
    }

    #[test]
    fn robustness_score_orders_sites_sensibly() {
        let (world, ds, g) = setup();
        let mut safe_scores = Vec::new();
        let mut risky_scores = Vec::new();
        for s in world.truth.sites.iter().take(600) {
            let audit = audit_site(&g, &ds, s.id);
            match audit.risk {
                RiskLevel::Low => safe_scores.push(audit.score),
                RiskLevel::High => risky_scores.push(audit.score),
                _ => {}
            }
            assert!(
                (0.0..=100.0).contains(&audit.score),
                "score in range: {audit:?}"
            );
        }
        assert!(!safe_scores.is_empty() && !risky_scores.is_empty());
        let safe_avg: f64 = safe_scores.iter().sum::<f64>() / safe_scores.len() as f64;
        let risky_avg: f64 = risky_scores.iter().sum::<f64>() / risky_scores.len() as f64;
        assert!(
            safe_avg > risky_avg + 30.0,
            "low-risk sites must score far higher: {safe_avg} vs {risky_avg}"
        );
    }

    #[test]
    fn robustness_score_formula() {
        use webdeps_model::ServiceKind::*;
        let direct = |kind, key: &str| DependencyChain {
            hops: vec![(ProviderKey::new(key), kind)],
            critical: true,
        };
        // One critical DNS dependency: 100 − 30.
        assert_eq!(robustness_score(&[direct(Dns, "a.com")]), 70.0);
        // DNS + CDN + CA: 100 − 30 − 20 − 15.
        assert_eq!(
            robustness_score(&[
                direct(Dns, "a.com"),
                direct(Cdn, "b.com"),
                direct(Ca, "c.com")
            ]),
            35.0
        );
        // Duplicate direct chains charge once.
        assert_eq!(
            robustness_score(&[direct(Dns, "a.com"), direct(Dns, "a.com")]),
            70.0
        );
        // Hidden chains: 10 each, capped at 25.
        let hidden = DependencyChain {
            hops: vec![
                (ProviderKey::new("ca.com"), Ca),
                (ProviderKey::new("d.com"), Dns),
            ],
            critical: true,
        };
        assert_eq!(robustness_score(&[hidden.clone()]), 90.0);
        assert_eq!(
            robustness_score(&[
                hidden.clone(),
                hidden.clone(),
                hidden.clone(),
                hidden.clone()
            ]),
            75.0,
            "hidden penalty caps at 25"
        );
        // Non-critical chains are free.
        let redundant = DependencyChain {
            hops: vec![(ProviderKey::new("x.com"), Dns)],
            critical: false,
        };
        assert_eq!(robustness_score(&[redundant]), 100.0);
    }

    #[test]
    fn chain_description_reads_well() {
        let chain = DependencyChain {
            hops: vec![
                (ProviderKey::new("digicert.com"), ServiceKind::Ca),
                (ProviderKey::new("dnsmadeeasy.com"), ServiceKind::Dns),
            ],
            critical: true,
        };
        assert_eq!(
            chain.describe(),
            "site → digicert.com (CA) → dnsmadeeasy.com (DNS) [critical]"
        );
    }
}
