//! End-to-end integration: generate → measure → analyze, checking the
//! paper's eleven observations at test scale (shape, not absolute
//! numbers — the small world is top-band heavy).

use std::sync::OnceLock;
use webdeps::core::{
    ca_figure, cdn_figure, coverage_curve, dns_figure, providers_for_coverage, DepGraph, Metric,
    MetricOptions, ReachIndex,
};
use webdeps::measure::{measure_world, MeasurementDataset};
use webdeps::model::ServiceKind;
use webdeps::worldgen::WorldPair;

struct Ctx {
    pair: WorldPair,
    ds16: MeasurementDataset,
    ds20: MeasurementDataset,
}

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| {
        let pair = WorldPair::generate(1234, 3_000);
        let ds16 = measure_world(&pair.y2016);
        let ds20 = measure_world(&pair.y2020);
        Ctx { pair, ds16, ds20 }
    })
}

/// Observation 1: DNS third-party and critical dependencies are higher
/// for less popular websites.
#[test]
fn obs1_dns_dependency_grows_down_the_ranking() {
    let fig = dns_figure(&ctx().ds20);
    assert!(fig[0].third_party < fig[3].third_party);
    assert!(fig[0].critical < fig[3].critical);
}

/// Observation 3: of CDN users, popular sites are less critically
/// dependent (more redundancy at the top).
#[test]
fn obs3_cdn_criticality_grows_down_the_ranking() {
    let fig = cdn_figure(&ctx().ds20);
    assert!(fig[0].critical_of_users < fig[3].critical_of_users);
    assert!(
        fig[3].third_party_of_users > 90.0,
        "nearly all CDN use is third-party"
    );
}

/// Observation 5: stapling is low everywhere; critical CA dependency is
/// slightly lower at the top.
#[test]
fn obs5_stapling_low_everywhere() {
    let fig = ca_figure(&ctx().ds20);
    for row in &fig {
        assert!(row.stapled_of_https < 35.0, "{row:?}");
    }
    assert!(
        fig[0].https > fig[3].https,
        "HTTPS adoption is higher at the top"
    );
}

/// Observation 7: a handful of providers critically serve most sites.
#[test]
fn obs7_single_points_of_failure_exist() {
    let ds = &ctx().ds20;
    let graph = DepGraph::from_dataset(ds);
    let index = ReachIndex::build(&graph, &MetricOptions::direct_only());
    let n = ds.len() as f64;
    for kind in [ServiceKind::Dns, ServiceKind::Ca] {
        let ranking = index.ranking(kind);
        let top3: usize = ranking.iter().take(3).map(|s| s.impact).sum();
        assert!(
            top3 as f64 / n > 0.25,
            "{kind}: top-3 impact should cover a large share, got {top3}"
        );
    }
}

/// Observation 8: DNS and CA concentration increased 2016 → 2020.
#[test]
fn obs8_concentration_increased_for_dns_and_ca() {
    let c = ctx();
    let dns16 = providers_for_coverage(&coverage_curve(&c.ds16, ServiceKind::Dns), 0.8);
    let dns20 = providers_for_coverage(&coverage_curve(&c.ds20, ServiceKind::Dns), 0.8);
    assert!(
        dns20 < dns16,
        "fewer DNS providers needed for 80% in 2020: {dns16} → {dns20}"
    );
    let ca16 = providers_for_coverage(&coverage_curve(&c.ds16, ServiceKind::Ca), 0.8);
    let ca20 = providers_for_coverage(&coverage_curve(&c.ds20, ServiceKind::Ca), 0.8);
    assert!(ca20 <= ca16, "CA consolidation: {ca16} → {ca20}");
}

/// Observations 9/10: indirect dependencies amplify top-provider impact.
#[test]
fn obs9_10_indirect_amplification() {
    let ds = &ctx().ds20;
    let graph = DepGraph::from_dataset(ds);
    let impact = |key: &str, kind, opts: &MetricOptions| {
        assert!(graph.provider(key, kind).is_some(), "{key} observed");
        ReachIndex::build(&graph, opts).dependent_count(Metric::Impact, key, kind)
    };

    let dnsme = ("dnsmadeeasy.com", ServiceKind::Dns);
    let direct = impact(dnsme.0, dnsme.1, &MetricOptions::direct_only());
    let with_ca = impact(
        dnsme.0,
        dnsme.1,
        &MetricOptions::only(ServiceKind::Ca, ServiceKind::Dns),
    );
    assert!(
        with_ca > 5 * direct.max(1),
        "DNSMadeEasy: {direct} → {with_ca}"
    );

    let incapsula = ("incapdns.net", ServiceKind::Cdn);
    let direct = impact(incapsula.0, incapsula.1, &MetricOptions::direct_only());
    let with_ca = impact(
        incapsula.0,
        incapsula.1,
        &MetricOptions::only(ServiceKind::Ca, ServiceKind::Cdn),
    );
    assert!(
        with_ca > 3 * direct.max(1),
        "Incapsula: {direct} → {with_ca}"
    );
}

/// Observation 11: the CDN→DNS hop barely moves major DNS providers.
#[test]
fn obs11_cdn_dns_hop_changes_little() {
    let ds = &ctx().ds20;
    let graph = DepGraph::from_dataset(ds);
    let n = ds.len() as f64;
    let direct = ReachIndex::build(&graph, &MetricOptions::direct_only());
    let with_cdn = ReachIndex::build(
        &graph,
        &MetricOptions::only(ServiceKind::Cdn, ServiceKind::Dns),
    );
    let mut gain = 0usize;
    for score in direct.ranking(ServiceKind::Dns).iter().take(5) {
        gain += with_cdn.dependent_count(Metric::Impact, score.key.as_str(), ServiceKind::Dns)
            - score.impact;
    }
    assert!(
        (gain as f64) / n < 0.05,
        "top-5 DNS gained {gain} sites via CDN hop"
    );
}

/// The 89% headline: almost everyone critically depends on *some*
/// third-party service.
#[test]
fn headline_critical_dependency_share() {
    let ds = &ctx().ds20;
    let n = ds.len();
    let critical = ds
        .sites()
        .filter(|s| {
            s.dns_state().is_some_and(|st| st.is_critical())
                || s.cdn_state().is_some_and(|st| st.is_critical())
                || s.ca_state().is_some_and(|st| st.is_critical())
        })
        .count();
    let share = critical as f64 / n as f64;
    assert!(
        share > 0.6,
        "critical share {share} (paper: 0.89 at 100K scale)"
    );
}

/// Dead sites from the 2016 list really are gone in 2020.
#[test]
fn dead_sites_unresolvable_in_2020() {
    let c = ctx();
    let domains20: std::collections::HashSet<&str> = c.ds20.sites().map(|s| s.domain()).collect();
    let mut resolver = c.pair.y2020.resolver();
    let mut dead_checked = 0;
    for s in c.ds16.sites() {
        if !domains20.contains(s.domain()) {
            let domain = webdeps::model::DomainName::parse(s.domain()).expect("measured domain");
            assert!(
                resolver
                    .resolve(&domain, webdeps::dns::RecordType::A)
                    .is_err(),
                "{domain} should not resolve in 2020"
            );
            dead_checked += 1;
            if dead_checked >= 20 {
                break;
            }
        }
    }
    assert!(dead_checked > 0, "churn must exist");
}
