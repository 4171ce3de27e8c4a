//! Figure regenerators (Figures 2–9 and the §8.1 amplification
//! headlines).

use crate::experiments::Report;
use crate::names::pretty;
use crate::table::{pct, TextTable};
use crate::workspace::Workspace;
use webdeps_core::{
    ca_figure, cdn_figure, coverage_curve, dns_figure, providers_for_coverage, MetricOptions,
    Metrics,
};
use webdeps_measure::MeasurementDataset;
use webdeps_model::ServiceKind;

/// Figure 2: website → DNS series per rank bucket.
#[must_use]
pub fn figure2(ws: &Workspace) -> Report {
    let fig = dns_figure(&ws.ds20);
    let mut t = TextTable::new(
        "Website → DNS, % of characterized sites per cumulative bucket",
        &[
            "k",
            "third-party",
            "critical",
            "multiple 3rd",
            "pvt+3rd",
            "n",
        ],
    );
    for row in &fig {
        t.row(vec![
            row.bucket.label().into(),
            pct(row.third_party),
            pct(row.critical),
            pct(row.multiple_third),
            pct(row.private_plus_third),
            row.characterized.to_string(),
        ]);
    }
    Report::new(
        "figure2",
        "Third-party and critical DNS dependency by rank (paper Figure 2)",
    )
    .table(t)
    .note("paper at 100K: third-party 49%→89%, critical 28%→85% from top-100 to top-100K")
    .note("shape check: both series increase with k; redundancy decreases")
}

/// Figure 3: website → CDN series per rank bucket.
#[must_use]
pub fn figure3(ws: &Workspace) -> Report {
    let fig = cdn_figure(&ws.ds20);
    let mut t = TextTable::new(
        "Website → CDN, per cumulative bucket",
        &[
            "k",
            "adoption",
            "3rd-party (of users)",
            "critical (of users)",
            "multi (of users)",
            "users",
        ],
    );
    for row in &fig {
        t.row(vec![
            row.bucket.label().into(),
            pct(row.adoption),
            pct(row.third_party_of_users),
            pct(row.critical_of_users),
            pct(row.multiple_of_users),
            row.cdn_users.to_string(),
        ]);
    }
    Report::new("figure3", "Third-party and critical CDN dependency by rank (paper Figure 3)")
        .table(t)
        .note("paper at 100K: 33.2% adoption; of users 97.6% third-party, 85% critical, 43% critical in top-100")
}

/// Figure 4: website → CA series per rank bucket.
#[must_use]
pub fn figure4(ws: &Workspace) -> Report {
    let fig = ca_figure(&ws.ds20);
    let mut t = TextTable::new(
        "Website → CA, per cumulative bucket",
        &[
            "k",
            "HTTPS",
            "third-party CA",
            "stapled (of HTTPS)",
            "critical",
            "n",
        ],
    );
    for row in &fig {
        t.row(vec![
            row.bucket.label().into(),
            pct(row.https),
            pct(row.third_party),
            pct(row.stapled_of_https),
            pct(row.critical),
            row.sites.to_string(),
        ]);
    }
    Report::new("figure4", "HTTPS, third-party CA, and OCSP stapling by rank (paper Figure 4)")
        .table(t)
        .note("paper at 100K: 78% HTTPS, 77% third-party CA, ~17% stapling, ~61% critical")
        .note("the paper reports stapling as 28.5% in §3.2 but ~17% in Obs. 5; we calibrate to the rank curve")
}

fn top5_table(
    ds: &MeasurementDataset,
    graph: &webdeps_core::DepGraph,
    kind: ServiceKind,
    opts: &MetricOptions,
    caption: &str,
) -> TextTable {
    let metrics = Metrics::new(graph);
    let ranking = metrics.ranking(kind, opts);
    let n = ds.len() as f64;
    let mut t = TextTable::new(caption, &["provider", "C (concentration)", "I (impact)"]);
    for score in ranking.iter().take(5) {
        t.row(vec![
            pretty(score.key.as_str()).to_string(),
            format!(
                "{} ({:.1}%)",
                score.concentration,
                100.0 * score.concentration as f64 / n
            ),
            format!("{} ({:.1}%)", score.impact, 100.0 * score.impact as f64 / n),
        ]);
    }
    t
}

/// Figure 5: top providers by direct concentration and impact.
#[must_use]
pub fn figure5(ws: &Workspace) -> Report {
    let opts = MetricOptions::direct_only();
    Report::new(
        "figure5",
        "Direct dependency graphs: top-5 providers (paper Figure 5a/b/c)",
    )
    .table(top5_table(
        &ws.ds20,
        &ws.graph20,
        ServiceKind::Dns,
        &opts,
        "5a — DNS providers",
    ))
    .table(top5_table(
        &ws.ds20,
        &ws.graph20,
        ServiceKind::Cdn,
        &opts,
        "5b — CDNs",
    ))
    .table(top5_table(
        &ws.ds20,
        &ws.graph20,
        ServiceKind::Ca,
        &opts,
        "5c — CAs",
    ))
    .note("paper 5a: Cloudflare C=24% I=23% of the top-100K; top-3 DNS impact ≈ 40%")
    .note("paper 5b: CloudFront ≈ 30% of CDN users; top-3 ≈ 56% of users (18.6% of all sites)")
    .note("paper 5c: DigiCert C=32% of sites; top-3 CA impact 46.25% of sites")
}

fn figure6_service(
    ws: &Workspace,
    kind: ServiceKind,
    label: &str,
    paper16: &str,
    paper20: &str,
) -> TextTable {
    let mut t = TextTable::new(
        format!("6{label} — providers needed for coverage ({kind})"),
        &[
            "snapshot",
            "providers for 50%",
            "providers for 80%",
            "observed providers",
            "paper 80%",
        ],
    );
    for (snap, ds, paper) in [("2016", &ws.ds16, paper16), ("2020", &ws.ds20, paper20)] {
        let curve = coverage_curve(ds, kind);
        t.row(vec![
            snap.into(),
            providers_for_coverage(&curve, 0.5).to_string(),
            providers_for_coverage(&curve, 0.8).to_string(),
            curve.len().to_string(),
            paper.into(),
        ]);
    }
    t
}

/// Figure 6: provider coverage CDFs, 2016 vs 2020.
#[must_use]
pub fn figure6(ws: &Workspace) -> Report {
    Report::new(
        "figure6",
        "Concentration CDFs 2016 vs 2020 (paper Figure 6a/b/c)",
    )
    .table(figure6_service(ws, ServiceKind::Dns, "a", "2705", "54"))
    .table(figure6_service(ws, ServiceKind::Cdn, "b", "3", "5"))
    .table(figure6_service(ws, ServiceKind::Ca, "c", "5", "3"))
    .note("shape: DNS and CA concentration increased 2016→2020; CDN slightly decreased")
    .note("absolute provider counts scale with the world (tail pools shrink on small worlds)")
}

fn indirect_figure(
    ws: &Workspace,
    id: &str,
    title: &str,
    target: ServiceKind,
    hop: (ServiceKind, ServiceKind),
    notes: &[&str],
) -> Report {
    let direct = MetricOptions::direct_only();
    let with = MetricOptions::only(hop.0, hop.1);
    let metrics = Metrics::new(&ws.graph20);
    let n = ws.ds20.len() as f64;
    let ranking = metrics.ranking(target, &with);
    let mut t = TextTable::new(
        "Top-5 by impact with the inter-service hop (direct-only in brackets)",
        &[
            "provider",
            "C w/ indirect",
            "C direct",
            "I w/ indirect",
            "I direct",
        ],
    );
    for score in ranking.iter().take(5) {
        // Ranked providers come from this very graph; a miss means the
        // row has nothing to show, not that the report should die.
        let Some(node) = ws.graph20.provider(score.key.as_str(), target) else {
            continue;
        };
        let c_direct = metrics.concentration(node, &direct);
        let i_direct = metrics.impact(node, &direct);
        t.row(vec![
            pretty(score.key.as_str()).to_string(),
            pct(100.0 * score.concentration as f64 / n),
            pct(100.0 * c_direct as f64 / n),
            pct(100.0 * score.impact as f64 / n),
            pct(100.0 * i_direct as f64 / n),
        ]);
    }
    // Top-3 aggregate impact (union of dependent sites).
    let mut top3: std::collections::HashSet<webdeps_model::SiteId> = Default::default();
    let mut top3_direct: std::collections::HashSet<webdeps_model::SiteId> = Default::default();
    for score in ranking.iter().take(3) {
        let Some(node) = ws.graph20.provider(score.key.as_str(), target) else {
            continue;
        };
        top3.extend(metrics.dependent_sites(node, true, &with));
    }
    let direct_ranking = metrics.ranking(target, &direct);
    for score in direct_ranking.iter().take(3) {
        let Some(node) = ws.graph20.provider(score.key.as_str(), target) else {
            continue;
        };
        top3_direct.extend(metrics.dependent_sites(node, true, &direct));
    }
    let mut report = Report::new(id, title).table(t).note(format!(
        "top-3 {target} impact: {:.1}% of sites with the hop vs {:.1}% direct-only",
        100.0 * top3.len() as f64 / n,
        100.0 * top3_direct.len() as f64 / n
    ));
    for n in notes {
        report = report.note(*n);
    }
    report
}

/// Figure 7: DNS providers with the CA→DNS hop.
#[must_use]
pub fn figure7(ws: &Workspace) -> Report {
    indirect_figure(
        ws,
        "figure7",
        "DNS concentration/impact with CA→DNS dependency (paper Figure 7a/b)",
        ServiceKind::Dns,
        (ServiceKind::Ca, ServiceKind::Dns),
        &[
            "paper: top-3 DNS critical coverage rises 40% → 72% of sites",
            "paper: DNSMadeEasy 2% → 27% concentration (serves DigiCert); Cloudflare +18% (serves Let's Encrypt)",
        ],
    )
}

/// Figure 8: CDNs with the CA→CDN hop.
#[must_use]
pub fn figure8(ws: &Workspace) -> Report {
    indirect_figure(
        ws,
        "figure8",
        "CDN concentration/impact with CA→CDN dependency (paper Figure 8a/b)",
        ServiceKind::Cdn,
        (ServiceKind::Ca, ServiceKind::Cdn),
        &[
            "paper: top-3 CDN impact rises 18% → 56% of sites",
            "paper: Cloudflare CDN 7% → 30%, Incapsula 1% → 27%, StackPath 2% → 16% concentration",
        ],
    )
}

/// Figure 9: DNS providers with the CDN→DNS hop.
#[must_use]
pub fn figure9(ws: &Workspace) -> Report {
    indirect_figure(
        ws,
        "figure9",
        "DNS concentration/impact with CDN→DNS dependency (paper Figure 9a/b)",
        ServiceKind::Dns,
        (ServiceKind::Cdn, ServiceKind::Dns),
        &[
            "paper: little change — the major CDNs run private DNS; only Fastly (Dyn) differs",
            "paper: AWS DNS serves 16 CDNs (7 exclusively), but they carry only ~2% of CDN users",
        ],
    )
}

/// §8.1 amplification headlines.
#[must_use]
pub fn amplification(ws: &Workspace) -> Report {
    let metrics = Metrics::new(&ws.graph20);
    let n = ws.ds20.len() as f64;
    let direct = MetricOptions::direct_only();
    let full = MetricOptions::full();

    let mut t = TextTable::new(
        "Impact amplification through indirect dependencies",
        &["provider", "I direct", "I full", "amplification", "paper"],
    );
    for (key, kind, paper) in [
        ("cloudflare.com", ServiceKind::Dns, "24% → 44%"),
        ("dnsmadeeasy.com", ServiceKind::Dns, "1% → 25%"),
        ("incapdns.net", ServiceKind::Cdn, "1-2% → 25%"),
        (
            "cloudflare.net",
            ServiceKind::Cdn,
            "7% → 30% (concentration)",
        ),
    ] {
        let Some(node) = ws.graph20.provider(key, kind) else {
            continue;
        };
        let i_direct = metrics.impact(node, &direct);
        let i_full = metrics.impact(node, &full);
        let amp = if i_direct == 0 {
            f64::INFINITY
        } else {
            i_full as f64 / i_direct as f64
        };
        t.row(vec![
            pretty(key).to_string(),
            pct(100.0 * i_direct as f64 / n),
            pct(100.0 * i_full as f64 / n),
            if amp.is_finite() {
                format!("{amp:.1}x")
            } else {
                "∞".into()
            },
            paper.into(),
        ]);
    }

    // Critical dependencies per site (the 9.6% → 25% with ≥3 claim).
    let direct_counts = metrics.critical_deps_per_site(&direct);
    let full_counts = metrics.critical_deps_per_site(&full);
    let ge3 = |m: &std::collections::HashMap<webdeps_model::SiteId, usize>| {
        m.values().filter(|&&c| c >= 3).count()
    };
    Report::new("amplification", "Indirect-dependency amplification (paper §8.1)")
        .table(t)
        .note(format!(
            "sites with ≥3 critical dependencies: {:.1}% direct-only vs {:.1}% with indirect (paper: 9.6% vs 25%)",
            100.0 * ge3(&direct_counts) as f64 / n,
            100.0 * ge3(&full_counts) as f64 / n
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn ws() -> &'static Workspace {
        static WS: OnceLock<Workspace> = OnceLock::new();
        WS.get_or_init(Workspace::for_tests)
    }

    #[test]
    fn all_figures_render() {
        for id in [
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "amplification",
        ] {
            let report = crate::experiments::run_experiment(ws(), id).expect(id);
            let text = report.render();
            assert!(text.lines().count() > 5, "{id} too short:\n{text}");
        }
    }

    #[test]
    fn figure7_amplifies_dnsmadeeasy() {
        let metrics = Metrics::new(&ws().graph20);
        let node = ws()
            .graph20
            .provider("dnsmadeeasy.com", ServiceKind::Dns)
            .expect("DNSMadeEasy observed");
        let direct = metrics.impact(node, &MetricOptions::direct_only());
        let with_ca = metrics.impact(
            node,
            &MetricOptions::only(ServiceKind::Ca, ServiceKind::Dns),
        );
        assert!(
            with_ca > 5 * direct.max(1),
            "DigiCert must amplify DNSMadeEasy: {direct} → {with_ca}"
        );
    }

    #[test]
    fn figure8_amplifies_incapsula() {
        let metrics = Metrics::new(&ws().graph20);
        let node = ws()
            .graph20
            .provider("incapdns.net", ServiceKind::Cdn)
            .expect("Incapsula observed");
        let direct = metrics.impact(node, &MetricOptions::direct_only());
        let with_ca = metrics.impact(
            node,
            &MetricOptions::only(ServiceKind::Ca, ServiceKind::Cdn),
        );
        assert!(
            with_ca > 3 * direct.max(1),
            "DigiCert must amplify Incapsula: {direct} → {with_ca}"
        );
    }

    #[test]
    fn figure9_changes_little() {
        let metrics = Metrics::new(&ws().graph20);
        let n = ws().ds20.len() as f64;
        let direct = MetricOptions::direct_only();
        let with_cdn = MetricOptions::only(ServiceKind::Cdn, ServiceKind::Dns);
        // Aggregate over the top-5 direct DNS providers: the hop adds
        // little because major CDNs run private DNS.
        let ranking = metrics.ranking(ServiceKind::Dns, &direct);
        let mut gain = 0.0;
        for score in ranking.iter().take(5) {
            let node = ws()
                .graph20
                .provider(score.key.as_str(), ServiceKind::Dns)
                .unwrap();
            gain += (metrics.impact(node, &with_cdn) - score.impact) as f64;
        }
        assert!(
            gain / n < 0.05,
            "CDN→DNS hop should barely move top-5 DNS impact, gained {gain}"
        );
    }

    #[test]
    fn amplification_full_exceeds_direct() {
        let metrics = Metrics::new(&ws().graph20);
        let d = metrics.critical_deps_per_site(&MetricOptions::direct_only());
        let f = metrics.critical_deps_per_site(&MetricOptions::full());
        let sum = |m: &std::collections::HashMap<webdeps_model::SiteId, usize>| -> usize {
            m.values().sum()
        };
        assert!(
            sum(&f) > sum(&d),
            "indirect chains add critical dependencies"
        );
    }
}
