//! Figure regenerators (Figures 2–9 and the §8.1 amplification
//! headlines).

use crate::experiments::Report;
use crate::names::pretty;
use crate::table::{pct, TextTable};
use crate::workspace::Workspace;
use webdeps_core::{
    ca_figure, cdn_figure, coverage_curve, dns_figure, providers_for_coverage, Metric,
    MetricOptions, ProviderScore, ReachIndex, SiteSet,
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
    index: &ReachIndex,
    kind: ServiceKind,
    caption: &str,
) -> TextTable {
    let ranking = index.ranking(kind);
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
    let index = ReachIndex::build(&ws.graph20, &MetricOptions::direct_only());
    Report::new(
        "figure5",
        "Direct dependency graphs: top-5 providers (paper Figure 5a/b/c)",
    )
    .table(top5_table(
        &ws.ds20,
        &index,
        ServiceKind::Dns,
        "5a — DNS providers",
    ))
    .table(top5_table(&ws.ds20, &index, ServiceKind::Cdn, "5b — CDNs"))
    .table(top5_table(&ws.ds20, &index, ServiceKind::Ca, "5c — CAs"))
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

/// Sites in the union of the impact sets of a ranking's top three.
fn top3_impact(index: &ReachIndex, ranking: &[ProviderScore], kind: ServiceKind) -> usize {
    let mut union = SiteSet::default();
    for score in ranking.iter().take(3) {
        if let Some(set) = index.dependent_set(Metric::Impact, score.key.as_str(), kind) {
            union.union_with(set);
        }
    }
    union.count()
}

fn indirect_figure(
    ws: &Workspace,
    id: &str,
    title: &str,
    target: ServiceKind,
    hop: (ServiceKind, ServiceKind),
    notes: &[&str],
) -> Report {
    let direct = ReachIndex::build(&ws.graph20, &MetricOptions::direct_only());
    let with = ReachIndex::build(&ws.graph20, &MetricOptions::only(hop.0, hop.1));
    let n = ws.ds20.len() as f64;
    let ranking = with.ranking(target);
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
        let key = score.key.as_str();
        let c_direct = direct.dependent_count(Metric::Concentration, key, target);
        let i_direct = direct.dependent_count(Metric::Impact, key, target);
        t.row(vec![
            pretty(key).to_string(),
            pct(100.0 * score.concentration as f64 / n),
            pct(100.0 * c_direct as f64 / n),
            pct(100.0 * score.impact as f64 / n),
            pct(100.0 * i_direct as f64 / n),
        ]);
    }
    let top3 = top3_impact(&with, &ranking, target);
    let top3_direct = top3_impact(&direct, &direct.ranking(target), target);
    let mut report = Report::new(id, title).table(t).note(format!(
        "top-3 {target} impact: {:.1}% of sites with the hop vs {:.1}% direct-only",
        100.0 * top3 as f64 / n,
        100.0 * top3_direct as f64 / n
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
    let n = ws.ds20.len() as f64;
    let direct = ReachIndex::build(&ws.graph20, &MetricOptions::direct_only());
    let full = ReachIndex::build(&ws.graph20, &MetricOptions::full());

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
        if ws.graph20.provider(key, kind).is_none() {
            continue;
        }
        let i_direct = direct.dependent_count(Metric::Impact, key, kind);
        let i_full = full.dependent_count(Metric::Impact, key, kind);
        // No impact either way amplifies nothing; impact from nothing
        // is unbounded.
        let amplification = match (i_direct, i_full) {
            (0, 0) => "—".into(),
            (0, _) => "∞".into(),
            _ => format!("{:.1}x", i_full as f64 / i_direct as f64),
        };
        t.row(vec![
            pretty(key).to_string(),
            pct(100.0 * i_direct as f64 / n),
            pct(100.0 * i_full as f64 / n),
            amplification,
            paper.into(),
        ]);
    }

    // Critical dependencies per site (the 9.6% → 25% with ≥3 claim).
    let direct_counts = direct.critical_deps_per_site();
    let full_counts = full.critical_deps_per_site();
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

    /// Impact of `(key, kind)` under `opts` over the test workspace.
    fn impact(key: &str, kind: ServiceKind, opts: &MetricOptions) -> usize {
        ReachIndex::build(&ws().graph20, opts).dependent_count(Metric::Impact, key, kind)
    }

    #[test]
    fn figure7_amplifies_dnsmadeeasy() {
        let (key, kind) = ("dnsmadeeasy.com", ServiceKind::Dns);
        assert!(
            ws().graph20.provider(key, kind).is_some(),
            "DNSMadeEasy observed"
        );
        let direct = impact(key, kind, &MetricOptions::direct_only());
        let with_ca = impact(
            key,
            kind,
            &MetricOptions::only(ServiceKind::Ca, ServiceKind::Dns),
        );
        assert!(
            with_ca > 5 * direct.max(1),
            "DigiCert must amplify DNSMadeEasy: {direct} → {with_ca}"
        );
    }

    #[test]
    fn figure8_amplifies_incapsula() {
        let (key, kind) = ("incapdns.net", ServiceKind::Cdn);
        assert!(
            ws().graph20.provider(key, kind).is_some(),
            "Incapsula observed"
        );
        let direct = impact(key, kind, &MetricOptions::direct_only());
        let with_ca = impact(
            key,
            kind,
            &MetricOptions::only(ServiceKind::Ca, ServiceKind::Cdn),
        );
        assert!(
            with_ca > 3 * direct.max(1),
            "DigiCert must amplify Incapsula: {direct} → {with_ca}"
        );
    }

    #[test]
    fn figure9_changes_little() {
        let n = ws().ds20.len() as f64;
        let direct = ReachIndex::build(&ws().graph20, &MetricOptions::direct_only());
        let with_cdn = ReachIndex::build(
            &ws().graph20,
            &MetricOptions::only(ServiceKind::Cdn, ServiceKind::Dns),
        );
        // Aggregate over the top-5 direct DNS providers: the hop adds
        // little because major CDNs run private DNS.
        let mut gain = 0.0;
        for score in direct.ranking(ServiceKind::Dns).iter().take(5) {
            let with =
                with_cdn.dependent_count(Metric::Impact, score.key.as_str(), ServiceKind::Dns);
            gain += (with - score.impact) as f64;
        }
        assert!(
            gain / n < 0.05,
            "CDN→DNS hop should barely move top-5 DNS impact, gained {gain}"
        );
    }

    #[test]
    fn amplification_full_exceeds_direct() {
        let deps = |opts| ReachIndex::build(&ws().graph20, &opts).critical_deps_per_site();
        let d = deps(MetricOptions::direct_only());
        let f = deps(MetricOptions::full());
        let sum = |m: &std::collections::HashMap<webdeps_model::SiteId, usize>| -> usize {
            m.values().sum()
        };
        assert!(
            sum(&f) > sum(&d),
            "indirect chains add critical dependencies"
        );
    }

    #[test]
    fn amplification_of_no_impact_is_not_infinite() {
        // Three sites leave most providers with no impact either way:
        // such a row amplifies nothing, so it reads `—`, never `∞`.
        let ws = Workspace::new(42, 3);
        let text = amplification(&ws).render();
        // Cells of a table row: provider, I direct, I full,
        // amplification, paper.
        let rows: Vec<Vec<&str>> = text
            .lines()
            .filter(|l| l.starts_with("| "))
            .map(|l| {
                l.split('|')
                    .map(str::trim)
                    .filter(|c| !c.is_empty())
                    .collect()
            })
            .collect();
        let zero: Vec<&Vec<&str>> = rows
            .iter()
            .filter(|cells| cells[1] == "0.0%" && cells[2] == "0.0%")
            .collect();
        assert!(!zero.is_empty(), "no 0/0 row at 3 sites:\n{text}");
        for cells in zero {
            assert_eq!(cells[3], "—", "0/0 row: {cells:?}");
        }
    }
}
