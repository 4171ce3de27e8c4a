//! Table regenerators (Tables 1–11 plus the §3 validation table).

use crate::experiments::Report;
use crate::table::{count, delta, pct, TextTable};
use crate::workspace::Workspace;
use std::collections::HashMap;
use webdeps_core::evolution::{ca_trends, cdn_trends, dns_trends, provider_trends, TrendTable};
use webdeps_measure::{validate_world, ClassifierKind, MeasurementDataset, SiteView};
use webdeps_model::ServiceKind;
use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};
use webdeps_worldgen::verticals::{smart_home_roster, CloudDep};

/// Renders a measured trend table against the paper's reference values.
fn trend_report(
    id: &str,
    title: &str,
    measured: &TrendTable,
    paper_rows: &[(&str, [f64; 4])],
    paper_delta: [f64; 4],
) -> Report {
    let mut t = TextTable::new(
        "Measured (paper) — percentage of joined sites per rank bucket",
        &["Website Trends", "k=100", "k=1K", "k=10K", "k=100K"],
    );
    for row in &measured.rows {
        let paper = paper_rows.iter().find(|(l, _)| row.label.starts_with(l));
        let mut cells = vec![row.label.clone()];
        for b in 0..4 {
            let m = row.per_bucket[b];
            match paper {
                Some((_, p)) => cells.push(format!("{m:.1} ({:.1})", p[b])),
                None => cells.push(format!("{m:.1} (—)")),
            }
        }
        t.row(cells);
    }
    let mut dcells = vec!["Critical dependency".to_string()];
    for b in 0..4 {
        dcells.push(format!(
            "{} ({})",
            delta(measured.critical_delta[b]),
            delta(paper_delta[b])
        ));
    }
    t.row(dcells);
    Report::new(id, title).table(t).note(format!(
        "joined population per bucket: {:?}",
        measured.population
    ))
}

/// Table 1: 2020 dataset summary.
#[must_use]
pub fn table1(ws: &Workspace) -> Report {
    let ds = &ws.ds20;
    let s = webdeps_measure::summarize(ds);
    let (n, dns_char, cdn_users, cdn_char, https, ca_char) = (
        s.sites,
        s.dns_characterized,
        s.cdn_users,
        s.cdn_characterized,
        s.https,
        s.ca_characterized,
    );
    let mut t = TextTable::new(
        "2020 snapshot summary (percentages; paper values at 100K scale)",
        &["Population", "Measured", "% of sites", "Paper (of 100K)"],
    );
    t.row(vec![
        "Characterized for DNS analysis".into(),
        count(dns_char),
        pct(100.0 * dns_char as f64 / n as f64),
        "81,899 (81.9%)".into(),
    ]);
    t.row(vec![
        "Websites using CDNs".into(),
        count(cdn_users),
        pct(100.0 * cdn_users as f64 / n as f64),
        "33,137 (33.1%)".into(),
    ]);
    t.row(vec![
        "Characterized for CDN analysis".into(),
        count(cdn_char),
        pct(100.0 * cdn_char as f64 / n as f64),
        "33,137 (33.1%)".into(),
    ]);
    t.row(vec![
        "Websites supporting HTTPS".into(),
        count(https),
        pct(100.0 * https as f64 / n as f64),
        "78,387 (78.4%)".into(),
    ]);
    t.row(vec![
        "Characterized for CA analysis".into(),
        count(ca_char),
        pct(100.0 * ca_char as f64 / n as f64),
        "78,387 (78.4%)".into(),
    ]);
    Report::new(
        "table1",
        "Summary of websites considered in 2020 (paper Table 1)",
    )
    .table(t)
    .note(format!("world scale: {} sites (paper: 100,000)", n))
    .note(format!(
        "critically dependent on ≥1 third-party service: {} ({:.1}%) — the paper's 89% headline",
        s.any_critical,
        100.0 * s.any_critical as f64 / n as f64
    ))
    .note("small worlds are top-band heavy, so absolute percentages shift with scale")
}

/// Table 2: 2016-vs-2020 comparison dataset summary.
#[must_use]
pub fn table2(ws: &Workspace) -> Report {
    let c = webdeps_measure::summarize_pair(&ws.ds16, &ws.ds20);
    let n16 = ws.ds16.len();
    let mut t = TextTable::new(
        "Comparison (2016 cohort) summary",
        &["Population", "Measured", "Paper (of 100K)"],
    );
    t.row(vec![
        "Characterized for DNS analysis (both years)".into(),
        count(c.dns_characterized_both),
        "87,348".into(),
    ]);
    t.row(vec![
        "Using CDN in 2016 or 2020".into(),
        count(c.cdn_either),
        "47,502".into(),
    ]);
    t.row(vec![
        "Supporting HTTPS in 2016 or 2020".into(),
        count(c.https_either),
        "69,725".into(),
    ]);
    Report::new("table2", "Comparison-analysis dataset (paper Table 2)")
        .table(t)
        .note(format!(
            "{} of {} 2016 sites ({:.1}%) no longer exist in 2020 (paper: 3.8%)",
            c.dead,
            n16,
            100.0 * c.dead as f64 / n16 as f64
        ))
}

/// Table 3: website → DNS transitions.
#[must_use]
pub fn table3(ws: &Workspace) -> Report {
    trend_report(
        "table3",
        "Website → DNS dependency trends 2016 vs 2020 (paper Table 3)",
        &dns_trends(&ws.ds16, &ws.ds20),
        &[
            ("Pvt to Single 3rd", [0.0, 7.4, 9.8, 10.7]),
            ("Single Third to Pvt", [1.0, 1.6, 4.2, 6.0]),
            ("Red. to No Red.", [1.0, 1.6, 1.0, 0.5]),
            ("No Red. to Red.", [2.0, 1.9, 1.1, 0.5]),
        ],
        [-2.0, 5.5, 5.5, 4.7],
    )
}

/// Table 4: website → CDN transitions.
#[must_use]
pub fn table4(ws: &Workspace) -> Report {
    trend_report(
        "table4",
        "Website → CDN dependency trends 2016 vs 2020 (paper Table 4)",
        &cdn_trends(&ws.ds16, &ws.ds20),
        &[
            ("Pvt to Single 3rd party CDN", [0.0, 0.3, 0.8, 0.5]),
            ("3rd Party CDN to Pvt", [0.0, 0.0, 0.0, 0.0]),
            ("Red. to No Red.", [3.0, 2.7, 1.2, 1.1]),
            ("No Red. to Red.", [9.0, 6.8, 3.0, 1.6]),
        ],
        [-6.0, -3.8, -1.0, 0.0],
    )
    .note("adoption rows (No CDN to CDN / CDN to No CDN) come from §4.1 prose: 18.6% / 6.8%")
}

/// Table 5: website → CA stapling transitions.
#[must_use]
pub fn table5(ws: &Workspace) -> Report {
    trend_report(
        "table5",
        "Website → CA dependency trends 2016 vs 2020 (paper Table 5)",
        &ca_trends(&ws.ds16, &ws.ds20),
        &[
            ("Stapling to No Stapling", [7.5, 6.2, 9.1, 9.7]),
            ("No Stapling to Stapling", [3.7, 14.7, 12.9, 9.9]),
        ],
        [3.8, -8.5, -3.8, -0.2],
    )
    .note("paper percentages are relative to 2016-HTTPS sites; measured rows use joined CA-state sites")
}

fn interservice_row(
    ds: &MeasurementDataset,
    kind: ServiceKind,
    dep_is_cdn: bool,
) -> (usize, usize, usize) {
    let providers: Vec<_> = ds.providers().iter().filter(|p| p.kind == kind).collect();
    let total = providers.len();
    let dep = |p: &&webdeps_measure::interservice::ProviderMeasurement| {
        if dep_is_cdn {
            p.cdn_dep.clone()
        } else {
            p.dns_dep.clone()
        }
    };
    let third = providers
        .iter()
        .filter(|p| dep(p).is_some_and(|d| d.uses_third))
        .count();
    let critical = providers
        .iter()
        .filter(|p| dep(p).is_some_and(|d| d.critical))
        .count();
    (total, third, critical)
}

/// Table 6: inter-service dependency counts.
#[must_use]
pub fn table6(ws: &Workspace) -> Report {
    let (cdn_total, cdn_third, cdn_crit) = interservice_row(&ws.ds20, ServiceKind::Cdn, false);
    let (ca_total, ca_third, ca_crit) = interservice_row(&ws.ds20, ServiceKind::Ca, false);
    let (_, ca_cdn_third, ca_cdn_crit) = interservice_row(&ws.ds20, ServiceKind::Ca, true);
    let mut t = TextTable::new(
        "Measured (paper) provider-level dependencies, 2020",
        &[
            "Dependency",
            "Total",
            "3rd-Party Dep.",
            "Critical Dependency",
        ],
    );
    t.row(vec![
        "CDN → DNS".into(),
        format!("{cdn_total} (86)"),
        format!(
            "{cdn_third} ({:.1}%) (31, 36%)",
            100.0 * cdn_third as f64 / cdn_total.max(1) as f64
        ),
        format!(
            "{cdn_crit} ({:.1}%) (15, 17.4%)",
            100.0 * cdn_crit as f64 / cdn_total.max(1) as f64
        ),
    ]);
    t.row(vec![
        "CA → DNS".into(),
        format!("{ca_total} (59)"),
        format!(
            "{ca_third} ({:.1}%) (27, 48.3%)",
            100.0 * ca_third as f64 / ca_total.max(1) as f64
        ),
        format!(
            "{ca_crit} ({:.1}%) (18, 30.5%)",
            100.0 * ca_crit as f64 / ca_total.max(1) as f64
        ),
    ]);
    t.row(vec![
        "CA → CDN".into(),
        format!("{ca_total} (59)"),
        format!(
            "{ca_cdn_third} ({:.1}%) (21, 35.5%)",
            100.0 * ca_cdn_third as f64 / ca_total.max(1) as f64
        ),
        format!(
            "{ca_cdn_crit} ({:.1}%) (21, 35.5%)",
            100.0 * ca_cdn_crit as f64 / ca_total.max(1) as f64
        ),
    ]);
    Report::new("table6", "Inter-service dependencies (paper Table 6)")
        .table(t)
        .note("totals count providers observed in the site crawl; small worlds observe fewer tail providers")
}

fn provider_trend_report(
    id: &str,
    title: &str,
    ws: &Workspace,
    kind: ServiceKind,
    dep: ServiceKind,
    paper_rows: &[(&str, i64)],
    paper_delta: i64,
) -> Report {
    let t = provider_trends(&ws.ds16, &ws.ds20, kind, dep);
    let mut table = TextTable::new(
        "Measured (paper) provider transitions",
        &["Transition", "Count"],
    );
    for (label, c) in &t.rows {
        let paper = paper_rows.iter().find(|(l, _)| label.starts_with(l));
        match paper {
            Some((_, p)) => table.row(vec![label.clone(), format!("{c} ({p})")]),
            None => table.row(vec![label.clone(), format!("{c} (—)")]),
        };
    }
    table.row(vec![
        "Critical dependency delta".into(),
        format!("{:+} ({:+})", t.critical_delta, paper_delta),
    ]);
    Report::new(id, title)
        .table(table)
        .note(format!("{} providers joined across snapshots", t.joined))
}

/// Table 7: CA → DNS transitions.
#[must_use]
pub fn table7(ws: &Workspace) -> Report {
    provider_trend_report(
        "table7",
        "CA → DNS dependency trends 2016 vs 2020 (paper Table 7)",
        ws,
        ServiceKind::Ca,
        ServiceKind::Dns,
        &[
            ("Pvt to Single Third Party", 1),
            ("Single Third Party to Pvt", 9),
            ("Redundancy to No Redundancy", 2),
            ("No Redundancy to Redundancy", 0),
        ],
        -6,
    )
}

/// Table 8: CA → CDN transitions.
#[must_use]
pub fn table8(ws: &Workspace) -> Report {
    provider_trend_report(
        "table8",
        "CA → CDN dependency trends 2016 vs 2020 (paper Table 8)",
        ws,
        ServiceKind::Ca,
        ServiceKind::Cdn,
        &[
            ("No Service to Third Party", 3),
            ("Third Party to No Service", 2),
            ("Pvt to Single Third Party", 0),
            ("Single Third Party to Pvt", 1),
        ],
        0,
    )
}

/// Table 9: CDN → DNS transitions.
#[must_use]
pub fn table9(ws: &Workspace) -> Report {
    provider_trend_report(
        "table9",
        "CDN → DNS dependency trends 2016 vs 2020 (paper Table 9)",
        ws,
        ServiceKind::Cdn,
        ServiceKind::Dns,
        &[
            ("Pvt to Single Third Party", 0),
            ("Single Third Party to Pvt", 1),
            ("Redundancy to No Redundancy", 1),
            ("No Redundancy to Redundancy", 2),
        ],
        -2,
    )
}

/// Table 10: the hospital vertical.
#[must_use]
pub fn table10(ws: &Workspace) -> Report {
    let ds = &ws.ds_hospitals;
    let n = ds.len();
    let sites_where = |f: fn(SiteView<'_>) -> bool| ds.sites().filter(|&s| f(s)).count();
    let dns_third = sites_where(|s| s.dns_state().is_some_and(|st| st.uses_third_party()));
    let dns_crit = sites_where(|s| s.dns_state() == Some(DepState::SingleThird));
    let cdn_third = sites_where(|s| s.third_parties(ServiceKind::Cdn).next().is_some());
    let cdn_crit = sites_where(|s| s.cdn_state() == Some(CdnProfile::SingleThird));
    let ca_third = sites_where(|s| {
        matches!(
            s.ca_state(),
            Some(CaProfile::ThirdStapled) | Some(CaProfile::ThirdNoStaple)
        )
    });
    let ca_crit = sites_where(|s| s.ca_state() == Some(CaProfile::ThirdNoStaple));
    let stapled = sites_where(|s| s.https() && s.stapled());
    let mut t = TextTable::new(
        "Top-200 US hospitals: measured (paper)",
        &["Service", "Third-Party Dependency", "Critical Dependency"],
    );
    t.row(vec![
        "DNS".into(),
        format!(
            "{dns_third} ({:.0}%) (102, 51%)",
            100.0 * dns_third as f64 / n as f64
        ),
        format!(
            "{dns_crit} ({:.0}%) (92, 46%)",
            100.0 * dns_crit as f64 / n as f64
        ),
    ]);
    t.row(vec![
        "CDN".into(),
        format!(
            "{cdn_third} ({:.0}%) (32, 16%)",
            100.0 * cdn_third as f64 / n as f64
        ),
        format!(
            "{cdn_crit} ({:.0}%) (32, 16%)",
            100.0 * cdn_crit as f64 / n as f64
        ),
    ]);
    t.row(vec![
        "CA".into(),
        format!(
            "{ca_third} ({:.0}%) (200, 100%)",
            100.0 * ca_third as f64 / n as f64
        ),
        format!(
            "{ca_crit} ({:.0}%) (156, 78%)",
            100.0 * ca_crit as f64 / n as f64
        ),
    ]);
    Report::new("table10", "Hospitals case study (paper Table 10, §6.1)")
        .table(t)
        .note(format!(
            "OCSP stapling: {stapled}/{n} = {:.0}% (paper: 22%)",
            100.0 * stapled as f64 / n as f64
        ))
}

/// Table 11: the smart-home vertical.
#[must_use]
pub fn table11(_ws: &Workspace) -> Report {
    let roster = smart_home_roster();
    let n = roster.len();
    let dns_third = roster.iter().filter(|c| c.dns.uses_third_party()).count();
    let dns_red = roster.iter().filter(|c| c.dns.is_redundant()).count();
    let dns_crit = roster
        .iter()
        .filter(|c| c.dns.is_critical() && !c.local_failover)
        .count();
    let cloud_third = roster
        .iter()
        .filter(|c| matches!(c.cloud, CloudDep::SingleThird(_)))
        .count();
    let cloud_crit = roster
        .iter()
        .filter(|c| matches!(c.cloud, CloudDep::SingleThird(_)) && !c.local_failover)
        .count();
    let aws_cloud = roster
        .iter()
        .filter(|c| matches!(c.cloud, CloudDep::SingleThird("AWS")))
        .count();
    let aws_dns = roster
        .iter()
        .filter(|c| c.dns_provider == Some("AWS Route 53"))
        .count();
    let mut t = TextTable::new(
        "23 smart-home companies: measured (paper)",
        &[
            "Service",
            "3rd-Party Dep.",
            "Redundancy",
            "Critical Dependency",
        ],
    );
    t.row(vec![
        "DNS".into(),
        format!(
            "{dns_third} ({:.1}%) (21, 91.3%)",
            100.0 * dns_third as f64 / n as f64
        ),
        format!("{dns_red} (1, 4.4%)"),
        format!(
            "{dns_crit} ({:.1}%) (8, 34.7%)",
            100.0 * dns_crit as f64 / n as f64
        ),
    ]);
    t.row(vec![
        "Cloud".into(),
        format!(
            "{cloud_third} ({:.1}%) (15, 65.2%)",
            100.0 * cloud_third as f64 / n as f64
        ),
        "0 (0, 0%)".into(),
        format!(
            "{cloud_crit} ({:.1}%) (5, 21.7%)",
            100.0 * cloud_crit as f64 / n as f64
        ),
    ]);
    Report::new("table11", "Smart-home case study (paper Table 11, §6.2)")
        .table(t)
        .note(format!(
            "{aws_cloud}/{cloud_third} third-party-cloud companies use Amazon (paper: 11/15)"
        ))
        .note(format!("{aws_dns} companies use Amazon DNS (paper: 13)"))
}

/// §3 validation: strategy accuracy comparison.
#[must_use]
pub fn validation(ws: &Workspace) -> Report {
    let sample = 100.min(ws.ds20.len());
    let report = validate_world(&ws.world20, &ws.ds20, sample, ws.seed);
    let paper: HashMap<(&str, ClassifierKind), f64> = [
        (("DNS", ClassifierKind::Combined), 100.0),
        (("DNS", ClassifierKind::TldOnly), 97.0),
        (("DNS", ClassifierKind::SoaOnly), 56.0),
        (("CA", ClassifierKind::Combined), 100.0),
        (("CA", ClassifierKind::TldOnly), 96.0),
        (("CA", ClassifierKind::SoaOnly), 94.0),
        (("CDN", ClassifierKind::Combined), 100.0),
        (("CDN", ClassifierKind::TldOnly), 97.0),
        (("CDN", ClassifierKind::SoaOnly), 83.0),
    ]
    .into_iter()
    .collect();
    let mut t = TextTable::new(
        "Classification accuracy over decided pairs (coverage in brackets)",
        &[
            "Pairs",
            "Strategy",
            "Accuracy",
            "Coverage",
            "Paper accuracy",
        ],
    );
    for (service, rows) in [
        ("DNS", &report.dns),
        ("CA", &report.ca),
        ("CDN", &report.cdn),
    ] {
        for row in rows {
            t.row(vec![
                service.into(),
                row.strategy.label().into(),
                pct(100.0 * row.accuracy),
                pct(100.0 * row.coverage),
                format!("{:.0}%", paper[&(service, row.strategy)]),
            ]);
        }
    }
    Report::new("validation", "Heuristic validation (§3.1–§3.3)")
        .table(t)
        .note(format!(
            "sample size: {} sites (paper: 100)",
            report.sample_size
        ))
        .note(
            "paper scores are on classified pairs; `Unknown` pairs are excluded from analysis \
             (they show as reduced coverage here)",
        )
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
    fn all_tables_render() {
        for id in [
            "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
            "table9", "table10", "table11",
        ] {
            let report = crate::experiments::run_experiment(ws(), id).expect(id);
            let text = report.render();
            assert!(text.contains(&format!("=== {id}")), "{text}");
            assert!(text.lines().count() > 5, "{id} too short:\n{text}");
        }
    }

    #[test]
    fn table3_shows_increasing_critical_dependency() {
        let report = table3(ws());
        let text = report.render();
        assert!(text.contains("Critical dependency"));
        // Measured bulk-bucket delta must be positive (Observation 2).
        let t = dns_trends(&ws().ds16, &ws().ds20);
        assert!(t.critical_delta[3] > 0.0, "{:?}", t.critical_delta);
    }

    #[test]
    fn table6_counts_are_plausible() {
        let (cdn_total, cdn_third, cdn_crit) =
            interservice_row(&ws().ds20, ServiceKind::Cdn, false);
        assert!(cdn_total >= cdn_third && cdn_third >= cdn_crit);
        assert!(cdn_total > 10);
        let (ca_total, ca_third, ca_crit) = interservice_row(&ws().ds20, ServiceKind::Ca, false);
        assert!(ca_total >= ca_third && ca_third >= ca_crit);
        // Shape: roughly half of CAs use third-party DNS, a third
        // critically (Table 6).
        assert!(ca_third as f64 / ca_total as f64 > 0.25);
    }

    #[test]
    fn validation_report_includes_all_strategies() {
        let report = validation(ws());
        let text = report.render();
        assert!(text.contains("combined heuristic"));
        assert!(text.contains("TLD matching"));
        assert!(text.contains("SOA matching"));
    }
}
