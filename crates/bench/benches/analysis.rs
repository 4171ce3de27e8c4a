//! Analysis-layer benchmarks: the three classification strategies
//! through the §3 classifier, the paper's nameserver grouping,
//! rankings and per-site counts over the reach index (each entry
//! includes the index build), graph construction, and coverage CDFs.

use std::hint::black_box;
use webdeps_bench::bench_workspace;
use webdeps_bench::harness::Harness;
use webdeps_core::{coverage_curve, DepGraph, MetricOptions, ReachIndex};
use webdeps_dns::Soa;
use webdeps_measure::classify::{classify, ClassifierKind, DomainTable, Evidence, SiteDomains};
use webdeps_model::name::dn;
use webdeps_model::{PublicSuffixList, ServiceKind};

fn heuristic_ablation(h: &mut Harness) {
    let psl = PublicSuffixList::builtin();
    let site = dn("example-shop.com");
    let candidates = [
        dn("ns1.example-shop.com"),
        dn("ns1.awsdns.net"),
        dn("edge-7.akamaiedge.net"),
        dn("ns2.managed-dns-17.net"),
    ];
    let san = vec![dn("example-shop.com"), dn("*.example-shop.com")];
    let site_soa = Soa::standard(
        dn("ns0.example-shop.com"),
        dn("hostmaster.example-shop.com"),
        1,
    );
    let cand_soa = Soa::standard(dn("ns1.awsdns.net"), dn("hostmaster.awsdns.net"), 1);

    // Each iteration reduces one candidate (a public-suffix question per
    // site, as measurement asks it) and classifies the pair.
    let mut group = h.benchmark_group("analysis/heuristics");
    for kind in ClassifierKind::ALL {
        group.bench_function(
            format!("classify_{}", kind.label().replace(' ', "_")),
            |b| {
                let mut table = DomainTable::new(&psl);
                let domains = SiteDomains::new(&site, Some(&san), &mut table);
                let site_soa = Some(table.authority(&site_soa));
                let cand_soa = Some(table.authority(&cand_soa));
                let mut i = 0usize;
                b.iter(|| {
                    let candidate = &candidates[i % candidates.len()];
                    i += 1;
                    table.begin_site();
                    let ev = Evidence {
                        site: &site,
                        candidate,
                        domains: &domains,
                        candidate_domain: table.registrable(candidate),
                        site_soa,
                        candidate_soa: cand_soa,
                        concentration: Some(120),
                        threshold: 50,
                    };
                    black_box(classify(kind, &ev));
                });
            },
        );
    }
    group.finish();
}

fn nameserver_grouping(h: &mut Harness) {
    use webdeps_measure::dns::{classify_site, DnsObservation, NsHost};
    let psl = PublicSuffixList::builtin();
    let mut table = DomainTable::new(&psl);
    let mut authority =
        |mname: &str, rname: &str| Some(table.authority(&Soa::standard(dn(mname), dn(rname), 1)));
    let soas = [
        authority("ns1.alibabadns.com", "hostmaster.alibabadns.com"),
        authority("ns1.alibabadns.com", "hostmaster.alibabadns.com"),
        authority("ns1.awsdns.net", "hostmaster.awsdns.net"),
        authority("ns0.example-shop.com", "hostmaster.example-shop.com"),
    ];
    let site_soa = authority("ns0.example-shop.com", "hostmaster.example-shop.com");
    let ns: Vec<NsHost> = [
        "ns1.alibabadns.com",
        "ns1.alicdn-dns.com",
        "ns1.awsdns.net",
        "ns1.example-shop.com",
    ]
    .into_iter()
    .zip(soas)
    .map(|(host, soa)| NsHost {
        host: dn(host),
        domain: table.registrable(&dn(host)),
        soa,
    })
    .collect();
    let site = dn("example-shop.com");
    let domains = SiteDomains::new(&site, None, &mut table);
    let obs = DnsObservation { site_soa, ns: &ns };
    let mut group = h.benchmark_group("analysis/grouping");
    group.bench_function("tld_and_soa", |b| {
        b.iter(|| {
            black_box(classify_site(
                &site,
                black_box(obs),
                &domains,
                &|_| 0,
                50,
                &table,
                &mut |_, _| {},
            ))
        });
    });
    group.finish();
}

fn metric_engine_ablation(h: &mut Harness) {
    let ws = bench_workspace();
    let graph = &ws.graph20;
    let opts = MetricOptions::full();

    // Every entry builds the index it asks: one row copy and both
    // metrics' layered sets.
    let mut group = h.benchmark_group("analysis/metrics");
    group.bench_function("full_ranking_dns", |b| {
        b.iter(|| black_box(ReachIndex::build(graph, &opts).ranking(ServiceKind::Dns)));
    });
    group.bench_function("full_ranking_all_kinds", |b| {
        b.iter(|| {
            let index = ReachIndex::build(graph, &opts);
            for kind in [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca] {
                black_box(index.ranking(kind));
            }
        });
    });
    group.finish();

    let mut group = h.benchmark_group("analysis/aggregate");
    group.sample_size(20);
    group.bench_function("graph_from_dataset", |b| {
        b.iter(|| black_box(DepGraph::from_dataset(&ws.ds20)));
    });
    group.bench_function("coverage_curve_dns", |b| {
        b.iter(|| black_box(coverage_curve(&ws.ds20, ServiceKind::Dns)));
    });
    group.bench_function("critical_deps_per_site_full", |b| {
        b.iter(|| black_box(ReachIndex::build(graph, &opts).critical_deps_per_site()));
    });
    group.finish();
}

fn main() {
    let mut h = Harness::new("analysis");
    heuristic_ablation(&mut h);
    nameserver_grouping(&mut h);
    metric_engine_ablation(&mut h);
    h.finish();
}
