//! Analysis-layer benchmarks: the three classification strategies
//! through the §3 classifier, the paper's nameserver grouping,
//! rankings and per-site counts over the reach index (each entry
//! includes the index build), graph construction, and coverage CDFs.

use std::hint::black_box;
use webdeps_bench::bench_workspace;
use webdeps_bench::harness::Harness;
use webdeps_core::{coverage_curve, DepGraph, MetricOptions, ReachIndex};
use webdeps_dns::Soa;
use webdeps_measure::classify::{classify, ClassifierKind, Evidence};
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

    let mut group = h.benchmark_group("analysis/heuristics");
    for kind in ClassifierKind::ALL {
        group.bench_function(
            format!("classify_{}", kind.label().replace(' ', "_")),
            |b| {
                let mut i = 0usize;
                b.iter(|| {
                    let candidate = &candidates[i % candidates.len()];
                    i += 1;
                    let ev = Evidence {
                        site: &site,
                        candidate,
                        san: Some(&san),
                        site_soa: Some(&site_soa),
                        candidate_soa: Some(&cand_soa),
                        concentration: Some(120),
                        threshold: 50,
                    };
                    black_box(classify(kind, &ev, &psl));
                });
            },
        );
    }
    group.finish();
}

fn nameserver_grouping(h: &mut Harness) {
    use webdeps_measure::dns::{classify_site, DnsObservation};
    let psl = PublicSuffixList::builtin();
    let obs = DnsObservation {
        site: dn("example-shop.com"),
        ns_hosts: vec![
            dn("ns1.alibabadns.com"),
            dn("ns1.alicdn-dns.com"),
            dn("ns1.awsdns.net"),
            dn("ns1.example-shop.com"),
        ],
        site_soa: Some(Soa::standard(
            dn("ns0.example-shop.com"),
            dn("hostmaster.example-shop.com"),
            1,
        )),
        ns_soas: vec![
            Some(Soa::standard(
                dn("ns1.alibabadns.com"),
                dn("hostmaster.alibabadns.com"),
                1,
            )),
            Some(Soa::standard(
                dn("ns1.alibabadns.com"),
                dn("hostmaster.alibabadns.com"),
                2,
            )),
            Some(Soa::standard(
                dn("ns1.awsdns.net"),
                dn("hostmaster.awsdns.net"),
                3,
            )),
            Some(Soa::standard(
                dn("ns0.example-shop.com"),
                dn("hostmaster.example-shop.com"),
                4,
            )),
        ],
    };
    let mut group = h.benchmark_group("analysis/grouping");
    group.bench_function("tld_and_soa", |b| {
        b.iter(|| {
            black_box(classify_site(
                black_box(&obs),
                None,
                &|_| 0,
                50,
                &psl,
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
