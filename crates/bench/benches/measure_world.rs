//! Million-site measurement-core benchmarks.
//!
//! `measure_world/100k` runs in the CI bench smoke; the large scales,
//! `measure_world/300k` and `measure_world/1M`, are opt-in behind
//! `WEBDEPS_BENCH_1M=1` (they need minutes of wall time and several GB
//! of RSS for the generated worlds).
//!
//! Besides timing, this target *asserts* the memory budgets documented
//! in README.md, at every benched scale: the analysis arenas
//! (measurement dataset + CSR graph) must stay within
//! [`ARENA_BYTES_PER_SITE`], the whole core working set (arenas + the
//! reach index: its row copy and both metrics' site sets) within
//! [`CORE_BYTES_PER_SITE`], the world's DNS store within
//! [`DNS_BYTES_PER_SITE`], its web plane within [`WEB_BYTES_PER_SITE`]
//! and measurement's transient heap within
//! [`MEASURE_PEAK_BYTES_PER_SITE`].
//!
//! After the timed benches, one untimed `measure_world` runs with the
//! counting global allocator armed, and its peak is held to
//! [`MEASURE_PEAK_BYTES_PER_SITE`]; with `WEBDEPS_BENCH_ALLOC=1` it
//! also reports that call's allocation calls and requested bytes
//! (`…/phase/alloc/calls`, `…/phase/alloc/bytes`: measurement only;
//! before the probe tracked live bytes these two rows covered the
//! instrumented run's generation too, so older trajectories are not
//! comparable). Then one extra generate+measure run executes with
//! `webdeps_model::timing` enabled and the probe disarmed; the drained
//! per-phase wall times land as `metrics` entries (`…/phase/gen/sites`
//! etc.) so the JSON trajectory shows *where* the time goes, not just
//! the total, beside each measurement pass's resolver work (queries per
//! site and cache hit ratio, with the worker count they depend on).

use std::hint::black_box;
use webdeps_bench::harness::Harness;
use webdeps_core::{DepGraph, MetricOptions, ReachIndex};
use webdeps_measure::measure_world;
use webdeps_model::{timing, ServiceKind};
use webdeps_worldgen::{SnapshotYear, World, WorldConfig};

#[path = "support/alloc_probe.rs"]
mod alloc_probe;

#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// Budget for the measurement dataset plus the CSR dependency graph.
/// Both are trimmed to their content once built, so the figure does
/// not swing with power-of-two growth. Measured: 106.9 B/site at 100k
/// sites (dataset 52.4, of it 3.5 for pass 1's nameserver tallies;
/// graph 54.5), 106.7 at 300k and 105.5 at 1M.
const ARENA_BYTES_PER_SITE: usize = 128;

/// Budget for the full core working set: arenas plus the reach index.
/// The index is mostly site bitsets, one per provider and metric, so
/// it grows with the provider tail: measured 225.9 B/site at 100k
/// (index 119.0, of it ~15 for the row copy), 353.3 at 300k and 775.3
/// at 1M (index 669.8).
const CORE_BYTES_PER_SITE: usize = 832;

/// Budget for the world's DNS store (`DnsNetwork::heap_bytes`: record
/// arrays, SOAs, name indexes, deployments and servers; name text is
/// shared and not counted). Measured 533.3 B/site at 100k sites and
/// 519.2 at 1M; the budget is the 100k value plus 12.5% headroom.
const DNS_BYTES_PER_SITE: usize = 600;

/// Budget for measurement's transient heap: the peak of the net bytes
/// `measure_world` allocates above the finished world, its returned
/// dataset included (the allocation probe armed around the call), on
/// top of [`MEASURE_PEAK_BYTES_PER_WORKER`] per worker. Measured at two
/// workers: 573.1 B/site at 100k sites, 569.5 at 300k and 570.2 at 1M
/// (2,144.5, 1,800.4 and 1,652.7 before the compiled PSL, the 2^12
/// resolver-cache bound and the reuse of pass 1's site SOA); the
/// budget is the 100k value plus 12% headroom.
const MEASURE_PEAK_BYTES_PER_SITE: usize = 640;

/// Allowance per measurement worker, which holds its own client (a
/// resolver cache of up to 2^12 names): the 100k peak read 573.1, 684.5
/// and 860.3 B/site at 1, 8 and 16 workers, ~1.9 MB a worker.
const MEASURE_PEAK_BYTES_PER_WORKER: usize = 2 << 20;

/// Budget for the world's web plane (`WebNetwork::heap_bytes`: server
/// array and IP map, vhost array and hostname index, and each page and
/// certificate once; name text, resource paths and CA endpoint lists
/// are shared and not counted). Measured 539.1 B/site at 100k sites,
/// 553.9 at 300k and 566.7 at 1M; the budget is the 100k value plus
/// 11% headroom. The
/// hostname index is a power-of-two table at most half full, so its
/// share moves between ~35 and ~75 B/site with the scale.
const WEB_BYTES_PER_SITE: usize = 600;

fn bench_scale(h: &mut Harness, label: &str, n: usize) {
    let mut group = h.benchmark_group(&format!("measure_world/{label}"));
    group.sample_size(2);

    let config = WorldConfig {
        seed: 7,
        n_sites: n,
        year: SnapshotYear::Y2020,
    };
    group.bench_function("generate", |b| {
        b.iter(|| black_box(World::generate(config)));
    });
    let world = World::generate(config);

    // Entry names predate the single pipeline; they are kept so the
    // BENCH_measure_world.json trajectory continues.
    group.bench_function("measure_columnar", |b| {
        b.iter(|| black_box(measure_world(&world)));
    });
    let ds = measure_world(&world);

    group.bench_function("graph_from_columnar", |b| {
        b.iter(|| black_box(DepGraph::from_dataset(&ds)));
    });
    let graph = DepGraph::from_dataset(&ds);

    // `reach_build` copies the rows and builds both metrics' sets;
    // `rank_dns` is that build plus one ranking.
    let opts = MetricOptions::full();
    group.bench_function("reach_build", |b| {
        b.iter(|| black_box(ReachIndex::build(&graph, &opts)));
    });
    group.bench_function("rank_dns", |b| {
        b.iter(|| black_box(ReachIndex::build(&graph, &opts).ranking(ServiceKind::Dns)));
    });
    group.finish();

    // Memory budgets (untimed): the documented ceilings from README.md.
    let dns = world.dns.heap_bytes();
    h.record_metric(
        &format!("measure_world/{label}"),
        "dns_bytes_per_site",
        dns as f64 / n as f64,
        "B/site",
    );
    assert!(
        dns <= DNS_BYTES_PER_SITE * n,
        "DNS store blew the budget: {dns} B for {n} sites (> {DNS_BYTES_PER_SITE} B/site)"
    );
    let web = world.web.heap_bytes();
    h.record_metric(
        &format!("measure_world/{label}"),
        "web_bytes_per_site",
        web as f64 / n as f64,
        "B/site",
    );
    assert!(
        web <= WEB_BYTES_PER_SITE * n,
        "web plane blew the budget: {web} B for {n} sites (> {WEB_BYTES_PER_SITE} B/site)"
    );
    let index = ReachIndex::build(&graph, &opts);
    let arena = ds.heap_bytes() + graph.heap_bytes();
    let core = arena + index.heap_bytes();
    let per_site = |bytes: usize| bytes as f64 / n as f64;
    eprintln!(
        "  measure_world/{label}: arenas {:.1} B/site (dataset {:.1} + graph {:.1}; \
         budget {ARENA_BYTES_PER_SITE}), core {:.1} B/site (index {:.1}; \
         budget {CORE_BYTES_PER_SITE}), DNS {:.1} B/site (budget {DNS_BYTES_PER_SITE}), \
         web {:.1} B/site (budget {WEB_BYTES_PER_SITE})",
        per_site(arena),
        per_site(ds.heap_bytes()),
        per_site(graph.heap_bytes()),
        per_site(core),
        per_site(index.heap_bytes()),
        per_site(dns),
        per_site(web),
    );
    assert!(
        arena <= ARENA_BYTES_PER_SITE * n,
        "analysis arenas blew the budget: {arena} B for {n} sites \
         (> {ARENA_BYTES_PER_SITE} B/site)"
    );
    assert!(
        core <= CORE_BYTES_PER_SITE * n,
        "core working set blew the budget: {core} B for {n} sites \
         (> {CORE_BYTES_PER_SITE} B/site)"
    );

    drop(index);
    drop(graph);
    drop(ds);

    // Measurement's transient heap: one untimed `measure_world` with
    // the allocation probe armed, so its peak is the heap the call holds
    // above the finished world. It is kept apart from the phase timings
    // below because the armed probe's shared counter slows every
    // allocation: at 100k sites on two workers it stretched
    // `measure/observe` by ~40% and `measure/classify` by ~30%.
    alloc_probe::start();
    let ds = measure_world(&world);
    let region = alloc_probe::stop();
    // Release the world before the instrumented run below regenerates
    // it (at 1M the two worlds would not fit side by side in RSS).
    drop((ds, world));

    // Per-phase observability: one instrumented generate+measure run.
    // Timing scopes are off during the timed samples above (the guard
    // is a relaxed load when disabled), so the medians stay clean.
    let metric_group = format!("measure_world/{label}/phase");
    let _ = (timing::drain(), timing::drain_counts());
    timing::enable();
    let world = World::generate(config);
    let ds = measure_world(&world);
    timing::disable();
    drop((ds, world));
    for sample in timing::drain() {
        h.record_metric(
            &metric_group,
            sample.label,
            sample.elapsed.as_secs_f64() * 1_000.0,
            "ms",
        );
    }
    // Resolver work per pass. Each worker has its own cache, so these
    // repeat exactly only at the same worker count, recorded beside
    // them.
    let counts = timing::drain_counts();
    let count = |label: &str| {
        counts
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |&(_, n)| n)
    };
    h.record_metric(
        &metric_group,
        "measure/workers",
        count("measure/workers") as f64,
        "count",
    );
    for pass in ["measure/observe", "measure/classify"] {
        let queries = count(&format!("{pass}/queries"));
        let hits = count(&format!("{pass}/cache_hits"));
        eprintln!("  measure_world/{label}: {pass} sent {queries} queries, {hits} cache hits");
        h.record_metric(
            &metric_group,
            &format!("{pass}/queries_per_site"),
            queries as f64 / n as f64,
            "ratio",
        );
        h.record_metric(
            &metric_group,
            &format!("{pass}/cache_hit_ratio"),
            hits as f64 / (hits + queries).max(1) as f64,
            "ratio",
        );
    }
    let peak = region.peak_bytes as usize;
    h.record_metric(
        &format!("measure_world/{label}"),
        "measure_peak_bytes_per_site",
        peak as f64 / n as f64,
        "B/site",
    );
    let workers = count("measure/workers") as usize;
    let budget = MEASURE_PEAK_BYTES_PER_SITE * n + MEASURE_PEAK_BYTES_PER_WORKER * workers;
    assert!(
        peak <= budget,
        "measurement's transient heap blew the budget: {peak} B for {n} sites on \
         {workers} workers (> {MEASURE_PEAK_BYTES_PER_SITE} B/site + \
         {MEASURE_PEAK_BYTES_PER_WORKER} B/worker)"
    );
    match region.traffic {
        Some((allocs, bytes)) => {
            h.record_metric(&metric_group, "alloc/calls", allocs as f64, "count");
            h.record_metric(&metric_group, "alloc/bytes", bytes as f64, "B");
        }
        None => eprintln!(
            "  measure_world/{label}: alloc traffic metrics skipped \
             (set WEBDEPS_BENCH_ALLOC=1 to record)"
        ),
    }
}

fn main() {
    let mut h = Harness::new("measure_world");
    bench_scale(&mut h, "100k", 100_000);
    if std::env::var("WEBDEPS_BENCH_1M").is_ok_and(|v| v == "1") {
        bench_scale(&mut h, "300k", 300_000);
        bench_scale(&mut h, "1M", 1_000_000);
    } else {
        eprintln!("measure_world/300k and /1M skipped (set WEBDEPS_BENCH_1M=1 to run)");
    }
    h.finish();
}
