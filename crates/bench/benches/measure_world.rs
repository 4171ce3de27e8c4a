//! Million-site measurement-core benchmarks.
//!
//! `measure_world/100k` runs in the CI bench smoke; `measure_world/1M`
//! is opt-in behind `WEBDEPS_BENCH_1M=1` (it needs minutes of wall
//! time and ~10 GB of RSS for the generated world).
//!
//! Besides timing, this target *asserts* the columnar memory budget
//! documented in README.md: the analysis arenas (measurement dataset +
//! CSR graph) must stay within [`ARENA_BYTES_PER_SITE`] and the whole
//! core working set (arenas + the reach index: its row copy and both
//! metrics' condensations) within [`CORE_BYTES_PER_SITE`], at every
//! benched scale.
//!
//! After the timed benches, one extra generate+measure run executes
//! with `webdeps_model::timing` enabled; the drained per-phase wall
//! times land as `metrics` entries (`…/phase/gen/sites` etc.) so the
//! JSON trajectory shows *where* the time goes, not just the total.
//! With `WEBDEPS_BENCH_ALLOC=1` the counting global allocator also
//! reports allocation calls and requested bytes for the same run.

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
/// Measured: 117 B/site at 100k sites (dataset 52.5, of it 3.5 for
/// pass 1's nameserver tallies; graph 64).
const ARENA_BYTES_PER_SITE: usize = 128;

/// Budget for the full core working set: arenas plus the reach index.
/// The index is mostly site bitsets, one per provider component and
/// metric, so it grows with the provider tail: measured 236 B/site
/// at 100k (index 119.6, of it ~15 for the row copy); the last 1M run,
/// before the dataset's report columns, measured 745 B/site.
const CORE_BYTES_PER_SITE: usize = 832;

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

    // `reach_build` copies the rows and condenses both metrics;
    // `rank_dns` is that build plus one ranking.
    let opts = MetricOptions::full();
    group.bench_function("reach_build", |b| {
        b.iter(|| black_box(ReachIndex::build(&graph, &opts)));
    });
    group.bench_function("rank_dns", |b| {
        b.iter(|| black_box(ReachIndex::build(&graph, &opts).ranking(ServiceKind::Dns)));
    });
    group.finish();

    // Memory budget (untimed): the documented ceilings from README.md.
    let index = ReachIndex::build(&graph, &opts);
    let arena = ds.heap_bytes() + graph.heap_bytes();
    let core = arena + index.heap_bytes();
    let per_site = |bytes: usize| bytes as f64 / n as f64;
    eprintln!(
        "  measure_world/{label}: arenas {:.1} B/site (dataset {:.1} + graph {:.1}; \
         budget {ARENA_BYTES_PER_SITE}), core {:.1} B/site (index {:.1}; \
         budget {CORE_BYTES_PER_SITE})",
        per_site(arena),
        per_site(ds.heap_bytes()),
        per_site(graph.heap_bytes()),
        per_site(core),
        per_site(index.heap_bytes()),
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

    // Release the benchmark's working set before the instrumented run
    // below regenerates the world (at 1M the two worlds would not fit
    // side by side in RSS).
    drop(index);
    drop(graph);
    drop(ds);
    drop(world);

    // Per-phase observability: one instrumented generate+measure run.
    // Timing scopes are off during the timed samples above (the guard
    // is a relaxed load when disabled), so the medians stay clean.
    let metric_group = format!("measure_world/{label}/phase");
    let _ = timing::drain();
    timing::enable();
    alloc_probe::start();
    let world = World::generate(config);
    let ds = measure_world(&world);
    let traffic = alloc_probe::stop();
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
    match traffic {
        Some((allocs, bytes)) => {
            h.record_metric(&metric_group, "alloc/calls", allocs as f64, "count");
            h.record_metric(&metric_group, "alloc/bytes", bytes as f64, "B");
        }
        None => eprintln!(
            "  measure_world/{label}: alloc metrics skipped \
             (set WEBDEPS_BENCH_ALLOC=1 to record)"
        ),
    }
}

fn main() {
    let mut h = Harness::new("measure_world");
    bench_scale(&mut h, "100k", 100_000);
    if std::env::var("WEBDEPS_BENCH_1M").is_ok_and(|v| v == "1") {
        bench_scale(&mut h, "1M", 1_000_000);
    } else {
        eprintln!("measure_world/1M skipped (set WEBDEPS_BENCH_1M=1 to run)");
    }
    h.finish();
}
