//! Cross-worker-count determinism properties for every parallel stage
//! built on the shared fan-out (`webdeps_model::par`).
//!
//! The workspace contract is that worker count is a *speed* knob, never
//! a *results* knob: chunked fan-outs merge shard results in shard
//! order, so datasets, rankings, sweeps, and campaign reports must be
//! byte-identical at any `jobs`/`threads` value. These properties pin
//! that contract for:
//!
//! * the crawl/observation stage (`measure_world_with`),
//! * provider rankings and the per-site critical-dependency sweep
//!   (memoized reachability fanned per provider),
//! * schedule-aware outage sweeps (`simulate_outage_at_with_jobs`),
//! * chaos campaigns (`CampaignConfig::jobs`) and incident replay.
//!
//! Each parallel result is additionally cross-checked against an
//! independent naive reference (`score_bfs`) where one exists, so a
//! bug that made *every* worker count agree on a wrong answer would
//! still fail here.

use std::collections::HashMap;
use std::sync::OnceLock;
use webdeps::chaos::campaign::random_schedule;
use webdeps::chaos::{dyn_two_wave, replay, run_campaign, CampaignConfig};
use webdeps::core::{
    simulate_outage_at_with_jobs, simulate_outage_with_jobs, DepGraph, MetricOptions, Metrics,
    NodeRef,
};
use webdeps::dns::SimTime;
use webdeps::measure::{measure_world_with, MeasureConfig, MeasurementDataset};
use webdeps::model::{ServiceKind, SiteId};
use webdeps::worldgen::{SnapshotYear, World, WorldConfig};
use webdeps_testkit::{check_with, gen, tk_assert, Config};

/// A small world for the crawl-stage property: measured repeatedly, so
/// it stays well under the campaign/analysis world below.
fn crawl_world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        World::generate(WorldConfig {
            seed: 58,
            n_sites: 400,
            year: SnapshotYear::Y2020,
        })
    })
}

/// The analysis world and its measured dataset, shared across the
/// ranking/sweep/outage properties.
fn analysis_world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        World::generate(WorldConfig {
            seed: 58,
            n_sites: 900,
            year: SnapshotYear::Y2020,
        })
    })
}

fn analysis_dataset() -> &'static MeasurementDataset {
    static D: OnceLock<MeasurementDataset> = OnceLock::new();
    D.get_or_init(|| {
        let world = analysis_world();
        measure_world_with(world, MeasureConfig::for_world(world))
    })
}

fn analysis_graph() -> &'static DepGraph {
    static G: OnceLock<DepGraph> = OnceLock::new();
    G.get_or_init(|| DepGraph::from_dataset(analysis_dataset()))
}

/// The option sets the paper's tables actually use, as a seed-indexed
/// pool for the properties below.
fn option_pool() -> Vec<MetricOptions> {
    vec![
        MetricOptions::full(),
        MetricOptions::direct_only(),
        MetricOptions::only(ServiceKind::Ca, ServiceKind::Dns),
    ]
}

/// Sharded world generation: site synthesis fans out across shards
/// with predicted ids/IPs/serials, so a generated world must be
/// byte-identical at 1, 2, and 8 shards — same registries and zone
/// counts, and (the strong check) an identical measured dataset, since
/// measurement reads every wire-visible artifact the shards built:
/// zones, SOAs, CNAME chains, certificates, pages.
#[test]
fn worldgen_identical_at_any_job_count() {
    let make = |jobs: usize| {
        World::generate_with_jobs(
            WorldConfig {
                seed: 77,
                n_sites: 500,
                year: SnapshotYear::Y2020,
            },
            jobs,
        )
    };
    let measure = |world: &World| {
        let config = MeasureConfig {
            threads: 1,
            ..MeasureConfig::for_world(world)
        };
        format!("{:?}", measure_world_with(world, config))
    };
    let serial = make(1);
    let serial_ds = measure(&serial);
    for jobs in [2usize, 8] {
        let sharded = make(jobs);
        assert_eq!(
            serial.entities.len(),
            sharded.entities.len(),
            "entity count diverged at jobs={jobs}"
        );
        assert_eq!(
            serial.dns.zone_count(),
            sharded.dns.zone_count(),
            "zone count diverged at jobs={jobs}"
        );
        assert_eq!(
            serial.web.vhost_count(),
            sharded.web.vhost_count(),
            "vhost count diverged at jobs={jobs}"
        );
        assert_eq!(
            serial_ds,
            measure(&sharded),
            "measured dataset diverged at jobs={jobs}"
        );
    }
}

/// Crawl + observation: the sharded pipeline must produce a dataset
/// whose *debug rendering* — every site, provider, and classification,
/// in order — is identical at 1, 2, and 8 workers, across varying
/// site caps (caps move the shard boundaries).
#[test]
fn measurement_dataset_identical_at_any_thread_count() {
    let world = crawl_world();
    check_with(
        &Config {
            cases: 4,
            ..Config::default()
        },
        "measurement_dataset_identical_at_any_thread_count",
        &gen::u64_any(),
        |&seed| {
            let cap = 120 + (seed % 160) as usize;
            let config = |threads: usize| MeasureConfig {
                max_sites: Some(cap),
                threads,
                ..MeasureConfig::for_world(world)
            };
            let serial = format!("{:?}", measure_world_with(world, config(1)));
            for threads in [2usize, 8] {
                let sharded = format!("{:?}", measure_world_with(world, config(threads)));
                tk_assert!(
                    serial == sharded,
                    "dataset diverged at threads={threads} with cap={cap}"
                );
            }
            Ok(())
        },
    );
}

/// Impact predicted from the columnar dataset's graph is confirmed by
/// the behavioral outage simulation: every site the graph marks
/// critically dependent actually breaks when the provider fails.
#[test]
fn columnar_graph_impact_is_confirmed_by_outage_simulation() {
    let world = analysis_world();
    let ds = analysis_dataset();
    let graph = analysis_graph();
    let metrics = Metrics::new(graph);
    let provider_key = "domaincontrol.com";
    let node = graph
        .provider(provider_key, ServiceKind::Dns)
        .expect("observed provider");
    let predicted = metrics.dependent_sites(node, true, &MetricOptions::direct_only());
    let result = simulate_outage_with_jobs(world, &[provider_key], false, 4)
        .expect("provider is in the world catalog");
    let simulated: std::collections::HashSet<_> = result.affected.iter().copied().collect();
    for site in &predicted {
        assert!(
            simulated.contains(site),
            "site {site} predicted critical by the graph but survived"
        );
    }
    assert!(
        simulated.len() <= predicted.len() + ds.len() / 10,
        "simulated {} vs predicted {}",
        simulated.len(),
        predicted.len()
    );
}

/// Rankings are identical at every worker count *and* agree with the
/// naive per-provider reverse-BFS reference — so the memoized
/// reachability index and the per-provider fan-out can both be wrong
/// only by agreeing with `score_bfs`.
#[test]
fn ranking_identical_across_jobs_and_matches_bfs() {
    let graph = analysis_graph();
    let metrics = Metrics::new(graph);
    let opts_pool = option_pool();
    check_with(
        &Config {
            cases: 24,
            ..Config::default()
        },
        "ranking_identical_across_jobs_and_matches_bfs",
        &gen::u64_any(),
        |&seed| {
            let kind = [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca][(seed % 3) as usize];
            let opts = &opts_pool[(seed / 3 % 3) as usize];
            let serial = metrics.ranking_with_jobs(kind, opts, 1);
            for jobs in [2usize, 8] {
                let fanned = metrics.ranking_with_jobs(kind, opts, jobs);
                tk_assert!(
                    serial == fanned,
                    "ranking for {kind:?} diverged at jobs={jobs}"
                );
            }
            // Spot-check scores against the naive engine (the full
            // population is covered by the reach-index unit tests).
            for score in serial.iter().take(12) {
                let id = graph
                    .find(&NodeRef::Provider(score.key.clone(), kind))
                    .ok_or_else(|| format!("ranked provider {} not in graph", score.key))?;
                tk_assert!(
                    score.impact == metrics.score_bfs(id, true, opts).len(),
                    "impact for {} disagrees with score_bfs",
                    score.key
                );
                tk_assert!(
                    score.concentration == metrics.score_bfs(id, false, opts).len(),
                    "concentration for {} disagrees with score_bfs",
                    score.key
                );
            }
            Ok(())
        },
    );
}

/// The per-site critical-dependency sweep is identical at every worker
/// count and equals a provider-by-provider naive accumulation.
#[test]
fn critical_deps_per_site_identical_and_matches_naive() {
    let graph = analysis_graph();
    let metrics = Metrics::new(graph);
    let opts = MetricOptions::full();
    let serial = metrics.critical_deps_per_site_with_jobs(&opts, 1);
    for jobs in [2usize, 8] {
        assert_eq!(
            serial,
            metrics.critical_deps_per_site_with_jobs(&opts, jobs),
            "critical_deps_per_site diverged at jobs={jobs}"
        );
    }
    let mut naive: HashMap<SiteId, usize> = HashMap::new();
    for kind in [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca] {
        for provider in graph.providers_of(kind) {
            for site in metrics.score_bfs(provider, true, &opts) {
                *naive.entry(site).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(serial, naive, "sweep disagrees with naive accumulation");
}

/// Schedule-aware outage sweeps: the sharded probe sweep returns the
/// same affected-site list (same order, same contents) at 1, 2, and 5
/// workers, for random schedules sampled at random instants.
#[test]
fn outage_at_identical_across_jobs() {
    let world = analysis_world();
    check_with(
        &Config {
            cases: 12,
            ..Config::default()
        },
        "outage_at_identical_across_jobs",
        &gen::u64_any(),
        |&seed| {
            let schedule = random_schedule(world, seed);
            let at = SimTime(seed % 100_000);
            let probe = |jobs: usize| {
                format!(
                    "{:?}",
                    simulate_outage_at_with_jobs(world, &schedule, at, false, 200, jobs)
                )
            };
            let serial = probe(1);
            for jobs in [2usize, 5] {
                tk_assert!(
                    serial == probe(jobs),
                    "outage sweep diverged at jobs={jobs}, t={at}"
                );
            }
            Ok(())
        },
    );
}

/// The schedule-free outage entry point shares the same probe sweep;
/// pin it too, under both revocation policies.
#[test]
fn outage_identical_across_jobs() {
    let world = analysis_world();
    for hard_fail in [false, true] {
        let serial = format!(
            "{:?}",
            simulate_outage_with_jobs(world, &["Cloudflare"], hard_fail, 1)
        );
        let fanned = format!(
            "{:?}",
            simulate_outage_with_jobs(world, &["Cloudflare"], hard_fail, 4)
        );
        assert_eq!(serial, fanned, "outage diverged (hard_fail={hard_fail})");
    }
}

/// A full chaos campaign renders byte-identically at 1 and 3 workers:
/// the monotonicity and redundancy passes fan out, but their reports
/// merge in schedule/site order.
#[test]
fn campaign_render_identical_across_jobs() {
    let world = crawl_world();
    let run = |jobs: usize| {
        run_campaign(
            world,
            &CampaignConfig {
                jobs,
                ..CampaignConfig::smoke(42)
            },
        )
        .render()
    };
    assert_eq!(run(1), run(3), "campaign report depends on worker count");
}

/// Incident replay is serial *by design* (the persistent client's
/// cache carry-over is the phenomenon being replayed); pin that its
/// rendering is reproducible run-to-run so a future parallelization
/// cannot slip in silently.
#[test]
fn replay_render_is_reproducible() {
    let world = crawl_world();
    let incident = dyn_two_wave(world, 42).expect("small world has a rankable DNS provider");
    let first = replay(world, &incident).render();
    let second = replay(world, &incident).render();
    assert_eq!(first, second, "replay rendering is not reproducible");
}

/// Incremental recompute must not be a results knob either: after a
/// seeded stream of churn deltas, the patched [`MutableReach`] pair
/// (impact + concentration) scores every provider byte-identically to
/// rankings computed from a freshly rebuilt graph — and those fresh
/// rankings are themselves byte-identical at 1, 2, and 8 workers. Runs
/// 64 independent delta streams.
#[test]
fn churned_mutable_reach_matches_fresh_rankings_at_any_jobs() {
    use webdeps::core::{Churn, EdgeKind, GraphBuilder, MutableReach, ProviderRef};

    const KINDS: [ServiceKind; 3] = [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca];

    // Mirror state: providers are (key, kind); edges are index triples.
    struct Mirror {
        sites: u32,
        providers: Vec<(String, ServiceKind)>,
        site_edges: Vec<(u32, usize, bool)>,
        prov_edges: Vec<(usize, usize, bool)>,
    }

    impl Mirror {
        fn build(&self) -> DepGraph {
            let mut b = GraphBuilder::new();
            for s in 0..self.sites {
                b.intern_site(SiteId(s));
            }
            for (key, kind) in &self.providers {
                b.intern_provider(key, *kind);
            }
            let mut g = b;
            for &(site, p, critical) in &self.site_edges {
                let from = g.intern_site(SiteId(site));
                let (key, kind) = &self.providers[p];
                let to = g.intern_provider(key, *kind);
                g.add_edge(
                    from,
                    to,
                    EdgeKind {
                        service: *kind,
                        critical,
                    },
                );
            }
            for &(f, t, critical) in &self.prov_edges {
                let (fk, fkind) = &self.providers[f];
                let (tk, tkind) = &self.providers[t];
                let from = g.intern_provider(fk, *fkind);
                let to = g.intern_provider(tk, *tkind);
                g.add_edge(
                    from,
                    to,
                    EdgeKind {
                        service: *tkind,
                        critical,
                    },
                );
            }
            g.build()
        }
    }

    check_with(
        &Config {
            cases: 64,
            ..Config::default()
        },
        "churned_mutable_reach_matches_fresh_rankings_at_any_jobs",
        &gen::u64_any(),
        |&seed| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let opts = MetricOptions::full();
            let mut mirror = Mirror {
                sites: 20 + (next() % 20) as u32,
                providers: Vec::new(),
                site_edges: Vec::new(),
                prov_edges: Vec::new(),
            };
            for kind in KINDS {
                for i in 0..(2 + next() % 2) {
                    mirror
                        .providers
                        .push((format!("{kind:?}{i}.example").to_lowercase(), kind));
                }
            }
            let n_prov = mirror.providers.len();
            for _ in 0..(10 + next() % 24) {
                mirror.site_edges.push((
                    (next() % mirror.sites as u64) as u32,
                    (next() % n_prov as u64) as usize,
                    next() % 2 == 0,
                ));
            }
            for _ in 0..(next() % 6) {
                let f = (next() % n_prov as u64) as usize;
                let t = (next() % n_prov as u64) as usize;
                if f != t {
                    mirror.prov_edges.push((f, t, next() % 2 == 0));
                }
            }

            let initial = mirror.build();
            let mut impact = MutableReach::from_graph(&initial, true, &opts);
            let mut conc = MutableReach::from_graph(&initial, false, &opts);

            let pref = |mirror: &Mirror, p: usize| {
                let (key, kind) = &mirror.providers[p];
                ProviderRef::new(key.clone(), *kind)
            };
            for _ in 0..12 {
                let delta = match next() % 4 {
                    0 => {
                        let site = (next() % mirror.sites as u64) as u32;
                        let p = (next() % n_prov as u64) as usize;
                        let critical = next() % 2 == 0;
                        mirror.site_edges.push((site, p, critical));
                        Churn::AddSiteEdge {
                            site: SiteId(site),
                            provider: pref(&mirror, p),
                            critical,
                        }
                    }
                    1 if !mirror.site_edges.is_empty() => {
                        let i = (next() % mirror.site_edges.len() as u64) as usize;
                        let (site, p, critical) = mirror.site_edges.swap_remove(i);
                        Churn::RemoveSiteEdge {
                            site: SiteId(site),
                            provider: pref(&mirror, p),
                            critical,
                        }
                    }
                    2 => {
                        let f = (next() % n_prov as u64) as usize;
                        let t = (next() % n_prov as u64) as usize;
                        if f == t {
                            continue;
                        }
                        let critical = next() % 2 == 0;
                        mirror.prov_edges.push((f, t, critical));
                        Churn::AddProviderEdge {
                            from: pref(&mirror, f),
                            to: pref(&mirror, t),
                            critical,
                        }
                    }
                    _ if !mirror.prov_edges.is_empty() => {
                        let i = (next() % mirror.prov_edges.len() as u64) as usize;
                        let (f, t, critical) = mirror.prov_edges.swap_remove(i);
                        Churn::RemoveProviderEdge {
                            from: pref(&mirror, f),
                            to: pref(&mirror, t),
                            critical,
                        }
                    }
                    _ => continue,
                };
                if let Err(e) = impact.apply(&delta) {
                    return Err(format!("impact rejected a mirrored delta: {e}"));
                }
                if let Err(e) = conc.apply(&delta) {
                    return Err(format!("concentration rejected a mirrored delta: {e}"));
                }
            }

            let churned = mirror.build();
            let metrics = Metrics::new(&churned);
            for kind in KINDS {
                let baseline = metrics.ranking_with_jobs(kind, &opts, 1);
                for jobs in [2usize, 8] {
                    let fanned = metrics.ranking_with_jobs(kind, &opts, jobs);
                    tk_assert!(
                        fanned == baseline,
                        "fresh ranking for {kind:?} diverged at jobs={jobs}"
                    );
                }
                for score in &baseline {
                    let patched_impact = impact.dependent_count(score.key.as_str(), kind);
                    let patched_conc = conc.dependent_count(score.key.as_str(), kind);
                    tk_assert!(
                        patched_impact == score.impact,
                        "impact mismatch for {} ({kind:?}): patched {patched_impact} vs fresh {}",
                        score.key.as_str(),
                        score.impact
                    );
                    tk_assert!(
                        patched_conc == score.concentration,
                        "concentration mismatch for {} ({kind:?}): patched {patched_conc} vs fresh {}",
                        score.key.as_str(),
                        score.concentration
                    );
                }
            }
            Ok(())
        },
    );
}
