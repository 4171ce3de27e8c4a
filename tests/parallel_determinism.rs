//! Cross-worker-count determinism for every stage that fans out on the
//! shared helper (`webdeps_model::par`).
//!
//! The workspace contract is that the worker count tunes speed, never
//! results: chunked fan-outs merge shard results in shard order, so
//! worlds, datasets, rankings, outage answers and campaign reports must
//! be byte-identical at any count. The count has one knob,
//! `WEBDEPS_JOBS`, read from the environment, so each comparison re-runs
//! this test binary under `WEBDEPS_JOBS=1`, `2` and `8`: the ignored
//! `stage_digests` test prints one digest per stage, and the tests below
//! compare the three runs stage by stage. The stages:
//!
//! * world generation (sharded site synthesis),
//! * the crawl/observation stage over worlds of several sizes (sizes
//!   move the shard boundaries),
//! * provider rankings and the per-site critical-dependency sweep
//!   (one reach index per option set), on a measured world and on
//!   churned random graphs,
//! * `simulate_outage` under both revocation policies and the chaos
//!   campaign's fixed-instant outage question (both record an
//!   `OutageIndex` across workers),
//! * the chaos campaign render.
//!
//! Each stage is additionally cross-checked in this process against an
//! independent naive reference where one exists (a per-provider reverse
//! BFS, a provider-by-provider accumulation, a fresh index over the
//! churned graph), so a bug that made every worker count agree on a
//! wrong answer would still fail here.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use webdeps::chaos::campaign::random_schedule;
use webdeps::chaos::{dyn_two_wave, monotonicity_index, replay, run_campaign, CampaignConfig};
use webdeps::core::{
    simulate_outage, Churn, DepGraph, EdgeKind, GraphBuilder, Metric, MetricOptions, NodeId,
    NodeKind, ProviderRef, ReachIndex,
};
use webdeps::dns::SimTime;
use webdeps::measure::{measure_world, MeasurementDataset};
use webdeps::model::{ServiceKind, SiteId};
use webdeps::worldgen::{SnapshotYear, World, WorldConfig};
use webdeps_testkit::{check_with, gen, tk_assert, Config};

const KINDS: [ServiceKind; 3] = [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca];

/// A small world for the campaign and the replay check, kept well
/// under the analysis world below.
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
/// ranking/sweep/outage stages.
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
    D.get_or_init(|| measure_world(analysis_world()))
}

fn analysis_graph() -> &'static DepGraph {
    static G: OnceLock<DepGraph> = OnceLock::new();
    G.get_or_init(|| DepGraph::from_dataset(analysis_dataset()))
}

/// The naive reference for the index: the sites depending on `provider`
/// under `metric`, by one reverse BFS over the graph's consumer edges.
fn bfs_dependents(
    graph: &DepGraph,
    provider: NodeId,
    metric: Metric,
    opts: &MetricOptions,
) -> HashSet<SiteId> {
    let mut sites = HashSet::new();
    let mut visited = HashSet::from([provider]);
    let mut frontier = vec![provider];
    while let Some(node) = frontier.pop() {
        let NodeKind::Provider(_, node_kind) = graph.node(node) else {
            continue;
        };
        for (consumer, kind) in graph.consumers_of(node) {
            if metric == Metric::Impact && !kind.critical {
                continue;
            }
            match graph.node(consumer) {
                NodeKind::Site(site) => {
                    sites.insert(site);
                }
                NodeKind::Provider(_, consumer_kind) => {
                    if opts.interservice.contains(&(consumer_kind, node_kind))
                        && visited.insert(consumer)
                    {
                        frontier.push(consumer);
                    }
                }
            }
        }
    }
    sites
}

/// The option sets the paper's tables actually use.
fn option_pool() -> Vec<MetricOptions> {
    vec![
        MetricOptions::full(),
        MetricOptions::direct_only(),
        MetricOptions::only(ServiceKind::Ca, ServiceKind::Dns),
    ]
}

// ---- the stages, each rendered to the text its digest is taken of ----

/// Sharded world generation: site synthesis fans out across shards
/// with predicted ids/IPs/serials, so a generated world must be
/// identical at any count — same registries and zone counts, and (the
/// strong check) an identical measured dataset, since measurement reads
/// every wire-visible artifact the shards built: zones, SOAs, CNAME
/// chains, certificates, pages.
fn worldgen_stage() -> String {
    let world = World::generate(WorldConfig {
        seed: 77,
        n_sites: 500,
        year: SnapshotYear::Y2020,
    });
    format!(
        "{} {} {} {:?}",
        world.entities.len(),
        world.dns.zone_count(),
        world.web.vhost_count(),
        measure_world(&world)
    )
}

/// The crawl: every site, provider and classification, in order, for
/// worlds of several sizes (sizes move the shard boundaries).
fn measure_stage() -> String {
    [120, 163, 211, 279, 400]
        .into_iter()
        .map(|n_sites| {
            let world = World::generate(WorldConfig {
                seed: 58,
                n_sites,
                year: SnapshotYear::Y2020,
            });
            format!("{:?}\n", measure_world(&world))
        })
        .collect()
}

/// Every kind's ranking under every option set.
fn rankings_stage() -> String {
    let indexes: Vec<ReachIndex> = option_pool()
        .iter()
        .map(|opts| ReachIndex::build(analysis_graph(), opts))
        .collect();
    let mut out = String::new();
    for kind in KINDS {
        for index in &indexes {
            out.push_str(&format!("{:?}\n", index.ranking(kind)));
        }
    }
    out
}

/// The per-site critical-dependency counts, in site order.
fn critical_deps_stage() -> String {
    let counts: BTreeMap<SiteId, usize> =
        ReachIndex::build(analysis_graph(), &MetricOptions::full())
            .critical_deps_per_site()
            .into_iter()
            .collect();
    format!("{counts:?}")
}

/// A Cloudflare outage under both revocation policies.
fn outage_stage() -> String {
    [false, true]
        .into_iter()
        .map(|hard_fail| {
            let result = simulate_outage(analysis_world(), &["Cloudflare"], hard_fail);
            format!("{result:?}\n")
        })
        .collect()
}

/// The campaign's fixed-instant question: random schedules at varied
/// instants over a 200-site prefix.
fn outage_at_stage() -> String {
    let world = analysis_world();
    let index = monotonicity_index(world, 200);
    (0..12u64)
        .map(|seed| {
            let at = SimTime(seed * 7_919 % 25_200);
            let result = index.affected_at(world, &random_schedule(world, seed), at);
            format!("{result:?}\n")
        })
        .collect()
}

/// A full smoke campaign: its monotonicity and redundancy passes fan
/// out, and its report merges in schedule/site order.
fn campaign_stage() -> String {
    run_campaign(crawl_world(), &CampaignConfig::smoke(42)).render()
}

/// The rankings of one index per random graph after its churn stream
/// was applied.
fn churned_rankings_stage() -> String {
    let mut out = String::new();
    for seed in 0..64 {
        let (initial, deltas, _) = churn_case(seed);
        let Ok(index) = churned_index(&initial, &deltas) else {
            return format!("seed {seed}: a mirrored delta was rejected");
        };
        for kind in KINDS {
            out.push_str(&format!("{:?}\n", index.ranking(kind)));
        }
    }
    out
}

/// Every stage, by the name its digest line carries.
const STAGES: [(&str, fn() -> String); 8] = [
    ("worldgen", worldgen_stage),
    ("measure", measure_stage),
    ("rankings", rankings_stage),
    ("critical_deps", critical_deps_stage),
    ("outage", outage_stage),
    ("outage_at", outage_at_stage),
    ("campaign", campaign_stage),
    ("churned_rankings", churned_rankings_stage),
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Prints `digest <stage> <hex>` per stage at this process's worker
/// count. Run by [`runs`] under each count, not on its own.
#[test]
#[ignore = "a child run of the cross-worker-count tests, which set WEBDEPS_JOBS"]
fn stage_digests() {
    for (stage, render) in STAGES {
        println!("digest {stage} {:016x}", fnv1a(render().as_bytes()));
    }
}

/// Worker counts every stage is compared at.
const JOBS: [usize; 3] = [1, 2, 8];

/// The stdout of `stage_digests` under each of [`JOBS`], from one child
/// run of this test binary per count, run side by side once for every
/// test here. A failed child run is kept as an error, so the tests
/// report it without running the children again.
fn runs() -> &'static Result<Vec<(usize, String)>, String> {
    static RUNS: OnceLock<Result<Vec<(usize, String)>, String>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let exe = std::env::current_exe().expect("the test binary's path");
        let children: Vec<_> = JOBS
            .iter()
            .map(|jobs| {
                let child = Command::new(&exe)
                    .args(["stage_digests", "--exact", "--ignored", "--nocapture"])
                    .env("WEBDEPS_JOBS", jobs.to_string())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("the test binary re-runs");
                (*jobs, child)
            })
            .collect();
        children
            .into_iter()
            .map(|(jobs, child)| {
                let out = child.wait_with_output().expect("the child run exits");
                let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
                if out.status.success() {
                    Ok((jobs, stdout))
                } else {
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    Err(format!(
                        "stage_digests failed at WEBDEPS_JOBS={jobs}:\n{stdout}{stderr}"
                    ))
                }
            })
            .collect()
    })
}

/// Asserts `stage` printed one digest, the same at every worker count.
fn assert_identical_across_jobs(stage: &str) {
    let digest = |out: &str| {
        out.lines()
            .find_map(|l| {
                l.strip_prefix("digest ")?
                    .strip_prefix(stage)?
                    .strip_prefix(' ')
            })
            .map(str::to_string)
    };
    let runs = runs().as_ref().unwrap_or_else(|e| panic!("{e}"));
    let (first_jobs, first) = &runs[0];
    let want = digest(first)
        .unwrap_or_else(|| panic!("no {stage} digest at WEBDEPS_JOBS={first_jobs}:\n{first}"));
    for (jobs, out) in &runs[1..] {
        assert_eq!(
            digest(out).as_deref(),
            Some(want.as_str()),
            "{stage} diverged at WEBDEPS_JOBS={jobs} from WEBDEPS_JOBS={first_jobs}"
        );
    }
}

#[test]
fn worldgen_identical_at_any_job_count() {
    assert_identical_across_jobs("worldgen");
}

#[test]
fn measurement_dataset_identical_at_any_thread_count() {
    assert_identical_across_jobs("measure");
}

/// Impact predicted from the columnar dataset's graph is confirmed by
/// the behavioral outage simulation: every site the graph marks
/// critically dependent actually breaks when the provider fails.
#[test]
fn columnar_graph_impact_is_confirmed_by_outage_simulation() {
    let world = analysis_world();
    let ds = analysis_dataset();
    let graph = analysis_graph();
    let provider_key = "domaincontrol.com";
    let predicted: HashSet<SiteId> = ReachIndex::build(graph, &MetricOptions::direct_only())
        .dependent_set(Metric::Impact, provider_key, ServiceKind::Dns)
        .expect("observed provider")
        .iter()
        .collect();
    let result =
        simulate_outage(world, &[provider_key], false).expect("provider is in the world catalog");
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
/// reachability index can be wrong only by agreeing with the BFS.
#[test]
fn ranking_identical_across_jobs_and_matches_bfs() {
    assert_identical_across_jobs("rankings");
    let graph = analysis_graph();
    let opts_pool = option_pool();
    let indexes: Vec<ReachIndex> = opts_pool
        .iter()
        .map(|opts| ReachIndex::build(graph, opts))
        .collect();
    check_with(
        &Config {
            cases: 24,
            ..Config::default()
        },
        "ranking_identical_across_jobs_and_matches_bfs",
        &gen::u64_any(),
        |&seed| {
            let kind = KINDS[(seed % 3) as usize];
            let pick = (seed / 3 % 3) as usize;
            let opts = &opts_pool[pick];
            // Spot-check scores against the naive engine (the full
            // population is covered by the reach-index unit tests).
            for score in indexes[pick].ranking(kind).iter().take(12) {
                let id = graph
                    .provider(score.key.as_str(), kind)
                    .ok_or_else(|| format!("ranked provider {} not in graph", score.key))?;
                tk_assert!(
                    score.impact == bfs_dependents(graph, id, Metric::Impact, opts).len(),
                    "impact for {} disagrees with the BFS",
                    score.key
                );
                tk_assert!(
                    score.concentration
                        == bfs_dependents(graph, id, Metric::Concentration, opts).len(),
                    "concentration for {} disagrees with the BFS",
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
    assert_identical_across_jobs("critical_deps");
    let graph = analysis_graph();
    let opts = MetricOptions::full();
    let mut naive: HashMap<SiteId, usize> = HashMap::new();
    for kind in KINDS {
        for provider in graph.providers_of(kind) {
            for site in bfs_dependents(graph, provider, Metric::Impact, &opts) {
                *naive.entry(site).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(
        ReachIndex::build(graph, &opts).critical_deps_per_site(),
        naive,
        "sweep disagrees with naive accumulation"
    );
}

/// The campaign's fixed-instant outage question, for random schedules
/// sampled at varied instants, returns the same result at every worker
/// count (`tests/outage_validation.rs` holds it equal to probing every
/// site).
#[test]
fn outage_at_identical_across_jobs() {
    assert_identical_across_jobs("outage_at");
}

/// `simulate_outage`, under both revocation policies.
#[test]
fn outage_identical_across_jobs() {
    assert_identical_across_jobs("outage");
}

#[test]
fn campaign_render_identical_across_jobs() {
    assert_identical_across_jobs("campaign");
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

/// Mirror state of a random graph: providers are (key, kind); edges are
/// index triples.
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

    fn provider(&self, p: usize) -> ProviderRef {
        let (key, kind) = &self.providers[p];
        ProviderRef::new(key.clone(), *kind)
    }
}

/// A random graph and a stream of up to 12 churn deltas over it, fully
/// determined by `seed`: the graph before, the deltas, and the graph
/// rebuilt from scratch after them.
fn churn_case(seed: u64) -> (DepGraph, Vec<Churn>, DepGraph) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
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
    let mut deltas = Vec::new();
    for _ in 0..12 {
        let delta = match next() % 4 {
            0 => {
                let site = (next() % mirror.sites as u64) as u32;
                let p = (next() % n_prov as u64) as usize;
                let critical = next() % 2 == 0;
                mirror.site_edges.push((site, p, critical));
                Churn::AddSiteEdge {
                    site: SiteId(site),
                    provider: mirror.provider(p),
                    critical,
                }
            }
            1 if !mirror.site_edges.is_empty() => {
                let i = (next() % mirror.site_edges.len() as u64) as usize;
                let (site, p, critical) = mirror.site_edges.swap_remove(i);
                Churn::RemoveSiteEdge {
                    site: SiteId(site),
                    provider: mirror.provider(p),
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
                    from: mirror.provider(f),
                    to: mirror.provider(t),
                    critical,
                }
            }
            _ if !mirror.prov_edges.is_empty() => {
                let i = (next() % mirror.prov_edges.len() as u64) as usize;
                let (f, t, critical) = mirror.prov_edges.swap_remove(i);
                Churn::RemoveProviderEdge {
                    from: mirror.provider(f),
                    to: mirror.provider(t),
                    critical,
                }
            }
            _ => continue,
        };
        deltas.push(delta);
    }
    (initial, deltas, mirror.build())
}

/// One index over `initial` under the full options, with `deltas`
/// applied in order.
fn churned_index(initial: &DepGraph, deltas: &[Churn]) -> Result<ReachIndex, String> {
    let mut index = ReachIndex::build(initial, &MetricOptions::full());
    for delta in deltas {
        index
            .apply(delta)
            .map_err(|e| format!("the index rejected a mirrored delta: {e}"))?;
    }
    Ok(index)
}

/// Incremental recompute must not be a results knob either: after a
/// seeded stream of churn deltas, the patched index (impact and
/// concentration) ranks every provider byte-identically to an index
/// built fresh over the rebuilt graph — and the patched rankings are
/// themselves byte-identical at every worker count. Runs 64
/// independent delta streams.
#[test]
fn churned_mutable_reach_matches_fresh_rankings_at_any_jobs() {
    assert_identical_across_jobs("churned_rankings");
    check_with(
        &Config {
            cases: 64,
            ..Config::default()
        },
        "churned_mutable_reach_matches_fresh_rankings_at_any_jobs",
        &gen::u64_any(),
        |&seed| {
            let (initial, deltas, churned) = churn_case(seed);
            let patched = churned_index(&initial, &deltas)?;
            let fresh = ReachIndex::build(&churned, &MetricOptions::full());
            for kind in KINDS {
                tk_assert!(
                    patched.ranking(kind) == fresh.ranking(kind),
                    "{kind:?}: patched ranking {:?} vs fresh {:?}",
                    patched.ranking(kind),
                    fresh.ranking(kind)
                );
            }
            Ok(())
        },
    );
}
