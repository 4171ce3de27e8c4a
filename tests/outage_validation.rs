//! Cross-validation of graph-derived impact against behavioral outage
//! simulation, across provider kinds — the strongest evidence that the
//! measurement + analysis stack models the world it measures.

use std::collections::{BTreeSet, HashSet};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use webdeps::core::outage::provider_entity;
use webdeps::core::{simulate_outage, DepGraph, MetricOptions, Metrics, OutageIndex};
use webdeps::measure::{measure_world, MeasurementDataset};
use webdeps::model::{EntityId, ServiceKind, SiteId};
use webdeps::serve::{Engine, Outcome, Request, ServerStats};
use webdeps::tls::OcspFault;
use webdeps::worldgen::{SnapshotYear, World, WorldConfig};

fn world() -> &'static (World, MeasurementDataset, DepGraph) {
    static W: OnceLock<(World, MeasurementDataset, DepGraph)> = OnceLock::new();
    W.get_or_init(|| {
        let world = World::generate(WorldConfig {
            seed: 99,
            n_sites: 2_500,
            year: SnapshotYear::Y2020,
        });
        let ds = measure_world(&world);
        let graph = DepGraph::from_dataset(&ds);
        (world, ds, graph)
    })
}

/// For a DNS provider, predicted-critical sites are exactly the ones
/// the simulated outage kills (modulo uncharacterized sites, which the
/// measurement excluded but the simulator still breaks).
fn check_dns_provider(key: &str) {
    let (world, ds, graph) = world();
    let metrics = Metrics::new(graph);
    let Some(node) = graph.provider(key, ServiceKind::Dns) else {
        panic!("provider {key} not observed");
    };
    let direct_predicted = metrics.dependent_sites(node, true, &MetricOptions::direct_only());
    // Upper bound: the full indirect closure — a site can fall because
    // its CDN's DNS rides the failed provider (the Fastly-Dyn pattern).
    let full_predicted = metrics.dependent_sites(node, true, &MetricOptions::full());
    let result =
        simulate_outage(world, &[key], false).expect("providers are from the world catalog");
    let simulated: HashSet<SiteId> = result.affected.iter().copied().collect();

    // Lower bound: every directly-critical site breaks.
    for site in &direct_predicted {
        assert!(
            simulated.contains(site),
            "{key}: predicted site {site} survived"
        );
    }
    // Upper bound: everything that broke is in the indirect closure, or
    // was uncharacterized (excluded by the measurement, still breakable).
    let mut unexplained = 0usize;
    for site in &simulated {
        if full_predicted.contains(site) {
            continue;
        }
        let m = ds.site(ds.row_of(*site).expect("measured"));
        let excluded = m.dns_state().is_none() || m.cdn_state().is_none() || m.ca_state().is_none();
        if !excluded {
            unexplained += 1;
        }
    }
    assert!(
        unexplained <= ds.len() / 100,
        "{key}: {unexplained} sites broke outside the indirect closure"
    );
}

#[test]
fn cloudflare_dns_outage_matches_prediction() {
    check_dns_provider("cloudflare.com");
}

#[test]
fn godaddy_dns_outage_matches_prediction() {
    check_dns_provider("domaincontrol.com");
}

#[test]
fn route53_outage_matches_prediction() {
    check_dns_provider("awsdns.net");
}

/// CDN outage: critically dependent sites (per measurement) break;
/// multi-CDN sites survive via their second on-ramp.
#[test]
fn cdn_outage_respects_redundancy() {
    let (world, ds, _) = world();
    let result =
        simulate_outage(world, &["Akamai"], false).expect("providers are from the world catalog");
    let affected: HashSet<SiteId> = result.affected.iter().copied().collect();
    let mut crit = 0;
    let mut redundant = 0;
    for m in ds.sites() {
        let uses_akamai = m.cdns().any(|(k, _)| ds.name(k) == "akamaiedge.net");
        if !uses_akamai {
            continue;
        }
        match m.cdn_state() {
            Some(webdeps::worldgen::CdnProfile::SingleThird) => {
                assert!(
                    affected.contains(&m.id()),
                    "critical Akamai site {} survived",
                    m.domain()
                );
                crit += 1;
            }
            Some(webdeps::worldgen::CdnProfile::Multi) => {
                // The second CDN keeps the document reachable unless the
                // site ALSO depends on Akamai another way (e.g. its CA
                // rides Akamai and... CA failures need hard-fail, so no).
                assert!(
                    !affected.contains(&m.id()),
                    "redundant site {} died",
                    m.domain()
                );
                redundant += 1;
            }
            _ => {}
        }
    }
    assert!(
        crit > 0 && redundant > 0,
        "sample must contain both populations"
    );
}

/// The graph's full-indirect impact for DNSMadeEasy predicts the
/// hard-fail behavioral outage (DigiCert's responders become
/// unreachable when their DNS dies).
#[test]
fn dnsmadeeasy_outage_amplified_through_digicert() {
    let (world, _, graph) = world();
    let metrics = Metrics::new(graph);
    let node = graph
        .provider("dnsmadeeasy.com", ServiceKind::Dns)
        .expect("observed");
    let direct = metrics.impact(node, &MetricOptions::direct_only());
    let full = metrics.impact(node, &MetricOptions::full());

    let result = simulate_outage(world, &["DNSMadeEasy"], true)
        .expect("providers are from the world catalog");
    assert!(
        result.affected.len() > 3 * direct.max(1),
        "behavioral blast radius {} should dwarf direct impact {direct}",
        result.affected.len()
    );
    // And the graph's full-closure impact should be in the same regime
    // as the simulation (within 2x either way).
    let sim = result.affected.len() as f64;
    let predicted = full as f64;
    assert!(
        sim <= predicted * 2.0 + 10.0 && predicted <= sim * 2.0 + 10.0,
        "graph {predicted} vs simulated {sim}"
    );
}

fn footprint_world(year: SnapshotYear) -> World {
    World::generate(WorldConfig {
        seed: 42,
        n_sites: 1_000,
        year,
    })
}

/// Every catalog provider entity of `world`, once each, by one of its
/// catalog names.
fn catalog_entities(world: &World) -> Vec<(String, EntityId)> {
    let mut seen = BTreeSet::new();
    world
        .provider_entities()
        .filter(|(_, e)| seen.insert(*e))
        .map(|(name, e)| (name.to_string(), e))
        .collect()
}

/// The footprint index answers every single-provider outage with the
/// exact site list of the full sweep.
fn check_index_matches_full_sweep(world: &World) {
    let index = OutageIndex::build(world);
    let providers = catalog_entities(world);
    assert!(providers.len() > 100, "{} providers", providers.len());
    for (name, entity) in &providers {
        let full = simulate_outage(world, &[name], false).expect("catalog name");
        let indexed = index
            .affected(world, *entity, |_| true)
            .expect("never abandoned");
        assert_eq!(indexed.affected, full.affected, "{name}: index vs sweep");
        assert_eq!(indexed.total, full.total);
    }
}

/// Poisons GlobalSign's responders so its non-stapling sites are down
/// on healthy infrastructure, then checks the index again: the
/// baseline-down sites outside a footprint exercise the merge.
fn check_index_matches_full_sweep_poisoned(mut world: World) {
    let globalsign = world.pki.ca_by_name("GlobalSign").expect("catalog CA").id;
    world
        .pki
        .inject_fault(globalsign, OcspFault::MarksEverythingRevoked);
    let baseline = simulate_outage(&world, &[], false).expect("no providers");
    assert!(
        !baseline.affected.is_empty(),
        "the poisoned world must have sites down at baseline"
    );
    check_index_matches_full_sweep(&world);
}

#[test]
fn outage_index_matches_full_sweep_2016() {
    check_index_matches_full_sweep(&footprint_world(SnapshotYear::Y2016));
}

#[test]
fn outage_index_matches_full_sweep_2020() {
    check_index_matches_full_sweep(&footprint_world(SnapshotYear::Y2020));
}

#[test]
fn outage_index_matches_full_sweep_2016_poisoned_pki() {
    check_index_matches_full_sweep_poisoned(footprint_world(SnapshotYear::Y2016));
}

#[test]
fn outage_index_matches_full_sweep_2020_poisoned_pki() {
    check_index_matches_full_sweep_poisoned(footprint_world(SnapshotYear::Y2020));
}

fn reply_count(reply: &str, name: &str) -> usize {
    reply
        .split_ascii_whitespace()
        .find_map(|t| t.strip_prefix(name))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {reply}"))
}

/// The serve engine's `OUTAGE` reply counts what the full sweep finds,
/// and `probed=` is the provider's footprint, never the whole world.
#[test]
fn serve_outage_replies_match_the_full_sweep() {
    let engine = Engine::from_world(footprint_world(SnapshotYear::Y2020), false, false);
    let world = footprint_world(SnapshotYear::Y2020);
    let index = OutageIndex::build(&world);
    let stats = ServerStats::new();
    let far = Instant::now() + Duration::from_secs(600);
    for kind in [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca] {
        for key in engine.provider_keys(kind, 2) {
            let req = Request::Outage { key: key.clone() };
            let reply = match engine.execute(&req, far, &stats) {
                Outcome::Ok(reply) => reply,
                other => panic!("OUTAGE {key}: {other:?}"),
            };
            assert!(reply.starts_with(&format!("OK 0 OUTAGE {key} ")), "{reply}");
            let full = simulate_outage(&world, &[&key], false).expect("observed provider");
            assert_eq!(
                reply_count(&reply, "affected="),
                full.affected.len(),
                "{reply}"
            );
            assert_eq!(reply_count(&reply, "total="), full.total, "{reply}");
            let entity = provider_entity(&world, &key).expect("observed provider");
            let probed = reply_count(&reply, "probed=");
            assert_eq!(probed, index.footprint(entity).len(), "{reply}");
            assert!(probed <= full.total, "{reply}");
        }
    }
}
