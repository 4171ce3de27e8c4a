//! Cross-validation of graph-derived impact against behavioral outage
//! simulation, across provider kinds — the strongest evidence that the
//! measurement + analysis stack models the world it measures.
//!
//! The outage engine ([`OutageIndex`], behind `simulate_outage`, serve's
//! `OUTAGE` and the chaos campaign) probes only the sites a fault set
//! can reach. Its oracle here probes every site, in two forms: a static
//! plan of failed entities at clock 0, and a schedule at one instant
//! over a prefix of the sites. Every answer must equal the oracle's.
//!
//! Both sides run through the same resolver, so a change to what a fault
//! phase does to a server would move both and still agree. The answers
//! are therefore also folded into FNV-1a 64 digests and pinned, as
//! `tests/repro_digest.rs` pins `repro`'s output: the random schedules
//! run `Loss`, `Latency` and `Flapping` phases as well as `Down`.

use std::collections::{BTreeSet, HashSet};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use webdeps::chaos::campaign::random_schedule;
use webdeps::chaos::monotonicity_index;
use webdeps::core::outage::{provider_entity, schedule_entities};
use webdeps::core::{
    probe_site, simulate_outage, DepGraph, Metric, MetricOptions, OutageIndex, ReachIndex,
};
use webdeps::dns::{FaultPlan, FaultSchedule, SimTime};
use webdeps::measure::{measure_world, MeasurementDataset};
use webdeps::model::{fan_out_chunked, DetRng, EntityId, ServiceKind, SiteId};
use webdeps::serve::{Engine, Outcome, Request, ServerStats};
use webdeps::tls::{OcspFault, RevocationPolicy};
use webdeps::web::WebClient;
use webdeps::worldgen::{SnapshotYear, World, WorldConfig};

/// FNV-1a 64 — the digest `tests/repro_digest.rs` pins outputs with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Appends one answer to `answers`: its label, then the down sites' ids.
fn push_answer(answers: &mut String, label: &str, down: &[SiteId]) {
    answers.push_str(label);
    for site in down {
        answers.push_str(&format!(" {}", site.0));
    }
    answers.push('\n');
}

/// Asserts that the digest of `answers` is `pinned`.
fn assert_pinned(what: &str, answers: &str, pinned: u64) {
    let digest = fnv1a(answers.as_bytes());
    assert_eq!(
        digest, pinned,
        "{what}: answers digest {digest:#018x}, pinned {pinned:#018x}"
    );
}

/// The oracle: each of the first `sites` sites probed through a client
/// made by `client` — whose DNS cache is off, so a site's outcome is a
/// function of the fault conditions alone — and the unreachable ones
/// returned in site order. The sites are sharded across workers, each
/// with its own client, as the full sweep the index replaced was.
fn full_sweep<'w>(
    world: &'w World,
    sites: usize,
    client: impl Fn() -> WebClient<'w> + Sync,
) -> Vec<SiteId> {
    let mut listings = world.listings();
    listings.truncate(sites);
    fan_out_chunked(&listings, |shard| {
        let mut client = client();
        client.resolver_mut().disable_cache();
        shard
            .iter()
            .filter(|l| !probe_site(&mut client, &l.document_hosts, l.https))
            .map(|l| l.id)
            .collect()
    })
}

/// The oracle for a static plan: every site, `entities` failed, at
/// clock 0.
fn plan_sweep(world: &World, entities: &[EntityId], policy: RevocationPolicy) -> Vec<SiteId> {
    let plan = entities
        .iter()
        .fold(FaultPlan::healthy(), |plan, &e| plan.fail_entity(e));
    full_sweep(world, world.truth.len(), || {
        let mut client = world.client().with_policy(policy);
        client.set_faults(plan.clone());
        client
    })
}

/// The oracle for a schedule at the instant `at`, over the first
/// `sites` sites, under soft-fail.
fn schedule_sweep(
    world: &World,
    sites: usize,
    schedule: &FaultSchedule,
    at: SimTime,
) -> Vec<SiteId> {
    full_sweep(world, sites, || {
        let mut client = world.client();
        client.set_schedule(schedule.clone());
        client.resolver_mut().advance_time(at.seconds());
        client
    })
}

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
    let predicted = |opts: &MetricOptions| -> HashSet<SiteId> {
        ReachIndex::build(graph, opts)
            .dependent_set(Metric::Impact, key, ServiceKind::Dns)
            .unwrap_or_else(|| panic!("provider {key} not observed"))
            .iter()
            .collect()
    };
    let direct_predicted = predicted(&MetricOptions::direct_only());
    // Upper bound: the full indirect closure — a site can fall because
    // its CDN's DNS rides the failed provider (the Fastly-Dyn pattern).
    let full_predicted = predicted(&MetricOptions::full());
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
    assert!(
        graph
            .provider("dnsmadeeasy.com", ServiceKind::Dns)
            .is_some(),
        "observed"
    );
    let impact = |opts: &MetricOptions| {
        ReachIndex::build(graph, opts).dependent_count(
            Metric::Impact,
            "dnsmadeeasy.com",
            ServiceKind::Dns,
        )
    };
    let direct = impact(&MetricOptions::direct_only());
    let full = impact(&MetricOptions::full());

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

/// Under `policy`, `simulate_outage` answers every single-provider
/// outage with the oracle's site list, and an index recorded once
/// answers random multi-entity plans and the empty plan the same way.
/// Under soft-fail the index leaves softly consulted sites unprobed;
/// under hard-fail it must probe every consulting site. Each answer is
/// appended to `answers`.
fn check_index_matches_full_sweep(world: &World, policy: RevocationPolicy, answers: &mut String) {
    let hard_fail = policy == RevocationPolicy::HardFail;
    let providers = catalog_entities(world);
    assert!(providers.len() > 100, "{} providers", providers.len());
    for (name, entity) in &providers {
        let indexed = simulate_outage(world, &[name], hard_fail).expect("catalog name");
        let full = plan_sweep(world, &[*entity], policy);
        assert_eq!(
            indexed.affected, full,
            "{name} ({policy:?}): index vs sweep"
        );
        assert_eq!(indexed.total, world.truth.len());
        push_answer(answers, &format!("{policy:?} {name}"), &full);
    }

    let index = OutageIndex::build(world, world.truth.len(), policy);
    let empty = index
        .affected(world, &[], |_| true)
        .expect("never abandoned");
    assert_eq!(
        empty.affected,
        plan_sweep(world, &[], policy),
        "{policy:?}: empty plan"
    );
    push_answer(answers, &format!("{policy:?} empty"), &empty.affected);
    let mut rng = DetRng::new(world.config.seed).fork("outage-sets");
    let mut down = 0;
    for case in 0..32 {
        let set: Vec<EntityId> = (0..2 + rng.below(2))
            .map(|_| rng.pick(&providers).1)
            .collect();
        let indexed = index
            .affected(world, &set, |_| true)
            .expect("never abandoned");
        let full = plan_sweep(world, &set, policy);
        assert_eq!(indexed.affected, full, "set {case} {set:?} ({policy:?})");
        assert_eq!(indexed.failed_entities, set);
        push_answer(answers, &format!("{policy:?} set {case} {set:?}"), &full);
        down += full.len();
    }
    assert!(down > 0, "{policy:?}: no random set takes a site down");
}

/// Both policies an outage sweep can run under.
const POLICIES: [RevocationPolicy; 2] = [RevocationPolicy::SoftFail, RevocationPolicy::HardFail];

/// Poisons GlobalSign's responders so its non-stapling sites are down
/// on healthy infrastructure, then checks the index again: the
/// baseline-down sites outside a footprint exercise the merge, and
/// their failed revocation checks must keep their consults hard.
fn check_index_matches_full_sweep_poisoned(mut world: World, pinned: u64) {
    let globalsign = world.pki.ca_by_name("GlobalSign").expect("catalog CA").id;
    world
        .pki
        .inject_fault(globalsign, OcspFault::MarksEverythingRevoked);
    let baseline = plan_sweep(&world, &[], RevocationPolicy::SoftFail);
    assert!(
        !baseline.is_empty(),
        "the poisoned world must have sites down at baseline"
    );
    check_both_policies(&world, "poisoned", pinned);
}

/// Runs [`check_index_matches_full_sweep`] under both policies and
/// asserts the digest of every answer.
fn check_both_policies(world: &World, what: &str, pinned: u64) {
    let mut answers = String::new();
    for policy in POLICIES {
        check_index_matches_full_sweep(world, policy, &mut answers);
    }
    assert_pinned(what, &answers, pinned);
}

/// Digests of every answer of the four full-sweep tests below, computed
/// before the fault path became one schedule.
const FULL_SWEEP_2016: u64 = 0x9953_6e09_f68a_f022;
const FULL_SWEEP_2020: u64 = 0x8434_20a5_5464_d8e2;
const FULL_SWEEP_2016_POISONED: u64 = 0x8996_4d34_4183_f34c;
const FULL_SWEEP_2020_POISONED: u64 = 0x4225_d5c0_e01b_86b2;

#[test]
fn outage_index_matches_full_sweep_2016() {
    let world = footprint_world(SnapshotYear::Y2016);
    check_both_policies(&world, "2016", FULL_SWEEP_2016);
}

#[test]
fn outage_index_matches_full_sweep_2020() {
    let world = footprint_world(SnapshotYear::Y2020);
    check_both_policies(&world, "2020", FULL_SWEEP_2020);
}

#[test]
fn outage_index_matches_full_sweep_2016_poisoned_pki() {
    check_index_matches_full_sweep_poisoned(
        footprint_world(SnapshotYear::Y2016),
        FULL_SWEEP_2016_POISONED,
    );
}

#[test]
fn outage_index_matches_full_sweep_2020_poisoned_pki() {
    check_index_matches_full_sweep_poisoned(
        footprint_world(SnapshotYear::Y2020),
        FULL_SWEEP_2020_POISONED,
    );
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
    let index = OutageIndex::build(&world, world.truth.len(), RevocationPolicy::SoftFail);
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
            let entity = provider_entity(&world, &key).expect("observed provider");
            let full = plan_sweep(&world, &[entity], RevocationPolicy::SoftFail);
            assert_eq!(reply_count(&reply, "affected="), full.len(), "{reply}");
            let total = world.truth.len();
            assert_eq!(reply_count(&reply, "total="), total, "{reply}");
            let probed = reply_count(&reply, "probed=");
            assert_eq!(probed, index.footprint(entity).len(), "{reply}");
            assert!(probed <= total, "{reply}");
        }
    }
}

/// The campaign's fixed-instant question over the first `sites` sites
/// of `world`: for 64 random schedules at four sampled instants each,
/// its index probes only what the schedule can reach and must count
/// exactly the oracle's down sites, whose digest is `pinned`.
fn check_schedules_at_an_instant(world: &World, sites: usize, pinned: u64) {
    let index = monotonicity_index(world, sites);
    let mut rng = DetRng::new(sites as u64).fork("outage-instants");
    let (mut probed, mut down, mut cases) = (0, 0, 0);
    let mut answers = String::new();
    for seed in 0..64 {
        let schedule = random_schedule(world, seed);
        for _ in 0..4 {
            let at = SimTime(rng.below(25_200) as u64);
            let indexed = index.affected_at(world, &schedule, at);
            let full = schedule_sweep(world, sites, &schedule, at);
            assert_eq!(
                indexed.affected, full,
                "schedule {seed} at {at:?} over {sites}"
            );
            assert_eq!(indexed.total, sites);
            assert_eq!(indexed.failed_entities, schedule.entities_active_at(at));
            push_answer(&mut answers, &format!("schedule {seed} at {at:?}"), &full);
            let reach = index.reach(&schedule_entities(world, &schedule), &[], at);
            probed += reach.len();
            down += full.len();
            cases += 1;
        }
    }
    assert!(down > 0, "over {sites}: no schedule takes a site down");
    assert!(
        probed < cases * sites,
        "over {sites}: every case probed every site"
    );
    assert_pinned(&format!("schedules over {sites}"), &answers, pinned);
}

/// Digests of every answer of the two schedule tests below, computed
/// before the fault path became one schedule.
const SCHEDULES_40: u64 = 0x4a74_ac13_d3f3_c014;
const SCHEDULES_200: u64 = 0x77ab_2b2f_d14d_986a;

/// The campaign's default population.
#[test]
fn schedules_at_an_instant_match_full_sweep_over_40_sites() {
    check_schedules_at_an_instant(campaign_world(), 40, SCHEDULES_40);
}

/// The CLI's largest campaign population.
#[test]
fn schedules_at_an_instant_match_full_sweep_over_200_sites() {
    check_schedules_at_an_instant(campaign_world(), 200, SCHEDULES_200);
}

/// The world `webdeps-chaos --campaign` checks.
fn campaign_world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| World::generate(WorldConfig::small(71)))
}
