//! The incident replay against its oracle.
//!
//! `replay` probes at each tick only the sites an incident's faults can
//! reach and counts the rest at their healthy baseline. The oracle here
//! probes every listed site at every tick through one persistent
//! client, configured as `replay` configures its client. Pruning may
//! change what a replay costs, never its samples: every case below
//! asserts the two curves are equal, tick by tick.

use std::sync::OnceLock;
use webdeps::chaos::campaign::random_schedule;
use webdeps::chaos::{
    dyn_two_wave, globalsign_stale_week, replay, Incident, ReplayOptions, ReplayResult, TickSample,
};
use webdeps::core::{probe_site, OutageIndex};
use webdeps::dns::fault::Degradation;
use webdeps::dns::{FaultSchedule, SimTime, StalePolicy};
use webdeps::model::EntityId;
use webdeps::tls::{Pki, RevocationPolicy};
use webdeps::web::WebClient;
use webdeps::worldgen::incidents::{dyn_incident_world, globalsign_incident_world};
use webdeps::worldgen::profiles::CaProfile;
use webdeps::worldgen::World;

const DAY: u64 = 86_400;

fn dyn_world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| dyn_incident_world(71, 2_000))
}

fn globalsign_world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| globalsign_incident_world(71, 3_000))
}

/// Every listed site probed at every tick through one persistent client.
fn full_replay(world: &World, incident: &Incident) -> Vec<TickSample> {
    let opts = incident.options;
    let mut pki_views: Vec<(SimTime, Pki)> = Vec::new();
    let mut current = world.pki.clone();
    for phase in &incident.pki_phases {
        match phase.fault {
            Some(fault) => current.inject_fault(phase.ca, fault),
            None => current.clear_fault(phase.ca),
        }
        pki_views.push((phase.from, current.clone()));
    }
    let mut client = WebClient::new(world.resolver(), &world.web, &world.pki);
    if opts.hard_fail {
        client = client.with_policy(RevocationPolicy::HardFail);
    }
    if !opts.probe_caching {
        client.resolver_mut().disable_cache();
    }
    if opts.serve_stale {
        client
            .resolver_mut()
            .set_stale_policy(StalePolicy::serve_stale());
    }
    client.set_schedule(incident.schedule.clone());
    let mut listings = world.listings();
    if opts.max_sites > 0 {
        listings.truncate(opts.max_sites);
    }

    let mut samples = Vec::new();
    let mut next_view = 0;
    let mut t = 0u64;
    while t <= opts.horizon_secs {
        while next_view < pki_views.len() && pki_views[next_view].0.seconds() <= t {
            client.set_pki(&pki_views[next_view].1);
            next_view += 1;
        }
        let now = client.resolver().now().seconds();
        client.resolver_mut().advance_time(t - now);
        let up = listings
            .iter()
            .filter(|l| probe_site(&mut client, &l.document_hosts, l.https))
            .count();
        samples.push(TickSample {
            time: SimTime(t),
            up,
            total: listings.len(),
        });
        t += opts.tick_secs.max(1);
    }
    samples
}

/// Asserts `replay` equals the oracle on `incident` and returns its
/// result.
fn check(world: &World, incident: &Incident, case: &str) -> ReplayResult {
    let pruned = replay(world, incident);
    let full = full_replay(world, incident);
    assert_eq!(pruned.samples, full, "{case}: pruned replay vs full probe");
    let total = full.first().map_or(0, |s| s.total);
    assert!(pruned.probed <= total, "{case}: probed {}", pruned.probed);
    pruned
}

fn dyn_incident(seed: u64) -> Incident {
    dyn_two_wave(dyn_world(), seed).expect("2016 world has Dyn")
}

#[test]
fn dyn_replay_matches_full_probe_at_both_seeds() {
    for seed in [42, 7] {
        let case = format!("dyn seed {seed}");
        let result = check(dyn_world(), &dyn_incident(seed), &case);
        let samples = &result.samples;
        assert!(
            samples.iter().any(|s| s.up < samples[0].up),
            "{case}: the attack must show"
        );
        let probed = result.probed;
        assert!(probed < samples[0].total / 4, "{case}: probed {probed}");
    }
}

#[test]
fn globalsign_replay_matches_full_probe_with_stapling_customers() {
    let world = globalsign_world();
    let incident = globalsign_stale_week(world).expect("world has GlobalSign");
    assert!(incident.options.hard_fail);
    let staplers = world
        .truth
        .sites
        .iter()
        .filter(|s| s.ca.ca.as_deref() == Some("GlobalSign"))
        .filter(|s| s.ca.state == CaProfile::ThirdStapled)
        .count();
    assert!(staplers > 0, "GlobalSign needs stapling customers here");
    let samples = check(world, &incident, "globalsign").samples;
    assert!(samples.iter().any(|s| s.up < s.total));
}

#[test]
fn random_schedules_match_full_probe() {
    let world = dyn_world();
    for seed in 0..16 {
        let incident = Incident {
            name: format!("random-{seed}"),
            description: String::new(),
            schedule: random_schedule(world, seed),
            pki_phases: Vec::new(),
            options: ReplayOptions {
                tick_secs: 1_800,
                horizon_secs: 28_800,
                max_sites: 1_000,
                ..ReplayOptions::default()
            },
        };
        check(world, &incident, &format!("random schedule {seed}"));
    }
}

/// Server targets reach the sites of the server's operator: downing
/// every Dyn server one by one is the entity outage, seen server-wise.
#[test]
fn server_phases_match_full_probe() {
    let world = dyn_world();
    let dyn_entity = world.provider_entity("Dyn").expect("2016 world has Dyn");
    let dyn_servers = world
        .dns
        .servers()
        .iter()
        .filter(|s| s.operator == dyn_entity);
    let mut schedule = FaultSchedule::seeded(42);
    for server in dyn_servers {
        schedule = schedule.fail_server_during(
            server.id,
            SimTime(3_600),
            SimTime(10_800),
            Degradation::Down,
        );
    }
    let mut incident = dyn_incident(42);
    incident.schedule = schedule;
    incident.options.horizon_secs = 14_400;
    let samples = check(world, &incident, "dyn servers").samples;
    assert!(samples.iter().any(|s| s.up < samples[0].up));
}

#[test]
fn cache_free_and_serve_stale_replays_match_full_probe() {
    let mut incident = dyn_incident(42);
    incident.options.probe_caching = false;
    check(dyn_world(), &incident, "dyn without caching");

    let mut incident = dyn_incident(42);
    incident.options.serve_stale = true;
    check(dyn_world(), &incident, "dyn with serve-stale");
}

#[test]
fn max_sites_prefix_matches_full_probe() {
    let mut incident = dyn_incident(7);
    incident.options.max_sites = 700;
    let samples = check(dyn_world(), &incident, "dyn over 700 sites").samples;
    assert!(samples.iter().all(|s| s.total == 700));
}

/// Past 90 days the Let's Encrypt certificates expire, far outside
/// GlobalSign's footprint: the replay must still probe those sites.
#[test]
fn globalsign_over_120_days_sees_certificates_expire() {
    let world = globalsign_world();
    let mut incident = globalsign_stale_week(world).expect("world has GlobalSign");
    incident.options.tick_secs = 10 * DAY;
    incident.options.horizon_secs = 120 * DAY;
    let samples = check(world, &incident, "globalsign over 120 days").samples;
    let up = |days: u64| samples[(days / 10) as usize].up;
    assert!(
        up(90) < up(80),
        "certificates expire at 90 days: {} then {}",
        up(80),
        up(90)
    );
}

/// An entity that some sites consult only inside a passed soft-fail
/// revocation check (the DNS operator of a CA's OCSP host, say) puts
/// those soft-only sites into the replay's reach. Downing it with
/// caches on must still match the full probe, and the case is not
/// vacuous: the reach holds sites outside the entity's footprint.
#[test]
fn soft_only_sites_in_reach_match_full_probe() {
    let world = dyn_world();
    let sites = 1_000;
    let index = OutageIndex::build(world, sites, RevocationPolicy::SoftFail);
    let soft_only =
        |e: EntityId| index.reach(&[e], &[], SimTime::ZERO).len() - index.footprint(e).len();
    let (name, entity) = world
        .provider_entities()
        .max_by_key(|&(_, e)| soft_only(e))
        .expect("the world has providers");
    assert!(soft_only(entity) > 0, "no entity has soft-only sites");
    let schedule = FaultSchedule::seeded(42).fail_entity_during(
        entity,
        SimTime(3_600),
        SimTime(10_800),
        Degradation::Down,
    );
    let incident = Incident {
        name: format!("{name} down"),
        description: String::new(),
        schedule,
        pki_phases: Vec::new(),
        options: ReplayOptions {
            tick_secs: 1_800,
            horizon_secs: 14_400,
            max_sites: sites,
            ..ReplayOptions::default()
        },
    };
    assert!(incident.options.probe_caching);
    let result = check(world, &incident, &format!("{name} with soft-only sites"));
    assert!(result.probed > index.footprint(entity).len(), "{name}");
}
