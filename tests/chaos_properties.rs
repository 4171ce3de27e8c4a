//! Property-based tests for the chaos-engine invariants, driven by the
//! in-repo `webdeps-testkit`: ≥64 seeded random fault schedules per
//! property, each fully reproducible with `TESTKIT_SEED=<seed>`.
//!
//! * **Monotonicity** — adding a fault phase to any schedule never
//!   increases availability (checked cache-free; client-side caching
//!   legitimately breaks this, which is exactly why the check runs
//!   through `OutageIndex::affected_at`).
//! * **Redundancy** — any site with two or more independent DNS
//!   provider entities (or a private deployment beside a third party)
//!   survives every single-entity DNS outage among its own providers.

use std::sync::OnceLock;
use webdeps::chaos::campaign::{
    check_monotonicity, dns_provider_entities, monotonicity_index, random_schedule,
};
use webdeps::core::probe_site;
use webdeps::dns::FaultPlan;
use webdeps::model::{DetRng, EntityId};
use webdeps::worldgen::{World, WorldConfig};
use webdeps_testkit::{check_with, gen, tk_assert, Config};

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| World::generate(WorldConfig::small(71)))
}

/// (site index, provider entities) for every site whose DNS is
/// redundant across at least two independent entities (counting a
/// private deployment as one leg).
fn redundant_pool(world: &World) -> &'static Vec<(usize, Vec<EntityId>)> {
    static POOL: OnceLock<Vec<(usize, Vec<EntityId>)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = Vec::new();
        for (i, truth) in world.truth.sites.iter().enumerate() {
            if !truth.dns.state.is_redundant() {
                continue;
            }
            let mut entities: Vec<EntityId> = truth
                .dns
                .providers
                .iter()
                .filter_map(|p| world.provider_entity(p))
                .collect();
            entities.sort_unstable();
            entities.dedup();
            let private_leg =
                truth.dns.state == webdeps::worldgen::profiles::DepState::PrivatePlusThird;
            if private_leg || entities.len() >= 2 {
                pool.push((i, entities));
            }
        }
        pool
    })
}

fn property_config() -> Config {
    Config {
        cases: 64,
        ..Config::default()
    }
}

/// Adding one more random fault phase to a random schedule never makes
/// more sites reachable, at any sampled instant.
#[test]
fn adding_faults_never_increases_availability() {
    let world = world();
    let index = monotonicity_index(world, 40);
    check_with(
        &property_config(),
        "adding_faults_never_increases_availability",
        &gen::u64_any(),
        |&seed| {
            let base = random_schedule(world, seed);
            let mut rng = DetRng::new(seed).fork("chaos-extend");
            let (checks, violations) = check_monotonicity(world, &index, &base, &mut rng, 2);
            tk_assert!(checks > 0, "the check must compare at least one instant");
            if let Some(v) = violations.first() {
                return Err(format!("monotonicity violated: {}", v.detail));
            }
            Ok(())
        },
    );
}

/// A site with two independent DNS provider entities survives each
/// single-entity outage among its own providers.
#[test]
fn redundant_dns_survives_any_single_entity_outage() {
    let world = world();
    let pool = redundant_pool(world);
    assert!(
        pool.len() >= 10,
        "world must contain redundant-DNS sites: {}",
        pool.len()
    );
    check_with(
        &property_config(),
        "redundant_dns_survives_any_single_entity_outage",
        &gen::u64_any(),
        |&seed| {
            let mut rng = DetRng::new(seed).fork("redundancy-pick");
            let (site_idx, entities) = rng.pick(pool);
            let truth = &world.truth.sites[*site_idx];
            // Fail one of the site's own providers — the adversarial
            // choice; unrelated entities trivially cannot hurt it.
            let entity = *rng.pick(entities);
            let mut client = world.client();
            client.set_faults(FaultPlan::healthy().fail_entity(entity));
            client.resolver_mut().disable_cache();
            let apex = std::slice::from_ref(&truth.domain);
            tk_assert!(
                probe_site(&mut client, apex, false),
                "{} has redundant DNS ({:?}) yet died when {:?} went down",
                truth.domain,
                truth.dns.providers,
                entity
            );
            Ok(())
        },
    );
}

/// Sanity on the generator itself: schedules are seed-deterministic
/// and draw targets from the DNS provider population.
#[test]
fn random_schedules_target_dns_providers() {
    let world = world();
    let providers = dns_provider_entities(world);
    assert!(!providers.is_empty());
    check_with(
        &property_config(),
        "random_schedules_target_dns_providers",
        &gen::u64_any(),
        |&seed| {
            let a = random_schedule(world, seed);
            let b = random_schedule(world, seed);
            tk_assert!(
                format!("{a:?}") == format!("{b:?}"),
                "same seed must give the same schedule"
            );
            for phase in a.phases() {
                tk_assert!(phase.start <= phase.end, "windows are ordered");
                match phase.target {
                    webdeps::dns::FaultTarget::Entity(e) => {
                        tk_assert!(
                            providers.contains(&e),
                            "targets come from the DNS provider pool"
                        );
                    }
                    webdeps::dns::FaultTarget::Server(_) => {
                        return Err("campaign schedules target entities only".into())
                    }
                }
            }
            Ok(())
        },
    );
}
