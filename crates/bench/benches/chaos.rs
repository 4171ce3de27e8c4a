//! Chaos-engine benchmarks: per-tick availability sweeps of the
//! incident-replay engine at population scale, plus the campaign's
//! randomized schedule generator.

use std::hint::black_box;
use webdeps_bench::harness::Harness;
use webdeps_chaos::{campaign, dyn_two_wave, replay, ReplayOptions};
use webdeps_core::outage::probe_site;
use webdeps_dns::fault::Degradation;
use webdeps_dns::{FaultSchedule, SimTime};
use webdeps_worldgen::incidents::dyn_incident_world;

/// A replay tick probes only the incident's footprint; this sweep probes
/// every one of 10 000 sites, the full-population cost pruning avoids.
const SWEEP_SITES: usize = 10_000;

fn chaos_benches(h: &mut Harness) {
    let world = dyn_incident_world(42, SWEEP_SITES);
    let listings = world.listings();

    let mut group = h.benchmark_group("chaos/tick");
    group.sample_size(10);

    // The hot loop: one full per-tick availability sweep over 10k sites
    // with an active entity fault, cache-warm (the replay steady state).
    group.bench_function("per_tick_sweep_10k_sites", |b| {
        let dyn_entity = world.provider_entity("Dyn").expect("2016 world has Dyn");
        let schedule = FaultSchedule::seeded(42).fail_entity_during(
            dyn_entity,
            SimTime(0),
            SimTime(u64::MAX),
            Degradation::Loss { probability: 0.5 },
        );
        let mut client = world.client();
        client.set_schedule(schedule);
        b.iter(|| {
            let mut up = 0usize;
            for l in &listings {
                if probe_site(&mut client, &l.document_hosts, l.https) {
                    up += 1;
                }
            }
            black_box(up)
        });
    });
    group.finish();

    let mut group = h.benchmark_group("chaos/replay");
    group.sample_size(10);

    // A truncated Dyn replay end to end over 1k sites: the footprint
    // index build plus every tick.
    group.bench_function("dyn_two_wave_1k_sites", |b| {
        let mut incident = dyn_two_wave(&world, 42).expect("2016 world has Dyn");
        incident.options = ReplayOptions {
            max_sites: 1_000,
            ..incident.options
        };
        b.iter(|| black_box(replay(&world, &incident).min_availability()));
    });

    group.bench_function("random_schedule_generation", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(campaign::random_schedule(&world, seed))
        });
    });
    group.finish();
}

fn main() {
    let mut h = Harness::new("chaos");
    chaos_benches(&mut h);
    h.finish();
}
