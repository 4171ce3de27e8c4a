//! `chaos-dyn-100k`: `webdeps-chaos --replay dyn --sites 100000 --seed S`,
//! through the library calls the CLI makes — `dyn_incident_world` (world
//! seed fixed at the CLI's 71; `--seed` drives the fault schedule),
//! `dyn_two_wave`, `replay` and `render`, then the drop of the world,
//! which the op's time includes.

use std::hint::black_box;
use std::time::Instant;

use webdeps_chaos::{dyn_two_wave, replay, Incident, ReplayOptions, TickSample};
use webdeps_dns::ResolverStats;
use webdeps_dns::{SimTime, StalePolicy};
use webdeps_tls::{Pki, RevocationPolicy};
use webdeps_web::WebClient;
use webdeps_worldgen::incidents::dyn_incident_world;
use webdeps_worldgen::World;

use crate::batch::{self, step, Timed};
use crate::digest;
use crate::report::RunReport;
use crate::sys;
use crate::trace::Tracer;

pub const NAME: &str = "chaos-dyn-100k";

/// The world seed `webdeps-chaos` uses for fixture worlds.
const WORLD_SEED: u64 = 71;

/// Set-ups per end-to-end run beyond the ops' own. Set-up is a 1–2 s
/// phase and only two to four ops fit in a run, so these give its
/// median enough samples.
const EXTRA_SETUPS: usize = 6;

pub struct Op {
    timed: Timed,
    samples: Vec<TickSample>,
    options: ReplayOptions,
    sites: usize,
}

impl batch::Op for Op {
    fn timed(&self) -> &Timed {
        &self.timed
    }

    fn check(&self) -> Result<(), String> {
        check_curve(&self.samples, &self.options, self.sites)
    }

    fn units(&self) -> f64 {
        self.samples.iter().map(|s| s.total).sum::<usize>() as f64
    }
}

fn build(seed: u64, sites: usize) -> (World, Incident) {
    let world = dyn_incident_world(WORLD_SEED, sites);
    let incident = dyn_two_wave(&world, seed).expect("the 2016 world always has Dyn");
    (world, incident)
}

/// One `webdeps-chaos --replay dyn` invocation. The output is what the
/// CLI prints to stdout.
pub fn op(seed: u64, sites: usize, mut tracer: Option<&mut Tracer>) -> Op {
    let root = tracer.as_mut().map(|t| t.begin("chaos.op"));
    let cpu0 = sys::process_cpu_ms();
    let t0 = Instant::now();
    let (world, incident) = step(&mut tracer, "chaos.incident", || build(seed, sites));
    let setup_s = t0.elapsed().as_secs_f64();
    let options = incident.options;
    let result = step(&mut tracer, "chaos.replay", || replay(&world, &incident));
    let text = step(&mut tracer, "chaos.render", || result.render());
    step(&mut tracer, "chaos.teardown", || {
        drop(black_box((world, incident)))
    });
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = sys::process_cpu_ms() - cpu0;
    if let (Some(t), Some(id)) = (tracer, root) {
        t.end(id);
    }
    Op {
        timed: Timed {
            setup_s,
            latency_ms,
            cpu_ms,
            digest: digest::fnv1a(text.as_bytes()),
        },
        samples: result.samples,
        options,
        sites,
    }
}

/// Curve shape every seed must show: one sample per tick over the
/// horizon, every site counted at every tick, a dip during the attack,
/// and recovery to the pre-attack level once it is over.
fn check_curve(samples: &[TickSample], o: &ReplayOptions, sites: usize) -> Result<(), String> {
    let ticks = (o.horizon_secs / o.tick_secs + 1) as usize;
    if samples.len() != ticks {
        return Err(format!("{} samples, want {ticks}", samples.len()));
    }
    if let Some(s) = samples.iter().find(|s| s.total != sites) {
        return Err(format!("t+{}s counted {} sites", s.time.seconds(), s.total));
    }
    let (first, last) = (samples[0].up, samples[ticks - 1].up);
    if first != last {
        return Err(format!(
            "{last} sites up after the attack, {first} before it"
        ));
    }
    if samples.iter().all(|s| s.up >= first) {
        return Err("no availability dip".to_string());
    }
    Ok(())
}

/// The op's set-up alone (world and incident built, then dropped), in
/// seconds.
fn setup_only(seed: u64, sites: usize) -> f64 {
    let t0 = Instant::now();
    let built = build(seed, sites);
    let setup_s = t0.elapsed().as_secs_f64();
    drop(black_box(built));
    setup_s
}

pub fn run(seed: u64, sites: usize, seconds: f64, report: &mut RunReport) {
    let extra = batch::ExtraSetups {
        count: EXTRA_SETUPS,
        run: &mut || setup_only(seed, sites),
    };
    batch::run(
        NAME,
        (seed, sites, seconds),
        report,
        || op(seed, sites, None),
        Some(extra),
    );
}

/// What the benchmark's own replay of the incident observed.
pub struct Replica {
    pub ups: Vec<usize>,
    pub stats: ResolverStats,
    pub probes: u64,
    pub elapsed_s: f64,
}

/// Re-runs the incident's sweep with a benchmark-owned client configured
/// from the incident's public schedule, options and PKI phases, reading
/// the resolver's counters. Valid only while its per-tick `up` counts
/// equal `replay()`'s.
pub fn replica(world: &World, incident: &Incident) -> Replica {
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
    let t0 = Instant::now();
    let mut ups = Vec::new();
    let mut probes = 0u64;
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
            .filter(|l| webdeps_core::probe_site(&mut client, &l.document_hosts, l.https))
            .count();
        ups.push(up);
        probes += listings.len() as u64;
        t += opts.tick_secs.max(1);
    }
    Replica {
        ups,
        stats: client.resolver().stats(),
        probes,
        elapsed_s: t0.elapsed().as_secs_f64(),
    }
}

/// Adds the counters the probe-path metrics read.
pub fn add_stats(into: &mut ResolverStats, s: &ResolverStats) {
    into.queries_sent += s.queries_sent;
    into.cache_hits += s.cache_hits;
    into.retries += s.retries;
    into.timeouts += s.timeouts;
}

/// Sets the probe-path metrics from a replica's counters.
pub fn set_probe_metrics(report: &mut RunReport, stats: &ResolverStats, probes: u64, secs: f64) {
    let per_probe = |n: u64| n as f64 / probes as f64;
    let lookups = stats.cache_hits + stats.queries_sent;
    report.set("dns.queries_per_probe", per_probe(stats.queries_sent));
    report.set(
        "dns.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            stats.cache_hits as f64 / lookups as f64
        },
    );
    report.set("dns.retries_per_probe", per_probe(stats.retries));
    report.set("dns.timeouts_per_probe", per_probe(stats.timeouts));
    report.set("web.probe_us", secs * 1e6 / probes as f64);
}

/// Traced run: one untraced op as the reference, one op with spans,
/// then the replica for the probe-path counters.
pub fn run_traced(seed: u64, sites: usize, report: &mut RunReport, tracer: &mut Tracer) {
    let run_op = |t: Option<&mut Tracer>| op(seed, sites, t);
    let Some(traced) = batch::traced_pair(NAME, (seed, sites), report, tracer, run_op) else {
        return;
    };
    report.set("chaos.incident_ms", tracer.self_ms_named("chaos.incident"));
    report.set("chaos.replay_ms", tracer.self_ms_named("chaos.replay"));
    report.set("chaos.render_ms", tracer.self_ms_named("chaos.render"));
    report.set("chaos.teardown_ms", tracer.self_ms_named("chaos.teardown"));
    report.set("chaos.site_probes", batch::Op::units(&traced));

    let (world, incident) = build(seed, sites);
    let rep = replica(&world, &incident);
    let program: Vec<usize> = traced.samples.iter().map(|s| s.up).collect();
    if rep.ups == program {
        set_probe_metrics(report, &rep.stats, rep.probes, rep.elapsed_s);
    } else {
        eprintln!(
            "{NAME}: replica per-tick up counts {:?} differ from replay() {:?}; \
             dns.* and web.probe_us withheld",
            rep.ups, program
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_matches_replay_on_a_small_world() {
        let (world, mut incident) = build(42, 400);
        incident.options.max_sites = 150;
        let program: Vec<usize> = replay(&world, &incident)
            .samples
            .iter()
            .map(|s| s.up)
            .collect();
        let rep = replica(&world, &incident);
        assert_eq!(rep.ups, program);
        assert!(rep.stats.queries_sent > 0);
        assert_eq!(rep.probes, 150 * program.len() as u64);
    }

    #[test]
    fn curve_check_rejects_a_flat_or_short_curve() {
        let (world, mut incident) = build(42, 400);
        incident.options.max_sites = 150;
        let samples = replay(&world, &incident).samples;
        assert!(check_curve(&samples, &incident.options, 150).is_ok());
        assert!(check_curve(&samples[1..], &incident.options, 150).is_err());
        let flat: Vec<TickSample> = samples
            .iter()
            .map(|s| TickSample { up: s.total, ..*s })
            .collect();
        assert!(check_curve(&flat, &incident.options, 150).is_err());
    }
}
