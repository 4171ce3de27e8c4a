//! The incident-replay engine.
//!
//! [`replay`] advances one persistent [`WebClient`] — DNS cache, OCSP
//! response cache, and simulated clock intact — through an
//! [`Incident`]'s timeline. At each tick it probes the document fetch of
//! every site the incident's faults can reach (their footprint, from a
//! [`webdeps_core::OutageIndex`] recorded first) and counts every other
//! site at its healthy baseline. Persistence is the engine's reason to
//! exist: cached DNS answers let sites coast through the early minutes
//! of an outage, and cached OCSP responses keep denying sites long after
//! a PKI fault is fixed. A cache-free question (see
//! [`webdeps_core::OutageIndex::affected_at`]) cannot show either
//! effect.

use crate::incident::Incident;
use webdeps_core::outage::{probe_site, schedule_entities};
use webdeps_core::OutageIndex;
use webdeps_dns::{SimTime, StalePolicy};
use webdeps_model::CaId;
use webdeps_tls::{Pki, RevocationPolicy};
use webdeps_web::WebClient;
use webdeps_worldgen::World;

/// How the engine probes the population during a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Seconds between availability samples.
    pub tick_secs: u64,
    /// Last sampled instant (inclusive); samples run `0, tick, …, ≤
    /// horizon`.
    pub horizon_secs: u64,
    /// Probe under the hard-fail revocation policy (CA outages deny).
    pub hard_fail: bool,
    /// Keep client-side caches across ticks (the realistic setting);
    /// `false` probes each tick's instantaneous conditions.
    pub probe_caching: bool,
    /// Enable RFC 8767 serve-stale on the probing resolver.
    pub serve_stale: bool,
    /// Cap on the replayed population, taken as the first `max_sites`
    /// sites (`0` replays every site).
    pub max_sites: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            tick_secs: 1_800,
            horizon_secs: 0,
            hard_fail: false,
            probe_caching: true,
            serve_stale: false,
            max_sites: 0,
        }
    }
}

/// Availability at one sampled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickSample {
    /// The sampled instant.
    pub time: SimTime,
    /// Sites whose document fetch succeeded.
    pub up: usize,
    /// Sites replayed (probed, or counted at their healthy baseline).
    pub total: usize,
}

impl TickSample {
    /// Fraction of replayed sites up at this instant.
    pub fn availability(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.up as f64 / self.total as f64
        }
    }
}

/// The availability curve of one replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// The replayed incident's name.
    pub incident: String,
    /// The replayed incident's description.
    pub description: String,
    /// One sample per tick, in time order.
    pub samples: Vec<TickSample>,
    /// Sites probed at each tick: the incident's footprint. The other
    /// sites of each sample's `total` count at their healthy baseline.
    pub probed: usize,
}

impl ReplayResult {
    /// The lowest availability seen across the replay.
    pub fn min_availability(&self) -> f64 {
        self.samples
            .iter()
            .map(TickSample::availability)
            .fold(1.0, f64::min)
    }

    /// The sample at a given time, when it was sampled.
    pub fn at(&self, t: SimTime) -> Option<TickSample> {
        self.samples.iter().copied().find(|s| s.time == t)
    }

    /// Deterministic text rendering: a fixed-format availability table
    /// with an ASCII bar per tick. Byte-identical for identical runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("incident: {}\n", self.incident));
        out.push_str(&format!("{}\n", self.description));
        out.push_str("     time | avail  |    up/total | curve\n");
        for s in &self.samples {
            let avail = s.availability();
            let bar_len = (avail * 40.0).round() as usize;
            out.push_str(&format!(
                "{:>9} | {:.4} | {:>5}/{:<5} | {}\n",
                format!("t+{}s", s.time.seconds()),
                avail,
                s.up,
                s.total,
                "#".repeat(bar_len),
            ));
        }
        out.push_str(&format!(
            "min availability: {:.4}\n",
            self.min_availability()
        ));
        out
    }
}

/// Replays `incident` against `world` and returns the availability
/// curve. Deterministic: same world, incident, and options → identical
/// result (and identical [`ReplayResult::render`] bytes).
///
/// The samples equal those of probing every site at every tick. An
/// [`OutageIndex`] recorded over the replayed sites (healthy, caches
/// off, the replay's revocation policy) names the sites the incident's
/// fault set can reach: the entities its schedule degrades (a server
/// target counts as its operator), the CAs of its PKI phases, and the
/// sites whose certificates expire within the horizon. Only those are
/// probed. The persistent client cannot carry a fault to the rest: the
/// clock moves only between ticks, loss draws are keyed on (seed,
/// server, name, time, attempt) rather than on probe order, and a site
/// outside the footprint never looks up a name or certificate status
/// whose path touches a faulted entity or CA — if it did, the entity or
/// CA would be in its footprint. `tests/replay_oracle.rs` holds the
/// samples equal to a full probe's.
pub fn replay(world: &World, incident: &Incident) -> ReplayResult {
    let opts = incident.options;
    let policy = if opts.hard_fail {
        RevocationPolicy::HardFail
    } else {
        RevocationPolicy::SoftFail
    };
    let mut total = world.truth.len();
    if opts.max_sites > 0 {
        total = total.min(opts.max_sites);
    }
    let tick = opts.tick_secs.max(1);
    let last_tick = SimTime(opts.horizon_secs / tick * tick);

    let index = OutageIndex::build(world, total, policy);
    let entities = schedule_entities(world, &incident.schedule);
    let cas: Vec<CaId> = incident.pki_phases.iter().map(|p| p.ca).collect();
    let footprint = index.reach(&entities, &cas, last_tick);
    let down_outside = index
        .baseline_down()
        .iter()
        .filter(|id| footprint.binary_search(id).is_err())
        .count();
    let up_outside = total - footprint.len() - down_outside;
    let probed: Vec<_> = footprint
        .iter()
        .map(|&id| (index.document_hosts(id), world.site(id).https()))
        .collect();

    // Materialize one PKI view per scripted phase, cumulatively: each
    // phase edits the previous view, so clearing a fault at phase 2
    // reverses exactly what phase 1 injected.
    let mut pki_views: Vec<(SimTime, Pki)> = Vec::new();
    let mut current = world.pki.clone();
    for phase in &incident.pki_phases {
        match phase.fault {
            Some(fault) => current.inject_fault(phase.ca, fault),
            None => current.clear_fault(phase.ca),
        }
        pki_views.push((phase.from, current.clone()));
    }

    let mut client = WebClient::new(world.resolver(), &world.web, &world.pki).with_policy(policy);
    if !opts.probe_caching {
        client.resolver_mut().disable_cache();
    }
    if opts.serve_stale {
        client
            .resolver_mut()
            .set_stale_policy(StalePolicy::serve_stale());
    }
    client.set_schedule(incident.schedule.clone());

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

        let up = probed
            .iter()
            .filter(|(hosts, https)| probe_site(&mut client, hosts, *https))
            .count();
        samples.push(TickSample {
            time: SimTime(t),
            up: up_outside + up,
            total,
        });
        t += tick;
    }

    ReplayResult {
        incident: incident.name.clone(),
        description: incident.description.clone(),
        samples,
        probed: probed.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::{dyn_two_wave, globalsign_stale_week};
    use std::sync::OnceLock;
    use webdeps_worldgen::incidents::{dyn_incident_world, globalsign_incident_world};

    fn dyn_world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| dyn_incident_world(71, 600))
    }

    #[test]
    fn dyn_replay_shows_two_waves_with_partial_recovery() {
        let world = dyn_world();
        let mut incident = dyn_two_wave(world, 42).expect("2016 world has Dyn");
        incident.options.max_sites = 200;
        let result = replay(world, &incident);

        let avail = |t: u64| result.at(SimTime(t)).expect("sampled").availability();
        let baseline = avail(0);
        assert!(baseline > 0.95, "healthy world is healthy: {baseline}");

        // Wave 1 dips but not to the floor (loss + retries + caches).
        let wave1 = avail(12_600);
        // Wave 2 (hard down, caches long expired) is the deepest point.
        let wave2 = avail(30_600);
        // Recovery gap climbs back toward baseline.
        let gap = avail(19_800);
        assert!(wave1 < baseline, "wave 1 must dip: {wave1} vs {baseline}");
        assert!(
            gap > wave1,
            "partial recovery between waves: {gap} vs {wave1}"
        );
        assert!(
            wave2 < wave1,
            "the hard wave bites deeper: {wave2} vs {wave1}"
        );
        // Full recovery after the attack ends.
        let end = avail(37_800);
        assert!(end >= gap, "post-incident recovery: {end}");
    }

    #[test]
    fn dyn_replay_is_deterministic() {
        let world = dyn_world();
        let mut incident = dyn_two_wave(world, 42).expect("2016 world has Dyn");
        incident.options.max_sites = 120;
        let a = replay(world, &incident).render();
        let b = replay(world, &incident).render();
        assert_eq!(a, b, "same seed, same bytes");
        // A different loss seed may flip individual draws but keeps the
        // curve shape; only assert it still runs.
        let other = dyn_two_wave(world, 43).expect("2016 world has Dyn");
        let _ = replay(
            world,
            &Incident {
                options: ReplayOptions {
                    max_sites: 40,
                    ..other.options
                },
                ..other
            },
        );
    }

    #[test]
    fn globalsign_replay_outlives_its_fault_until_caches_expire() {
        let world = globalsign_incident_world(71, 600);
        let mut incident = globalsign_stale_week(&world).expect("world has GlobalSign");
        incident.options.max_sites = 300;
        let result = replay(&world, &incident);

        let avail = |t: u64| result.at(SimTime(t)).expect("sampled").availability();
        // The fault lands at t=0 and is *fixed* at t=86 400 — yet
        // availability stays depressed well past the fix.
        let during = avail(43_200);
        assert!(during < 1.0, "GlobalSign customers must be denied");
        let day3 = avail(259_200);
        assert!(
            day3 < 1.0,
            "cached revoked responses persist past the fix: {day3}"
        );
        assert!(
            day3 >= during,
            "stapling sites recover at the fix: {day3} vs {during}"
        );
        // After the 7-day response validity lapses, everyone recovers.
        let day9 = avail(820_800);
        assert!(day9 > day3, "recovery once caches expire: {day9} vs {day3}");
    }

    #[test]
    fn render_is_fixed_format() {
        let world = dyn_world();
        let mut incident = dyn_two_wave(world, 42).expect("2016 world has Dyn");
        incident.options.max_sites = 40;
        incident.options.horizon_secs = 3_600;
        let text = replay(world, &incident).render();
        assert!(text.starts_with("incident: dyn\n"));
        assert!(text.contains("min availability:"));
        assert!(text.lines().count() >= 5);
    }
}
