//! Seeded chaos campaigns.
//!
//! A campaign generates randomized [`FaultSchedule`]s against a world's
//! DNS provider population and checks two invariants the simulator must
//! uphold under *any* fault mix:
//!
//! * **Monotonicity** — adding a fault phase to a schedule never
//!   *increases* availability. Checked cache-free (via
//!   [`OutageIndex::affected_at`], which probes only the sites a
//!   schedule can reach and counts the rest at their recorded baseline)
//!   because client-side caching genuinely breaks monotonicity: an
//!   earlier fault can leave a site with a fresher cached answer that
//!   later rides out a second outage.
//! * **Redundancy** — a site whose DNS sits on two or more *independent*
//!   entities (or on a private deployment plus a third party) survives
//!   any single-entity DNS outage. This is the paper's core mitigation
//!   claim, promoted to an executable property.
//!
//! Everything is derived from one seed, so a reported violation comes
//! with the exact schedule seed that reproduces it.

use webdeps_core::outage::probe_site;
use webdeps_core::OutageIndex;
use webdeps_dns::fault::Degradation;
use webdeps_dns::{FaultPhase, FaultPlan, FaultSchedule, FaultTarget, SimTime};
use webdeps_model::rng::DetRng;
use webdeps_model::{fan_out_chunked, EntityId};
use webdeps_tls::RevocationPolicy;
use webdeps_worldgen::World;

/// How much ground a campaign covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed; every schedule seed derives from it.
    pub seed: u64,
    /// Randomized schedules to generate and check for monotonicity.
    pub schedules: usize,
    /// Sites probed per availability sweep (`0` probes everything;
    /// sweeps are cache-free full fetches, so keep this modest).
    pub probe_sites: usize,
    /// Instants sampled per schedule pair.
    pub samples_per_schedule: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            schedules: 12,
            probe_sites: 80,
            samples_per_schedule: 3,
        }
    }
}

impl CampaignConfig {
    /// A small configuration suitable for CI smoke runs.
    pub fn smoke(seed: u64) -> Self {
        CampaignConfig {
            seed,
            schedules: 4,
            probe_sites: 40,
            samples_per_schedule: 2,
        }
    }
}

/// One invariant violation, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed (`"monotonicity"` or `"redundancy"`).
    pub invariant: &'static str,
    /// The schedule seed (monotonicity) or campaign seed (redundancy)
    /// that reproduces the failure.
    pub seed: u64,
    /// Human-readable description of the failing case.
    pub detail: String,
}

impl Violation {
    /// A copy-pasteable `webdeps-chaos` invocation that replays this
    /// violation in isolation. Monotonicity violations replay a single
    /// schedule by its seed; redundancy violations replay the campaign
    /// seed with one schedule (`--schedules 1`, the fewest the CLI
    /// takes): the redundancy sweep does not depend on the schedules.
    pub fn repro_command(&self, probe_sites: usize) -> String {
        match self.invariant {
            "monotonicity" => format!(
                "webdeps-chaos --replay-schedule --seed {} --sites {probe_sites}",
                self.seed
            ),
            _ => format!(
                "webdeps-chaos --campaign --seed {} --schedules 1 --sites {probe_sites}",
                self.seed
            ),
        }
    }
}

/// Outcome of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Randomized schedules checked for monotonicity.
    pub schedules_checked: usize,
    /// (schedule, instant) availability comparisons performed.
    pub monotonicity_checks: usize,
    /// (site, failed-entity) survival probes performed.
    pub redundancy_checks: usize,
    /// Invariant violations found (empty on a healthy simulator).
    pub violations: Vec<Violation>,
    /// Sites probed per sweep — recorded so violation repro commands
    /// carry the exact probe budget the failing run used.
    pub probe_sites: usize,
}

impl CampaignReport {
    /// Whether every check held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic one-screen summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos campaign (seed {}): {} schedules, {} monotonicity checks, {} redundancy checks\n",
            self.seed, self.schedules_checked, self.monotonicity_checks, self.redundancy_checks
        ));
        if self.passed() {
            out.push_str("all invariants held\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!(
                    "VIOLATION [{}] (seed {}): {}\n  repro: {}\n",
                    v.invariant,
                    v.seed,
                    v.detail,
                    v.repro_command(self.probe_sites)
                ));
            }
        }
        out
    }
}

/// The DNS provider entities of a world, sorted and deduplicated —
/// the target population for randomized DNS-layer faults.
pub fn dns_provider_entities(world: &World) -> Vec<EntityId> {
    let mut out: Vec<EntityId> = world
        .truth
        .sites
        .iter()
        .flat_map(|s| s.dns.providers.iter())
        .filter_map(|p| world.provider_entity(p))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The campaign's fault horizon: schedules place phases inside the
/// first six simulated hours.
const HORIZON_SECS: u64 = 21_600;

/// Generates a randomized fault schedule over `world`'s DNS providers.
/// Fully determined by `seed`: 1–3 phases, each hitting one provider
/// entity with a random window and degradation mode.
pub fn random_schedule(world: &World, seed: u64) -> FaultSchedule {
    let entities = dns_provider_entities(world);
    // lint:allow(seed-flow) — schedule generation is a stream root: the
    // schedule's identity *is* its seed, so the stream is minted here.
    let mut rng = DetRng::new(seed).fork("chaos-schedule");
    let mut schedule = FaultSchedule::seeded(seed);
    if entities.is_empty() {
        return schedule;
    }
    let n_phases = 1 + rng.below(3);
    for _ in 0..n_phases {
        schedule.push_phase(random_phase(&entities, &mut rng));
    }
    schedule
}

fn random_phase(entities: &[EntityId], rng: &mut DetRng) -> FaultPhase {
    let target = *rng.pick(entities);
    let start = (rng.below(10) as u64) * 1_800;
    let duration = (1 + rng.below(6)) as u64 * 1_800;
    let mode = match rng.below(4) {
        0 => Degradation::Down,
        1 => Degradation::Loss {
            probability: 0.3 + 0.65 * rng.unit(),
        },
        2 => Degradation::Latency {
            added_ms: 500 + rng.below(2_501) as u32,
        },
        _ => {
            let period = 600 + rng.below(3_001) as u64;
            Degradation::Flapping {
                period_secs: period,
                down_secs: 1 + rng.below(period as usize) as u64,
            }
        }
    };
    FaultPhase {
        target: FaultTarget::Entity(target),
        start: SimTime(start),
        end: SimTime(start + duration),
        mode,
    }
}

/// The index a campaign's monotonicity checks ask: the first
/// `probe_sites` sites of `world` (`0` records every site), recorded
/// under the browser-default soft-fail policy. Build it once per world
/// and population; every schedule and instant reuses it.
pub fn monotonicity_index(world: &World, probe_sites: usize) -> OutageIndex {
    let sites = match probe_sites {
        0 => world.truth.len(),
        n => n,
    };
    OutageIndex::build(world, sites, RevocationPolicy::SoftFail)
}

/// Checks monotonicity for one schedule: extending `base` with one more
/// phase must not raise the up-count over `index`'s recorded sites (see
/// [`monotonicity_index`]) at any sampled instant. Returns the
/// comparisons performed and any violations. Draws (the extra phase and
/// the sampled instants) come from `rng`, so the caller's stream —
/// ultimately the campaign seed — fully determines the check.
pub fn check_monotonicity(
    world: &World,
    index: &OutageIndex,
    base: &FaultSchedule,
    rng: &mut DetRng,
    samples: usize,
) -> (usize, Vec<Violation>) {
    let entities = dns_provider_entities(world);
    if entities.is_empty() {
        return (0, Vec::new());
    }
    let extra = random_phase(&entities, rng);
    let extended = base.clone().with_phase(extra);

    let mut violations = Vec::new();
    let mut checks = 0;
    for i in 0..samples.max(1) {
        // Sample instants spread over the horizon, jittered so phase
        // boundaries get hit across the campaign.
        let t = SimTime(rng.below(HORIZON_SECS as usize + 3_600) as u64 + (i as u64));
        let base_up = up_count(world, index, base, t);
        let ext_up = up_count(world, index, &extended, t);
        checks += 1;
        if ext_up > base_up {
            violations.push(Violation {
                invariant: "monotonicity",
                seed: base.seed(),
                detail: format!(
                    "at t+{}s the extended schedule has {ext_up} sites up vs {base_up} under the base",
                    t.seconds()
                ),
            });
        }
    }
    (checks, violations)
}

fn up_count(world: &World, index: &OutageIndex, schedule: &FaultSchedule, at: SimTime) -> usize {
    let r = index.affected_at(world, schedule, at);
    r.total - r.affected.len()
}

/// Checks redundancy: every site with two or more independent DNS
/// provider entities (or a private deployment alongside a third party)
/// must survive each single-entity outage among its own providers.
/// Survival is probed on the site apex over HTTP, cache-free, so the
/// check isolates the DNS layer from CDN and CA chains. (The
/// [`OutageIndex`] records document fetches, not apex lookups, so this
/// check probes every candidate.)
///
/// Candidate sites are collected serially (so `max_sites` caps the
/// same population at any worker count), then the per-candidate
/// single-entity outage probes fan across workers and merge in
/// candidate order.
pub fn check_redundancy(world: &World, seed: u64, max_sites: usize) -> (usize, Vec<Violation>) {
    // Serial candidate collection: redundant-DNS sites with their
    // deduplicated provider entities, capped exactly as a serial sweep
    // would cap them.
    let mut candidates: Vec<(&webdeps_worldgen::SiteTruth, Vec<EntityId>)> = Vec::new();
    for truth in &world.truth.sites {
        if !truth.dns.state.is_redundant() {
            continue;
        }
        let mut provider_entities: Vec<EntityId> = truth
            .dns
            .providers
            .iter()
            .filter_map(|p| world.provider_entity(p))
            .collect();
        provider_entities.sort_unstable();
        provider_entities.dedup();
        // MultiThird sites need two *distinct* third-party entities to
        // count as independent; PrivatePlusThird sites keep their own
        // private deployment as the second leg.
        let private_leg = truth.dns.state == webdeps_worldgen::profiles::DepState::PrivatePlusThird;
        if !private_leg && provider_entities.len() < 2 {
            continue;
        }
        if max_sites > 0 && candidates.len() >= max_sites {
            break;
        }
        candidates.push((truth, provider_entities));
    }

    // Parallel survival probes, merged in candidate order.
    let per_candidate = fan_out_chunked(&candidates, |shard| {
        shard
            .iter()
            .map(|(truth, provider_entities)| {
                let mut checks = 0;
                let mut violations = Vec::new();
                for &entity in provider_entities {
                    let mut client = world.client();
                    client.set_faults(FaultPlan::healthy().fail_entity(entity));
                    client.resolver_mut().disable_cache();
                    checks += 1;
                    let apex = std::slice::from_ref(&truth.domain);
                    if !probe_site(&mut client, apex, false) {
                        violations.push(Violation {
                            invariant: "redundancy",
                            seed,
                            detail: format!(
                                "{} has redundant DNS but failed when entity {:?} went down",
                                truth.domain, entity
                            ),
                        });
                    }
                }
                (checks, violations)
            })
            .collect()
    });
    let mut checks = 0;
    let mut violations = Vec::new();
    for (c, v) in per_candidate {
        checks += c;
        violations.extend(v);
    }
    (checks, violations)
}

/// Runs the monotonicity check for one schedule, fully determined by
/// the schedule seed alone: both the schedule *and* the sampling
/// stream derive from it, so the `--replay-schedule` repro command a
/// violation prints replays this exact check — same schedule, same
/// sampled instants — with nothing else from the campaign. `index` is
/// the campaign's [`monotonicity_index`].
pub fn check_schedule(
    world: &World,
    index: &OutageIndex,
    schedule_seed: u64,
    samples: usize,
) -> (usize, Vec<Violation>) {
    let base = random_schedule(world, schedule_seed);
    // lint:allow(seed-flow) — the sampling stream is rooted in the
    // schedule seed on purpose: one u64 must replay one violation.
    let mut rng = DetRng::new(schedule_seed).fork("chaos-monotonicity");
    check_monotonicity(world, index, &base, &mut rng, samples)
}

/// Runs a full campaign: `config.schedules` randomized monotonicity
/// checks plus one redundancy sweep. Deterministic in `config`.
pub fn run_campaign(world: &World, config: &CampaignConfig) -> CampaignReport {
    let mut report = CampaignReport {
        seed: config.seed,
        schedules_checked: 0,
        monotonicity_checks: 0,
        redundancy_checks: 0,
        violations: Vec::new(),
        probe_sites: config.probe_sites,
    };
    // lint:allow(seed-flow) — the campaign entry point mints the master
    // stream from the configured seed; every draw below forks from it.
    let mut master = DetRng::new(config.seed).fork("chaos-campaign");
    let index = monotonicity_index(world, config.probe_sites);
    for _ in 0..config.schedules {
        let schedule_seed = master.next_u64();
        let (checks, violations) =
            check_schedule(world, &index, schedule_seed, config.samples_per_schedule);
        report.schedules_checked += 1;
        report.monotonicity_checks += checks;
        report.violations.extend(violations);
    }
    let (checks, violations) = check_redundancy(world, config.seed, config.probe_sites);
    report.redundancy_checks += checks;
    report.violations.extend(violations);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use webdeps_worldgen::WorldConfig;

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| World::generate(WorldConfig::small(71)))
    }

    #[test]
    fn random_schedules_are_seed_deterministic_and_nonempty() {
        let w = world();
        let a = random_schedule(w, 7);
        let b = random_schedule(w, 7);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same seed, same schedule"
        );
        assert!(!a.is_empty());
        assert!((1..=3).contains(&a.phases().len()));
        let c = random_schedule(w, 8);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds should differ"
        );
    }

    #[test]
    fn smoke_campaign_holds_both_invariants() {
        let report = run_campaign(world(), &CampaignConfig::smoke(42));
        assert!(
            report.passed(),
            "invariant violations:\n{}",
            report.render()
        );
        assert!(report.monotonicity_checks > 0);
        assert!(report.redundancy_checks > 0);
        assert!(report.render().contains("all invariants held"));
    }

    #[test]
    fn redundancy_sweep_finds_redundant_sites() {
        let (checks, violations) = check_redundancy(world(), 1, 0);
        assert!(checks >= 2, "world must contain redundant-DNS sites");
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn violations_render_copy_pasteable_repro_commands() {
        let report = CampaignReport {
            seed: 42,
            schedules_checked: 1,
            monotonicity_checks: 1,
            redundancy_checks: 1,
            violations: vec![
                Violation {
                    invariant: "monotonicity",
                    seed: 987,
                    detail: "extended schedule had more sites up".to_string(),
                },
                Violation {
                    invariant: "redundancy",
                    seed: 42,
                    detail: "redundant site went down".to_string(),
                },
            ],
            probe_sites: 40,
        };
        let text = report.render();
        assert!(
            text.contains("repro: webdeps-chaos --replay-schedule --seed 987 --sites 40"),
            "{text}"
        );
        assert!(
            text.contains("repro: webdeps-chaos --campaign --seed 42 --schedules 1 --sites 40"),
            "{text}"
        );
    }

    #[test]
    fn schedule_replay_reproduces_the_campaign_check() {
        // The repro path must re-derive schedule + sampling stream from
        // the seed alone: two runs are byte-identical, and the campaign's
        // own first schedule matches a standalone replay of its seed.
        let w = world();
        let mut master = DetRng::new(42).fork("chaos-campaign");
        let first_seed = master.next_u64();
        let index = monotonicity_index(w, 40);
        let (a_checks, a_viol) = check_schedule(w, &index, first_seed, 2);
        let (b_checks, b_viol) = check_schedule(w, &index, first_seed, 2);
        assert_eq!(a_checks, b_checks);
        assert_eq!(format!("{a_viol:?}"), format!("{b_viol:?}"));
    }
}
