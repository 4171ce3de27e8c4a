//! Fault injection.
//!
//! One model covers unavailability: a [`FaultSchedule`] of fault
//! **phases**, each degrading an entity or one server over a
//! [`SimTime`] window in one of four modes ([`Degradation`]): hard-down,
//! probabilistic packet loss, added latency, and flapping. Real
//! incidents unfold in time and in degrees (the Mirai-Dyn attack came
//! in waves with partial loss; Route 53 degraded rather than vanished),
//! and the incident-replay engine in `webdeps-chaos` drives the
//! simulator through exactly such schedules. A static outage ("this
//! provider is down") is the special case of `Down` phases over all
//! time, which [`FaultPlan`] builds. The resolver holds one schedule and
//! reads it on every query, so an outage manifests as it would on the
//! wire: SERVFAIL/timeouts for names whose entire nameserver set is
//! unreachable, while names with a surviving provider keep resolving —
//! which is precisely the paper's notion of redundancy.
//!
//! Every probabilistic decision in a schedule is a pure function of
//! `(schedule seed, server, query name, time, attempt)` — no global
//! counters — so runs are byte-identical across executions *and*
//! adding a fault phase can never flip an unrelated query's loss draw.
//! That stability is what makes the chaos-campaign monotonicity
//! invariant ("adding faults never increases availability") provable.

use crate::clock::SimTime;
use crate::server::ServerId;
use std::collections::BTreeSet;
use webdeps_model::rng::stable_hash;
use webdeps_model::{DetRng, EntityId};

/// Builder of a static outage: a [`FaultSchedule`] that takes whole
/// entities [`Degradation::Down`] over all time. Install it with
/// `WebClient::set_faults`, or turn it into the schedule it builds with
/// [`FaultSchedule::from`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    schedule: FaultSchedule,
}

impl FaultPlan {
    /// A plan with nothing failed (the healthy baseline).
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Takes down every server, webserver and responder operated by
    /// `entity`, from time 0 to the end of simulated time.
    pub fn fail_entity(self, entity: EntityId) -> Self {
        FaultPlan {
            schedule: self.schedule.fail_entity_during(
                entity,
                SimTime::ZERO,
                SimTime(u64::MAX),
                Degradation::Down,
            ),
        }
    }
}

impl From<FaultPlan> for FaultSchedule {
    fn from(plan: FaultPlan) -> FaultSchedule {
        plan.schedule
    }
}

/// What a fault phase targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultTarget {
    /// Every server (and webserver/responder) operated by the entity.
    Entity(EntityId),
    /// One authoritative server.
    Server(ServerId),
}

/// How the target misbehaves while a phase is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Degradation {
    /// Hard down: every query fails immediately (what a [`FaultPlan`]
    /// does to an entity).
    Down,
    /// Each query attempt is independently dropped with `probability`
    /// (clamped to `[0, 1]`). Retries against other servers — or the
    /// same one — may still succeed: this is the Mirai wave shape.
    Loss {
        /// Per-attempt drop probability.
        probability: f64,
    },
    /// Responses arrive `added_ms` late. Attempts fail when the added
    /// latency exceeds the client's per-attempt timeout.
    Latency {
        /// Added response delay, milliseconds.
        added_ms: u32,
    },
    /// Square-wave outage: within each `period_secs`-long cycle
    /// (anchored at the phase start) the target is down for the first
    /// `down_secs` seconds and up for the rest.
    Flapping {
        /// Cycle length, seconds (must be non-zero to have any effect).
        period_secs: u64,
        /// Down time at the start of each cycle, seconds.
        down_secs: u64,
    },
}

/// One scheduled fault: a target, a half-open time window, and a mode.
#[derive(Debug, Clone)]
pub struct FaultPhase {
    /// What degrades.
    pub target: FaultTarget,
    /// Phase start (inclusive).
    pub start: SimTime,
    /// Phase end (exclusive).
    pub end: SimTime,
    /// How it degrades.
    pub mode: Degradation,
}

impl FaultPhase {
    /// Whether the phase window covers `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether this phase applies to a server run by `operator`.
    fn applies_to(&self, server: ServerId, operator: EntityId) -> bool {
        match self.target {
            FaultTarget::Entity(e) => e == operator,
            FaultTarget::Server(s) => s == server,
        }
    }
}

/// The effective condition of one server at one instant, after folding
/// every active phase: hard state, combined loss probability, and total
/// added latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCondition {
    /// Hard down (any active `Down` phase, a flap in its down window,
    /// or a loss probability that reached 1).
    pub down: bool,
    /// Combined per-attempt drop probability in `[0, 1]`
    /// (independent losses compose as `1 - Π(1 - pᵢ)`).
    pub loss: f64,
    /// Total added response latency, milliseconds.
    pub added_ms: u32,
}

impl ServerCondition {
    /// A healthy server: up, lossless, prompt.
    pub const HEALTHY: ServerCondition = ServerCondition {
        down: false,
        loss: 0.0,
        added_ms: 0,
    };
}

/// A time-varying, seeded fault schedule: an ordered list of
/// [`FaultPhase`]s plus the seed that makes its probabilistic modes
/// reproducible.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    seed: u64,
    phases: Vec<FaultPhase>,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::empty()
    }
}

impl FaultSchedule {
    /// A schedule with no phases (the healthy baseline), seed 0.
    pub fn empty() -> Self {
        FaultSchedule {
            seed: 0,
            phases: Vec::new(),
        }
    }

    /// An empty schedule with an explicit seed for its loss draws.
    pub fn seeded(seed: u64) -> Self {
        FaultSchedule {
            seed,
            phases: Vec::new(),
        }
    }

    /// The seed the schedule draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a phase (builder form).
    pub fn with_phase(mut self, phase: FaultPhase) -> Self {
        self.push_phase(phase);
        self
    }

    /// Adds an entity-wide phase (builder convenience).
    pub fn fail_entity_during(
        self,
        entity: EntityId,
        start: SimTime,
        end: SimTime,
        mode: Degradation,
    ) -> Self {
        self.with_phase(FaultPhase {
            target: FaultTarget::Entity(entity),
            start,
            end,
            mode,
        })
    }

    /// Adds a single-server phase (builder convenience).
    pub fn fail_server_during(
        self,
        server: ServerId,
        start: SimTime,
        end: SimTime,
        mode: Degradation,
    ) -> Self {
        self.with_phase(FaultPhase {
            target: FaultTarget::Server(server),
            start,
            end,
            mode,
        })
    }

    /// Adds a phase (in-place form).
    pub fn push_phase(&mut self, phase: FaultPhase) {
        self.phases.push(phase);
    }

    /// All phases, in insertion order.
    pub fn phases(&self) -> &[FaultPhase] {
        &self.phases
    }

    /// Whether the schedule never degrades anything.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Whether one phase, evaluated at `t`, forces a hard down state.
    fn phase_down_at(phase: &FaultPhase, t: SimTime) -> bool {
        match phase.mode {
            Degradation::Down => true,
            Degradation::Loss { probability } => probability >= 1.0,
            Degradation::Latency { .. } => false,
            Degradation::Flapping {
                period_secs,
                down_secs,
            } => {
                if period_secs == 0 {
                    return false;
                }
                let since = t.seconds().saturating_sub(phase.start.seconds());
                since % period_secs < down_secs.min(period_secs)
            }
        }
    }

    /// The folded condition of `server` (operated by `operator`) at `t`.
    pub fn server_condition_at(
        &self,
        server: ServerId,
        operator: EntityId,
        t: SimTime,
    ) -> ServerCondition {
        let mut cond = ServerCondition::HEALTHY;
        let mut pass = 1.0f64; // probability an attempt survives all loss phases
        for phase in &self.phases {
            if !phase.active_at(t) || !phase.applies_to(server, operator) {
                continue;
            }
            if Self::phase_down_at(phase, t) {
                cond.down = true;
            }
            match phase.mode {
                Degradation::Loss { probability } => {
                    pass *= 1.0 - probability.clamp(0.0, 1.0);
                }
                Degradation::Latency { added_ms } => {
                    cond.added_ms = cond.added_ms.saturating_add(added_ms);
                }
                _ => {}
            }
        }
        cond.loss = 1.0 - pass;
        if cond.loss >= 1.0 {
            cond.down = true;
        }
        cond
    }

    /// Whether an entity's non-DNS infrastructure (webservers, OCSP
    /// responders) is hard-down at `t`. Loss/latency degradations do not
    /// take a webserver offline — they only perturb DNS query attempts —
    /// so only `Down`-like phases count.
    pub fn entity_down_at(&self, entity: EntityId, t: SimTime) -> bool {
        self.phases.iter().any(|p| {
            matches!(p.target, FaultTarget::Entity(e) if e == entity)
                && p.active_at(t)
                && Self::phase_down_at(p, t)
        })
    }

    /// Entities with any phase active at `t` (for reporting).
    pub fn entities_active_at(&self, t: SimTime) -> Vec<EntityId> {
        let set: BTreeSet<EntityId> = self
            .phases
            .iter()
            .filter(|p| p.active_at(t))
            .filter_map(|p| match p.target {
                FaultTarget::Entity(e) => Some(e),
                FaultTarget::Server(_) => None,
            })
            .collect();
        set.into_iter().collect()
    }

    /// Deterministic per-attempt loss draw: whether the attempt numbered
    /// `attempt` of a query for `qname_hash` (see
    /// [`webdeps_model::rng::stable_hash`]) against `server` at `t` is
    /// dropped, given combined loss probability `p`.
    ///
    /// The draw is a pure function of its arguments plus the schedule
    /// seed — deliberately *not* of any accumulated query count — so
    /// outcomes are stable under reordering and under unrelated schedule
    /// edits.
    pub fn attempt_dropped(
        &self,
        p: f64,
        server: ServerId,
        qname_hash: u64,
        t: SimTime,
        attempt: u32,
    ) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mix = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ qname_hash.rotate_left(23)
            ^ (server.index() as u64).rotate_left(47)
            ^ t.seconds().rotate_left(11)
            ^ u64::from(attempt);
        // lint:allow(seed-flow) — stateless keyed draw: the outcome must
        // be a pure function of (schedule seed, query, server, time) so
        // retries and replays agree, so a throwaway stream is keyed here.
        DetRng::new(mix).chance(p)
    }

    /// Hashes a query name for [`Self::attempt_dropped`].
    pub fn qname_hash(qname: &str) -> u64 {
        stable_hash(qname)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_downs_its_entities_over_all_time() {
        let healthy: FaultSchedule = FaultPlan::healthy().into();
        assert!(healthy.is_empty());
        let sched: FaultSchedule = FaultPlan::healthy()
            .fail_entity(EntityId(7))
            .fail_entity(EntityId(9))
            .into();
        for t in [0, 1, 86_400, u64::MAX - 1] {
            for (server, operator) in [(0, 7), (1, 7), (2, 9)] {
                let cond =
                    sched.server_condition_at(ServerId(server), EntityId(operator), SimTime(t));
                assert_eq!(
                    cond,
                    ServerCondition {
                        down: true,
                        ..ServerCondition::HEALTHY
                    }
                );
            }
            assert!(sched.entity_down_at(EntityId(7), SimTime(t)));
            assert!(!sched.entity_down_at(EntityId(8), SimTime(t)));
            assert_eq!(
                sched.server_condition_at(ServerId(3), EntityId(8), SimTime(t)),
                ServerCondition::HEALTHY
            );
        }
    }

    #[test]
    fn schedule_phase_windows_are_half_open() {
        let sched = FaultSchedule::seeded(1).fail_entity_during(
            EntityId(0),
            SimTime(100),
            SimTime(200),
            Degradation::Down,
        );
        let cond = |t| sched.server_condition_at(ServerId(0), EntityId(0), SimTime(t));
        assert!(!cond(99).down);
        assert!(cond(100).down);
        assert!(cond(199).down);
        assert!(!cond(200).down);
    }

    #[test]
    fn loss_phases_compose_independently() {
        let sched = FaultSchedule::seeded(1)
            .fail_entity_during(
                EntityId(0),
                SimTime(0),
                SimTime(100),
                Degradation::Loss { probability: 0.5 },
            )
            .fail_server_during(
                ServerId(0),
                SimTime(0),
                SimTime(100),
                Degradation::Loss { probability: 0.5 },
            );
        let c = sched.server_condition_at(ServerId(0), EntityId(0), SimTime(50));
        assert!(!c.down);
        assert!((c.loss - 0.75).abs() < 1e-9, "1-(0.5*0.5) = 0.75");
        // The entity phase alone applies to the operator's other server.
        let c2 = sched.server_condition_at(ServerId(1), EntityId(0), SimTime(50));
        assert!((c2.loss - 0.5).abs() < 1e-9);
    }

    #[test]
    fn total_loss_is_hard_down() {
        let sched = FaultSchedule::seeded(1).fail_entity_during(
            EntityId(0),
            SimTime(0),
            SimTime(10),
            Degradation::Loss { probability: 1.0 },
        );
        assert!(
            sched
                .server_condition_at(ServerId(0), EntityId(0), SimTime(5))
                .down
        );
        assert!(sched.entity_down_at(EntityId(0), SimTime(5)));
    }

    #[test]
    fn flapping_square_wave() {
        let sched = FaultSchedule::seeded(1).fail_entity_during(
            EntityId(0),
            SimTime(1_000),
            SimTime(2_000),
            Degradation::Flapping {
                period_secs: 100,
                down_secs: 30,
            },
        );
        let down = |t| {
            sched
                .server_condition_at(ServerId(0), EntityId(0), SimTime(t))
                .down
        };
        assert!(down(1_000), "cycle starts down");
        assert!(down(1_029));
        assert!(!down(1_030), "up for the rest of the cycle");
        assert!(!down(1_099));
        assert!(down(1_100), "next cycle starts down");
        assert!(!down(2_050), "phase over");
    }

    #[test]
    fn latency_accumulates() {
        let sched = FaultSchedule::seeded(1)
            .fail_entity_during(
                EntityId(0),
                SimTime(0),
                SimTime(10),
                Degradation::Latency { added_ms: 400 },
            )
            .fail_server_during(
                ServerId(0),
                SimTime(0),
                SimTime(10),
                Degradation::Latency { added_ms: 300 },
            );
        let c = sched.server_condition_at(ServerId(0), EntityId(0), SimTime(0));
        assert_eq!(c.added_ms, 700);
        assert!(!c.down);
    }

    #[test]
    fn loss_draws_are_deterministic_and_attempt_varied() {
        let sched = FaultSchedule::seeded(42);
        let h = FaultSchedule::qname_hash("example.com");
        let a = sched.attempt_dropped(0.5, ServerId(3), h, SimTime(100), 0);
        let b = sched.attempt_dropped(0.5, ServerId(3), h, SimTime(100), 0);
        assert_eq!(a, b, "same inputs, same draw");
        // Over many attempts roughly half must drop.
        let drops = (0..1_000)
            .filter(|&k| sched.attempt_dropped(0.5, ServerId(3), h, SimTime(100), k))
            .count();
        assert!((350..=650).contains(&drops), "got {drops}");
        // Extremes never consult the RNG.
        assert!(!sched.attempt_dropped(0.0, ServerId(0), h, SimTime(0), 0));
        assert!(sched.attempt_dropped(1.0, ServerId(0), h, SimTime(0), 0));
    }

    #[test]
    fn phase_windows_are_start_inclusive_end_exclusive() {
        // Pins the boundary contract relied on by every schedule
        // consumer: two phases meeting at a boundary instant hand off
        // with no double-application and no gap. The property walks
        // randomized adjacent windows `[a, b)` + `[b, c)` over one
        // entity and checks, at every instant, that exactly one phase
        // is active inside the union and none outside it.
        use webdeps_testkit::{check_with, gen, tk_assert, Config};
        check_with(
            &Config {
                cases: 64,
                ..Config::default()
            },
            "phase_windows_are_start_inclusive_end_exclusive",
            &gen::u64_any(),
            |&seed| {
                let mut state = seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let a = next() % 50;
                let b = a + 1 + next() % 40;
                let c = b + 1 + next() % 40;
                let entity = EntityId(3);
                let sched = FaultSchedule::seeded(seed)
                    .fail_entity_during(entity, SimTime(a), SimTime(b), Degradation::Down)
                    .fail_entity_during(entity, SimTime(b), SimTime(c), Degradation::Down);
                for t in a.saturating_sub(2)..=c + 2 {
                    let active = sched
                        .phases()
                        .iter()
                        .filter(|p| p.active_at(SimTime(t)))
                        .count();
                    let inside = a <= t && t < c;
                    tk_assert!(
                        active == usize::from(inside),
                        "at t={t} (windows [{a},{b}) + [{b},{c})): {active} phase(s) \
                         active; adjacent phases must hand off with exactly one \
                         active inside, zero outside"
                    );
                    tk_assert!(
                        sched.entity_down_at(entity, SimTime(t)) == inside,
                        "entity_down_at must agree with the window union at t={t}"
                    );
                }
                // The boundary instant itself belongs to the second
                // phase (end-exclusive / start-inclusive).
                let at_boundary: Vec<_> = sched
                    .phases()
                    .iter()
                    .filter(|p| p.active_at(SimTime(b)))
                    .collect();
                tk_assert!(at_boundary.len() == 1, "exactly one phase owns t={b}");
                tk_assert!(
                    at_boundary[0].start == SimTime(b),
                    "the phase starting at {b} owns the boundary instant"
                );
                // Degenerate empty windows `[x, x)` are never active.
                let empty = FaultSchedule::seeded(seed).fail_entity_during(
                    entity,
                    SimTime(b),
                    SimTime(b),
                    Degradation::Down,
                );
                tk_assert!(
                    !empty.entity_down_at(entity, SimTime(b)),
                    "an empty window [{b},{b}) must never apply"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn entities_active_at_reports_sorted_entities() {
        let sched = FaultSchedule::seeded(1)
            .fail_entity_during(EntityId(9), SimTime(0), SimTime(50), Degradation::Down)
            .fail_entity_during(
                EntityId(2),
                SimTime(0),
                SimTime(50),
                Degradation::Loss { probability: 0.2 },
            )
            .fail_entity_during(EntityId(5), SimTime(60), SimTime(90), Degradation::Down);
        assert_eq!(
            sched.entities_active_at(SimTime(10)),
            vec![EntityId(2), EntityId(9)]
        );
    }
}
