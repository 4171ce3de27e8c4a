//! Scripted incident timelines.
//!
//! An [`Incident`] is everything the replay engine needs: a DNS-layer
//! [`FaultSchedule`], a list of scripted PKI state changes
//! ([`PkiPhase`]), and the probing options. The two constructors here
//! encode the paper's §2 incidents as data; tests and the CLI replay
//! them, and new what-ifs are just new `Incident` values.

use crate::replay::ReplayOptions;
use webdeps_dns::fault::Degradation;
use webdeps_dns::{FaultSchedule, SimTime};
use webdeps_model::CaId;
use webdeps_tls::OcspFault;
use webdeps_worldgen::World;

/// A scripted change of a CA's OCSP state at a point in the timeline:
/// `Some(fault)` injects, `None` clears (the CA "fixes it").
#[derive(Debug, Clone)]
pub struct PkiPhase {
    /// When the change takes effect (inclusive).
    pub from: SimTime,
    /// The affected CA (pre-resolved so replays cannot fail mid-run).
    pub ca: CaId,
    /// The fault to install, or `None` to restore correct behavior.
    pub fault: Option<OcspFault>,
}

/// A complete scripted incident.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Short identifier (used in report tables and CLI output).
    pub name: String,
    /// One-line description of what is being replayed.
    pub description: String,
    /// DNS-layer fault timeline.
    pub schedule: FaultSchedule,
    /// PKI state changes, in ascending `from` order.
    pub pki_phases: Vec<PkiPhase>,
    /// How the replay engine probes the population.
    pub options: ReplayOptions,
}

/// Mirai-Dyn, October 21 2016: two attack waves against Dyn's
/// authoritative fleet with a recovery gap between them.
///
/// Wave one is *partial* — heavy packet loss that client retries
/// sometimes punch through (the real morning wave degraded rather than
/// silenced Dyn) — wave two is a hard outage. DNS caching stays on, so
/// availability lags the fault edges by up to one TTL, exactly as
/// measured during the incident. Returns `None` when the world has no
/// Dyn (the 2016 snapshot always does).
pub fn dyn_two_wave(world: &World, seed: u64) -> Option<Incident> {
    let dyn_entity = world.provider_entity("Dyn")?;
    let schedule = FaultSchedule::seeded(seed)
        // Wave 1 (hours 2–4): 95 % per-attempt loss. With default
        // retries (3 rounds × 2 Dyn servers) roughly a quarter of
        // queries still land.
        .fail_entity_during(
            dyn_entity,
            SimTime(7_200),
            SimTime(14_400),
            Degradation::Loss { probability: 0.95 },
        )
        // Recovery gap (hours 4–6): mitigation holds, traffic drains.
        // Wave 2 (hours 6–9): the second, harder wave.
        .fail_entity_during(
            dyn_entity,
            SimTime(21_600),
            SimTime(32_400),
            Degradation::Down,
        );
    Some(Incident {
        name: "dyn".to_string(),
        description: "Mirai-Dyn 2016: two-wave attack on Dyn's authoritative DNS".to_string(),
        schedule,
        pki_phases: Vec::new(),
        options: ReplayOptions {
            tick_secs: 1_800,
            horizon_secs: 39_600,
            hard_fail: false,
            probe_caching: true,
            serve_stale: false,
            max_sites: 0,
        },
    })
}

/// GlobalSign, October 13 2016: a cross-certificate revocation error
/// makes the CA's OCSP responders mark perfectly good certificates
/// revoked. The misconfiguration is fixed after one day — but clients
/// cache OCSP responses for their full validity window, so hard-fail
/// clients keep rejecting non-stapling sites for nearly a week after
/// the fix ("persisted for over a week"). Returns `None` when the world
/// has no GlobalSign CA.
pub fn globalsign_stale_week(world: &World) -> Option<Incident> {
    let ca = world.pki.ca_by_name("GlobalSign")?.id;
    Some(Incident {
        name: "globalsign".to_string(),
        description: "GlobalSign 2016: stale revocation cached long past the server-side fix"
            .to_string(),
        schedule: FaultSchedule::empty(),
        pki_phases: vec![
            PkiPhase {
                from: SimTime::ZERO,
                ca,
                fault: Some(OcspFault::MarksEverythingRevoked),
            },
            PkiPhase {
                from: SimTime(86_400),
                ca,
                fault: None,
            },
        ],
        options: ReplayOptions {
            tick_secs: 43_200,
            horizon_secs: 864_000,
            hard_fail: true,
            probe_caching: true,
            serve_stale: false,
            max_sites: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_worldgen::incidents::{dyn_incident_world, globalsign_incident_world};

    #[test]
    fn canonical_incidents_construct_on_their_fixture_worlds() {
        let dyn_world = dyn_incident_world(71, 300);
        let incident = dyn_two_wave(&dyn_world, 42).expect("2016 world has Dyn");
        assert_eq!(incident.schedule.phases().len(), 2);
        let last_end = incident.schedule.phases().iter().map(|p| p.end).max();
        assert_eq!(last_end, Some(SimTime(32_400)));
        assert!(
            incident.options.horizon_secs > 32_400,
            "replay sees recovery"
        );

        let gs_world = globalsign_incident_world(71, 300);
        let incident = globalsign_stale_week(&gs_world).expect("world has GlobalSign");
        assert!(incident.schedule.is_empty(), "a pure PKI incident");
        assert_eq!(incident.pki_phases.len(), 2);
        assert!(incident.options.hard_fail);
    }
}
