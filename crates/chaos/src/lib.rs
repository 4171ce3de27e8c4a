//! # webdeps-chaos
//!
//! Deterministic incident replay and chaos campaigns over the simulated
//! web.
//!
//! The paper's analysis layer asks *which* sites a provider outage
//! denies; this crate asks *how the denial unfolds in time*. It drives
//! the full substrate — iterative resolver with retries and TTL caches,
//! TLS revocation checking with response caches, webserver routing —
//! through scripted [`incident::Incident`] timelines built on the DNS
//! layer's [`webdeps_dns::FaultSchedule`], and records per-tick
//! availability over the whole site population:
//!
//! * [`mod@replay`] — the replay engine: one persistent client (caches
//!   carry over between ticks, which is the whole point), a simulated
//!   clock stepped through the timeline, a PKI view swapped at scripted
//!   phase boundaries. Ships two canonical incidents:
//!   [`incident::dyn_two_wave`] (the 2016 Mirai-Dyn attack, two waves
//!   of packet loss and hard-down with partial recovery between) and
//!   [`incident::globalsign_stale_week`] (the 2016 GlobalSign OCSP
//!   error, where client-side response caching extends the outage days
//!   past the server-side fix).
//! * [`campaign`] — a seeded chaos campaign: randomized fault
//!   schedules checked against invariants the simulator must uphold —
//!   *monotonicity* (adding faults never increases availability) and
//!   *redundancy* (a site with a second independent DNS provider
//!   survives any single-entity DNS outage).
//!
//! Everything is seeded and clock-driven: the same seed produces
//! byte-identical output, which is what makes replay curves diffable
//! across code changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod incident;
pub mod replay;

pub use campaign::{check_schedule, run_campaign, CampaignConfig, CampaignReport, Violation};
pub use incident::{dyn_two_wave, globalsign_stale_week, Incident, PkiPhase};
pub use replay::{replay, ReplayOptions, ReplayResult, TickSample};
