//! # webdeps
//!
//! Third-party service dependency analysis for web services — a full
//! reproduction of *"Analyzing Third Party Service Dependencies in
//! Modern Web Services: Have We Learned from the Mirai-Dyn Incident?"*
//! (Kashaf, Sekar, Agarwal — ACM IMC 2020).
//!
//! This facade re-exports the whole stack:
//!
//! * [`model`] — domain names, public-suffix list, entities, ranks;
//! * [`dns`] — the authoritative-DNS simulator (zones, resolver, TTL
//!   cache, fault injection);
//! * [`tls`] — the PKI simulator (certificates, CAs, OCSP, stapling,
//!   revocation checking);
//! * [`web`] — webservers, CDNs, the HTTP(S) client and headless
//!   crawler (the full Figure-1 request life cycle);
//! * [`worldgen`] — the calibrated synthetic Internet (paired 2016/2020
//!   snapshots, hospital and smart-home verticals);
//! * [`measure`] — the paper's §3 measurement methodology;
//! * [`core`] — the analysis layer (dependency graph, concentration &
//!   impact, evolution, outage simulation, per-site audits);
//! * [`chaos`] — deterministic incident replay (Mirai-Dyn, GlobalSign)
//!   and seeded chaos campaigns with availability invariants;
//! * [`serve`] — a fault-tolerant resident query daemon with an
//!   incremental reachability index and a torture-test harness;
//! * [`reports`] — regenerators for every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use webdeps::worldgen::{SnapshotYear, World, WorldConfig};
//! use webdeps::measure::measure_world;
//! use webdeps::core::{DepGraph, MetricOptions, ReachIndex};
//! use webdeps::model::ServiceKind;
//!
//! // 1. A small calibrated Internet (2020 snapshot).
//! let world = World::generate(WorldConfig { seed: 7, n_sites: 500, year: SnapshotYear::Y2020 });
//!
//! // 2. Measure it exactly like the paper's scripts measured the web.
//! let dataset = measure_world(&world);
//!
//! // 3. Analyze: who is the single point of failure?
//! let graph = DepGraph::from_dataset(&dataset);
//! let index = ReachIndex::build(&graph, &MetricOptions::full());
//! let top = index.ranking(ServiceKind::Dns);
//! assert!(!top.is_empty());
//! println!("highest-impact DNS provider: {} ({} sites)", top[0].key, top[0].impact);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use webdeps_chaos as chaos;
pub use webdeps_core as core;
pub use webdeps_dns as dns;
pub use webdeps_measure as measure;
pub use webdeps_model as model;
pub use webdeps_reports as reports;
pub use webdeps_serve as serve;
pub use webdeps_tls as tls;
pub use webdeps_web as web;
pub use webdeps_worldgen as worldgen;
