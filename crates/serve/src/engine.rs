//! Resident query engine: one world, one epoch-locked index.
//!
//! The engine loads a world once, measures it once, and keeps one
//! [`ReachIndex`] warm — impact and concentration side by side over one
//! copy of the graph — behind a single `RwLock`. Queries take the read
//! side and tag every answer with the epoch it was computed from; a
//! churn delta takes the write side and is applied once, patching both
//! metrics under one epoch, so a reader either runs before the write
//! lock (previous epoch) or after it (next epoch), never between.
//!
//! In `verify_patches` mode (torture/smoke) every applied delta is
//! followed by [`ReachIndex::verify_fresh`] while the write lock is
//! still held — a diverging patch is repaired with
//! [`ReachIndex::force_rebuild`] before any reader can consume it, and
//! the failure is reported to the client as `ERR`.

use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use webdeps_core::outage::provider_entity;
use webdeps_core::{Churn, DepGraph, Metric, MetricOptions, OutageIndex, ReachIndex};
use webdeps_measure::pipeline::measure_world;
use webdeps_model::ServiceKind;
use webdeps_worldgen::World;

use crate::proto::{kind_token, Request};
use crate::stats::ServerStats;

/// How a query ended. The server renders this into the reply frame and
/// bumps the matching counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Completed; payload already carries `OK <epoch> …`.
    Ok(String),
    /// The deadline budget expired mid-scan at the given epoch.
    Deadline(u64),
    /// Rejected or failed with a reason.
    Error(String),
}

/// Sites listed verbatim in a `SITES` reply before the list is elided
/// (the count is always exact).
const SITES_LISTED: usize = 24;

/// How often the behavioral outage scan polls the clock, in probed
/// sites. Probing dominates the cost; at 16 the deadline overshoot is
/// well under a millisecond.
const DEADLINE_STRIDE: usize = 16;

/// The resident engine. Cheap to share (`Arc<Engine>`); its interior
/// mutability is the index lock and the lazily built outage index.
pub struct Engine {
    world: World,
    /// Per-entity outage footprints, built by the first `OUTAGE` so a
    /// cold start pays nothing for them.
    outage_index: OnceLock<OutageIndex>,
    index: RwLock<ReachIndex>,
    verify_patches: bool,
    allow_poison: bool,
}

fn read_index(lock: &RwLock<ReachIndex>) -> RwLockReadGuard<'_, ReachIndex> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_index(lock: &RwLock<ReachIndex>) -> RwLockWriteGuard<'_, ReachIndex> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Engine {
    /// Builds the engine from a generated world: measure, assemble the
    /// dependency graph, build the index, then drop the intermediate
    /// dataset and graph (the index owns everything it needs).
    pub fn from_world(world: World, verify_patches: bool, allow_poison: bool) -> Self {
        let dataset = measure_world(&world);
        let graph = DepGraph::from_dataset(&dataset);
        let index = ReachIndex::build(&graph, &MetricOptions::full());
        Engine {
            world,
            outage_index: OnceLock::new(),
            index: RwLock::new(index),
            verify_patches,
            allow_poison,
        }
    }

    /// The epoch queries currently answer from. Named distinctly from
    /// `ReachIndex::epoch` so the lint call graph's conservative
    /// method resolution does not alias the two — a call to this fn
    /// reaches the engine's RwLock; a call on the index does not.
    pub fn current_epoch(&self) -> u64 {
        read_index(&self.index).epoch()
    }

    /// Deltas applied and verify-mode repairs, each counted once per
    /// metric (for `/stats`).
    pub fn recompute_counters(&self) -> (u64, u64) {
        let index = read_index(&self.index);
        (index.patch_count(), index.rebuild_count())
    }

    /// Provider keys of a kind, in key order, for seeding torture/bench
    /// query mixes.
    pub fn provider_keys(&self, kind: ServiceKind, limit: usize) -> Vec<String> {
        read_index(&self.index)
            .providers_of(kind)
            .into_iter()
            .take(limit)
            .map(|score| score.key.to_string())
            .collect()
    }

    /// Number of sites in the resident world.
    pub fn site_count(&self) -> usize {
        self.world.truth.len()
    }

    /// Executes one index/world query. `deadline` is the instant the
    /// query's budget expires; long scans poll it mid-stream and give
    /// up with [`Outcome::Deadline`] rather than hold a worker hostage.
    /// No query updates the server's counters (`STATS` reads churn
    /// counts from [`Self::recompute_counters`]); the parameter stays
    /// for the callers that pass them.
    pub fn execute(&self, req: &Request, deadline: Instant, _stats: &ServerStats) -> Outcome {
        match req {
            Request::Rank { kind, top } => self.rank(*kind, *top, deadline),
            Request::Sites { kind, key } => self.sites(*kind, key),
            Request::Outage { key } => self.outage(key, deadline),
            Request::Churn(delta) => self.churn(delta),
            Request::Poison => {
                if self.allow_poison {
                    // lint:allow(panic) — deliberate poison query, only
                    // honored when enabled for torture runs; exists to
                    // prove the worker catch_unwind isolation end to end.
                    panic!("poison query executed");
                }
                Outcome::Error("poison queries are disabled".to_string())
            }
            // Connection-level requests are answered by the server.
            Request::Ping | Request::Health | Request::Stats | Request::Shutdown => {
                Outcome::Error("not an engine query".to_string())
            }
        }
    }

    fn rank(&self, kind: ServiceKind, top: usize, deadline: Instant) -> Outcome {
        let index = read_index(&self.index);
        if Instant::now() >= deadline {
            // Queued past the budget: shed before scanning.
            return Outcome::Deadline(index.epoch());
        }
        let mut rows = index.providers_of(kind);
        rows.sort_by(|a, b| b.impact.cmp(&a.impact).then_with(|| a.key.cmp(&b.key)));
        rows.truncate(top);
        let mut reply = format!(
            "OK {} RANK {} {}",
            index.epoch(),
            kind_token(kind),
            rows.len()
        );
        for row in rows {
            reply.push_str(&format!(
                " {}={}/{}",
                row.key, row.impact, row.concentration
            ));
        }
        Outcome::Ok(reply)
    }

    fn sites(&self, kind: ServiceKind, key: &str) -> Outcome {
        let index = read_index(&self.index);
        let Some(set) = index.dependent_set(Metric::Concentration, key, kind) else {
            return Outcome::Error(format!("unknown provider {key}/{}", kind_token(kind)));
        };
        let count = set.count();
        let mut reply = format!("OK {} SITES {key} {count}", index.epoch());
        for site in set.iter().take(SITES_LISTED) {
            reply.push_str(&format!(" {}", site.0));
        }
        if count > SITES_LISTED {
            reply.push_str(" ...");
        }
        Outcome::Ok(reply)
    }

    /// Behavioral outage probe — the long scan the deadline budget is
    /// for. Probes only the sites whose healthy fetch consulted the
    /// provider's entity outside a passed soft-fail revocation check
    /// ([`OutageIndex::footprint`]); `probed=` counts them. The
    /// first call builds the index with one healthy sweep, which the
    /// deadline does not cut: it is paid once, and any later call can
    /// use it. The world itself is immutable (churn patches the *index*,
    /// not the simulator), so the reply's epoch only situates the answer
    /// in time.
    fn outage(&self, key: &str, deadline: Instant) -> Outcome {
        let epoch = self.current_epoch();
        let Some(entity) = provider_entity(&self.world, key) else {
            return Outcome::Error(format!("unknown provider '{key}'"));
        };
        if Instant::now() >= deadline {
            return Outcome::Deadline(epoch);
        }
        // Every site, under the browser-default soft-fail policy.
        let index = self.outage_index.get_or_init(|| {
            OutageIndex::build(&self.world, self.world.truth.len(), Default::default())
        });
        let swept = index.affected(&self.world, &[entity], |probed| {
            probed % DEADLINE_STRIDE != 0 || Instant::now() < deadline
        });
        let Some(result) = swept else {
            return Outcome::Deadline(epoch);
        };
        Outcome::Ok(format!(
            "OK {epoch} OUTAGE {key} affected={} total={} probed={}",
            result.affected.len(),
            result.total,
            index.footprint(entity).len()
        ))
    }

    fn churn(&self, delta: &Churn) -> Outcome {
        // Site ids name sites of the resident world. An id past it
        // would widen the index's bitsets to that id, so it is refused
        // before the index is touched.
        if let Churn::AddSiteEdge { site, .. } | Churn::RemoveSiteEdge { site, .. } = delta {
            if site.index() >= self.site_count() {
                return Outcome::Error(format!(
                    "churn rejected: site {site} is outside the world ({} sites)",
                    self.site_count()
                ));
            }
        }
        let mut index = write_index(&self.index);
        if let Err(e) = index.apply(delta) {
            return Outcome::Error(format!("churn rejected: {e}"));
        }
        if self.verify_patches {
            if let Err(d) = index.verify_fresh() {
                index.force_rebuild();
                return Outcome::Error(format!("cross-check failed: {d}"));
            }
        }
        Outcome::Ok(format!("OK {} CHURN patched", index.epoch()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use webdeps_core::ProviderRef;
    use webdeps_worldgen::{SnapshotYear, WorldConfig};

    fn tiny_engine() -> Engine {
        let world = World::generate(WorldConfig {
            seed: 71,
            n_sites: 120,
            year: SnapshotYear::Y2020,
        });
        Engine::from_world(world, true, true)
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    #[test]
    fn rank_and_sites_answer_with_epoch() {
        let engine = tiny_engine();
        let stats = ServerStats::new();
        let reply = match engine.execute(
            &Request::Rank {
                kind: ServiceKind::Dns,
                top: 3,
            },
            far_deadline(),
            &stats,
        ) {
            Outcome::Ok(r) => r,
            other => panic!("rank failed: {other:?}"),
        };
        assert!(reply.starts_with("OK 0 RANK dns "), "got: {reply}");

        let key = engine.provider_keys(ServiceKind::Dns, 1)[0].clone();
        let reply = match engine.execute(
            &Request::Sites {
                kind: ServiceKind::Dns,
                key,
            },
            far_deadline(),
            &stats,
        ) {
            Outcome::Ok(r) => r,
            other => panic!("sites failed: {other:?}"),
        };
        assert!(reply.starts_with("OK 0 SITES "), "got: {reply}");
    }

    #[test]
    fn churn_bumps_epoch_and_is_cross_checked() {
        let engine = tiny_engine();
        let stats = ServerStats::new();
        let key = engine.provider_keys(ServiceKind::Cdn, 1)[0].clone();
        let delta = Churn::AddSiteEdge {
            site: webdeps_model::SiteId(3),
            provider: ProviderRef::new(key, ServiceKind::Cdn),
            critical: true,
        };
        match engine.execute(&Request::Churn(delta), far_deadline(), &stats) {
            Outcome::Ok(reply) => assert!(reply.starts_with("OK 1 CHURN "), "got: {reply}"),
            other => panic!("churn failed: {other:?}"),
        }
        assert_eq!(engine.current_epoch(), 1);
        assert_eq!(engine.recompute_counters(), (2, 0), "one patch per metric");
    }

    #[test]
    fn churn_outside_the_world_is_refused_before_the_index() {
        let engine = tiny_engine();
        let stats = ServerStats::new();
        let key = engine.provider_keys(ServiceKind::Cdn, 1)[0].clone();
        let provider = ProviderRef::new(key, ServiceKind::Cdn);
        let n = engine.site_count() as u32;
        for site in [n, n + 1_000_000] {
            for delta in [
                Churn::AddSiteEdge {
                    site: webdeps_model::SiteId(site),
                    provider: provider.clone(),
                    critical: true,
                },
                Churn::RemoveSiteEdge {
                    site: webdeps_model::SiteId(site),
                    provider: provider.clone(),
                    critical: true,
                },
            ] {
                match engine.execute(&Request::Churn(delta), far_deadline(), &stats) {
                    Outcome::Error(e) => assert!(e.contains("outside the world"), "got: {e}"),
                    other => panic!("site {site}: out-of-world churn answered {other:?}"),
                }
                assert_eq!(engine.current_epoch(), 0, "site {site} moved the epoch");
            }
        }
        // The last site of the world still churns.
        let delta = Churn::AddSiteEdge {
            site: webdeps_model::SiteId(n - 1),
            provider,
            critical: true,
        };
        match engine.execute(&Request::Churn(delta), far_deadline(), &stats) {
            Outcome::Ok(reply) => assert!(reply.starts_with("OK 1 CHURN "), "got: {reply}"),
            other => panic!("in-world churn failed: {other:?}"),
        }
    }

    /// One apply serves both metrics, and `recompute_counters` counts
    /// it once per metric. A DNS provider consuming a CA (the reverse
    /// of the measured CA→DNS edges) is an upward edge no hop names:
    /// it is kept in the rows, traversed by neither metric, and its
    /// removal is absorbed the same way.
    #[test]
    fn upward_provider_edge_churn_counts_once_per_metric() {
        let engine = tiny_engine();
        let stats = ServerStats::new();
        let from = ProviderRef::new(
            engine.provider_keys(ServiceKind::Dns, 1)[0].clone(),
            ServiceKind::Dns,
        );
        let to = ProviderRef::new(
            engine.provider_keys(ServiceKind::Ca, 1)[0].clone(),
            ServiceKind::Ca,
        );
        let deltas = [
            Churn::AddProviderEdge {
                from: from.clone(),
                to: to.clone(),
                critical: false,
            },
            Churn::RemoveProviderEdge {
                from,
                to,
                critical: false,
            },
        ];
        for (epoch, delta) in (1..).zip(deltas) {
            let before = engine.recompute_counters();
            match engine.execute(&Request::Churn(delta), far_deadline(), &stats) {
                Outcome::Ok(reply) => assert_eq!(reply, format!("OK {epoch} CHURN patched")),
                other => panic!("churn failed: {other:?}"),
            }
            let after = engine.recompute_counters();
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (2, 0),
                "one patch per metric, no rebuild"
            );
        }
        assert_eq!(engine.recompute_counters(), (4, 0));
    }

    #[test]
    fn outage_respects_an_expired_deadline() {
        let engine = tiny_engine();
        let stats = ServerStats::new();
        let key = engine.provider_keys(ServiceKind::Dns, 1)[0].clone();
        // A deadline already in the past must shed, not scan.
        let outcome = engine.execute(
            &Request::Outage { key: key.clone() },
            Instant::now() - Duration::from_millis(1),
            &stats,
        );
        assert_eq!(outcome, Outcome::Deadline(0));
        // A generous budget completes.
        match engine.execute(&Request::Outage { key }, far_deadline(), &stats) {
            Outcome::Ok(reply) => assert!(reply.contains("OUTAGE"), "got: {reply}"),
            other => panic!("outage failed: {other:?}"),
        }
    }
}
