//! Resident query engine: one world, two epoch-locked indexes.
//!
//! The engine loads a world once, measures it once, and keeps a pair of
//! [`MutableReach`] indexes warm — impact (`critical_only = true`) and
//! concentration (`false`) — behind a single `RwLock`. Queries take the
//! read side and tag every answer with the epoch it was computed from;
//! churn deltas take the write side, patch **both** indexes, and bump
//! their epochs in lockstep, so a reader can never observe a half-new
//! state: it either runs before the write lock (previous epoch) or
//! after it (next epoch), never between the two index updates.
//!
//! In `verify_patches` mode (torture/smoke) every applied delta is
//! followed by [`MutableReach::verify_fresh`] on both indexes while the
//! write lock is still held — a diverging patch is repaired with
//! [`MutableReach::force_rebuild`] before any reader can consume it,
//! and the failure is reported to the client as `ERR`.

use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use webdeps_core::outage::provider_entity;
use webdeps_core::{ApplyKind, Churn, DepGraph, MetricOptions, MutableReach, OutageIndex};
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

struct IndexPair {
    impact: MutableReach,
    concentration: MutableReach,
}

/// The resident engine. Cheap to share (`Arc<Engine>`); its interior
/// mutability is the index lock and the lazily built outage index.
pub struct Engine {
    world: World,
    /// Per-entity outage footprints, built by the first `OUTAGE` so a
    /// cold start pays nothing for them.
    outage_index: OnceLock<OutageIndex>,
    indexes: RwLock<IndexPair>,
    verify_patches: bool,
    allow_poison: bool,
}

fn read_indexes(lock: &RwLock<IndexPair>) -> RwLockReadGuard<'_, IndexPair> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_indexes(lock: &RwLock<IndexPair>) -> RwLockWriteGuard<'_, IndexPair> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Engine {
    /// Builds the engine from a generated world: measure, assemble the
    /// dependency graph, condense both index configurations, then drop
    /// the intermediate dataset (the indexes own everything they need).
    pub fn from_world(world: World, verify_patches: bool, allow_poison: bool) -> Self {
        let dataset = measure_world(&world);
        let graph = DepGraph::from_dataset(&dataset);
        let opts = MetricOptions::full();
        let impact = MutableReach::from_graph(&graph, true, &opts);
        let concentration = MutableReach::from_graph(&graph, false, &opts);
        Engine {
            world,
            outage_index: OnceLock::new(),
            indexes: RwLock::new(IndexPair {
                impact,
                concentration,
            }),
            verify_patches,
            allow_poison,
        }
    }

    /// The epoch queries currently answer from. Named distinctly from
    /// `MutableReach::epoch` so the lint call graph's conservative
    /// method resolution does not alias the two — a call to this fn
    /// reaches the engine's RwLock; a call on an index does not.
    pub fn current_epoch(&self) -> u64 {
        read_indexes(&self.indexes).impact.epoch()
    }

    /// Patch/rebuild totals across both indexes (for `/stats`).
    pub fn recompute_counters(&self) -> (u64, u64) {
        let pair = read_indexes(&self.indexes);
        (
            pair.impact.patch_count() + pair.concentration.patch_count(),
            pair.impact.rebuild_count() + pair.concentration.rebuild_count(),
        )
    }

    /// Provider keys of a kind, for seeding torture/bench query mixes.
    pub fn provider_keys(&self, kind: ServiceKind, limit: usize) -> Vec<String> {
        read_indexes(&self.indexes)
            .impact
            .providers_of(kind)
            .into_iter()
            .take(limit)
            .map(|(key, _)| key.to_string())
            .collect()
    }

    /// Number of sites in the resident world.
    pub fn site_count(&self) -> usize {
        self.world.truth.len()
    }

    /// Executes one index/world query. `deadline` is the instant the
    /// query's budget expires; long scans poll it mid-stream and give
    /// up with [`Outcome::Deadline`] rather than hold a worker hostage.
    pub fn execute(&self, req: &Request, deadline: Instant, stats: &ServerStats) -> Outcome {
        match req {
            Request::Rank { kind, top } => self.rank(*kind, *top, deadline),
            Request::Sites { kind, key } => self.sites(*kind, key),
            Request::Outage { key } => self.outage(key, deadline),
            Request::Churn(delta) => self.churn(delta, stats),
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
        let pair = read_indexes(&self.indexes);
        if Instant::now() >= deadline {
            // Queued past the budget: shed before scanning.
            return Outcome::Deadline(pair.impact.epoch());
        }
        let mut rows = pair.impact.providers_of(kind);
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        rows.truncate(top);
        let mut reply = format!(
            "OK {} RANK {} {}",
            pair.impact.epoch(),
            kind_token(kind),
            rows.len()
        );
        for (key, impact) in rows {
            let conc = pair.concentration.dependent_count(key, kind);
            reply.push_str(&format!(" {key}={impact}/{conc}"));
        }
        Outcome::Ok(reply)
    }

    fn sites(&self, kind: ServiceKind, key: &str) -> Outcome {
        let pair = read_indexes(&self.indexes);
        let Some(set) = pair.concentration.dependent_set(key, kind) else {
            return Outcome::Error(format!("unknown provider {key}/{}", kind_token(kind)));
        };
        let count = set.count();
        let mut reply = format!("OK {} SITES {key} {count}", pair.impact.epoch());
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
        let index = self
            .outage_index
            .get_or_init(|| OutageIndex::build(&self.world));
        let swept = index.affected(&self.world, entity, |probed| {
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

    fn churn(&self, delta: &Churn, stats: &ServerStats) -> Outcome {
        let mut pair = write_indexes(&self.indexes);
        let kind = match pair.impact.apply(delta) {
            Ok(kind) => kind,
            Err(e) => return Outcome::Error(format!("churn rejected: {e}")),
        };
        // Both indexes record the identical edge multiset, so a delta
        // the impact index accepted cannot fail on the concentration
        // index; if it ever does, repair and refuse the answer.
        if let Err(e) = pair.concentration.apply(delta) {
            pair.impact.force_rebuild();
            pair.concentration.force_rebuild();
            return Outcome::Error(format!("index divergence repaired: {e}"));
        }
        match kind {
            ApplyKind::Patched => ServerStats::bump(&stats.churn_patched),
            ApplyKind::Rebuilt => ServerStats::bump(&stats.churn_rebuilt),
        }
        if self.verify_patches {
            let pair = &mut *pair;
            for (name, index) in [
                ("impact", &mut pair.impact),
                ("concentration", &mut pair.concentration),
            ] {
                if let Err(d) = index.verify_fresh() {
                    index.force_rebuild();
                    return Outcome::Error(format!("cross-check failed ({name}): {d}"));
                }
            }
        }
        let label = match kind {
            ApplyKind::Patched => "patched",
            ApplyKind::Rebuilt => "rebuilt",
        };
        Outcome::Ok(format!("OK {} CHURN {label}", pair.impact.epoch()))
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
        assert_eq!(ServerStats::read(&stats.churn_patched), 1);
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
