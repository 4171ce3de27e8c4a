//! Behavioral outage simulation.
//!
//! The graph metrics *predict* which sites a provider outage denies;
//! this module *replays* the outage in the simulator — fail the
//! provider's entities and attempt each site's document fetch through
//! the full Figure-1 request path — so the two can be cross-validated
//! (the Mirai-Dyn what-if, end to end).
//!
//! [`OutageIndex`] is the one engine. It records once which entities
//! and CAs each site's healthy fetch consults, then probes only the
//! sites a fault can reach and counts every other site at its recorded
//! baseline. It answers a static plan of failed entities
//! ([`OutageIndex::affected`]: serve's `OUTAGE` and [`simulate_outage`]),
//! a schedule at one instant ([`OutageIndex::affected_at`]: the chaos
//! campaign's monotonicity check), and the fault set of an incident
//! ([`OutageIndex::reach`]: the chaos replay, which probes it through
//! its persistent client). `tests/outage_validation.rs` holds the first
//! two equal to probing every site.
//!
//! # Soft consults
//!
//! Under the browser-default soft-fail policy, a revocation check that
//! passed on healthy infrastructure cannot be denied by an entity
//! outage, so the entities it alone consulted are kept apart as *soft*
//! and a plan of failed entities ([`OutageIndex::affected`]) does not
//! probe their sites:
//!
//! - Under soft-fail a check fails only by settling `Revoked` from a
//!   source it reached (must-staple and `StapleRequired` failures never
//!   use the transport). A check that fails keeps its consults: an
//!   outage on its responder path can turn such a site *up*.
//! - An entity fault removes sources but does not change what the PKI
//!   answers. OCSP and CRL agree: neither reports `Revoked` unless the
//!   other does, since both read the PKI status and the same injected
//!   fault. So a passed check still passes under any entity-only fault,
//!   with `Good` from a source it can still reach or with
//!   `AcceptedUnchecked`. Its PKI reads stay hard: a PKI fault can
//!   revoke.
//! - In [`OutageIndex::affected`] the plan is static, the clock is 0 and
//!   the DNS cache is off. Skipping a site could only change what the
//!   OCSP/CRL cache holds for later sites, and under a static plan a
//!   cached revocation answer equals a fresh one.
//!
//! A chaos replay's persistent DNS cache breaks that last step: a
//! skipped site's transport would refresh entries that a probed site
//! reads later. So [`OutageIndex::reach`] keeps soft consults, and so
//! does [`OutageIndex::affected_at`], which asks it.

use std::borrow::Cow;
use webdeps_dns::{FaultPlan, FaultSchedule, FaultTarget, SimTime};
use webdeps_model::{fan_out_chunked, CaId, DomainName, EntityId, ModelError, SiteId};
use webdeps_tls::RevocationPolicy;
use webdeps_web::{Scheme, Url, WebClient};
use webdeps_worldgen::World;

/// Result of one simulated outage.
#[derive(Debug, Clone)]
pub struct OutageResult {
    /// Entities failed.
    pub failed_entities: Vec<EntityId>,
    /// Sites that became unreachable.
    pub affected: Vec<SiteId>,
    /// Sites probed.
    pub total: usize,
}

impl OutageResult {
    /// Affected fraction of the probed population.
    pub fn affected_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.affected.len() as f64 / self.total as f64
        }
    }
}

/// Resolves a provider reference (catalog name like `"Dyn"`, or a wire
/// identity like `"dynect.net"`) to its owning entity.
pub fn provider_entity(world: &World, provider: &str) -> Option<EntityId> {
    if let Some(e) = world.provider_entity(provider) {
        return Some(e);
    }
    let domain = DomainName::parse(provider).ok()?;
    world.entities.owner_of(&domain)
}

/// Simulates an outage of the given providers over every site of
/// `world`. `hard_fail` selects the strict revocation policy under
/// which CA unavailability denies service (the paper's criticality
/// model).
///
/// Records an [`OutageIndex`] under that policy and asks it
/// [`OutageIndex::affected`]: the sites whose footprint holds a failed
/// entity are probed, and every other site counts at its recorded
/// baseline. The answer equals probing every site with the DNS cache
/// off (`tests/outage_validation.rs`). A caller with many questions
/// about one world builds the index once and asks it directly.
///
/// Fails with [`ModelError::UnknownProvider`] when a provider
/// reference matches neither a catalog name nor a wire identity.
#[must_use]
pub fn simulate_outage(
    world: &World,
    providers: &[&str],
    hard_fail: bool,
) -> Result<OutageResult, ModelError> {
    let entities: Vec<EntityId> = providers
        .iter()
        .map(|p| {
            provider_entity(world, p).ok_or_else(|| ModelError::UnknownProvider {
                name: p.to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    let policy = if hard_fail {
        RevocationPolicy::HardFail
    } else {
        RevocationPolicy::SoftFail
    };
    let index = OutageIndex::build(world, world.truth.len(), policy);
    // lint:allow(panic) — a sweep whose `proceed` always answers true is never abandoned
    Ok(index
        .affected(world, &entities, |_| true)
        .expect("never abandoned"))
}

/// The entities `schedule` degrades, in phase order, a server target
/// counting as its operator: the entity side of the fault set that
/// [`OutageIndex::reach`] takes.
pub fn schedule_entities(world: &World, schedule: &FaultSchedule) -> Vec<EntityId> {
    schedule
        .phases()
        .iter()
        .map(|p| match p.target {
            FaultTarget::Entity(e) => e,
            FaultTarget::Server(s) => world.dns.server(s).operator,
        })
        .collect()
}

/// Outage footprints of one world, for answering many outages without
/// probing every site each time.
///
/// Built from one healthy, cache-off sweep that records each site's
/// **footprint**: every entity the resolver consulted while probing it,
/// and apart from those every CA whose PKI fault state the fetch read
/// (see `Resolver::record_consults`). The probe path reads fault state
/// only through those consults, so a site whose footprint lacks every
/// entity and CA of a fault set walks its healthy path unchanged while
/// they fail, and is down exactly when it was down at baseline.
///
/// Entities a site consulted only inside a passed soft-fail revocation
/// check are stored apart, as its *soft* footprint (see the module
/// docs): an outage of them cannot deny the site. [`Self::affected`]
/// therefore probes only the (hard) footprints of a plan's entities and
/// adds the baseline-down sites outside them. [`Self::reach`] and
/// [`Self::affected_at`] probe both footprints.
///
/// Scope: the recording is made at clock 0 under one revocation policy,
/// and every question is answered under that policy.
/// [`Self::affected`] answers a static plan of failed entities at that
/// instant. [`Self::reach`] names the sites a fault set — entities, and
/// CAs whose PKI state changes — can move up to a later instant, adding
/// the sites whose certificates change validity by then;
/// [`Self::affected_at`] probes them for a schedule at one instant, and
/// the chaos replay probes them through its persistent client.
#[derive(Debug, Clone)]
pub struct OutageIndex {
    /// The revocation policy of the recording client.
    policy: RevocationPolicy,
    /// Footprints by entity id.
    entities: Footprints,
    /// Soft footprints by entity id: the sites that consulted the entity
    /// only inside a soft-fail revocation check that passed.
    soft: Footprints,
    /// PKI footprints by CA id: the sites whose fetch read that CA's
    /// OCSP/CRL answers or staple.
    cas: Footprints,
    /// Recorded sites unreachable on healthy infrastructure, in site
    /// order.
    baseline_down: Vec<SiteId>,
    /// Per recorded site, by site id: the first instant after 0 at which
    /// a certificate it presents enters or leaves its validity window.
    cert_edges: Vec<SimTime>,
}

impl OutageIndex {
    /// Runs the recording sweep over the first `sites` sites of `world`
    /// (every site when `sites` is at least the world's size) through a
    /// client with revocation `policy`, which decides the sites down at
    /// baseline and the consults that are soft. The sweep is sharded
    /// across the `WEBDEPS_JOBS` worker count; the index is identical at
    /// any count. Caches are flushed before every site, so a certificate
    /// or name shared with an earlier site cannot hide part of a
    /// footprint behind a cached answer.
    pub fn build(world: &World, sites: usize, policy: RevocationPolicy) -> OutageIndex {
        let sites = &world.truth.sites[..sites.min(world.truth.len())];
        let shards = fan_out_chunked(sites, |shard| {
            let mut client = world.client().with_policy(policy);
            client.resolver_mut().disable_cache();
            client.resolver_mut().record_consults();
            let mut rec = Recording::default();
            for site in shard {
                client.flush_caches();
                let hosts = site.document_hosts();
                if !probe_site(&mut client, &hosts, site.https()) {
                    rec.down.push(site.id);
                }
                rec.cert_edges.push(cert_edge(world, &hosts, site.https()));
                let resolver = client.resolver_mut();
                let hard = distinct(resolver.take_consults().into_iter().map(|e| e.0));
                let soft = distinct(resolver.take_soft_consults().into_iter().map(|e| e.0));
                let cas = distinct(resolver.take_pki_consults().into_iter().map(|c| c.0));
                // An entity also read outside a passed check stays hard.
                let soft_only = soft.into_iter().filter(|e| hard.binary_search(e).is_err());
                rec.soft.extend(soft_only.map(|e| (e, site.id)));
                rec.entities.extend(hard.into_iter().map(|e| (e, site.id)));
                rec.cas.extend(cas.into_iter().map(|c| (c, site.id)));
            }
            vec![rec]
        });
        // Shards arrive in site order, so every list below is in site
        // order too.
        OutageIndex {
            policy,
            entities: Footprints::from_pairs(shards.iter().map(|r| r.entities.as_slice())),
            soft: Footprints::from_pairs(shards.iter().map(|r| r.soft.as_slice())),
            cas: Footprints::from_pairs(shards.iter().map(|r| r.cas.as_slice())),
            baseline_down: shards.iter().flat_map(|r| r.down.iter().copied()).collect(),
            cert_edges: shards
                .iter()
                .flat_map(|r| r.cert_edges.iter().copied())
                .collect(),
        }
    }

    /// Recorded sites unreachable on healthy infrastructure at clock 0,
    /// in site order.
    pub fn baseline_down(&self) -> &[SiteId] {
        &self.baseline_down
    }

    /// The sites whose healthy fetch consulted `entity` outside a passed
    /// soft-fail revocation check, in site order (empty for an entity no
    /// site consults). [`Self::affected`] probes exactly these for an
    /// outage of `entity`; the sites that consulted it only softly stay
    /// up.
    pub fn footprint(&self, entity: EntityId) -> &[SiteId] {
        self.entities.get(entity.index())
    }

    /// The sites a fault set can move off their recorded baseline at any
    /// instant in `0..=until`, in site order: the footprints of
    /// `entities` with their soft footprints, the PKI footprints of
    /// `cas`, and the sites whose certificates enter or leave their
    /// validity window by `until`.
    ///
    /// Every other recorded site walks its healthy path at each of those
    /// instants, whatever the fault set does and whatever a persistent
    /// client has cached: it reads no fault state of the set, and a
    /// cached answer it reads concerns a name or certificate whose
    /// lookup touches none of the set either, so it equals a fresh
    /// healthy answer. It is down exactly when it is in
    /// [`Self::baseline_down`]. Soft consults count here, unlike in
    /// [`Self::affected`]: a softly consulted site's transport refreshes
    /// the persistent DNS cache that a probed site may read later.
    pub fn reach(&self, entities: &[EntityId], cas: &[CaId], until: SimTime) -> Vec<SiteId> {
        let expiring = self
            .cert_edges
            .iter()
            .enumerate()
            .filter(|&(_, &edge)| edge <= until)
            .map(|(i, _)| SiteId::from_index(i));
        distinct(
            entities
                .iter()
                .flat_map(|e| [self.footprint(*e), self.soft.get(e.index())])
                .chain(cas.iter().map(|c| self.cas.get(c.index())))
                .flatten()
                .copied()
                .chain(expiring),
        )
    }

    /// The outage of `entities` together, as a static plan at clock 0,
    /// on `world` — which must be the world the index was built from:
    /// equal to probing every recorded site through a client with the
    /// recording policy and the DNS cache off, whose one fault schedule
    /// is the plan's `Down` phases over all time (see [`FaultPlan`]).
    /// Probes the union of the entities' [`Self::footprint`]s through
    /// one such client, whose OCSP cache carries over between sites as a
    /// full sweep's does, and counts every other site at its baseline. With one entity its
    /// footprint is probed in place. Soft footprints are not probed:
    /// those sites are up at baseline and stay up (see the module docs).
    ///
    /// `proceed` is polled before each probe with the number of sites
    /// probed so far; returning `false` abandons the sweep with `None`,
    /// so a caller with a deadline can cut it mid-scan.
    pub fn affected(
        &self,
        world: &World,
        entities: &[EntityId],
        proceed: impl FnMut(usize) -> bool,
    ) -> Option<OutageResult> {
        let sites = match entities {
            [entity] => Cow::Borrowed(self.footprint(*entity)),
            _ => Cow::Owned(distinct(
                entities.iter().flat_map(|e| self.footprint(*e)).copied(),
            )),
        };
        let plan = entities
            .iter()
            .fold(FaultPlan::healthy(), |plan, &e| plan.fail_entity(e));
        let mut client = world.client().with_policy(self.policy);
        client.set_faults(plan);
        client.resolver_mut().disable_cache();
        self.sweep(world, &mut client, &sites, entities.to_vec(), proceed)
    }

    /// The sites down under `schedule` at the instant `at`, on `world` —
    /// which must be the world the index was built from: equal to
    /// probing every recorded site at `at` through a client with the
    /// recording policy and the DNS cache off, so each site sees the
    /// instant's conditions and no history. Probes [`Self::reach`] of
    /// the schedule's [`schedule_entities`] up to `at` through one such
    /// client and counts every other site at its baseline.
    /// `failed_entities` are the entities active at `at`.
    pub fn affected_at(
        &self,
        world: &World,
        schedule: &FaultSchedule,
        at: SimTime,
    ) -> OutageResult {
        let sites = self.reach(&schedule_entities(world, schedule), &[], at);
        let mut client = world.client().with_policy(self.policy);
        client.set_schedule(schedule.clone());
        client.resolver_mut().disable_cache();
        client.resolver_mut().advance_time(at.seconds());
        let active = schedule.entities_active_at(at);
        let result = self.sweep(world, &mut client, &sites, active, |_| true);
        // lint:allow(panic) — a sweep whose `proceed` always answers true is never abandoned
        result.expect("never abandoned")
    }

    /// Probes `sites` (in site order) through `client`, then adds the
    /// recorded sites down at baseline outside them: the outage of
    /// `failed_entities` over the recorded sites. `None` when `proceed`
    /// stops the sweep.
    fn sweep(
        &self,
        world: &World,
        client: &mut WebClient<'_>,
        sites: &[SiteId],
        failed_entities: Vec<EntityId>,
        mut proceed: impl FnMut(usize) -> bool,
    ) -> Option<OutageResult> {
        let mut affected = Vec::new();
        for (probed, &id) in sites.iter().enumerate() {
            if !proceed(probed) {
                return None;
            }
            let site = world.site(id);
            if !probe_site(client, &site.document_hosts(), site.https()) {
                affected.push(id);
            }
        }
        affected.extend(
            self.baseline_down
                .iter()
                .filter(|id| sites.binary_search(id).is_err()),
        );
        affected.sort_unstable();
        Some(OutageResult {
            failed_entities,
            affected,
            total: self.cert_edges.len(),
        })
    }
}

/// What one shard of the recording sweep saw.
#[derive(Default)]
struct Recording {
    /// `(entity id, site)` per distinct entity a site consulted outside
    /// a passed soft-fail revocation check.
    entities: Vec<(u32, SiteId)>,
    /// `(entity id, site)` per distinct entity a site consulted only
    /// inside one.
    soft: Vec<(u32, SiteId)>,
    /// `(CA id, site)` per distinct CA whose PKI state a site read.
    cas: Vec<(u32, SiteId)>,
    /// Sites down at baseline.
    down: Vec<SiteId>,
    /// Each site's [`cert_edge`], in site order.
    cert_edges: Vec<SimTime>,
}

/// `keys` sorted, without repeats.
fn distinct<T: Ord>(keys: impl Iterator<Item = T>) -> Vec<T> {
    let mut keys: Vec<T> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Site lists keyed by a dense id, stored CSR-style: the list of key `k`
/// is `sites[start[k]..start[k + 1]]`.
#[derive(Debug, Clone)]
struct Footprints {
    start: Vec<u32>,
    sites: Vec<SiteId>,
}

impl Footprints {
    /// Counting sort of `(key, site)` pairs, given in parts, by key;
    /// pairs that arrive in site order leave every list in site order.
    fn from_pairs<'a>(parts: impl Iterator<Item = &'a [(u32, SiteId)]> + Clone) -> Footprints {
        let pairs = || parts.clone().flatten().map(|&(k, site)| (k as usize, site));
        let keys = pairs().map(|(k, _)| k + 1).max().unwrap_or(0);
        let mut start = vec![0u32; keys + 1];
        for (k, _) in pairs() {
            start[k + 1] += 1;
        }
        for i in 0..keys {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut sites = vec![SiteId(0); start[keys] as usize];
        for (k, site) in pairs() {
            sites[cursor[k] as usize] = site;
            cursor[k] += 1;
        }
        Footprints { start, sites }
    }

    /// The list of `key` (empty past the last key).
    fn get(&self, key: usize) -> &[SiteId] {
        match (self.start.get(key), self.start.get(key + 1)) {
            (Some(&lo), Some(&hi)) => &self.sites[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// The first instant after 0 at which a certificate one of `hosts`
/// presents enters or leaves its validity window — the only way a
/// healthy fetch's outcome changes with the clock (`SimTime(u64::MAX)`
/// for a plain-HTTP site or one without certificates).
fn cert_edge(world: &World, hosts: &[DomainName], https: bool) -> SimTime {
    if !https {
        return SimTime(u64::MAX);
    }
    hosts
        .iter()
        .filter_map(|h| world.web.vhost(h)?.tls.as_ref())
        .flat_map(|tls| [tls.certificate.not_before, tls.certificate.not_after])
        .filter(|&t| t > SimTime::ZERO)
        .min()
        .unwrap_or(SimTime(u64::MAX))
}

/// Whether any of a site's document hosts answers through `client`.
pub fn probe_site(client: &mut WebClient<'_>, hosts: &[DomainName], https: bool) -> bool {
    let scheme = if https { Scheme::Https } else { Scheme::Http };
    hosts.iter().any(|h| {
        client
            .fetch(&Url {
                scheme,
                host: h.clone(),
                path: "/".into(),
            })
            .is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepGraph;
    use crate::metrics::MetricOptions;
    use crate::reach::{Metric, ReachIndex};
    use webdeps_measure::measure_world;
    use webdeps_model::ServiceKind;
    use webdeps_worldgen::{World, WorldConfig};

    #[test]
    fn healthy_baseline_has_no_outage() {
        let world = World::generate(WorldConfig::small(71));
        let result = simulate_outage(&world, &[], false).expect("no providers to resolve");
        assert!(result.affected.is_empty(), "nothing failed, nothing breaks");
        assert_eq!(result.total, world.truth.len());
    }

    /// The whole world under the default soft-fail policy.
    fn soft_index(world: &World) -> OutageIndex {
        OutageIndex::build(world, world.truth.len(), RevocationPolicy::SoftFail)
    }

    #[test]
    fn scheduled_outage_matches_plan_outage_inside_its_window() {
        use webdeps_dns::fault::Degradation;
        let world = World::generate(WorldConfig::small(71));
        let index = soft_index(&world);
        let dyn_entity = world.provider_entity("Dyn").expect("Dyn exists");
        let schedule = FaultSchedule::seeded(9).fail_entity_during(
            dyn_entity,
            SimTime(3_600),
            SimTime(7_200),
            Degradation::Down,
        );
        let before = index.affected_at(&world, &schedule, SimTime(0));
        assert!(before.affected.is_empty(), "no fault active yet");
        assert!(before.failed_entities.is_empty());

        let during = index.affected_at(&world, &schedule, SimTime(5_000));
        assert_eq!(during.failed_entities, vec![dyn_entity]);
        let plan_view = simulate_outage(&world, &["Dyn"], false).expect("catalog name");
        assert_eq!(
            during.affected, plan_view.affected,
            "inside the window the schedule is exactly the binary outage"
        );

        let after = index.affected_at(&world, &schedule, SimTime(7_200));
        assert!(after.affected.is_empty(), "window is half-open");
    }

    #[test]
    fn max_sites_caps_the_probe() {
        let world = World::generate(WorldConfig::small(71));
        let index = OutageIndex::build(&world, 25, RevocationPolicy::SoftFail);
        let r = index.affected_at(&world, &FaultSchedule::empty(), SimTime(0));
        assert_eq!(r.total, 25);
    }

    #[test]
    fn unconsulted_entity_leaves_the_baseline() {
        let world = World::generate(WorldConfig::small(71));
        let index = soft_index(&world);
        let nobody = EntityId(u32::MAX);
        assert!(index.footprint(nobody).is_empty());
        let r = index
            .affected(&world, &[nobody], |_| true)
            .expect("nothing to probe");
        assert!(r.affected.is_empty(), "healthy world, nothing down");
    }

    /// Softening only moves consults: on a healthy world, each entity's
    /// footprint and soft footprint under soft-fail together equal its
    /// footprint in a hard-fail recording, which softens nothing, and
    /// `reach` still probes both.
    #[test]
    fn soft_and_hard_footprints_split_the_hard_fail_footprint() {
        let world = World::generate(WorldConfig::small(71));
        let n = world.truth.len();
        let soft = OutageIndex::build(&world, n, RevocationPolicy::SoftFail);
        let hard = OutageIndex::build(&world, n, RevocationPolicy::HardFail);
        assert!(hard.soft.sites.is_empty(), "hard-fail softens nothing");
        assert!(
            !soft.soft.sites.is_empty(),
            "soft-fail softens some consults"
        );
        let keys = [&soft.entities, &soft.soft, &hard.entities]
            .iter()
            .map(|f| f.start.len())
            .max()
            .unwrap_or(0);
        for k in 0..keys {
            let mut split = [soft.entities.get(k), soft.soft.get(k)].concat();
            split.sort_unstable();
            assert_eq!(split, hard.entities.get(k), "entity {k}");
            let entity = EntityId(k as u32);
            let reach = soft.reach(&[entity], &[], SimTime::ZERO);
            assert_eq!(reach, hard.footprint(entity), "entity {k}: reach");
        }
    }

    #[test]
    fn outage_index_sweep_can_be_abandoned() {
        let world = World::generate(WorldConfig::small(71));
        let index = soft_index(&world);
        let dyn_entity = provider_entity(&world, "Dyn").expect("catalog name");
        let mut polls = 0;
        let cut = index.affected(&world, &[dyn_entity], |probed| {
            polls += 1;
            probed < 3
        });
        assert!(cut.is_none());
        assert_eq!(polls, 4, "polled before each probe, stops at the fourth");
    }

    #[test]
    fn provider_lookup_accepts_names_and_domains() {
        let world = World::generate(WorldConfig::small(71));
        let by_name = provider_entity(&world, "Dyn").expect("catalog name");
        let by_domain = provider_entity(&world, "dynect.net").expect("wire identity");
        assert_eq!(by_name, by_domain);
        assert!(provider_entity(&world, "no-such-provider-anywhere").is_none());
    }

    /// The headline cross-validation: graph-predicted DNS impact equals
    /// behaviorally simulated damage.
    #[test]
    fn graph_impact_matches_simulated_outage_for_dns() {
        let world = World::generate(WorldConfig::small(71));
        let ds = measure_world(&world);
        let graph = DepGraph::from_dataset(&ds);
        let index = ReachIndex::build(&graph, &MetricOptions::direct_only());

        // Pick a mid-sized provider so the test stays fast but nonempty.
        let provider_key = "domaincontrol.com"; // GoDaddy
        let predicted: Vec<_> = index
            .dependent_set(Metric::Impact, provider_key, ServiceKind::Dns)
            .expect("observed provider")
            .iter()
            .collect();

        let result = simulate_outage(&world, &[provider_key], false)
            .expect("providers are from the world catalog");
        let simulated: std::collections::HashSet<_> = result.affected.iter().copied().collect();

        // Every predicted-critical site must actually break.
        for site in &predicted {
            assert!(
                simulated.contains(site),
                "site {site} predicted critical but survived"
            );
        }
        // The simulation may break a few extra sites (uncharacterized
        // ones the measurement excluded), but not wildly more.
        assert!(
            simulated.len() <= predicted.len() + ds.len() / 10,
            "simulated {} vs predicted {}",
            simulated.len(),
            predicted.len()
        );
    }

    /// CA outage under hard-fail: stapling sites survive, others die —
    /// behaviorally confirming the paper's criticality definition.
    #[test]
    fn ca_outage_spares_stapling_sites() {
        use webdeps_worldgen::profiles::CaProfile;
        let world = World::generate(WorldConfig::small(71));
        // DigiCert's entity also runs its OCSP responders.
        let result = simulate_outage(&world, &["DigiCert"], true)
            .expect("providers are from the world catalog");
        let affected: std::collections::HashSet<_> = result.affected.iter().copied().collect();
        let mut stapled_children = 0;
        for truth in &world.truth.sites {
            if truth.ca.ca.as_deref() != Some("DigiCert") {
                continue;
            }
            match truth.ca.state {
                CaProfile::ThirdStapled => {
                    assert!(
                        !affected.contains(&truth.id),
                        "{} staples and must survive",
                        truth.domain
                    );
                    stapled_children += 1;
                }
                CaProfile::ThirdNoStaple => {
                    assert!(
                        affected.contains(&truth.id),
                        "{} does not staple and must fail",
                        truth.domain
                    );
                }
                _ => {}
            }
        }
        assert!(
            stapled_children > 0,
            "sample must include stapling DigiCert sites"
        );
    }

    /// The 2016 Mirai-Dyn scenario: killing Dyn also kills Fastly
    /// customers (Fastly's DNS ran on Dyn exclusively in 2016).
    #[test]
    fn dyn_outage_2016_takes_fastly_customers_down() {
        let world = World::generate(WorldConfig {
            seed: 71,
            n_sites: 2_000,
            year: webdeps_worldgen::SnapshotYear::Y2016,
        });
        let result =
            simulate_outage(&world, &["Dyn"], false).expect("providers are from the world catalog");
        let affected: std::collections::HashSet<_> = result.affected.iter().copied().collect();
        let mut fastly_only = 0;
        for truth in &world.truth.sites {
            let uses_fastly_only = truth.cdn.cdns == vec!["Fastly".to_string()];
            let dns_on_dyn = truth.dns.providers.iter().any(|p| p == "Dyn");
            if uses_fastly_only && !dns_on_dyn && truth.dns.state.is_critical() {
                // Site's own DNS is fine, but its single CDN rides Dyn.
                assert!(
                    affected.contains(&truth.id),
                    "{} should fall with Fastly→Dyn",
                    truth.domain
                );
                fastly_only += 1;
            }
        }
        assert!(fastly_only > 0, "2016 world must contain Fastly-only sites");
    }
}
