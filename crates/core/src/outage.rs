//! Behavioral outage simulation.
//!
//! The graph metrics *predict* which sites a provider outage denies;
//! this module *replays* the outage in the simulator — fail the
//! provider's entities, flush caches, and attempt every site's document
//! fetch through the full Figure-1 request path — so the two can be
//! cross-validated (the Mirai-Dyn what-if, end to end).
//!
//! [`simulate_outage`] is the one-shot full sweep. [`OutageIndex`]
//! records once which entities and CAs each site's healthy fetch
//! consults, then probes only the sites a fault can reach: a resident
//! service's repeated single-entity question, and the chaos replay's
//! incident fault set.

use webdeps_dns::{FaultPlan, FaultSchedule, SimTime};
use webdeps_model::{fan_out_chunked, CaId, DomainName, EntityId, ModelError, SiteId};
use webdeps_tls::RevocationPolicy;
use webdeps_web::{Scheme, Url, WebClient};
use webdeps_worldgen::{SiteListing, SiteTruth, World};

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

/// Simulates an outage of the given providers and probes every site.
/// `hard_fail` selects the strict revocation policy under which CA
/// unavailability denies service (the paper's criticality model).
///
/// Fails with [`ModelError::UnknownProvider`] when a provider
/// reference matches neither a catalog name nor a wire identity.
#[must_use]
pub fn simulate_outage(
    world: &World,
    providers: &[&str],
    hard_fail: bool,
) -> Result<OutageResult, ModelError> {
    simulate_outage_with_jobs(world, providers, hard_fail, 0)
}

/// [`simulate_outage`] with an explicit worker count (`0` = auto).
///
/// The probe sweep shards the site list across workers, each with its
/// own client. Per-site probes are independent here: the resolver cache
/// is disabled and the fault plan is time-invariant. The OCSP/CRL cache
/// is *not* disabled — each client's carries over between the sites of
/// its shard — but it cannot change an outcome either. It only holds
/// answers a live fetch returned, every certificate of a CA embeds the
/// same responder and CRL hosts, and under a static plan at a fixed
/// instant a fresh fetch over those hosts would return the identical
/// answer. So shard boundaries cannot change outcomes and the affected
/// list (merged in site order) is identical at any `jobs`;
/// `tests/parallel_determinism.rs` holds this to account.
#[must_use]
pub fn simulate_outage_with_jobs(
    world: &World,
    providers: &[&str],
    hard_fail: bool,
    jobs: usize,
) -> Result<OutageResult, ModelError> {
    let entities: Vec<EntityId> = providers
        .iter()
        .map(|p| {
            provider_entity(world, p).ok_or_else(|| ModelError::UnknownProvider {
                name: p.to_string(),
            })
        })
        .collect::<Result<_, _>>()?;

    let mut plan = FaultPlan::healthy();
    for &e in &entities {
        plan = plan.fail_entity(e);
    }

    let listings = world.listings();
    let affected = probe_sweep(&listings, jobs, || {
        let mut client = world.client();
        if hard_fail {
            client = client.with_policy(RevocationPolicy::HardFail);
        }
        client.set_faults(plan.clone());
        client.resolver_mut().disable_cache();
        client
    });
    Ok(OutageResult {
        failed_entities: entities,
        affected,
        total: listings.len(),
    })
}

/// Shards `listings` across workers, probes each site through a
/// per-shard client built by `make_client`, and returns the affected
/// sites in listing order.
fn probe_sweep<'w, F>(listings: &[SiteListing], jobs: usize, make_client: F) -> Vec<SiteId>
where
    F: Fn() -> WebClient<'w> + Sync,
{
    fan_out_chunked(listings, jobs, |shard| {
        let mut client = make_client();
        let mut affected = Vec::new();
        for l in shard {
            if !probe_site(&mut client, &l.document_hosts, l.https) {
                affected.push(l.id);
            }
        }
        affected
    })
}

/// Probes every site under `schedule`, evaluated at the instant `at` —
/// the schedule-aware sibling of [`simulate_outage`]. Probing is
/// cache-free (each site sees the instant's conditions, not history);
/// the incident-replay engine in `webdeps-chaos` layers cache carry-over
/// on top of this. Infallible: the schedule already names entities, so
/// there is no provider lookup to fail.
///
/// `max_sites` caps the probed population (`0` probes everything) so
/// invariant sweeps over many schedules stay fast.
pub fn simulate_outage_at(
    world: &World,
    schedule: &FaultSchedule,
    at: SimTime,
    hard_fail: bool,
    max_sites: usize,
) -> OutageResult {
    simulate_outage_at_with_jobs(world, schedule, at, hard_fail, max_sites, 0)
}

/// [`simulate_outage_at`] with an explicit worker count (`0` = auto).
///
/// Safe to shard for the same reason probing is cache-free: every
/// worker's client is pinned to the instant `at` with its resolver
/// cache disabled, so a site's probe outcome is a function of the
/// schedule and the instant alone, never of which sites shared its
/// worker. The chaos replay engine deliberately does *not* use this —
/// its persistent client carries caches across sites and ticks, which
/// is the semantics being studied there.
pub fn simulate_outage_at_with_jobs(
    world: &World,
    schedule: &FaultSchedule,
    at: SimTime,
    hard_fail: bool,
    max_sites: usize,
    jobs: usize,
) -> OutageResult {
    let mut listings = world.listings();
    if max_sites > 0 {
        listings.truncate(max_sites);
    }
    let affected = probe_sweep(&listings, jobs, || {
        let mut client = world.client();
        if hard_fail {
            client = client.with_policy(RevocationPolicy::HardFail);
        }
        client.set_schedule(schedule.clone());
        client.resolver_mut().disable_cache();
        client.resolver_mut().advance_time(at.seconds());
        client
    });
    OutageResult {
        failed_entities: schedule.entities_active_at(at),
        affected,
        total: listings.len(),
    }
}

/// Outage footprints of one world, for answering many outages without
/// sweeping every site each time.
///
/// Built from one healthy, cache-off sweep that records each site's
/// **footprint**: every entity the resolver consulted while probing it,
/// and apart from those every CA whose PKI fault state the fetch read
/// (see `Resolver::record_consults`). The probe path reads fault state
/// only through those consults, so a site whose footprint lacks every
/// entity and CA of a fault set walks its healthy path unchanged while
/// they fail, and is down exactly when it was down at baseline.
/// [`Self::affected`] therefore probes only one entity's footprint and
/// adds the baseline-down sites outside it;
/// `tests/outage_validation.rs` holds it equal to [`simulate_outage`]
/// for every catalog provider.
///
/// Scope: the recording is made at clock 0 under one revocation policy
/// (soft-fail for [`Self::build`]). [`Self::affected`] answers one
/// failed entity at that instant, as serve's `OUTAGE` asks.
/// [`Self::reach`] answers a fault set — entities, and CAs whose PKI
/// state changes — up to a later instant, adding the sites whose
/// certificates change validity by then; the chaos replay probes what
/// it returns through its persistent client. Server-level plans and
/// multi-provider one-shot sweeps stay on [`simulate_outage`] and
/// [`simulate_outage_at`].
#[derive(Debug, Clone)]
pub struct OutageIndex {
    /// The revocation policy of the recording client.
    policy: RevocationPolicy,
    /// Footprints by entity id.
    entities: Footprints,
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
    /// Runs the recording sweep over every site of `world` with the
    /// default soft-fail client (sharded across the automatic worker
    /// count; the result is identical at any count).
    pub fn build(world: &World) -> OutageIndex {
        OutageIndex::build_prefix(world, world.truth.len(), RevocationPolicy::SoftFail)
    }

    /// The recording sweep over the first `sites` sites of `world` (the
    /// population a replay with `max_sites` probes), through a client
    /// with revocation `policy`: the policy decides which sites are down
    /// at baseline. Caches are flushed before every site, so a
    /// certificate or name shared with an earlier site cannot hide part
    /// of a footprint behind a cached answer.
    pub fn build_prefix(world: &World, sites: usize, policy: RevocationPolicy) -> OutageIndex {
        let sites = &world.truth.sites[..sites.min(world.truth.len())];
        let shards = fan_out_chunked(sites, 0, |shard| {
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
                let entities = resolver.take_consults().into_iter().map(|e| e.0);
                rec.entities
                    .extend(distinct(entities).map(|e| (e, site.id)));
                let cas = resolver.take_pki_consults().into_iter().map(|c| c.0);
                rec.cas.extend(distinct(cas).map(|c| (c, site.id)));
            }
            vec![rec]
        });
        // Shards arrive in site order, so every list below is in site
        // order too.
        OutageIndex {
            policy,
            entities: Footprints::from_pairs(shards.iter().map(|r| r.entities.as_slice())),
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

    /// The sites whose healthy fetch consulted `entity`, in site order
    /// (empty for an entity no site consults). An outage of `entity`
    /// probes exactly these.
    pub fn footprint(&self, entity: EntityId) -> &[SiteId] {
        self.entities.get(entity.index())
    }

    /// The sites a fault set can move off their recorded baseline at any
    /// instant in `0..=until`, in site order: the footprints of
    /// `entities`, the PKI footprints of `cas`, and the sites whose
    /// certificates enter or leave their validity window by `until`.
    ///
    /// Every other recorded site walks its healthy path at each of those
    /// instants, whatever the fault set does and whatever a persistent
    /// client has cached: it reads no fault state of the set, and a
    /// cached answer it reads concerns a name or certificate whose
    /// lookup touches none of the set either, so it equals a fresh
    /// healthy answer. It is down exactly when it is in
    /// [`Self::baseline_down`].
    pub fn reach(&self, entities: &[EntityId], cas: &[CaId], until: SimTime) -> Vec<SiteId> {
        let expiring = self
            .cert_edges
            .iter()
            .enumerate()
            .filter(|&(_, &edge)| edge <= until)
            .map(|(i, _)| SiteId::from_index(i));
        let mut sites: Vec<SiteId> = entities
            .iter()
            .map(|e| self.footprint(*e))
            .chain(cas.iter().map(|c| self.cas.get(c.index())))
            .flatten()
            .copied()
            .chain(expiring)
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// The outage of `entity` alone on `world` — which must be the world
    /// the index was built from — equal to
    /// `simulate_outage(world, &[entity's provider], hard_fail)` over the
    /// recorded sites, `hard_fail` being the recording policy. Probes the
    /// footprint through one client with that policy and the DNS cache
    /// off, whose OCSP cache carries over between sites as a full
    /// sweep's does.
    ///
    /// `proceed` is polled before each probe with the number of sites
    /// probed so far; returning `false` abandons the sweep with `None`,
    /// so a caller with a deadline can cut it mid-scan.
    pub fn affected(
        &self,
        world: &World,
        entity: EntityId,
        mut proceed: impl FnMut(usize) -> bool,
    ) -> Option<OutageResult> {
        let footprint = self.footprint(entity);
        let mut client = world.client().with_policy(self.policy);
        client.set_faults(FaultPlan::healthy().fail_entity(entity));
        client.resolver_mut().disable_cache();
        let mut affected = Vec::new();
        for (probed, &id) in footprint.iter().enumerate() {
            if !proceed(probed) {
                return None;
            }
            if !probe_truth(&mut client, world.site(id)) {
                affected.push(id);
            }
        }
        affected.extend(
            self.baseline_down
                .iter()
                .filter(|id| footprint.binary_search(id).is_err()),
        );
        affected.sort_unstable();
        Some(OutageResult {
            failed_entities: vec![entity],
            affected,
            total: self.cert_edges.len(),
        })
    }
}

/// What one shard of the recording sweep saw.
#[derive(Default)]
struct Recording {
    /// `(entity id, site)` per distinct entity a site consulted.
    entities: Vec<(u32, SiteId)>,
    /// `(CA id, site)` per distinct CA whose PKI state a site read.
    cas: Vec<(u32, SiteId)>,
    /// Sites down at baseline.
    down: Vec<SiteId>,
    /// Each site's [`cert_edge`], in site order.
    cert_edges: Vec<SimTime>,
}

/// `keys` sorted, without repeats.
fn distinct(keys: impl Iterator<Item = u32>) -> impl Iterator<Item = u32> {
    let mut keys: Vec<u32> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
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

/// [`probe_site`] over a site's ground-truth document hosts.
fn probe_truth(client: &mut WebClient<'_>, site: &SiteTruth) -> bool {
    probe_site(client, &site.document_hosts(), site.https())
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
    use crate::metrics::{MetricOptions, Metrics};
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

    #[test]
    fn scheduled_outage_matches_plan_outage_inside_its_window() {
        use webdeps_dns::fault::Degradation;
        let world = World::generate(WorldConfig::small(71));
        let dyn_entity = world.provider_entity("Dyn").expect("Dyn exists");
        let schedule = FaultSchedule::seeded(9).fail_entity_during(
            dyn_entity,
            SimTime(3_600),
            SimTime(7_200),
            Degradation::Down,
        );
        let before = simulate_outage_at(&world, &schedule, SimTime(0), false, 0);
        assert!(before.affected.is_empty(), "no fault active yet");
        assert!(before.failed_entities.is_empty());

        let during = simulate_outage_at(&world, &schedule, SimTime(5_000), false, 0);
        assert_eq!(during.failed_entities, vec![dyn_entity]);
        let plan_view = simulate_outage(&world, &["Dyn"], false).expect("catalog name");
        assert_eq!(
            during.affected, plan_view.affected,
            "inside the window the schedule is exactly the binary outage"
        );

        let after = simulate_outage_at(&world, &schedule, SimTime(7_200), false, 0);
        assert!(after.affected.is_empty(), "window is half-open");
    }

    #[test]
    fn max_sites_caps_the_probe() {
        let world = World::generate(WorldConfig::small(71));
        let r = simulate_outage_at(&world, &FaultSchedule::empty(), SimTime(0), false, 25);
        assert_eq!(r.total, 25);
    }

    #[test]
    fn unconsulted_entity_leaves_the_baseline() {
        let world = World::generate(WorldConfig::small(71));
        let index = OutageIndex::build(&world);
        let nobody = EntityId(u32::MAX);
        assert!(index.footprint(nobody).is_empty());
        let r = index
            .affected(&world, nobody, |_| true)
            .expect("nothing to probe");
        assert!(r.affected.is_empty(), "healthy world, nothing down");
    }

    #[test]
    fn outage_index_sweep_can_be_abandoned() {
        let world = World::generate(WorldConfig::small(71));
        let index = OutageIndex::build(&world);
        let dyn_entity = provider_entity(&world, "Dyn").expect("catalog name");
        let mut polls = 0;
        let cut = index.affected(&world, dyn_entity, |probed| {
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
        let metrics = Metrics::new(&graph);

        // Pick a mid-sized provider so the test stays fast but nonempty.
        let provider_key = "domaincontrol.com"; // GoDaddy
        let node = graph
            .provider(provider_key, ServiceKind::Dns)
            .expect("observed provider");
        let predicted = metrics.dependent_sites(node, true, &MetricOptions::direct_only());

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
