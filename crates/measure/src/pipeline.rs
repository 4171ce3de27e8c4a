//! The end-to-end measurement pipeline.
//!
//! Drives the full §3 methodology over a generated world: crawl → DNS →
//! CA → CDN → inter-service, and assembles a [`MeasurementDataset`] —
//! the one dataset every report, audit, graph and the daemon read.
//! The pipeline reads only the world's *wire surfaces* (DNS network,
//! web plane, PKI, CNAME-to-CDN map, public-suffix list, site list —
//! each site's listing, read as the site is measured); ground truth
//! never flows in.

use crate::classify::{DomainTable, Evidence, SiteDomains};
use crate::columnar::MeasurementDataset;
use crate::dataset::{ProviderKey, SiteCaMeasurement, SiteCdnMeasurement, SiteDnsMeasurement};
use crate::dns::{DnsObservation, DnsObservations};
use crate::{ca, cdn, dns, interservice};
use std::collections::HashMap;
use webdeps_dns::{Dig, ResolverStats};
use webdeps_model::{
    effective_jobs, fan_out_chunked, fan_out_owned, timing, DomainName, ServiceKind,
};
use webdeps_web::{CrawlReport, Crawler, WebClient};
use webdeps_worldgen::{SiteListing, SiteTruth, World};

/// Distinct-name bound on every crawl-path resolver cache.
///
/// Site-specific names (the site apex, its `www`/asset hosts, its
/// nameservers) are each queried while that one site is measured and
/// never again, so an unbounded cache grows by a handful of names per
/// site — at a million sites, gigabytes of dead entries. Clearing at
/// the bound keeps each worker's cache at its working set: the shared
/// provider names that actually repeat re-warm within a few sites of
/// each epoch. The bound is sized by the passes' resolver counters and
/// the measurement's heap peak (100k sites, two workers): from 2^16
/// names to 2^12, pass 1's queries rise 8.4% and pass 2's 2.4% while
/// the peak falls from 1,282 to 573 B/site; at 2^10 the queries rise
/// 14.5% and 5.7% and the peak stays at 573 B/site.
/// Results are unchanged: the world, fault plan, and clock are static
/// for the duration of a measurement pass, so re-resolving an evicted
/// name reproduces the evicted answer exactly (pinned by the
/// determinism checksums and the repro output digest).
const RESOLVER_CACHE_BOUND: usize = 1 << 12;

/// Work of one measurement pass: its workers' resolver statistics and
/// registrable-domain questions, summed in shard order. Each worker
/// has its own cache, so the query counts depend on the worker count
/// (and repeat exactly at a fixed one); the dataset does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PassWork {
    /// Authoritative queries sent.
    queries: u64,
    /// Lookups answered from a worker's cache.
    cache_hits: u64,
    /// Questions asked of the public-suffix list.
    registrable_lookups: u64,
}

impl PassWork {
    fn new(stats: ResolverStats, registrable_lookups: u64) -> Self {
        PassWork {
            queries: stats.queries_sent,
            cache_hits: stats.cache_hits,
            registrable_lookups,
        }
    }

    /// Reports the pass to the observe-only timing sink under
    /// `<pass>/queries`, `<pass>/cache_hits` and
    /// `<pass>/registrable_lookups`, labels given in that order.
    fn add_to_timing(self, labels: [&'static str; 3]) {
        let [queries, cache_hits, lookups] = labels;
        timing::add_count(queries, self.queries);
        timing::add_count(cache_hits, self.cache_hits);
        timing::add_count(lookups, self.registrable_lookups);
    }
}

impl std::ops::AddAssign for PassWork {
    fn add_assign(&mut self, other: PassWork) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.registrable_lookups += other.registrable_lookups;
    }
}

/// One shard's pass-1 output: its sites' observations and the domain
/// table their ids belong to. Pass 2 takes the shard over whole — the
/// same sites, so it keeps extending the same table — and pass 1's
/// work rides along for the tally.
struct Observed<'w> {
    sites: &'w [SiteTruth],
    table: DomainTable<'w>,
    dns: DnsObservations,
    work: PassWork,
}

/// One shard's streamed output: the shard's sites as a dataset keyed by
/// a shard-local interner, plus the provider witness/count maps the
/// §3.4 stage needs (insertion-ordered) and the shard's pass-2 work.
/// Shards merge in site order, so the assembled dataset is identical at
/// any worker count.
struct Shard {
    sites: MeasurementDataset,
    cdn_reps: Vec<(ProviderKey, (DomainName, usize))>,
    ca_reps: Vec<(ProviderKey, (Vec<DomainName>, usize))>,
    dns_direct: Vec<(ProviderKey, usize)>,
    work: PassWork,
}

/// One site's crawl report and its §3 classifications.
pub(crate) struct SiteMeasurement {
    report: CrawlReport,
    dns: SiteDnsMeasurement,
    ca: SiteCaMeasurement,
    cdn: SiteCdnMeasurement,
}

/// Crawls one listing and classifies its DNS (against its pass-1
/// observation `obs` and the nameserver `concentration` lookup), CA and
/// CDN dependencies, passing every pair's evidence to `on_pair` where
/// it is classified. The site's own names are reduced once through
/// `table`, which must hold `obs`'s ids, and every rule reads that one
/// reduction. The CA and CDN rules compare against the site SOA
/// authority that `obs` already holds; the SOA is dug here only for a
/// site without an observation. The pipeline and validation measure a
/// site only through here.
pub(crate) fn measure_site(
    world: &World,
    client: &mut WebClient<'_>,
    listing: &SiteListing,
    obs: Option<DnsObservation<'_>>,
    table: &mut DomainTable<'_>,
    concentration: &dyn Fn(&str) -> usize,
    on_pair: &mut dyn FnMut(ServiceKind, &Evidence<'_>),
) -> SiteMeasurement {
    let report = Crawler::crawl(
        client,
        &listing.domain,
        &listing.document_hosts,
        listing.https,
    );
    table.begin_site();
    let san = report.certificate.as_ref().map(|c| &*c.san);
    let domains = SiteDomains::new(&listing.domain, san, table);
    let threshold = world.config.concentration_threshold();
    let dns = obs.map_or_else(SiteDnsMeasurement::default, |obs| {
        dns::classify_site(
            &listing.domain,
            obs,
            &domains,
            concentration,
            threshold,
            table,
            on_pair,
        )
    });
    let resolver = client.resolver_mut();
    let site_soa = match obs {
        Some(obs) => obs.site_soa,
        None => Dig::new(resolver)
            .soa_of(&listing.domain)
            .ok()
            .map(|soa| table.authority(&soa)),
    };
    let ca = ca::classify_site(&report, &domains, site_soa, resolver, table, on_pair);
    let cdn = cdn::classify_site(
        &report,
        &domains,
        site_soa,
        &world.cname_map,
        resolver,
        table,
        on_pair,
    );
    SiteMeasurement {
        report,
        dns,
        ca,
        cdn,
    }
}

/// Pass 1 over one shard of sites: each site's nameservers and SOA
/// authorities, reduced through a new shard table.
fn observe_shard<'w>(world: &'w World, sites: &'w [SiteTruth]) -> Observed<'w> {
    let mut client = world.client();
    client.resolver_mut().bound_cache(RESOLVER_CACHE_BOUND);
    let mut table = DomainTable::new(&world.psl);
    let mut dns = DnsObservations::with_capacity(sites.len());
    for site in sites {
        dns.observe(client.resolver_mut(), &site.domain, &mut table);
    }
    Observed {
        sites,
        work: PassWork::new(client.resolver_mut().stats(), table.lookups()),
        table,
        dns,
    }
}

/// Crawls and classifies one shard of sites against its pass-1
/// observations, appending each site to the shard's dataset as soon as
/// it is classified. Observations are deterministic, so classifying
/// against pass 1's instead of re-digging changes nothing, and the
/// per-provider witness maps keep first-witness-wins, counts-sum
/// semantics (deterministic because entries are recorded in site order
/// and shards merge in shard order).
fn classify_shard(
    world: &World,
    observed: Observed<'_>,
    concentration: &dyn Fn(&str) -> usize,
) -> Shard {
    let Observed {
        sites,
        mut table,
        dns,
        ..
    } = observed;
    let pass1_lookups = table.lookups();
    let mut client = world.client();
    client.resolver_mut().bound_cache(RESOLVER_CACHE_BOUND);
    let mut out = Shard {
        sites: MeasurementDataset::with_capacity(sites.len()),
        cdn_reps: Vec::new(),
        ca_reps: Vec::new(),
        dns_direct: Vec::new(),
        work: PassWork::default(),
    };
    let mut cdn_rep_idx: HashMap<ProviderKey, usize> = HashMap::new();
    let mut ca_rep_idx: HashMap<ProviderKey, usize> = HashMap::new();
    let mut dns_direct_idx: HashMap<ProviderKey, usize> = HashMap::new();
    for (i, site) in sites.iter().enumerate() {
        let listing = site.listing();
        let m = measure_site(
            world,
            &mut client,
            &listing,
            dns.get(i),
            &mut table,
            concentration,
            &mut |_, _| {},
        );

        for key in m.dns.third_parties() {
            match dns_direct_idx.get(key) {
                Some(&i) => out.dns_direct[i].1 += 1,
                None => {
                    dns_direct_idx.insert(key.clone(), out.dns_direct.len());
                    out.dns_direct.push((key.clone(), 1));
                }
            }
        }
        // Witness host: the chain host of the first internal resource
        // each CDN was detected on.
        for detected in &m.cdn.cdns {
            match cdn_rep_idx.get(&detected.key) {
                Some(&i) => out.cdn_reps[i].1 .1 += 1,
                None => {
                    cdn_rep_idx.insert(detected.key.clone(), out.cdn_reps.len());
                    out.cdn_reps
                        .push((detected.key.clone(), (detected.witness.clone(), 1)));
                }
            }
        }
        if let Some((key, _)) = &m.ca.ca {
            match ca_rep_idx.get(key) {
                Some(&i) => out.ca_reps[i].1 .1 += 1,
                None => {
                    ca_rep_idx.insert(key.clone(), out.ca_reps.len());
                    out.ca_reps
                        .push((key.clone(), (m.ca.ocsp_hosts.clone(), 1)));
                }
            }
        }

        out.sites
            .push_classified(&listing, m.report.reachable(), &m.dns, &m.cdn, &m.ca);
    }
    out.work = PassWork::new(
        client.resolver_mut().stats(),
        table.lookups() - pass1_lookups,
    );
    out
}

/// Runs the complete pipeline, classifying each site straight into the
/// dataset's columns. The combined heuristic's concentration threshold
/// is the world's ([`webdeps_worldgen::WorldConfig::concentration_threshold`]).
///
/// Two passes over the site list, both sharded on the deterministic
/// fan-out over the same chunks of sites (each site's listing is read
/// from the world as it is measured, never copied whole):
///
/// 1. **Concentration pass** — DNS observation only: each shard reduces
///    its sites' nameservers to registrable-domain ids and their SOAs
///    to authorities in a shard-local [`DomainTable`]; the per-shard
///    nameserver tallies count ids and merge by summation
///    (order-independent).
/// 2. **Classification pass** — each shard takes its pass-1 table and
///    observations over whole, then crawls and classifies its sites
///    against the global concentration map, appending each to a
///    shard-local dataset.
///
/// Serial assembly then concatenates the shard datasets in shard order
/// (= site order) and runs the §3.4 inter-service stage. The dataset
/// keeps pass 1's tallies ([`MeasurementDataset::ns_concentration`]).
/// The crawl and observation stages run on the workspace-wide worker
/// count ([`webdeps_model::par::resolve_jobs`]), each worker on its own
/// client, so the result is identical at any worker count.
///
/// While [`timing`] is recording, each pass's work goes to its counters
/// (`measure/observe/queries`, `…/cache_hits`,
/// `…/registrable_lookups`, the same under `measure/classify`) with the
/// pass's worker count (`measure/workers`); the resolver counts depend
/// on that count, since every worker has its own cache.
pub fn measure_world(world: &World) -> MeasurementDataset {
    let (ds, [observe, classify]) = measure_counted(world);
    timing::add_count("measure/workers", effective_jobs(ds.len()) as u64);
    observe.add_to_timing([
        "measure/observe/queries",
        "measure/observe/cache_hits",
        "measure/observe/registrable_lookups",
    ]);
    classify.add_to_timing([
        "measure/classify/queries",
        "measure/classify/cache_hits",
        "measure/classify/registrable_lookups",
    ]);
    ds
}

/// [`measure_world`] plus the work of its observation and
/// classification passes.
pub(crate) fn measure_counted(world: &World) -> (MeasurementDataset, [PassWork; 2]) {
    let psl = &world.psl;
    let sites = &world.truth.sites;

    // Pass 1: observe every site and tally dataset-wide nameserver
    // concentration (each worker owns a client; tallies sum across
    // shards). Observations are kept — pass 2 classifies against them
    // instead of re-digging every site.
    let observe_scope = timing::scope("measure/observe");
    let observed = fan_out_chunked(sites, |shard| vec![observe_shard(world, shard)]);
    let mut concentration: HashMap<Box<str>, usize> = HashMap::new();
    let mut observe_work = PassWork::default();
    for shard in &observed {
        observe_work += shard.work;
        for (reg, n) in shard.dns.ns_concentration(&shard.table) {
            match concentration.get_mut(reg) {
                Some(total) => *total += n,
                None => {
                    concentration.insert(reg.into(), n);
                }
            }
        }
    }
    drop(observe_scope);
    let concentration_of = |reg: &str| concentration.get(reg).copied().unwrap_or(0);

    // Pass 2: classify in-shard, stream out columns. Each worker takes
    // a pass-1 shard over whole, so chunk boundaries stay aligned with
    // pass 1 at any worker count.
    let classify_scope = timing::scope("measure/classify");
    let shards = fan_out_owned(observed, |observed| {
        classify_shard(world, observed, &concentration_of)
    });
    drop(classify_scope);

    // Serial assembly in shard (= site) order.
    let assemble_scope = timing::scope("measure/assemble");
    let parts: Vec<&MeasurementDataset> = shards.iter().map(|s| &s.sites).collect();
    let mut out = MeasurementDataset::concat(&parts);
    let mut cdn_reps: HashMap<ProviderKey, (DomainName, usize)> = HashMap::new();
    let mut ca_reps: HashMap<ProviderKey, (Vec<DomainName>, usize)> = HashMap::new();
    let mut dns_direct: HashMap<ProviderKey, usize> = HashMap::new();
    let mut classify_work = PassWork::default();
    for shard in shards {
        classify_work += shard.work;
        // First-witness-wins across shards in shard order — the same
        // entry a serial site walk would have recorded first.
        for (key, (witness, n)) in shard.cdn_reps {
            let entry = cdn_reps.entry(key).or_insert_with(|| (witness, 0));
            entry.1 += n;
        }
        for (key, (hosts, n)) in shard.ca_reps {
            let entry = ca_reps.entry(key).or_insert_with(|| (hosts, 0));
            entry.1 += n;
        }
        for (key, n) in shard.dns_direct {
            *dns_direct.entry(key).or_default() += n;
        }
    }
    drop(assemble_scope);

    // Stage 5: inter-service measurement over the observed providers.
    let _interservice_scope = timing::scope("measure/interservice");
    let mut client = world.client();
    client.resolver_mut().bound_cache(RESOLVER_CACHE_BOUND);
    let providers = interservice::measure_providers(
        client.resolver_mut(),
        &cdn_reps,
        &ca_reps,
        &dns_direct,
        &concentration_of,
        world.config.concentration_threshold(),
        &world.cname_map,
        psl,
    );
    out.set_providers(providers);
    out.set_ns_concentration(&concentration);
    (out, [observe_work, classify_work])
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::ServiceKind;
    use webdeps_worldgen::profiles::{CdnProfile, DepState};
    use webdeps_worldgen::WorldConfig;

    fn dataset() -> (World, MeasurementDataset) {
        let world = World::generate(WorldConfig::small(77));
        let ds = measure_world(&world);
        (world, ds)
    }

    #[test]
    fn pipeline_measures_every_site() {
        let (world, ds) = dataset();
        assert_eq!(ds.len(), world.truth.len());
        assert!(
            ds.sites().all(|s| s.reachable()),
            "healthy world: all reachable"
        );
    }

    #[test]
    fn resolver_work_repeats_at_a_fixed_worker_count() {
        let world = World::generate(WorldConfig::small(77));
        let (first, work) = measure_counted(&world);
        let (second, again) = measure_counted(&world);
        assert_eq!(work, again, "same worker count, same resolver work");
        assert_eq!(first.len(), second.len());
        for pass in work {
            assert!(
                pass.queries > 0 && pass.cache_hits > 0 && pass.registrable_lookups > 0,
                "{pass:?}"
            );
        }
    }

    #[test]
    fn dns_states_match_ground_truth_when_characterized() {
        let (world, ds) = dataset();
        let mut correct = 0usize;
        let mut wrong = Vec::new();
        let mut characterized = 0usize;
        for s in ds.sites() {
            let truth = world.site(s.id());
            if let Some(state) = s.dns_state() {
                characterized += 1;
                if state == truth.dns.state {
                    correct += 1;
                } else if wrong.len() < 5 {
                    wrong.push((s.domain(), state, truth.dns.state));
                }
            }
        }
        let accuracy = correct as f64 / characterized as f64;
        assert!(accuracy > 0.995, "accuracy {accuracy}, examples: {wrong:?}");
        // Micro-tail providers leave some sites uncharacterized. At the
        // paper's 100K scale this is ~15-18%; a 2K world is dominated by
        // the top bands where the micro tail is thin.
        let unchar = ds.len() - characterized;
        let rate = unchar as f64 / ds.len() as f64;
        assert!((0.01..=0.30).contains(&rate), "uncharacterized {rate}");
    }

    #[test]
    fn cdn_states_match_ground_truth() {
        let (world, ds) = dataset();
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut wrong = Vec::new();
        for s in ds.sites() {
            let truth = world.site(s.id());
            // CDN detection needs CNAME visibility; compare whenever the
            // pipeline produced a state.
            if let Some(state) = s.cdn_state() {
                total += 1;
                if state == truth.cdn.state {
                    correct += 1;
                } else if wrong.len() < 5 {
                    wrong.push((s.domain(), state, truth.cdn.state));
                }
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.97, "accuracy {accuracy}, examples: {wrong:?}");
    }

    #[test]
    fn ca_states_match_ground_truth() {
        let (world, ds) = dataset();
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut wrong = Vec::new();
        for s in ds.sites() {
            let truth = world.site(s.id());
            if let Some(state) = s.ca_state() {
                total += 1;
                if state == truth.ca.state {
                    correct += 1;
                } else if wrong.len() < 5 {
                    wrong.push((s.domain(), state, truth.ca.state));
                }
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.99, "accuracy {accuracy}, examples: {wrong:?}");
        assert_eq!(
            ds.sites().filter(|s| s.https()).count(),
            world.truth.sites.iter().filter(|s| s.https()).count()
        );
    }

    #[test]
    fn provider_measurements_cover_observed_cdns_and_cas() {
        let (_, ds) = dataset();
        let cdns: Vec<_> = ds
            .providers()
            .iter()
            .filter(|p| p.kind == ServiceKind::Cdn)
            .collect();
        let cas: Vec<_> = ds
            .providers()
            .iter()
            .filter(|p| p.kind == ServiceKind::Ca)
            .collect();
        assert!(cdns.len() >= 10, "observed CDNs: {}", cdns.len());
        assert!(cas.len() >= 8, "observed CAs: {}", cas.len());
        // The DigiCert→DNSMadeEasy and →Incapsula wiring must surface.
        let digicert = ds
            .provider(&ProviderKey::new("digicert.com"), ServiceKind::Ca)
            .expect("DigiCert observed");
        let dns_dep = digicert.dns_dep.as_ref().expect("characterized");
        assert!(dns_dep.critical);
        assert_eq!(dns_dep.providers[0].as_str(), "dnsmadeeasy.com");
        let cdn_dep = digicert.cdn_dep.as_ref().expect("rides a CDN");
        assert_eq!(cdn_dep.providers[0].as_str(), "incapdns.net");
    }

    #[test]
    fn stapling_rate_is_in_the_calibrated_band() {
        let (_, ds) = dataset();
        let https: Vec<_> = ds.sites().filter(|s| s.https()).collect();
        let stapled = https.iter().filter(|s| s.stapled()).count();
        let rate = stapled as f64 / https.len() as f64;
        assert!((0.10..=0.28).contains(&rate), "stapling {rate}");
    }

    #[test]
    fn third_party_dns_rate_matches_figure2_band() {
        use webdeps_worldgen::profiles::{cumulative_to_density, density_to_cumulative, DNS_2020};
        let (world, ds) = dataset();
        let n = world.config.n_sites;
        // Scale-aware expectations from the calibrated marginals.
        let want_third = density_to_cumulative(cumulative_to_density(DNS_2020.third), n, n);
        let want_critical = density_to_cumulative(cumulative_to_density(DNS_2020.critical), n, n);
        // Measured rates are over *characterized* sites; uncharacterized
        // sites are all third-party micro-tail users, so compare against
        // the whole population including them as third.
        let characterized = ds.sites().filter(|s| s.dns_state().is_some()).count();
        let third_measured = ds
            .sites()
            .filter(|s| s.dns_state().is_some_and(|st| st.uses_third_party()))
            .count();
        let unchar = ds.len() - characterized;
        let rate = 100.0 * (third_measured + unchar) as f64 / ds.len() as f64;
        assert!(
            (rate - want_third).abs() < 4.0,
            "third {rate} vs calibrated {want_third}"
        );
        let critical = ds
            .sites()
            .filter(|s| s.dns_state() == Some(DepState::SingleThird))
            .count();
        let crate_ = 100.0 * (critical + unchar) as f64 / ds.len() as f64;
        assert!(
            (crate_ - want_critical).abs() < 4.0,
            "critical {crate_} vs calibrated {want_critical}"
        );
    }

    #[test]
    fn measured_cdn_usage_matches_figure3_band() {
        use webdeps_worldgen::profiles::{cumulative_to_density, density_to_cumulative, CDN_2020};
        let (world, ds) = dataset();
        let n = world.config.n_sites;
        let want_adoption = density_to_cumulative(cumulative_to_density(CDN_2020.adoption), n, n);
        let users = ds.sites().filter(|s| s.uses_cdn()).count();
        let rate = 100.0 * users as f64 / ds.len() as f64;
        assert!(
            (rate - want_adoption).abs() < 4.0,
            "adoption {rate} vs {want_adoption}"
        );
        let critical = ds
            .sites()
            .filter(|s| s.cdn_state() == Some(CdnProfile::SingleThird))
            .count();
        let crate_ = critical as f64 / users as f64;
        // Small worlds skew toward the top bands where redundancy is
        // common; accept a broad band around the calibrated shape.
        assert!(
            (0.40..=0.95).contains(&crate_),
            "critical of users {crate_}"
        );
    }
}
