//! The report phase's whole-population paths and the §3 classifier
//! against their oracles.
//!
//! Validation reads the dataset's pass-1 nameserver tallies and
//! observes only its sample; the oracle re-observes every listed site
//! on one client and recounts with `dns::ns_concentration`, as
//! validation once did, and classifies with the uncached rules below.
//! The coverage curve walks one CSR list of consumer rows; the oracle
//! builds one `SiteSet` bitset per provider and unions them. The
//! library classifies only through `measure::classify`'s free
//! functions; `classify`, `san_covers` and `soa_same_authority` here
//! are a separate transcription of the §3 rules against the
//! public-suffix list, and the library must answer every question
//! exactly as they do. Each pair must agree exactly.

use std::collections::HashMap;
use std::sync::OnceLock;
use webdeps::core::{coverage_curve, CoveragePoint, SiteSet};
use webdeps::dns::{Dig, Soa};
use webdeps::measure::classify::{Classification, ClassifierKind, Evidence};
use webdeps::measure::{
    cdn, classify, dns, measure_world, validate_world, MeasurementDataset, ProviderKey,
    StrategyAccuracy, ValidationReport,
};
use webdeps::model::name::dn;
use webdeps::model::{DetRng, DomainName, NameId, PublicSuffixList, ServiceKind, SiteId};
use webdeps::web::{Crawler, WebClient};
use webdeps::worldgen::verticals::hospital_world;
use webdeps::worldgen::{World, WorldPair};

const SERVICES: [ServiceKind; 4] = [
    ServiceKind::Dns,
    ServiceKind::Cdn,
    ServiceKind::Ca,
    ServiceKind::Cloud,
];

/// Whether two SOAs denote the same administrative authority: matching
/// MNAME or RNAME registrable domains (§3.1's grouping rule).
fn soa_same_authority(a: &Soa, b: &Soa, psl: &PublicSuffixList) -> bool {
    psl.same_registrable_domain(&a.mname, &b.mname)
        || psl.same_registrable_domain(&a.rname, &b.rname)
}

/// Whether the SAN list covers the candidate's registrable domain.
fn san_covers(san: &[DomainName], candidate: &DomainName, psl: &PublicSuffixList) -> bool {
    let Some(cand_reg) = psl.registrable_domain(candidate) else {
        return false;
    };
    san.iter().any(|entry| {
        psl.registrable_domain(entry)
            .is_some_and(|reg| reg == cand_reg)
    })
}

/// The §3 strategies: the oracle for the library's `classify::classify`.
fn classify(kind: ClassifierKind, ev: &Evidence<'_>, psl: &PublicSuffixList) -> Classification {
    match kind {
        ClassifierKind::TldOnly => {
            if psl.same_registrable_domain(ev.site, ev.candidate) {
                Classification::Private
            } else {
                Classification::ThirdParty
            }
        }
        ClassifierKind::SoaOnly => match (ev.site_soa, ev.candidate_soa) {
            (Some(a), Some(b)) => {
                if soa_same_authority(a, b, psl) {
                    Classification::Private
                } else {
                    Classification::ThirdParty
                }
            }
            _ => Classification::Unknown,
        },
        ClassifierKind::Combined => {
            // Rule 1: registrable-domain match ⇒ private.
            if psl.same_registrable_domain(ev.site, ev.candidate) {
                return Classification::Private;
            }
            // Rule 2: SAN evidence ⇒ same logical entity ⇒ private.
            if let Some(san) = ev.san {
                if san_covers(san, ev.candidate, psl) {
                    return Classification::Private;
                }
            }
            // Rule 3: differing SOA authorities ⇒ third party.
            if let (Some(a), Some(b)) = (ev.site_soa, ev.candidate_soa) {
                if !soa_same_authority(a, b, psl) {
                    return Classification::ThirdParty;
                }
            }
            // Rule 4 (DNS only): concentration at or above threshold.
            if let Some(c) = ev.concentration {
                if c >= ev.threshold {
                    return Classification::ThirdParty;
                }
            }
            Classification::Unknown
        }
    }
}

/// Whether a page resource host is internal to the site.
fn is_internal(
    site: &DomainName,
    host: &DomainName,
    san: Option<&[DomainName]>,
    psl: &PublicSuffixList,
) -> bool {
    psl.same_registrable_domain(site, host) || san.is_some_and(|san| san_covers(san, host, psl))
}

/// The 2016 and 2020 worlds of a 2k-site pair with their datasets.
fn pair(seed: u64) -> &'static [(World, MeasurementDataset); 2] {
    static P42: OnceLock<[(World, MeasurementDataset); 2]> = OnceLock::new();
    static P7: OnceLock<[(World, MeasurementDataset); 2]> = OnceLock::new();
    let cell = match seed {
        42 => &P42,
        7 => &P7,
        other => panic!("no fixture for seed {other}"),
    };
    cell.get_or_init(|| {
        let p = WorldPair::generate(seed, 2_000);
        let measured = |w: World| {
            let ds = measure_world(&w);
            (w, ds)
        };
        [measured(p.y2016), measured(p.y2020)]
    })
}

fn hospitals() -> &'static (World, MeasurementDataset) {
    static H: OnceLock<(World, MeasurementDataset)> = OnceLock::new();
    H.get_or_init(|| {
        let w = hospital_world(42);
        let ds = measure_world(&w);
        (w, ds)
    })
}

/// Every fixture dataset with its world and a label.
fn datasets() -> Vec<(&'static str, &'static World, &'static MeasurementDataset)> {
    let mut out = Vec::new();
    for (seed, label) in [(42, ["2016@42", "2020@42"]), (7, ["2016@7", "2020@7"])] {
        for ((world, ds), label) in pair(seed).iter().zip(label) {
            out.push((label, world, ds));
        }
    }
    let (world, ds) = hospitals();
    out.push(("hospitals", world, ds));
    out
}

/// Pass 1 the old way: every site among the first `sites` listings
/// observed on `client`, then counted by `dns::ns_concentration`.
fn full_observation(
    client: &mut WebClient<'_>,
    world: &World,
    sites: usize,
) -> (Vec<Option<dns::DnsObservation>>, HashMap<DomainName, usize>) {
    let resolver = client.resolver_mut();
    let observations: Vec<Option<dns::DnsObservation>> = world.listings()[..sites]
        .iter()
        .map(|l| dns::observe_site(resolver, &l.domain))
        .collect();
    let concentration = dns::ns_concentration(&observations, &world.psl);
    (observations, concentration)
}

#[derive(Default)]
struct Tally {
    correct: usize,
    decided: usize,
    total: usize,
}

impl Tally {
    fn record(&mut self, verdict: Classification, truth_third: bool) {
        self.total += 1;
        match verdict {
            Classification::Unknown => {}
            Classification::ThirdParty => {
                self.decided += 1;
                self.correct += usize::from(truth_third);
            }
            Classification::Private => {
                self.decided += 1;
                self.correct += usize::from(!truth_third);
            }
        }
    }

    fn into_row(self, strategy: ClassifierKind) -> StrategyAccuracy {
        StrategyAccuracy {
            strategy,
            accuracy: if self.decided == 0 {
                1.0
            } else {
                self.correct as f64 / self.decided as f64
            },
            coverage: if self.total == 0 {
                0.0
            } else {
                self.decided as f64 / self.total as f64
            },
            pairs: self.total,
        }
    }
}

/// Scores every strategy on one (site, candidate) pair.
fn score(
    tallies: &mut [Tally],
    world: &World,
    ev: &Evidence<'_>,
    site: &DomainName,
    candidate: &DomainName,
) {
    let Some(same) = world.entities.same_owner(site, candidate) else {
        return;
    };
    for (tally, kind) in tallies.iter_mut().zip(ClassifierKind::ALL) {
        tally.record(classify(kind, ev, &world.psl), !same);
    }
}

/// Validation as it was: the first `sites` listings observed in full on
/// one client, then the sample crawled and scored on that client.
fn oracle_validation(
    world: &World,
    sites: usize,
    sample_size: usize,
    seed: u64,
) -> ValidationReport {
    let listings = world.listings();
    let mut rng = DetRng::new(seed ^ 0x7A11DA7E);
    let indices = rng.sample_indices(sites, sample_size);
    let fresh = || ClassifierKind::ALL.map(|_| Tally::default());
    let (mut dns_t, mut ca_t, mut cdn_t) = (fresh(), fresh(), fresh());

    let mut client = world.client();
    let (observations, concentration) = full_observation(&mut client, world, sites);
    let threshold = world.config.concentration_threshold();

    for &i in &indices {
        let listing = &listings[i];
        let site = &listing.domain;
        let report = Crawler::crawl(&mut client, site, &listing.document_hosts, listing.https);
        let san = report.certificate.as_ref().map(|c| c.san.clone());
        if let Some(obs) = &observations[i] {
            for (host, ns_soa) in obs.ns_hosts.iter().zip(&obs.ns_soas) {
                let conc = world
                    .psl
                    .registrable_domain(host)
                    .and_then(|r| concentration.get(&r).copied())
                    .unwrap_or(0);
                let ev = Evidence {
                    site,
                    candidate: host,
                    san: san.as_deref(),
                    site_soa: obs.site_soa.as_ref(),
                    candidate_soa: ns_soa.as_ref(),
                    concentration: Some(conc),
                    threshold,
                };
                score(&mut dns_t, world, &ev, site, host);
            }
        }
        if let Some(ca_host) = report
            .certificate
            .as_ref()
            .and_then(|c| c.ocsp_urls.first().map(|e| &e.host))
        {
            if world.entities.same_owner(site, ca_host).is_some() {
                let resolver = client.resolver_mut();
                let site_soa = Dig::new(resolver).soa_of(site).ok();
                let ca_soa = Dig::new(resolver).soa_of(ca_host).ok();
                let ev = Evidence {
                    site,
                    candidate: ca_host,
                    san: san.as_deref(),
                    site_soa: site_soa.as_ref(),
                    candidate_soa: ca_soa.as_ref(),
                    concentration: None,
                    threshold: usize::MAX,
                };
                score(&mut ca_t, world, &ev, site, ca_host);
            }
        }
        for host in report.hostnames() {
            if !is_internal(site, &host, san.as_deref(), &world.psl) {
                continue;
            }
            let Some(chain) = report.chain_of(&host) else {
                continue;
            };
            let Some((_, _, witness)) = world.cname_map.classify_chain_detailed(chain.iter())
            else {
                continue;
            };
            if world.entities.same_owner(site, witness).is_none() {
                continue;
            }
            let resolver = client.resolver_mut();
            let site_soa = Dig::new(resolver).soa_of(site).ok();
            let witness_soa = Dig::new(resolver).soa_of(witness).ok();
            let ev = Evidence {
                site,
                candidate: witness,
                san: san.as_deref(),
                site_soa: site_soa.as_ref(),
                candidate_soa: witness_soa.as_ref(),
                concentration: None,
                threshold: usize::MAX,
            };
            score(&mut cdn_t, world, &ev, site, witness);
        }
    }

    let rows = |tallies: [Tally; 3]| {
        tallies
            .into_iter()
            .zip(ClassifierKind::ALL)
            .map(|(t, k)| t.into_row(k))
            .collect::<Vec<_>>()
    };
    ValidationReport {
        dns: rows(dns_t),
        ca: rows(ca_t),
        cdn: rows(cdn_t),
        sample_size: indices.len(),
    }
}

/// The coverage curve as it was: one `SiteSet` bitset per provider,
/// sorted by popcount, coverage a running popcount of their union.
fn oracle_curve(ds: &MeasurementDataset, kind: ServiceKind) -> Vec<CoveragePoint> {
    let bound = ds.sites().map(|s| s.id().index() + 1).max().unwrap_or(0);
    let mut sets: Vec<Option<SiteSet>> = vec![None; ds.names_len()];
    for site in ds.sites() {
        for name in site.third_parties(kind) {
            sets[name.index()]
                .get_or_insert_with(|| SiteSet::with_bound(bound))
                .insert(site.id());
        }
    }
    let mut sets: Vec<(NameId, SiteSet)> = sets
        .into_iter()
        .enumerate()
        .filter_map(|(i, s)| Some((NameId::from_index(i), s?)))
        .collect();
    sets.sort_by(|a, b| {
        b.1.count()
            .cmp(&a.1.count())
            .then_with(|| ds.name(a.0).cmp(ds.name(b.0)))
    });
    let mut total = SiteSet::with_bound(bound);
    for (_, s) in &sets {
        total.union_with(s);
    }
    let total = total.count();
    if total == 0 {
        return Vec::new();
    }
    let mut covered = SiteSet::with_bound(bound);
    let mut out = Vec::with_capacity(sets.len());
    for (i, (name, consumers)) in sets.into_iter().enumerate() {
        covered.union_with(&consumers);
        out.push(CoveragePoint {
            providers: i + 1,
            coverage: covered.count() as f64 / total as f64,
            key: ProviderKey::new(ds.name(name)),
        });
    }
    out
}

#[test]
fn dataset_tallies_match_full_population_observation() {
    for (label, world, ds) in datasets() {
        let (_, oracle) = full_observation(&mut world.client(), world, ds.len());
        assert!(!oracle.is_empty(), "{label}: no nameservers counted");
        let mut entries: Vec<(&DomainName, &usize)> = oracle.iter().collect();
        entries.sort();
        for (reg, &n) in entries {
            assert_eq!(ds.ns_concentration(reg.as_str()), n, "{label}: {reg}");
        }
        for absent in ["", "absent-provider.invalid", "~"] {
            assert_eq!(ds.ns_concentration(absent), 0, "{label}: {absent:?}");
        }
    }
}

#[test]
fn validation_matches_full_population_oracle() {
    for seed in [42, 7] {
        for (world, ds) in pair(seed) {
            for k in [100, 400] {
                assert_eq!(
                    validate_world(world, ds, k, seed),
                    oracle_validation(world, world.listings().len(), k, seed),
                    "{:?} seed {seed}, sample {k}",
                    world.config.year,
                );
            }
        }
    }
    let (world, ds) = hospitals();
    for k in [100, 200] {
        assert_eq!(
            validate_world(world, ds, k, 42),
            oracle_validation(world, world.listings().len(), k, 42),
            "hospitals, sample {k}"
        );
    }
}

#[test]
fn coverage_curve_matches_bitset_oracle() {
    for (label, _, ds) in datasets() {
        for kind in SERVICES {
            let curve = coverage_curve(ds, kind);
            assert_eq!(curve, oracle_curve(ds, kind), "{label} {kind}");
            assert_eq!(
                curve.is_empty(),
                kind == ServiceKind::Cloud,
                "{label} {kind}"
            );
        }
    }
}

#[test]
fn pipeline_rows_ascend_by_site_id() {
    for (label, world, ds) in datasets() {
        let ids: Vec<SiteId> = ds.sites().map(|s| s.id()).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "{label}: ids not ascending"
        );
        for (row, &id) in ids.iter().enumerate() {
            assert_eq!(ds.row_of(id), Some(row), "{label}: {id:?}");
        }
        // The first listing the dataset did not measure.
        let absent = SiteId::from_index(ds.len());
        assert!(absent.index() <= world.truth.len());
        assert_eq!(ds.row_of(absent), None, "{label}: {absent:?}");
    }
}

fn soa(mname: &str, rname: &str) -> Soa {
    Soa::standard(dn(mname), dn(rname), 1)
}

#[test]
fn cached_classify_matches_uncached() {
    let psl = PublicSuffixList::builtin();
    // Name zoo covering every PSL rule shape: gTLD, multi-label
    // suffix, bare suffixes, wildcard rule, exception rule, unknown
    // TLD fallback, wildcard SAN entries.
    let names: Vec<DomainName> = [
        "www.example.com",
        "example.com",
        "a.b.example.co.uk",
        "co.uk",
        "com",
        "shop.foo.ck",
        "www.ck",
        "a.www.ck",
        "example.zz",
        "ns1.dynect.net",
        "*.cdn-brand.net",
        "edge7.cdn-brand.net",
    ]
    .iter()
    .map(|s| dn(s))
    .collect();
    let sans = vec![dn("example.com"), dn("*.cdn-brand.net"), dn("www.ck")];
    let soas = [
        soa("example.com", "hostmaster.example.com"),
        soa("ns1.dynect.net", "hostmaster.dynect.net"),
        soa("ns1.alibabadns.com", "hostmaster.alicdn-dns.com"),
    ];
    for a in &names {
        assert_eq!(
            classify::san_covers(&sans, a, &psl),
            san_covers(&sans, a, &psl),
            "san_covers({a})"
        );
        assert_eq!(
            classify::provider_key(a, &psl).as_str(),
            psl.registrable_str(a).unwrap_or_else(|| a.as_str()),
            "provider_key({a})"
        );
        for b in &names {
            for san in [None, Some(sans.as_slice())] {
                assert_eq!(
                    cdn::is_internal(a, b, san, &psl),
                    is_internal(a, b, san, &psl),
                    "is_internal({a}, {b}, {san:?})"
                );
            }
        }
    }
    for a in &soas {
        for b in &soas {
            assert_eq!(
                classify::soa_same_authority(a, b, &psl),
                soa_same_authority(a, b, &psl),
                "soa_same_authority"
            );
        }
    }
    for site in &names {
        for candidate in &names {
            for (i, site_soa) in soas.iter().enumerate() {
                let ev = Evidence {
                    site,
                    candidate,
                    san: Some(&sans),
                    site_soa: Some(site_soa),
                    candidate_soa: Some(&soas[(i + 1) % soas.len()]),
                    concentration: Some(if i == 0 { 120 } else { 3 }),
                    threshold: 50,
                };
                // And with the sparse-evidence variant.
                let bare = Evidence {
                    san: None,
                    site_soa: None,
                    candidate_soa: None,
                    concentration: None,
                    ..ev
                };
                for kind in ClassifierKind::ALL {
                    assert_eq!(
                        classify::classify(kind, &ev, &psl),
                        classify(kind, &ev, &psl),
                        "classify({kind:?}, {site}, {candidate})"
                    );
                    assert_eq!(
                        classify::classify(kind, &bare, &psl),
                        classify(kind, &bare, &psl),
                        "classify bare ({kind:?}, {site}, {candidate})"
                    );
                }
            }
        }
    }
}
