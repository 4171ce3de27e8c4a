//! Heuristic validation against ground truth (§3's manual check).
//!
//! The only module allowed to read the world's answer key. It samples
//! rows of a measured dataset, re-observes and re-crawls only those
//! sites, re-derives each strategy's verdict for every observed pair,
//! and scores it against the [`webdeps_model::EntityRegistry`] — the
//! synthetic stand-in for the authors' manual verification of 100
//! random sites. The concentration signal is the dataset's own pass-1
//! tally ([`MeasurementDataset::ns_concentration`]), so validation does
//! not re-observe the population. Reported per strategy: *accuracy*
//! over decided pairs and *coverage* (share of pairs decided at all),
//! reproducing the 100 / 97 / 56 (DNS), 100 / 96 / 94 (CA), and
//! 100 / 97 / 83 (CDN) comparisons.

use crate::classify::{Classification, ClassifierKind, ClassifyCache, Evidence};
use crate::columnar::MeasurementDataset;
use crate::dns;
use std::collections::HashMap;
use webdeps_dns::Dig;
use webdeps_model::{DetRng, DomainName};
use webdeps_web::Crawler;
use webdeps_worldgen::World;

/// Accuracy of one strategy on one pair population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyAccuracy {
    /// The strategy scored.
    pub strategy: ClassifierKind,
    /// Correct decisions / decided pairs.
    pub accuracy: f64,
    /// Decided pairs / all pairs.
    pub coverage: f64,
    /// Total pairs examined.
    pub pairs: usize,
}

/// Validation results for all three services.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// (site, nameserver) pair scoring.
    pub dns: Vec<StrategyAccuracy>,
    /// (site, CA endpoint) pair scoring.
    pub ca: Vec<StrategyAccuracy>,
    /// (site, CDN CNAME) pair scoring.
    pub cdn: Vec<StrategyAccuracy>,
    /// Number of sites sampled.
    pub sample_size: usize,
}

impl ValidationReport {
    /// Accuracy row for a strategy in one service table.
    pub fn row(rows: &[StrategyAccuracy], strategy: ClassifierKind) -> Option<StrategyAccuracy> {
        rows.iter().copied().find(|r| r.strategy == strategy)
    }
}

struct Tally {
    correct: usize,
    decided: usize,
    total: usize,
}

impl Tally {
    fn new() -> Self {
        Tally {
            correct: 0,
            decided: 0,
            total: 0,
        }
    }

    fn record(&mut self, verdict: Classification, truth_third: bool) {
        self.total += 1;
        match verdict {
            Classification::Unknown => {}
            Classification::ThirdParty => {
                self.decided += 1;
                if truth_third {
                    self.correct += 1;
                }
            }
            Classification::Private => {
                self.decided += 1;
                if !truth_third {
                    self.correct += 1;
                }
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

/// Ground truth for one (site, candidate host) pair: is the candidate a
/// third party? `None` when ownership of the candidate is unknown to
/// the registry (shouldn't happen in generated worlds).
fn truth_third(world: &World, site: &DomainName, candidate: &DomainName) -> Option<bool> {
    world.entities.same_owner(site, candidate).map(|same| !same)
}

/// Validates all strategies on a random sample of `sample_size` rows of
/// `ds`, a measurement of `world` (the paper sampled 100 sites). For a
/// dataset of the whole world, row `i` is listing `i`.
pub fn validate_world(
    world: &World,
    ds: &MeasurementDataset,
    sample_size: usize,
    seed: u64,
) -> ValidationReport {
    // lint:allow(seed-flow) — validation is a sampling root: the audit
    // sample is defined by its own seed, domain-separated from world
    // streams by the constant, so the stream is minted here.
    let mut rng = DetRng::new(seed ^ 0x7A11DA7E);
    let rows = rng.sample_indices(ds.len(), sample_size);

    let mut client = world.client();
    let mut cache = ClassifyCache::new();
    let psl = &world.psl;
    let mut dns_tallies: HashMap<ClassifierKind, Tally> = ClassifierKind::ALL
        .iter()
        .map(|&k| (k, Tally::new()))
        .collect();
    let mut ca_tallies: HashMap<ClassifierKind, Tally> = ClassifierKind::ALL
        .iter()
        .map(|&k| (k, Tally::new()))
        .collect();
    let mut cdn_tallies: HashMap<ClassifierKind, Tally> = ClassifierKind::ALL
        .iter()
        .map(|&k| (k, Tally::new()))
        .collect();
    let threshold = ds.threshold();

    for &row in &rows {
        let site = world.site(ds.site(row).id());
        let domain = &site.domain;
        let observation = dns::observe_site(client.resolver_mut(), domain);
        let report = Crawler::crawl(&mut client, domain, &site.document_hosts(), site.https());
        let san = report.certificate.as_ref().map(|c| c.san.clone());

        // DNS pairs.
        if let Some(obs) = &observation {
            for (host, ns_soa) in obs.ns_hosts.iter().zip(&obs.ns_soas) {
                let Some(truth) = truth_third(world, domain, host) else {
                    continue;
                };
                let conc = cache
                    .registrable_str(host, psl)
                    .map_or(0, |r| ds.ns_concentration(r));
                let ev = Evidence {
                    site: domain,
                    candidate: host,
                    san: san.as_deref(),
                    site_soa: obs.site_soa.as_ref(),
                    candidate_soa: ns_soa.as_ref(),
                    concentration: Some(conc),
                    threshold,
                };
                for kind in ClassifierKind::ALL {
                    let verdict = cache.classify(kind, &ev, psl);
                    dns_tallies
                        .entry(kind)
                        .or_insert_with(Tally::new)
                        .record(verdict, truth);
                }
            }
        }

        // CA pair.
        if let Some(cert) = &report.certificate {
            if let Some(ca_host) = cert.ocsp_urls.first().map(|e| &e.host) {
                if let Some(truth) = truth_third(world, domain, ca_host) {
                    let resolver = client.resolver_mut();
                    let site_soa = Dig::new(resolver).soa_of(domain).ok();
                    let ca_soa = Dig::new(resolver).soa_of(ca_host).ok();
                    let ev = Evidence {
                        site: domain,
                        candidate: ca_host,
                        san: san.as_deref(),
                        site_soa: site_soa.as_ref(),
                        candidate_soa: ca_soa.as_ref(),
                        concentration: None,
                        threshold: usize::MAX,
                    };
                    for kind in ClassifierKind::ALL {
                        let verdict = cache.classify(kind, &ev, psl);
                        ca_tallies
                            .entry(kind)
                            .or_insert_with(Tally::new)
                            .record(verdict, truth);
                    }
                }
            }
        }

        // CDN pairs: classify the CNAME witness of each internal host.
        for host in report.hostnames() {
            if !crate::cdn::is_internal(domain, &host, san.as_deref(), psl, &mut cache) {
                continue;
            }
            let Some(chain) = report.chain_of(&host) else {
                continue;
            };
            let Some((_, _, witness)) = world.cname_map.classify_chain_detailed(chain.iter())
            else {
                continue;
            };
            let Some(truth) = truth_third(world, domain, witness) else {
                continue;
            };
            let resolver = client.resolver_mut();
            let site_soa = Dig::new(resolver).soa_of(domain).ok();
            let witness_soa = Dig::new(resolver).soa_of(witness).ok();
            let ev = Evidence {
                site: domain,
                candidate: witness,
                san: san.as_deref(),
                site_soa: site_soa.as_ref(),
                candidate_soa: witness_soa.as_ref(),
                concentration: None,
                threshold: usize::MAX,
            };
            for kind in ClassifierKind::ALL {
                let verdict = cache.classify(kind, &ev, psl);
                cdn_tallies
                    .entry(kind)
                    .or_insert_with(Tally::new)
                    .record(verdict, truth);
            }
        }
    }

    let collect = |mut tallies: HashMap<ClassifierKind, Tally>| {
        ClassifierKind::ALL
            .iter()
            .map(|&k| tallies.remove(&k).unwrap_or_else(Tally::new).into_row(k))
            .collect::<Vec<_>>()
    };
    ValidationReport {
        dns: collect(dns_tallies),
        ca: collect(ca_tallies),
        cdn: collect(cdn_tallies),
        sample_size: rows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_world;
    use webdeps_worldgen::WorldConfig;

    #[test]
    fn combined_heuristic_beats_both_strawmen() {
        let world = World::generate(WorldConfig::small(99));
        let report = validate_world(&world, &measure_world(&world), 150, 1);
        assert_eq!(report.sample_size, 150);

        let combined = ValidationReport::row(&report.dns, ClassifierKind::Combined).unwrap();
        let tld = ValidationReport::row(&report.dns, ClassifierKind::TldOnly).unwrap();
        let soa = ValidationReport::row(&report.dns, ClassifierKind::SoaOnly).unwrap();
        assert!(combined.accuracy > 0.99, "combined {:?}", combined);
        assert!(
            tld.accuracy > 0.90 && tld.accuracy < 1.0,
            "TLD strawman {:?}",
            tld
        );
        assert!(
            soa.accuracy < 0.75,
            "SOA strawman should be poor: {:?}",
            soa
        );
        assert!(combined.accuracy > tld.accuracy && combined.accuracy > soa.accuracy);
        assert!(combined.coverage < 1.0, "micro-tail pairs stay undecided");

        let combined_ca = ValidationReport::row(&report.ca, ClassifierKind::Combined).unwrap();
        assert!(combined_ca.accuracy > 0.99, "CA combined {:?}", combined_ca);
        let combined_cdn = ValidationReport::row(&report.cdn, ClassifierKind::Combined).unwrap();
        assert!(
            combined_cdn.accuracy > 0.97,
            "CDN combined {:?}",
            combined_cdn
        );
    }
}
