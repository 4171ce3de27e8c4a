//! Heuristic validation against ground truth (§3's manual check).
//!
//! The only module allowed to read the world's answer key. It samples
//! rows of a measured dataset and measures each sampled site again
//! through the pipeline's own per-site path: observation
//! ([`dns::observe_site`]), crawl and the three `classify_site`s. Every
//! (site, candidate) pair they classify arrives at validation's hook
//! with the evidence the pipeline decided it on, is classified with
//! each strategy and is scored against the
//! [`webdeps_model::EntityRegistry`] — the synthetic stand-in for the
//! authors' manual verification of 100 random sites. The concentration
//! signal is the dataset's own pass-1 tally
//! ([`MeasurementDataset::ns_concentration`]), so validation does not
//! re-observe the population. Reported per strategy: *accuracy* over
//! decided pairs and *coverage* (share of pairs decided at all),
//! reproducing the 100 / 97 / 56 (DNS), 100 / 96 / 94 (CA), and
//! 100 / 97 / 83 (CDN) comparisons.

use crate::classify::{classify, Classification, ClassifierKind, Evidence};
use crate::columnar::MeasurementDataset;
use crate::dns;
use crate::pipeline::measure_site;
use webdeps_model::{DetRng, ServiceKind};
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

/// Validates all strategies on a random sample of `sample_size` rows of
/// `ds`, a measurement of `world` (the paper sampled 100 sites). A
/// pair whose candidate the registry does not know is not scored.
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

    let fresh = || ClassifierKind::ALL.map(|_| Tally::default());
    let (mut dns_t, mut ca_t, mut cdn_t) = (fresh(), fresh(), fresh());
    let mut score = |service: ServiceKind, ev: &Evidence<'_>| {
        let Some(same) = world.entities.same_owner(ev.site, ev.candidate) else {
            return;
        };
        let tallies = match service {
            ServiceKind::Dns => &mut dns_t,
            ServiceKind::Ca => &mut ca_t,
            ServiceKind::Cdn => &mut cdn_t,
            ServiceKind::Cloud => return,
        };
        for (tally, kind) in tallies.iter_mut().zip(ClassifierKind::ALL) {
            tally.record(classify(kind, ev, &world.psl), !same);
        }
    };

    let mut client = world.client();
    let concentration = |reg: &str| ds.ns_concentration(reg);
    for &row in &rows {
        let listing = world.site(ds.site(row).id()).listing();
        let obs = dns::observe_site(client.resolver_mut(), &listing.domain);
        measure_site(
            world,
            &mut client,
            &listing,
            obs.as_ref(),
            &concentration,
            &mut score,
        );
    }

    let rows_of = |tallies: [Tally; 3]| {
        tallies
            .into_iter()
            .zip(ClassifierKind::ALL)
            .map(|(t, k)| t.into_row(k))
            .collect::<Vec<_>>()
    };
    ValidationReport {
        dns: rows_of(dns_t),
        ca: rows_of(ca_t),
        cdn: rows_of(cdn_t),
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
