//! Provider coverage CDFs (Figure 6).
//!
//! "How many providers serve 80% of the websites?" — computed the
//! honest way: providers sorted by direct consumer count, coverage as
//! the *union* of their consumer sets over the population of sites that
//! use the service at all.

use crate::reach::SiteSet;
use webdeps_measure::{MeasurementDataset, ProviderKey};
use webdeps_model::{fan_out_chunked, NameId, ServiceKind};

/// One point of the coverage curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveragePoint {
    /// Number of (top) providers included.
    pub providers: usize,
    /// Fraction (0–1) of service-using sites covered.
    pub coverage: f64,
    /// The provider added at this point.
    pub key: ProviderKey,
}

/// Per-provider direct consumer sets: dense `NameId`-indexed
/// [`SiteSet`] bitsets built per shard and merged by bitwise union.
/// Union and popcount are order-independent, and the final ordering is
/// a total sort (consumer count descending, then provider key
/// ascending), so the result is identical at any worker count.
fn consumer_sets(ds: &MeasurementDataset, kind: ServiceKind) -> Vec<(NameId, SiteSet)> {
    let bound = ds.site_id_bound();
    let idxs: Vec<usize> = (0..ds.len()).collect();
    let partials = fan_out_chunked(&idxs, 0, |shard| {
        let mut sets: Vec<Option<SiteSet>> = vec![None; ds.names_len()];
        for &i in shard {
            let site = ds.site(i);
            for name in site.third_parties(kind) {
                sets[name.index()]
                    .get_or_insert_with(|| SiteSet::with_bound(bound))
                    .insert(site.id());
            }
        }
        vec![sets]
    });
    let mut merged: Vec<Option<SiteSet>> = vec![None; ds.names_len()];
    for partial in partials {
        for (slot, set) in merged.iter_mut().zip(partial) {
            if let Some(set) = set {
                match slot {
                    Some(acc) => acc.union_with(&set),
                    None => *slot = Some(set),
                }
            }
        }
    }
    let mut sets: Vec<(NameId, SiteSet)> = merged
        .into_iter()
        .enumerate()
        .filter_map(|(i, s)| Some((NameId::from_index(i), s?)))
        .collect();
    sets.sort_by(|a, b| {
        b.1.count()
            .cmp(&a.1.count())
            .then_with(|| ds.name(a.0).cmp(ds.name(b.0)))
    });
    sets
}

/// The full coverage curve for a service: point `i` is the union
/// coverage of the top `i+1` providers. The per-provider consumer sets
/// are bitsets and coverage is a running popcount of their union.
pub fn coverage_curve(ds: &MeasurementDataset, kind: ServiceKind) -> Vec<CoveragePoint> {
    let sets = consumer_sets(ds, kind);
    let bound = ds.site_id_bound();
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

/// The number of providers needed to cover `fraction` of the
/// service-using sites — the paper's "54 providers serve 80% in 2020
/// vs 2 705 in 2016" statistic.
pub fn providers_for_coverage(ds: &MeasurementDataset, kind: ServiceKind, fraction: f64) -> usize {
    coverage_curve(ds, kind)
        .iter()
        .position(|p| p.coverage >= fraction)
        .map(|i| i + 1)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_measure::measure_world;
    use webdeps_worldgen::{World, WorldConfig};

    #[test]
    fn curve_is_monotone_and_ends_at_one() {
        let world = World::generate(WorldConfig::small(37));
        let ds = measure_world(&world);
        for kind in [ServiceKind::Dns, ServiceKind::Cdn, ServiceKind::Ca] {
            let curve = coverage_curve(&ds, kind);
            assert!(!curve.is_empty(), "{kind}: no providers observed");
            for w in curve.windows(2) {
                assert!(w[1].coverage >= w[0].coverage, "{kind}: not monotone");
            }
            let last = curve.last().unwrap();
            assert!(
                (last.coverage - 1.0).abs() < 1e-9,
                "{kind}: last point covers all"
            );
        }
    }

    #[test]
    fn concentration_few_providers_cover_most() {
        let world = World::generate(WorldConfig::small(37));
        let ds = measure_world(&world);
        // 2020: concentrated markets everywhere.
        let dns80 = providers_for_coverage(&ds, ServiceKind::Dns, 0.8);
        let cdn80 = providers_for_coverage(&ds, ServiceKind::Cdn, 0.8);
        let ca80 = providers_for_coverage(&ds, ServiceKind::Ca, 0.8);
        assert!(dns80 > 0 && cdn80 > 0 && ca80 > 0);
        assert!(ca80 <= 8, "CA market is the most concentrated: {ca80}");
        assert!(cdn80 <= 12, "CDN market: {cdn80}");
        let dns_total = coverage_curve(&ds, ServiceKind::Dns).len();
        assert!(
            dns80 < dns_total / 2,
            "DNS: top providers dominate ({dns80}/{dns_total})"
        );
    }

    #[test]
    fn cloud_kind_is_empty() {
        let world = World::generate(WorldConfig::small(37));
        let ds = measure_world(&world);
        assert!(coverage_curve(&ds, ServiceKind::Cloud).is_empty());
        assert_eq!(providers_for_coverage(&ds, ServiceKind::Cloud, 0.8), 0);
    }
}
