//! Provider coverage CDFs (Figure 6).
//!
//! "How many providers serve 80% of the websites?" — computed the
//! honest way: providers sorted by direct consumer count, coverage as
//! the *union* of their consumer sets over the population of sites that
//! use the service at all. One serial pass lists each provider's
//! consumer rows, and the walk marks covered rows in one flag vector;
//! no per-provider set is allocated.

use webdeps_measure::{MeasurementDataset, ProviderKey};
use webdeps_model::{NameId, ServiceKind};

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

/// The full coverage curve for a service: point `i` is the union
/// coverage of the top `i+1` providers, ordered by consumer count
/// descending, then provider key ascending.
pub fn coverage_curve(ds: &MeasurementDataset, kind: ServiceKind) -> Vec<CoveragePoint> {
    // Each provider's consumer rows in CSR form, a site counted once
    // per provider however often it lists it.
    let names = ds.names_len();
    let mut start = vec![0usize; names + 1];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut total = 0usize;
    for (row, site) in ds.sites().enumerate() {
        let before = pairs.len();
        for name in site.third_parties(kind) {
            let p = name.index();
            if !pairs[before..].iter().any(|&(q, _)| q == p) {
                start[p + 1] += 1;
                pairs.push((p, row));
            }
        }
        total += usize::from(pairs.len() > before);
    }
    if total == 0 {
        return Vec::new();
    }
    for p in 0..names {
        start[p + 1] += start[p];
    }
    let mut fill = start.clone();
    let mut rows = vec![0usize; pairs.len()];
    for (p, row) in pairs {
        rows[fill[p]] = row;
        fill[p] += 1;
    }
    let count = |p: usize| start[p + 1] - start[p];
    let mut order: Vec<usize> = (0..names).filter(|&p| count(p) > 0).collect();
    order.sort_unstable_by(|&a, &b| {
        count(b).cmp(&count(a)).then_with(|| {
            ds.name(NameId::from_index(a))
                .cmp(ds.name(NameId::from_index(b)))
        })
    });

    let mut covered = vec![false; ds.len()];
    let mut n_covered = 0usize;
    order
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            for &row in &rows[start[p]..start[p + 1]] {
                if !covered[row] {
                    covered[row] = true;
                    n_covered += 1;
                }
            }
            CoveragePoint {
                providers: i + 1,
                coverage: n_covered as f64 / total as f64,
                key: ProviderKey::new(ds.name(NameId::from_index(p))),
            }
        })
        .collect()
}

/// The number of top providers on `curve` needed to cover `fraction`
/// of the service-using sites (0 if none) — the paper's "54 providers
/// serve 80% in 2020 vs 2 705 in 2016" statistic.
pub fn providers_for_coverage(curve: &[CoveragePoint], fraction: f64) -> usize {
    curve
        .iter()
        .position(|p| p.coverage >= fraction)
        .map_or(0, |i| i + 1)
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
        let dns = coverage_curve(&ds, ServiceKind::Dns);
        let dns80 = providers_for_coverage(&dns, 0.8);
        let cdn80 = providers_for_coverage(&coverage_curve(&ds, ServiceKind::Cdn), 0.8);
        let ca80 = providers_for_coverage(&coverage_curve(&ds, ServiceKind::Ca), 0.8);
        assert!(dns80 > 0 && cdn80 > 0 && ca80 > 0);
        assert!(ca80 <= 8, "CA market is the most concentrated: {ca80}");
        assert!(cdn80 <= 12, "CDN market: {cdn80}");
        let dns_total = dns.len();
        assert!(
            dns80 < dns_total / 2,
            "DNS: top providers dominate ({dns80}/{dns_total})"
        );
    }

    #[test]
    fn cloud_kind_is_empty() {
        let world = World::generate(WorldConfig::small(37));
        let ds = measure_world(&world);
        let cloud = coverage_curve(&ds, ServiceKind::Cloud);
        assert!(cloud.is_empty());
        assert_eq!(providers_for_coverage(&cloud, 0.8), 0);
    }
}
