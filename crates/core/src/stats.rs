//! Rank-stratified site statistics (Figures 2, 3, 4).
//!
//! Each figure is four series over the cumulative rank buckets
//! k ∈ {100, 1K, 10K, 100K}; values are percentages with the paper's
//! denominators: characterized sites (DNS), CDN-using sites (CDN), and
//! all sites (CA/HTTPS).

use webdeps_measure::{MeasurementDataset, SiteView};
use webdeps_model::RankBucket;
use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};

/// Percentage helper: `NaN`-free share of a filtered subset.
fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

fn in_bucket(ds: &MeasurementDataset, bucket: RankBucket) -> impl Iterator<Item = SiteView<'_>> {
    ds.sites().filter(move |s| bucket.contains(s.rank()))
}

/// Figure 2 series: website → DNS, per cumulative bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnsFigure {
    /// Bucket the row describes.
    pub bucket: RankBucket,
    /// Characterized sites in the bucket (denominator).
    pub characterized: usize,
    /// % using any third-party DNS.
    pub third_party: f64,
    /// % critically dependent (single third-party provider).
    pub critical: f64,
    /// % using multiple third-party providers.
    pub multiple_third: f64,
    /// % with private + third-party redundancy.
    pub private_plus_third: f64,
}

/// Computes the Figure 2 table.
pub fn dns_figure(ds: &MeasurementDataset) -> Vec<DnsFigure> {
    RankBucket::ALL
        .iter()
        .map(|&bucket| {
            let states: Vec<DepState> = in_bucket(ds, bucket)
                .filter_map(|s| s.dns_state())
                .collect();
            let n = states.len();
            DnsFigure {
                bucket,
                characterized: n,
                third_party: pct(states.iter().filter(|s| s.uses_third_party()).count(), n),
                critical: pct(states.iter().filter(|s| s.is_critical()).count(), n),
                multiple_third: pct(
                    states
                        .iter()
                        .filter(|s| **s == DepState::MultiThird)
                        .count(),
                    n,
                ),
                private_plus_third: pct(
                    states
                        .iter()
                        .filter(|s| **s == DepState::PrivatePlusThird)
                        .count(),
                    n,
                ),
            }
        })
        .collect()
}

/// Figure 3 series: website → CDN, per cumulative bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnFigure {
    /// Bucket the row describes.
    pub bucket: RankBucket,
    /// Sites in the bucket.
    pub sites: usize,
    /// Sites using any CDN (adoption denominator).
    pub cdn_users: usize,
    /// % of all sites using a CDN.
    pub adoption: f64,
    /// % of CDN users on a third-party CDN.
    pub third_party_of_users: f64,
    /// % of CDN users critically dependent.
    pub critical_of_users: f64,
    /// % of CDN users with multiple CDNs.
    pub multiple_of_users: f64,
}

/// Computes the Figure 3 table.
pub fn cdn_figure(ds: &MeasurementDataset) -> Vec<CdnFigure> {
    RankBucket::ALL
        .iter()
        .map(|&bucket| {
            let sites: Vec<SiteView<'_>> = in_bucket(ds, bucket).collect();
            let users: Vec<CdnProfile> = sites
                .iter()
                .filter_map(|s| s.cdn_state())
                .filter(|st| st.uses_cdn())
                .collect();
            let n_users = users.len();
            CdnFigure {
                bucket,
                sites: sites.len(),
                cdn_users: n_users,
                adoption: pct(n_users, sites.len()),
                third_party_of_users: pct(
                    users.iter().filter(|s| **s != CdnProfile::Private).count(),
                    n_users,
                ),
                critical_of_users: pct(users.iter().filter(|s| s.is_critical()).count(), n_users),
                multiple_of_users: pct(
                    users.iter().filter(|s| **s == CdnProfile::Multi).count(),
                    n_users,
                ),
            }
        })
        .collect()
}

/// Figure 4 series: website → CA, per cumulative bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaFigure {
    /// Bucket the row describes.
    pub bucket: RankBucket,
    /// Sites in the bucket (denominator).
    pub sites: usize,
    /// % of sites serving HTTPS.
    pub https: f64,
    /// % of sites using a third-party CA.
    pub third_party: f64,
    /// % of HTTPS sites with OCSP stapling.
    pub stapled_of_https: f64,
    /// % of sites critically dependent on their CA (third party, no
    /// stapling).
    pub critical: f64,
}

/// Computes the Figure 4 table.
pub fn ca_figure(ds: &MeasurementDataset) -> Vec<CaFigure> {
    RankBucket::ALL
        .iter()
        .map(|&bucket| {
            let sites: Vec<SiteView<'_>> = in_bucket(ds, bucket).collect();
            let n = sites.len();
            let https: Vec<&SiteView<'_>> = sites.iter().filter(|s| s.https()).collect();
            CaFigure {
                bucket,
                sites: n,
                https: pct(https.len(), n),
                third_party: pct(
                    sites
                        .iter()
                        .filter(|s| {
                            matches!(
                                s.ca_state(),
                                Some(CaProfile::ThirdStapled) | Some(CaProfile::ThirdNoStaple)
                            )
                        })
                        .count(),
                    n,
                ),
                stapled_of_https: pct(https.iter().filter(|s| s.stapled()).count(), https.len()),
                critical: pct(
                    sites
                        .iter()
                        .filter(|s| s.ca_state() == Some(CaProfile::ThirdNoStaple))
                        .count(),
                    n,
                ),
            }
        })
        .collect()
}

/// Direct third-party provider usage counts within a cumulative rank
/// bucket — the per-popularity view behind the paper's "Dyn is the most
/// popular in the top-100" style observations.
pub fn top_providers_in_bucket(
    ds: &MeasurementDataset,
    kind: webdeps_model::ServiceKind,
    bucket: RankBucket,
    k: usize,
) -> Vec<(webdeps_measure::ProviderKey, usize)> {
    let mut counts = vec![0usize; ds.names_len()];
    for site in in_bucket(ds, bucket) {
        for name in site.third_parties(kind) {
            counts[name.index()] += 1;
        }
    }
    let mut out: Vec<_> = counts
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(i, n)| {
            let name = webdeps_model::NameId::from_index(i);
            (webdeps_measure::ProviderKey::new(ds.name(name)), n)
        })
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_measure::measure_world;
    use webdeps_worldgen::{World, WorldConfig};

    fn dataset() -> MeasurementDataset {
        let world = World::generate(WorldConfig::small(31));
        measure_world(&world)
    }

    #[test]
    fn dns_figure_monotonic_in_rank() {
        let ds = dataset();
        let fig = dns_figure(&ds);
        assert_eq!(fig.len(), 4);
        // Observation 1: critical dependency increases across ranks.
        assert!(
            fig[0].critical < fig[3].critical,
            "top-100 {} vs whole {}",
            fig[0].critical,
            fig[3].critical
        );
        assert!(fig[0].third_party < fig[3].third_party);
        // Redundancy decreases with rank.
        let red0 = fig[0].multiple_third + fig[0].private_plus_third;
        let red3 = fig[3].multiple_third + fig[3].private_plus_third;
        assert!(red0 > red3, "top redundancy {red0} vs whole {red3}");
    }

    #[test]
    fn cdn_figure_shapes() {
        let ds = dataset();
        let fig = cdn_figure(&ds);
        // More popular sites use CDNs more but critically less.
        assert!(fig[0].adoption > fig[3].adoption);
        assert!(fig[0].critical_of_users < fig[3].critical_of_users);
        assert!(fig[0].multiple_of_users > fig[3].multiple_of_users);
        // Nearly all CDN use is third-party.
        assert!(fig[3].third_party_of_users > 90.0);
    }

    #[test]
    fn ca_figure_shapes() {
        let ds = dataset();
        let fig = ca_figure(&ds);
        assert!(fig[0].https > fig[3].https, "HTTPS higher at the top");
        // Stapling is low everywhere (the paper's Observation 5).
        for row in &fig {
            assert!(row.stapled_of_https < 35.0, "{row:?}");
        }
        // Critical dependency dominated by no-staple third-party sites.
        assert!(fig[3].critical > 40.0);
    }

    #[test]
    fn dyn_tops_the_2016_top100_but_not_the_full_list() {
        use webdeps_model::ServiceKind;
        use webdeps_worldgen::{SnapshotYear, World, WorldConfig};
        let world = World::generate(WorldConfig {
            seed: 31,
            n_sites: 2_000,
            year: SnapshotYear::Y2016,
        });
        let ds = webdeps_measure::measure_world(&world);
        let top100 = top_providers_in_bucket(&ds, ServiceKind::Dns, RankBucket::Top100, 3);
        assert!(
            top100.iter().any(|(k, _)| k.as_str() == "dynect.net"),
            "Dyn leads the 2016 top-100 (paper §4.2): {top100:?}"
        );
        // Over the whole list Dyn's *share* collapses (at the paper's
        // 100K scale it falls out of the top-3 entirely; a 2K test world
        // is top-band heavy, so compare shares rather than ranks).
        let share = |bucket: RankBucket| {
            let ranking = top_providers_in_bucket(&ds, ServiceKind::Dns, bucket, 50);
            let total: usize = ranking.iter().map(|(_, c)| c).sum();
            let dyn_count = ranking
                .iter()
                .find(|(k, _)| k.as_str() == "dynect.net")
                .map(|(_, c)| *c)
                .unwrap_or(0);
            dyn_count as f64 / total.max(1) as f64
        };
        assert!(
            share(RankBucket::Top100) > 2.0 * share(RankBucket::Top100K),
            "Dyn's share must collapse outside the top ranks: {} vs {}",
            share(RankBucket::Top100),
            share(RankBucket::Top100K)
        );
        // CA + CDN variants produce non-empty rankings too.
        assert!(!top_providers_in_bucket(&ds, ServiceKind::Ca, RankBucket::Top1K, 3).is_empty());
        assert!(!top_providers_in_bucket(&ds, ServiceKind::Cdn, RankBucket::Top1K, 3).is_empty());
        assert!(top_providers_in_bucket(&ds, ServiceKind::Cloud, RankBucket::Top1K, 3).is_empty());
    }

    #[test]
    fn percentages_are_bounded() {
        let ds = dataset();
        for row in dns_figure(&ds) {
            for v in [
                row.third_party,
                row.critical,
                row.multiple_third,
                row.private_plus_third,
            ] {
                assert!((0.0..=100.0).contains(&v));
            }
        }
        for row in cdn_figure(&ds) {
            for v in [
                row.adoption,
                row.third_party_of_users,
                row.critical_of_users,
            ] {
                assert!((0.0..=100.0).contains(&v));
            }
        }
        for row in ca_figure(&ds) {
            for v in [
                row.https,
                row.third_party,
                row.stapled_of_https,
                row.critical,
            ] {
                assert!((0.0..=100.0).contains(&v));
            }
        }
    }
}
