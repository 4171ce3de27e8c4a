//! Dataset summaries (the Table 1 / Table 2 populations).
//!
//! Library-level aggregation so downstream users get the paper's
//! headline denominators without going through the report renderers.

use crate::columnar::{MeasurementDataset, SiteView};

/// Single-snapshot population summary (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Sites in the dataset.
    pub sites: usize,
    /// Sites characterized for DNS analysis.
    pub dns_characterized: usize,
    /// Sites using at least one CDN.
    pub cdn_users: usize,
    /// CDN users whose CDN state was characterized.
    pub cdn_characterized: usize,
    /// Sites answering on HTTPS.
    pub https: usize,
    /// HTTPS sites whose CA state was characterized.
    pub ca_characterized: usize,
    /// Sites critically dependent on at least one third-party service.
    pub any_critical: usize,
}

/// Summarizes one dataset.
pub fn summarize(ds: &MeasurementDataset) -> DatasetSummary {
    let count = |f: fn(SiteView<'_>) -> bool| ds.sites().filter(|&s| f(s)).count();
    DatasetSummary {
        sites: ds.len(),
        dns_characterized: count(|s| s.dns_state().is_some()),
        cdn_users: count(|s| s.uses_cdn()),
        cdn_characterized: count(|s| s.uses_cdn() && s.cdn_state().is_some()),
        https: count(|s| s.https()),
        ca_characterized: count(|s| s.https() && s.ca_state().is_some()),
        any_critical: count(|s| {
            s.dns_state().is_some_and(|st| st.is_critical())
                || s.cdn_state().is_some_and(|st| st.is_critical())
                || s.ca_state().is_some_and(|st| st.is_critical())
        }),
    }
}

/// Paired-snapshot summary (paper Table 2): populations over sites that
/// exist in both datasets, joined on domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparisonSummary {
    /// Sites present in both snapshots.
    pub joined: usize,
    /// Sites from the first snapshot that vanished.
    pub dead: usize,
    /// Joined sites DNS-characterized in both years.
    pub dns_characterized_both: usize,
    /// Joined sites using a CDN in either year.
    pub cdn_either: usize,
    /// Joined sites HTTPS in either year.
    pub https_either: usize,
}

/// Summarizes a pair of datasets, joining on site domain.
pub fn summarize_pair(
    earlier: &MeasurementDataset,
    later: &MeasurementDataset,
) -> ComparisonSummary {
    let joined: Vec<_> = earlier
        .join_by_domain(later)
        .into_iter()
        .map(|(i, j)| (earlier.site(i), later.site(j)))
        .collect();
    let count = |f: fn(SiteView<'_>, SiteView<'_>) -> bool| {
        joined.iter().filter(|&&(a, b)| f(a, b)).count()
    };
    ComparisonSummary {
        joined: joined.len(),
        dead: earlier.len() - joined.len(),
        dns_characterized_both: count(|a, b| a.dns_state().is_some() && b.dns_state().is_some()),
        cdn_either: count(|a, b| a.uses_cdn() || b.uses_cdn()),
        https_either: count(|a, b| a.https() || b.https()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::measure_world;
    use webdeps_worldgen::{World, WorldConfig, WorldPair};

    #[test]
    fn summary_counts_are_consistent() {
        let world = World::generate(WorldConfig::small(57));
        let ds = measure_world(&world);
        let s = summarize(&ds);
        assert_eq!(s.sites, ds.len());
        assert!(s.dns_characterized <= s.sites);
        assert!(s.cdn_characterized <= s.cdn_users);
        assert!(s.ca_characterized <= s.https);
        assert!(s.any_critical <= s.sites);
        // Ballpark: most sites are critically dependent on something.
        assert!(s.any_critical as f64 / s.sites as f64 > 0.5);
    }

    #[test]
    fn pair_summary_tracks_churn() {
        let pair = WorldPair::generate(3, 1_500);
        let ds16 = measure_world(&pair.y2016);
        let ds20 = measure_world(&pair.y2020);
        let c = summarize_pair(&ds16, &ds20);
        assert_eq!(c.joined + c.dead, ds16.len());
        let death_rate = c.dead as f64 / ds16.len() as f64;
        assert!((death_rate - 0.038).abs() < 0.02, "churn {death_rate}");
        assert!(c.https_either >= summarize(&ds16).https.min(c.joined));
        assert!(c.dns_characterized_both <= c.joined);
    }
}
