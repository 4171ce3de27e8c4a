//! 2016 → 2020 evolution analysis (Tables 3, 4, 5, 7, 8, 9).
//!
//! Joins two measurement datasets site-by-site (on registrable domain —
//! site identity survives across snapshots) and provider-by-provider
//! (on wire identity), then counts the paper's transition categories
//! per rank bucket.

use std::collections::HashMap;
use webdeps_measure::interservice::ProviderMeasurement;
use webdeps_measure::{MeasurementDataset, SiteView};
use webdeps_model::{RankBucket, ServiceKind};
use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};

/// One trend row: a transition label with per-bucket percentages.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Transition label, e.g. `"Pvt to Single 3rd"`.
    pub label: String,
    /// Percentage per cumulative bucket (k = 100 / 1K / 10K / 100K).
    pub per_bucket: [f64; 4],
}

/// A full trend table.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendTable {
    /// Transition rows.
    pub rows: Vec<TrendRow>,
    /// Net critical-dependency change per bucket (percentage points).
    pub critical_delta: [f64; 4],
    /// Joined population per bucket (denominators).
    pub population: [usize; 4],
}

fn bucket_index(bucket: RankBucket) -> usize {
    match bucket {
        RankBucket::Top100 => 0,
        RankBucket::Top1K => 1,
        RankBucket::Top10K => 2,
        RankBucket::Top100K => 3,
    }
}

/// Generic site-level trend computation. `state` extracts a comparable
/// state; `transitions` names the (from, to) pairs of interest as
/// predicates; `in_denominator` decides which joined sites count.
fn site_trends<S: Copy>(
    ds16: &MeasurementDataset,
    ds20: &MeasurementDataset,
    state: impl Fn(SiteView<'_>) -> Option<S>,
    transitions: Vec<(String, Box<dyn Fn(S, S) -> bool>)>,
    critical: impl Fn(S) -> bool,
    // Which joined sites enter the criticality denominator for each
    // year. Tables 3/4 use everything; Table 5 normalizes criticality
    // by the HTTPS population *of that year* (which is why the paper
    // sees "no significant change" despite massive HTTPS adoption).
    crit_denominator: impl Fn(S) -> bool,
) -> TrendTable {
    let mut population = [0usize; 4];
    let mut counts: Vec<[usize; 4]> = vec![[0; 4]; transitions.len()];
    let mut crit16 = [0usize; 4];
    let mut crit20 = [0usize; 4];
    let mut den16 = [0usize; 4];
    let mut den20 = [0usize; 4];

    // Joined on site domain, in 2016 order: trend tables bucket by the
    // 2016 list, like the paper.
    for (i, j) in ds16.join_by_domain(ds20) {
        let s16 = ds16.site(i);
        let (Some(a), Some(b)) = (state(s16), state(ds20.site(j))) else {
            continue;
        };
        for bucket in RankBucket::ALL {
            if !bucket.contains(s16.rank()) {
                continue;
            }
            let bi = bucket_index(bucket);
            population[bi] += 1;
            den16[bi] += crit_denominator(a) as usize;
            den20[bi] += crit_denominator(b) as usize;
            crit16[bi] += critical(a) as usize;
            crit20[bi] += critical(b) as usize;
            for (ti, (_, pred)) in transitions.iter().enumerate() {
                if pred(a, b) {
                    counts[ti][bi] += 1;
                }
            }
        }
    }

    let pct = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let rows = transitions
        .into_iter()
        .enumerate()
        .map(|(ti, (label, _))| TrendRow {
            label,
            per_bucket: std::array::from_fn(|bi| pct(counts[ti][bi], population[bi])),
        })
        .collect();
    TrendTable {
        rows,
        critical_delta: std::array::from_fn(|bi| {
            pct(crit20[bi], den20[bi]) - pct(crit16[bi], den16[bi])
        }),
        population,
    }
}

/// Table 3: website → DNS transitions.
pub fn dns_trends(ds16: &MeasurementDataset, ds20: &MeasurementDataset) -> TrendTable {
    use DepState::*;
    site_trends(
        ds16,
        ds20,
        |s| s.dns_state(),
        vec![
            (
                "Pvt to Single 3rd".into(),
                Box::new(|a: DepState, b: DepState| a == Private && b == SingleThird),
            ),
            (
                "Single Third to Pvt".into(),
                Box::new(|a: DepState, b: DepState| a == SingleThird && b == Private),
            ),
            (
                "Red. to No Red.".into(),
                Box::new(|a: DepState, b: DepState| a.is_redundant() && !b.is_redundant()),
            ),
            (
                "No Red. to Red.".into(),
                Box::new(|a: DepState, b: DepState| !a.is_redundant() && b.is_redundant()),
            ),
        ],
        |s| s.is_critical(),
        |_| true,
    )
}

/// Table 4: website → CDN transitions (denominator: sites using a CDN
/// in either snapshot, per Table 2).
pub fn cdn_trends(ds16: &MeasurementDataset, ds20: &MeasurementDataset) -> TrendTable {
    use CdnProfile::*;
    site_trends(
        ds16,
        ds20,
        |s| s.cdn_state(),
        vec![
            (
                "Pvt to Single 3rd party CDN".into(),
                Box::new(|a: CdnProfile, b: CdnProfile| a == Private && b == SingleThird),
            ),
            (
                "3rd Party CDN to Pvt".into(),
                Box::new(|a: CdnProfile, b: CdnProfile| a == SingleThird && b == Private),
            ),
            (
                "Red. to No Red.".into(),
                Box::new(|a: CdnProfile, b: CdnProfile| a == Multi && b != Multi && b.uses_cdn()),
            ),
            (
                "No Red. to Red.".into(),
                Box::new(|a: CdnProfile, b: CdnProfile| a != Multi && b == Multi),
            ),
            (
                "No CDN to CDN".into(),
                Box::new(|a: CdnProfile, b: CdnProfile| a == None && b.uses_cdn()),
            ),
            (
                "CDN to No CDN".into(),
                Box::new(|a: CdnProfile, b: CdnProfile| a.uses_cdn() && b == None),
            ),
        ],
        |s| s.is_critical(),
        |_| true,
    )
}

/// Table 5: website → CA stapling transitions (denominator: HTTPS
/// sites).
pub fn ca_trends(ds16: &MeasurementDataset, ds20: &MeasurementDataset) -> TrendTable {
    use CaProfile::*;
    site_trends(
        ds16,
        ds20,
        |s| s.ca_state(),
        vec![
            (
                "Stapling to No Stapling".into(),
                Box::new(|a: CaProfile, b: CaProfile| a == ThirdStapled && b == ThirdNoStaple),
            ),
            (
                "No Stapling to Stapling".into(),
                Box::new(|a: CaProfile, b: CaProfile| a == ThirdNoStaple && b == ThirdStapled),
            ),
            (
                "HTTP to HTTPS".into(),
                Box::new(|a: CaProfile, b: CaProfile| a == NoHttps && b.is_https()),
            ),
        ],
        |s| s.is_critical(),
        |s| s.is_https(),
    )
}

/// Provider-level dependency state (Tables 7, 8, 9 vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderDepState {
    /// Does not consume the service at all.
    NoService,
    /// Consumes it in-house.
    Private,
    /// One third party: critical.
    SingleThird,
    /// Third party with redundancy.
    Redundant,
}

/// A provider-level trend table (counts, not percentages — the
/// populations are tens of providers).
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderTrendTable {
    /// (label, count) transition rows.
    pub rows: Vec<(String, usize)>,
    /// Net change in critically dependent providers.
    pub critical_delta: i64,
    /// Providers present in both snapshots.
    pub joined: usize,
}

fn provider_dep_state(pm: &ProviderMeasurement, dep: ServiceKind) -> Option<ProviderDepState> {
    let d = match dep {
        ServiceKind::Dns => pm.dns_dep.as_ref(),
        ServiceKind::Cdn => {
            return Some(match pm.cdn_dep.as_ref() {
                None => ProviderDepState::NoService,
                Some(d) if !d.uses_third => ProviderDepState::Private,
                Some(d) if d.critical => ProviderDepState::SingleThird,
                Some(_) => ProviderDepState::Redundant,
            })
        }
        _ => return None,
    };
    d.map(|d| {
        if !d.uses_third {
            ProviderDepState::Private
        } else if d.critical {
            ProviderDepState::SingleThird
        } else {
            ProviderDepState::Redundant
        }
    })
}

/// Tables 7/8/9: provider-level transitions. `kind` selects the
/// provider population (CA or CDN), `dep` the consumed service (DNS or
/// CDN).
pub fn provider_trends(
    ds16: &MeasurementDataset,
    ds20: &MeasurementDataset,
    kind: ServiceKind,
    dep: ServiceKind,
) -> ProviderTrendTable {
    let by_key: HashMap<&str, &ProviderMeasurement> = ds20
        .providers()
        .iter()
        .filter(|p| p.kind == kind)
        .map(|p| (p.key.as_str(), p))
        .collect();
    let mut joined = 0usize;
    let mut crit16 = 0i64;
    let mut crit20 = 0i64;
    use ProviderDepState::*;
    let transitions: Vec<(&str, fn(ProviderDepState, ProviderDepState) -> bool)> = vec![
        ("Pvt to Single Third Party", |a, b| {
            a == Private && b == SingleThird
        }),
        ("Single Third Party to Pvt", |a, b| {
            a == SingleThird && b == Private
        }),
        ("Redundancy to No Redundancy", |a, b| {
            a == Redundant && b != Redundant && b != NoService
        }),
        ("No Redundancy to Redundancy", |a, b| {
            a != Redundant && a != NoService && b == Redundant
        }),
        ("No Service to Third Party", |a, b| {
            a == NoService && (b == SingleThird || b == Redundant)
        }),
        ("Third Party to No Service", |a, b| {
            (a == SingleThird || a == Redundant) && b == NoService
        }),
    ];
    let mut counts = vec![0usize; transitions.len()];

    for pm16 in ds16.providers().iter().filter(|p| p.kind == kind) {
        let Some(pm20) = by_key.get(pm16.key.as_str()) else {
            continue;
        };
        let (Some(a), Some(b)) = (provider_dep_state(pm16, dep), provider_dep_state(pm20, dep))
        else {
            continue;
        };
        joined += 1;
        crit16 += (a == SingleThird) as i64;
        crit20 += (b == SingleThird) as i64;
        for (i, (_, pred)) in transitions.iter().enumerate() {
            if pred(a, b) {
                counts[i] += 1;
            }
        }
    }

    ProviderTrendTable {
        rows: transitions
            .iter()
            .zip(&counts)
            .map(|((label, _), &c)| (label.to_string(), c))
            .collect(),
        critical_delta: crit20 - crit16,
        joined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_measure::measure_world;
    use webdeps_worldgen::WorldPair;

    fn datasets() -> (MeasurementDataset, MeasurementDataset) {
        let pair = WorldPair::generate(5, 3_000);
        (measure_world(&pair.y2016), measure_world(&pair.y2020))
    }

    #[test]
    fn dns_trends_match_table3_shape() {
        let (ds16, ds20) = datasets();
        let t = dns_trends(&ds16, &ds20);
        assert_eq!(t.rows.len(), 4);
        assert!(t.population[3] > 2_000, "most sites join across snapshots");
        // At small scale only the bulk direction matters: critical
        // dependency increased, Pvt→Single outweighs Single→Pvt.
        let pvt_to_single = &t.rows[0];
        let single_to_pvt = &t.rows[1];
        assert!(
            pvt_to_single.per_bucket[3] > single_to_pvt.per_bucket[3],
            "{:?} vs {:?}",
            pvt_to_single,
            single_to_pvt
        );
        assert!(
            t.critical_delta[3] > 0.0,
            "critical dependency increased: {:?}",
            t.critical_delta
        );
    }

    #[test]
    fn cdn_trends_show_adoption_wave() {
        let (ds16, ds20) = datasets();
        let t = cdn_trends(&ds16, &ds20);
        let adopt = t.rows.iter().find(|r| r.label == "No CDN to CDN").unwrap();
        let drop = t.rows.iter().find(|r| r.label == "CDN to No CDN").unwrap();
        assert!(
            adopt.per_bucket[3] > drop.per_bucket[3],
            "CDN adoption grew: {adopt:?} vs {drop:?}"
        );
    }

    #[test]
    fn ca_trends_show_https_adoption_and_stapling_churn() {
        let (ds16, ds20) = datasets();
        let t = ca_trends(&ds16, &ds20);
        let https = t.rows.iter().find(|r| r.label == "HTTP to HTTPS").unwrap();
        assert!(
            https.per_bucket[3] > 10.0,
            "large HTTPS adoption: {https:?}"
        );
        let to_staple = t
            .rows
            .iter()
            .find(|r| r.label == "No Stapling to Stapling")
            .unwrap();
        let from_staple = t
            .rows
            .iter()
            .find(|r| r.label == "Stapling to No Stapling")
            .unwrap();
        assert!(to_staple.per_bucket[3] > 0.0 && from_staple.per_bucket[3] > 0.0);
    }

    #[test]
    fn provider_trends_reproduce_named_moves() {
        let (ds16, ds20) = datasets();
        // Table 9 (CDN→DNS): critical dependency decreased (Netlify,
        // Kinx adopted redundancy; GoCache went private).
        let t = provider_trends(&ds16, &ds20, ServiceKind::Cdn, ServiceKind::Dns);
        assert!(t.joined > 10);
        assert!(
            t.critical_delta <= 0,
            "CDN→DNS criticality decreased: {t:?}"
        );
        // Table 8 (CA→CDN): Let's Encrypt newly adopted a CDN.
        let t8 = provider_trends(&ds16, &ds20, ServiceKind::Ca, ServiceKind::Cdn);
        let adopt = t8
            .rows
            .iter()
            .find(|(l, _)| l == "No Service to Third Party")
            .unwrap();
        assert!(adopt.1 >= 1, "at least Let's Encrypt adopted a CDN: {t8:?}");
    }
}
