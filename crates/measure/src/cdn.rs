//! Website → CDN measurement (§3.3).
//!
//! From a crawl report: identify *internal* resources (registrable-
//! domain match or SAN evidence — the yimg/yahoo case), follow their
//! CNAME chains, match against the self-populated CNAME-to-CDN map, and
//! classify each detected (site, CDN) pair as private or third-party.
//! External resources (fonts, ads, widgets) are deliberately ignored no
//! matter how CDN-flavoured their chains look.

use crate::classify::{
    classify, provider_key, san_covers, Classification, ClassifierKind, Evidence,
};
use crate::dataset::{ProviderKey, SiteCdnMeasurement};
use std::collections::HashMap;
use webdeps_dns::{Dig, Resolver, Soa};
use webdeps_model::{DomainName, PublicSuffixList, ServiceKind};
use webdeps_web::{CnameToCdnMap, CrawlReport};
use webdeps_worldgen::profiles::CdnProfile;

/// Whether a page resource host is *internal* to the site: same
/// registrable domain, or covered by the site certificate's SAN list.
pub fn is_internal(
    site: &DomainName,
    host: &DomainName,
    san: Option<&[DomainName]>,
    psl: &PublicSuffixList,
) -> bool {
    psl.same_registrable_domain(site, host) || san.is_some_and(|san| san_covers(san, host, psl))
}

/// Classifies a crawled site's CDN usage against the site's SOA
/// `site_soa`, passing each (site, CNAME witness) pair's evidence to
/// `on_pair` and classifying it with [`classify`].
pub fn classify_site(
    report: &CrawlReport,
    site_soa: Option<&Soa>,
    cname_map: &CnameToCdnMap,
    resolver: &mut Resolver<'_>,
    psl: &PublicSuffixList,
    on_pair: &mut dyn FnMut(ServiceKind, &Evidence<'_>),
) -> SiteCdnMeasurement {
    let san = report.certificate.as_ref().map(|c| &*c.san);

    // Distinct (cdn key) → (classification, witness cname).
    let mut detected: HashMap<ProviderKey, Classification> = HashMap::new();
    let mut order: Vec<ProviderKey> = Vec::new();

    for host in report.hostnames() {
        if !is_internal(&report.site, &host, san, psl) {
            continue;
        }
        let Some(chain) = report.chain_of(&host) else {
            continue;
        };
        let Some((suffix, _, witness)) = cname_map.classify_chain_detailed(chain.iter()) else {
            continue;
        };
        let key = provider_key(suffix, psl);

        let witness_soa = Dig::new(resolver).soa_of(witness).ok();
        let ev = Evidence {
            site: &report.site,
            candidate: witness,
            san,
            site_soa,
            candidate_soa: witness_soa.as_ref(),
            concentration: None,
            threshold: usize::MAX,
        };
        on_pair(ServiceKind::Cdn, &ev);
        let class = classify(ClassifierKind::Combined, &ev, psl);
        match detected.entry(key.clone()) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(class);
                order.push(key);
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                // Private evidence for any witness identifies the owner.
                if class == Classification::Private {
                    o.insert(class);
                }
            }
        }
    }

    let cdns: Vec<(ProviderKey, Classification)> = order
        .into_iter()
        .map(|k| (k.clone(), detected[&k]))
        .collect();

    let state = if cdns.is_empty() {
        Some(CdnProfile::None)
    } else if cdns.iter().any(|(_, c)| *c == Classification::Unknown) {
        None
    } else {
        let third = cdns
            .iter()
            .filter(|(_, c)| *c == Classification::ThirdParty)
            .count();
        Some(match third {
            0 => CdnProfile::Private,
            1 => CdnProfile::SingleThird,
            _ => CdnProfile::Multi,
        })
    };

    SiteCdnMeasurement { cdns, state }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;
    use webdeps_web::Crawler;
    use webdeps_worldgen::{World, WorldConfig};

    #[test]
    fn internal_detection_rules() {
        let psl = PublicSuffixList::builtin();
        let site = dn("shop.com");
        let san = vec![dn("shop.com"), dn("*.shopimg.net")];
        for (host, san, internal) in [
            ("static.shop.com", None, true),
            ("static.fontserve.com", None, false),
            ("a.shopimg.net", Some(san.as_slice()), true),
            ("a.shopimg.net", None, false),
        ] {
            assert_eq!(
                is_internal(&site, &dn(host), san, &psl),
                internal,
                "{host} with SAN {san:?}"
            );
        }
    }

    fn measure(world: &World, idx: usize) -> SiteCdnMeasurement {
        let listing = &world.listings()[idx];
        let mut client = world.client();
        let report = Crawler::crawl(
            &mut client,
            &listing.domain,
            &listing.document_hosts,
            listing.https,
        );
        let mut resolver = world.resolver();
        let site_soa = Dig::new(&mut resolver).soa_of(&report.site).ok();
        classify_site(
            &report,
            site_soa.as_ref(),
            &world.cname_map,
            &mut resolver,
            &world.psl,
            &mut |_, _| {},
        )
    }

    #[test]
    fn none_state_exactly_when_no_cdn_detected() {
        // The dataset derives CDN use from the CDN state; this is the
        // classifier property that makes the derivation exact.
        let world = World::generate(WorldConfig::small(51));
        for idx in 0..200 {
            let m = measure(&world, idx);
            assert_eq!(
                m.uses_cdn(),
                m.state != Some(CdnProfile::None),
                "site {idx}"
            );
        }
    }

    #[test]
    fn single_cdn_site_detected_as_critical() {
        let world = World::generate(WorldConfig::small(51));
        let idx = world
            .truth
            .sites
            .iter()
            .position(|s| s.cdn.state == CdnProfile::SingleThird && s.https())
            .expect("world has single-CDN sites");
        let m = measure(&world, idx);
        assert_eq!(m.state, Some(CdnProfile::SingleThird), "cdns: {:?}", m.cdns);
        assert_eq!(m.cdns.len(), 1);
    }

    #[test]
    fn multi_cdn_site_detected_as_redundant() {
        let world = World::generate(WorldConfig::small(51));
        let idx = world
            .truth
            .sites
            .iter()
            .position(|s| s.cdn.state == CdnProfile::Multi && s.https())
            .expect("world has multi-CDN sites");
        let m = measure(&world, idx);
        assert_eq!(m.state, Some(CdnProfile::Multi), "cdns: {:?}", m.cdns);
        assert!(m.cdns.len() >= 2);
    }

    #[test]
    fn no_cdn_site_not_polluted_by_external_resources() {
        let world = World::generate(WorldConfig::small(51));
        // Every generated page references external content hosts that sit
        // on CDNs; none of them may produce a (site, CDN) pair.
        let idx = world
            .truth
            .sites
            .iter()
            .position(|s| s.cdn.state == CdnProfile::None && s.https())
            .expect("world has CDN-free sites");
        let m = measure(&world, idx);
        assert_eq!(m.state, Some(CdnProfile::None));
        assert!(m.cdns.is_empty());
    }

    #[test]
    fn private_cdn_recognized_via_san() {
        let world = World::generate(WorldConfig::small(51));
        let idx = world
            .truth
            .sites
            .iter()
            .position(|s| s.cdn.state == CdnProfile::Private && s.https());
        let Some(idx) = idx else {
            // Small worlds may not draw a private-CDN site; skip silently
            // (covered at pipeline scale).
            return;
        };
        let m = measure(&world, idx);
        assert_eq!(m.state, Some(CdnProfile::Private), "cdns: {:?}", m.cdns);
    }
}
