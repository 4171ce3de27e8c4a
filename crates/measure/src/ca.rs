//! Website → CA measurement (§3.2).
//!
//! Extracts OCSP responder and CRL-distribution hosts from the crawled
//! certificate, classifies the CA as private or third-party with the
//! combined heuristic (TLD → SAN → SOA), and records OCSP-stapling
//! support — the paper's criterion for *not* being critically dependent
//! on the CA.

use crate::classify::{
    classify, Authority, Classification, ClassifierKind, DomainTable, Evidence, SiteDomains,
};
use crate::dataset::SiteCaMeasurement;
use webdeps_dns::{Dig, Resolver};
use webdeps_model::{DomainName, ServiceKind};
use webdeps_web::CrawlReport;
use webdeps_worldgen::profiles::CaProfile;

/// Classifies a crawled site's CA dependency against the site's
/// `domains` and SOA authority `site_soa`, reducing the CA host through
/// `table`, passing the (site, CA endpoint) pair's evidence to
/// `on_pair` and classifying it with [`classify`].
pub fn classify_site(
    report: &CrawlReport,
    domains: &SiteDomains,
    site_soa: Option<Authority>,
    resolver: &mut Resolver<'_>,
    table: &mut DomainTable<'_>,
    on_pair: &mut dyn FnMut(ServiceKind, &Evidence<'_>),
) -> SiteCaMeasurement {
    let Some(cert) = &report.certificate else {
        return SiteCaMeasurement {
            https: false,
            state: Some(CaProfile::NoHttps),
            ..SiteCaMeasurement::default()
        };
    };

    let ocsp_hosts: Vec<DomainName> = cert.ocsp_urls.iter().map(|e| e.host.clone()).collect();
    let crl_hosts: Vec<DomainName> = cert.crl_dps.iter().map(|e| e.host.clone()).collect();
    let stapled = report.ocsp_stapled();

    // The CA's identity and classification come from its revocation
    // endpoints (the paper's `ca_url`).
    let Some(ca_host) = ocsp_hosts.first().or_else(|| crl_hosts.first()) else {
        // No revocation endpoints at all: HTTPS without a checkable CA.
        return SiteCaMeasurement {
            https: true,
            ocsp_hosts,
            crl_hosts,
            ca: None,
            stapled,
            state: None,
        };
    };

    let ca_soa = Dig::new(resolver)
        .soa_of(ca_host)
        .ok()
        .map(|soa| table.authority(&soa));
    let ca_domain = table.registrable(ca_host);
    let ev = Evidence {
        site: &report.site,
        candidate: ca_host,
        domains,
        candidate_domain: ca_domain,
        site_soa,
        candidate_soa: ca_soa,
        concentration: None,
        threshold: usize::MAX,
    };
    on_pair(ServiceKind::Ca, &ev);
    let class = classify(ClassifierKind::Combined, &ev);
    let key = table.key(ca_domain, ca_host);

    let state = match class {
        Classification::Private => Some(CaProfile::PrivateCa),
        Classification::ThirdParty => Some(if stapled {
            CaProfile::ThirdStapled
        } else {
            CaProfile::ThirdNoStaple
        }),
        Classification::Unknown => None,
    };

    SiteCaMeasurement {
        https: true,
        ocsp_hosts,
        crl_hosts,
        ca: Some((key, class)),
        stapled,
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_web::Crawler;
    use webdeps_worldgen::{World, WorldConfig};

    fn crawl_one(world: &World, idx: usize) -> (CrawlReport, SiteCaMeasurement) {
        let listing = &world.listings()[idx];
        let mut client = world.client();
        let report = Crawler::crawl(
            &mut client,
            &listing.domain,
            &listing.document_hosts,
            listing.https,
        );
        let mut resolver = world.resolver();
        let mut table = DomainTable::new(&world.psl);
        let site_soa = Dig::new(&mut resolver)
            .soa_of(&report.site)
            .ok()
            .map(|soa| table.authority(&soa));
        let san = report.certificate.as_ref().map(|c| &*c.san);
        let domains = SiteDomains::new(&report.site, san, &mut table);
        let m = classify_site(
            &report,
            &domains,
            site_soa,
            &mut resolver,
            &mut table,
            &mut |_, _| {},
        );
        (report, m)
    }

    #[test]
    fn http_site_has_no_ca_dependency() {
        let world = World::generate(WorldConfig::small(91));
        let idx = world
            .listings()
            .iter()
            .position(|l| !l.https)
            .expect("world contains HTTP sites");
        let (_, m) = crawl_one(&world, idx);
        assert!(!m.https);
        assert_eq!(m.state, Some(CaProfile::NoHttps));
        assert!(m.ca.is_none());
    }

    #[test]
    fn no_https_state_exactly_when_no_certificate() {
        // The dataset derives HTTPS from the CA state; this is the
        // classifier property that makes the derivation exact.
        let world = World::generate(WorldConfig::small(91));
        for i in 0..300 {
            let (report, m) = crawl_one(&world, i);
            assert_eq!(m.https, report.certificate.is_some());
            assert_eq!(m.https, m.state != Some(CaProfile::NoHttps), "site {i}");
        }
    }

    #[test]
    fn third_party_ca_detected_with_stapling_state() {
        let world = World::generate(WorldConfig::small(91));
        let mut found_stapled = false;
        let mut found_nostaple = false;
        for (i, l) in world.listings().iter().enumerate().take(300) {
            if !l.https {
                continue;
            }
            let truth = world.site(l.id);
            let (_, m) = crawl_one(&world, i);
            match truth.ca.state {
                CaProfile::ThirdStapled => {
                    if m.state == Some(CaProfile::ThirdStapled) {
                        found_stapled = true;
                    }
                }
                CaProfile::ThirdNoStaple => {
                    if m.state == Some(CaProfile::ThirdNoStaple) {
                        found_nostaple = true;
                    }
                }
                _ => {}
            }
            if found_stapled && found_nostaple {
                break;
            }
        }
        assert!(found_stapled && found_nostaple);
    }

    #[test]
    fn ca_key_is_its_registrable_domain() {
        let world = World::generate(WorldConfig::small(91));
        for (i, l) in world.listings().iter().enumerate().take(120) {
            if !l.https {
                continue;
            }
            let truth = world.site(l.id);
            if truth.ca.ca.as_deref() == Some("DigiCert") {
                let (_, m) = crawl_one(&world, i);
                let (key, class) = m.ca.expect("CA observed");
                assert_eq!(key.as_str(), "digicert.com");
                assert_eq!(class, Classification::ThirdParty);
                return;
            }
        }
        panic!("no DigiCert site in sample");
    }
}
