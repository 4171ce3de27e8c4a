//! The headless crawler.
//!
//! Mirrors the paper's PhantomJS pass: fetch a site's landing page,
//! "render" it by fetching every referenced object, and record for each
//! object the serving hostname and the CNAME chain its resolution
//! traversed. The resulting [`CrawlReport`] is the raw material of the
//! CDN and CA measurements — the pipeline never sees the world's ground
//! truth, only what a browser at the vantage point could see.

use crate::client::{FetchError, WebClient};
use crate::resource::ResourceKind;
use crate::url::{Scheme, Url};
use webdeps_model::DomainName;
use webdeps_tls::{Certificate, OcspResponse};

/// One object load attempt during a crawl.
#[derive(Debug, Clone)]
pub struct LoadedResource {
    /// Hostname the object was requested from.
    pub host: DomainName,
    /// Object kind.
    pub kind: ResourceKind,
    /// CNAME chain traversed while resolving `host` (empty when the
    /// host answered directly).
    pub cname_chain: Vec<DomainName>,
    /// Whether the object loaded successfully.
    pub ok: bool,
}

/// Everything a single-site crawl observed.
#[derive(Debug, Clone)]
pub struct CrawlReport {
    /// The site's registrable domain (what was asked to be crawled).
    pub site: DomainName,
    /// The document host that answered, when any did.
    pub document_host: Option<DomainName>,
    /// CNAME chain of the document host itself.
    pub document_chain: Vec<DomainName>,
    /// Whether the document was fetched over HTTPS.
    pub https: bool,
    /// Certificate presented for the document, when HTTPS (shared with
    /// the serving vhost's configuration).
    pub certificate: Option<std::sync::Arc<Certificate>>,
    /// Stapled OCSP response presented with the certificate.
    pub stapled: Option<OcspResponse>,
    /// Every object referenced by the landing page.
    pub resources: Vec<LoadedResource>,
    /// Errors for document hosts that failed before one answered.
    pub document_errors: Vec<(DomainName, FetchError)>,
}

impl CrawlReport {
    /// Whether the site was reachable at crawl time.
    pub fn reachable(&self) -> bool {
        self.document_host.is_some()
    }

    /// Whether the document presented a stapled OCSP response.
    pub fn ocsp_stapled(&self) -> bool {
        self.stapled.is_some()
    }

    /// Distinct hostnames serving at least one object (including the
    /// document host) — the paper's "hostnames that serve at least one
    /// object on the page".
    pub fn hostnames(&self) -> Vec<DomainName> {
        let mut hosts: Vec<DomainName> = self
            .document_host
            .iter()
            .cloned()
            .chain(self.resources.iter().map(|r| r.host.clone()))
            .collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }

    /// CNAME chain observed for a given hostname, when recorded.
    pub fn chain_of(&self, host: &DomainName) -> Option<&[DomainName]> {
        if self.document_host.as_ref() == Some(host) {
            return Some(&self.document_chain);
        }
        self.resources
            .iter()
            .find(|r| &r.host == host)
            .map(|r| r.cname_chain.as_slice())
    }
}

/// Drives [`WebClient`]s through site crawls.
pub struct Crawler;

impl Crawler {
    /// Crawls one site. `document_hosts` are the site's published
    /// document endpoints in priority order (multi-CDN sites list one
    /// per on-ramp; the crawler, like a browser, takes the first that
    /// works). `https` selects the scheme for the whole crawl.
    pub fn crawl(
        client: &mut WebClient<'_>,
        site: &DomainName,
        document_hosts: &[DomainName],
        https: bool,
    ) -> CrawlReport {
        let scheme = if https { Scheme::Https } else { Scheme::Http };
        let mut report = CrawlReport {
            site: site.clone(),
            document_host: None,
            document_chain: Vec::new(),
            https,
            certificate: None,
            stapled: None,
            resources: Vec::new(),
            document_errors: Vec::new(),
        };

        // 1. Find a working document endpoint, following redirects like
        //    a browser (example.com → www.example.com), three hops max.
        let mut page = None;
        'hosts: for host in document_hosts {
            let mut current = host.clone();
            for _hop in 0..3 {
                let url = Url {
                    scheme,
                    host: current.clone(),
                    path: crate::url::root_path(),
                };
                match client.fetch(&url) {
                    Ok(outcome) => {
                        // The outcome is owned: move its pieces into the
                        // report instead of cloning them (pages and
                        // certificates are the crawl's largest values).
                        if let Some(target) = outcome.redirect {
                            current = target;
                            continue;
                        }
                        report.document_chain = outcome.cname_chain;
                        if let Some(tls) = outcome.tls {
                            report.certificate = Some(tls.certificate);
                            report.stapled = tls.stapled;
                        }
                        page = outcome.page;
                        report.document_host = Some(current);
                        break 'hosts;
                    }
                    Err(e) => {
                        report.document_errors.push((current, e));
                        continue 'hosts;
                    }
                }
            }
        }

        // 2. Render: fetch every referenced object.
        if let Some(page) = page {
            report.resources.reserve_exact(page.resources.len());
            for res in &page.resources {
                let outcome = client.fetch(&res.url);
                let (chain, ok) = match outcome {
                    Ok(o) => (o.cname_chain, true),
                    Err(_) => (Vec::new(), false),
                };
                report.resources.push(LoadedResource {
                    host: res.url.host.clone(),
                    kind: res.kind,
                    cname_chain: chain,
                    ok,
                });
            }
        }

        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{Page, Resource};
    use crate::server::{VirtualHost, WebNetwork};
    use std::net::Ipv4Addr;
    use webdeps_dns::record::{RecordData, Soa};
    use webdeps_dns::zone::Zone;
    use webdeps_dns::{DnsNetwork, FaultPlan, Resolver};
    use webdeps_model::name::dn;
    use webdeps_model::EntityId;
    use webdeps_tls::Pki;

    const SITE: EntityId = EntityId(0);
    const CDN: EntityId = EntityId(1);

    /// shop.com (HTTP only for brevity): document on own origin, one
    /// image served via a CDN on-ramp (CNAME to edgeco.net).
    fn world() -> (DnsNetwork, WebNetwork, Pki) {
        let mut dns_b = DnsNetwork::builder();
        let ns_site = dns_b.add_server(dn("ns1.shop.com"), Ipv4Addr::new(192, 0, 2, 53), SITE);
        let ns_cdn = dns_b.add_server(dn("ns1.edgeco.net"), Ipv4Addr::new(203, 0, 113, 53), CDN);

        let mut site = Zone::new(
            dn("shop.com"),
            Soa::standard(dn("ns1.shop.com"), dn("hostmaster.shop.com"), 1),
        );
        site.add(dn("shop.com"), RecordData::Ns(dn("ns1.shop.com")));
        site.add(dn("shop.com"), RecordData::A(Ipv4Addr::new(192, 0, 2, 80)));
        site.add(
            dn("img.shop.com"),
            RecordData::Cname(dn("cust-7.edgeco.net")),
        );
        dns_b.add_zone(site, vec![ns_site]);

        let mut edge = Zone::new(
            dn("edgeco.net"),
            Soa::standard(dn("ns1.edgeco.net"), dn("ops.edgeco.net"), 1),
        );
        edge.add(
            dn("cust-7.edgeco.net"),
            RecordData::A(Ipv4Addr::new(203, 0, 113, 80)),
        );
        dns_b.add_zone(edge, vec![ns_cdn]);
        let dns = dns_b.build();

        let mut web_b = WebNetwork::builder();
        web_b.add_server(Ipv4Addr::new(192, 0, 2, 80), SITE);
        web_b.add_server(Ipv4Addr::new(203, 0, 113, 80), CDN);
        let page = Page::new(vec![
            Resource::new(
                Url::http(dn("img.shop.com")).with_path("logo.png"),
                ResourceKind::Image,
            ),
            Resource::new(
                Url::http(dn("shop.com")).with_path("app.js"),
                ResourceKind::Script,
            ),
        ]);
        web_b.set_vhost(
            dn("shop.com"),
            VirtualHost {
                tls: None,
                page: Some(std::sync::Arc::new(page)),
                redirect: None,
            },
        );
        web_b.set_vhost(dn("img.shop.com"), VirtualHost::default());
        let web = web_b.build();

        (dns, web, Pki::builder().build())
    }

    #[test]
    fn crawl_records_hosts_and_chains() {
        let (dns, web, pki) = world();
        let mut client = WebClient::new(Resolver::new(&dns), &web, &pki);
        let report = Crawler::crawl(&mut client, &dn("shop.com"), &[dn("shop.com")], false);
        assert!(report.reachable());
        assert_eq!(report.document_host, Some(dn("shop.com")));
        assert_eq!(report.hostnames(), vec![dn("img.shop.com"), dn("shop.com")]);
        assert_eq!(
            report.chain_of(&dn("img.shop.com")).unwrap(),
            &[dn("cust-7.edgeco.net")],
            "the CDN on-ramp must be visible in the chain"
        );
        assert!(report.resources.iter().all(|r| r.ok));
        assert!(!report.ocsp_stapled());
    }

    #[test]
    fn cdn_outage_breaks_resources_not_document() {
        let (dns, web, pki) = world();
        let mut client = WebClient::new(Resolver::new(&dns), &web, &pki);
        client.set_faults(FaultPlan::healthy().fail_entity(CDN));
        let report = Crawler::crawl(&mut client, &dn("shop.com"), &[dn("shop.com")], false);
        assert!(report.reachable());
        let img = report
            .resources
            .iter()
            .find(|r| r.host == dn("img.shop.com"))
            .unwrap();
        assert!(!img.ok, "CDN-served object must fail");
        let js = report
            .resources
            .iter()
            .find(|r| r.host == dn("shop.com"))
            .unwrap();
        assert!(js.ok, "origin-served object must survive");
    }

    #[test]
    fn redirects_are_followed_to_the_document() {
        let (dns, web, pki) = world();
        // Rebuild the web plane with an apex redirect onto a host that
        // serves the page.
        let mut b = WebNetwork::builder();
        b.add_server(Ipv4Addr::new(192, 0, 2, 80), SITE);
        b.add_server(Ipv4Addr::new(203, 0, 113, 80), CDN);
        let page = web.vhost(&dn("shop.com")).unwrap().page.clone();
        b.set_vhost(
            dn("shop.com"),
            VirtualHost {
                tls: None,
                page: None,
                redirect: Some(dn("img.shop.com")),
            },
        );
        b.set_vhost(
            dn("img.shop.com"),
            VirtualHost {
                tls: None,
                page,
                redirect: None,
            },
        );
        let web2 = b.build();
        let mut client = WebClient::new(Resolver::new(&dns), &web2, &pki);
        let report = Crawler::crawl(&mut client, &dn("shop.com"), &[dn("shop.com")], false);
        assert!(report.reachable());
        assert_eq!(
            report.document_host,
            Some(dn("img.shop.com")),
            "redirect followed"
        );
        assert!(
            !report.resources.is_empty(),
            "page fetched at the redirect target"
        );
    }

    #[test]
    fn redirect_loops_terminate() {
        let (dns, _, pki) = world();
        let mut b = WebNetwork::builder();
        b.add_server(Ipv4Addr::new(192, 0, 2, 80), SITE);
        b.add_server(Ipv4Addr::new(203, 0, 113, 80), CDN);
        b.set_vhost(
            dn("shop.com"),
            VirtualHost {
                tls: None,
                page: None,
                redirect: Some(dn("shop.com")),
            },
        );
        let web2 = b.build();
        let mut client = WebClient::new(Resolver::new(&dns), &web2, &pki);
        let report = Crawler::crawl(&mut client, &dn("shop.com"), &[dn("shop.com")], false);
        assert!(!report.reachable(), "self-redirect must not loop forever");
    }

    #[test]
    fn document_failover_to_second_host() {
        let (dns, web, pki) = world();
        let mut client = WebClient::new(Resolver::new(&dns), &web, &pki);
        let report = Crawler::crawl(
            &mut client,
            &dn("shop.com"),
            &[dn("down.shop.com"), dn("shop.com")],
            false,
        );
        assert!(report.reachable());
        assert_eq!(report.document_host, Some(dn("shop.com")));
        assert_eq!(report.document_errors.len(), 1);
    }

    #[test]
    fn unreachable_site_reports_errors() {
        let (dns, web, pki) = world();
        let mut client = WebClient::new(Resolver::new(&dns), &web, &pki);
        client.set_faults(FaultPlan::healthy().fail_entity(SITE));
        let report = Crawler::crawl(&mut client, &dn("shop.com"), &[dn("shop.com")], false);
        assert!(!report.reachable());
        assert!(report.hostnames().is_empty());
        assert_eq!(report.document_errors.len(), 1);
    }
}
