//! The HTTP(S) client: Figure 1 as executable code.
//!
//! [`WebClient::fetch`] walks the complete life cycle of a web request:
//! resolve the hostname (iterative DNS with CNAME chasing), route to the
//! webserver owning the answered address, verify the server's operator is
//! up, and — for HTTPS — perform the handshake: certificate validity and
//! hostname coverage, OCSP stapling, and client-side revocation checking
//! via the CA's responder endpoints (themselves fetched through DNS and
//! webservers, which is how CA→DNS and CA→CDN dependencies become
//! *behaviorally* visible).

use crate::server::{WebNetwork, WebServerId};
use crate::url::Url;
use std::fmt;
use std::net::Ipv4Addr;
use webdeps_dns::{FaultPlan, FaultSchedule, ResolveError, Resolver};
use webdeps_model::{DomainName, EntityId};
use webdeps_tls::revocation::{OcspTransport, StatusSource};
use webdeps_tls::{
    Certificate, Endpoint, OcspResponse, Pki, RevocationChecker, RevocationError,
    RevocationOutcome, RevocationPolicy,
};

/// Why a fetch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// Name resolution failed.
    Dns(ResolveError),
    /// Name resolution *timed out*: the nameserver set was alive but
    /// degraded (loss/latency ate every retry). Distinct from
    /// [`Self::Dns`] with [`ResolveError::AllServersDown`] — a drowning
    /// provider and a dead provider call for different mitigations.
    DnsTimeout(ResolveError),
    /// The name resolved but produced no address.
    NoAddress(DomainName),
    /// No webserver exists at the resolved address (world wiring bug).
    NoServer(Ipv4Addr),
    /// The webserver's operator is down.
    ServerDown {
        /// Operator whose outage caused the failure.
        operator: EntityId,
    },
    /// The server does not serve this hostname.
    NoVirtualHost(DomainName),
    /// HTTPS was requested but the host has no TLS configuration.
    TlsNotConfigured(DomainName),
    /// The presented certificate does not cover the hostname or is
    /// outside its validity window.
    CertificateInvalid(DomainName),
    /// Revocation checking aborted the connection.
    Revocation(RevocationError),
}

impl FetchError {
    /// Whether the failure is outage-shaped (would succeed on healthy
    /// infrastructure).
    pub fn is_outage(&self) -> bool {
        match self {
            FetchError::Dns(e) => e.is_outage(),
            FetchError::DnsTimeout(_) => true,
            FetchError::ServerDown { .. } => true,
            FetchError::Revocation(_) => true,
            _ => false,
        }
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Dns(e) => write!(f, "DNS failure: {e}"),
            FetchError::DnsTimeout(e) => write!(f, "DNS degraded (timed out): {e}"),
            FetchError::NoAddress(h) => write!(f, "no address for {h}"),
            FetchError::NoServer(ip) => write!(f, "no webserver at {ip}"),
            FetchError::ServerDown { operator } => {
                write!(f, "webserver down (operator {operator})")
            }
            FetchError::NoVirtualHost(h) => write!(f, "host {h} not served here"),
            FetchError::TlsNotConfigured(h) => write!(f, "no TLS configuration for {h}"),
            FetchError::CertificateInvalid(h) => write!(f, "certificate invalid for {h}"),
            FetchError::Revocation(e) => write!(f, "revocation check failed: {e}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// The TLS-layer result of a successful HTTPS fetch.
#[derive(Debug, Clone)]
pub struct TlsSession {
    /// Certificate the server presented (shared with the vhost config).
    pub certificate: std::sync::Arc<Certificate>,
    /// The stapled OCSP response, when the server staples.
    pub stapled: Option<OcspResponse>,
    /// Outcome of the client's revocation check.
    pub revocation: RevocationOutcome,
}

/// A successful fetch.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// The fetched URL.
    pub url: Url,
    /// Address the request was served from.
    pub ip: Ipv4Addr,
    /// Serving webserver.
    pub server: WebServerId,
    /// CNAME chain traversed during resolution (CDN on-ramp evidence).
    pub cname_chain: Vec<DomainName>,
    /// TLS session details (HTTPS only).
    pub tls: Option<TlsSession>,
    /// The landing page, when the vhost serves a document (shared with
    /// the vhost config — no per-fetch deep copy).
    pub page: Option<std::sync::Arc<crate::resource::Page>>,
    /// Redirect target, when the vhost answers with a redirect. The
    /// TLS handshake (if any) has already completed — redirects are an
    /// HTTP-layer response.
    pub redirect: Option<DomainName>,
}

impl FetchOutcome {
    /// Whether the fetch presented a stapled OCSP response.
    pub fn was_stapled(&self) -> bool {
        self.tls.as_ref().is_some_and(|t| t.stapled.is_some())
    }
}

/// OCSP-over-HTTP transport: resolves the responder host and serves the
/// query from the webserver it lands on, surfacing DNS, CDN, and
/// responder outages as transport failures.
struct NetTransport<'a, 'n> {
    resolver: &'a mut Resolver<'n>,
    web: &'a WebNetwork,
    pki: &'a Pki,
}

impl NetTransport<'_, '_> {
    /// Shared serving-path check: the endpoint's host must resolve, its
    /// webserver's operator must be up, and so must the CA itself (a
    /// CDN-fronted responder only relays what the CA's backend signs).
    fn reach_responder(
        &mut self,
        endpoint: &Endpoint,
        issuer: webdeps_model::CaId,
    ) -> Result<(), ()> {
        let addrs = self
            .resolver
            .resolve_addresses(&endpoint.host)
            .map_err(|_| ())?;
        let &ip = addrs.first().ok_or(())?;
        let server = self.web.server_at(ip).ok_or(())?;
        if !self.resolver.entity_effectively_up(server.operator) {
            return Err(());
        }
        if !self
            .resolver
            .entity_effectively_up(self.pki.ca_entity(issuer))
        {
            return Err(());
        }
        Ok(())
    }
}

impl OcspTransport for NetTransport<'_, '_> {
    fn fetch_ocsp(
        &mut self,
        endpoint: &Endpoint,
        issuer: webdeps_model::CaId,
        serial: u64,
    ) -> Result<OcspResponse, ()> {
        self.reach_responder(endpoint, issuer)?;
        self.resolver.log_pki_consult(issuer);
        Ok(self.pki.ocsp_answer(issuer, serial, self.resolver.now()))
    }

    fn fetch_crl(
        &mut self,
        endpoint: &Endpoint,
        issuer: webdeps_model::CaId,
    ) -> Result<webdeps_tls::Crl, ()> {
        self.reach_responder(endpoint, issuer)?;
        self.resolver.log_pki_consult(issuer);
        Ok(self.pki.crl_for(issuer, self.resolver.now()))
    }
}

/// A simulated browser/client bound to one world.
pub struct WebClient<'n> {
    resolver: Resolver<'n>,
    web: &'n WebNetwork,
    pki: &'n Pki,
    checker: RevocationChecker,
}

impl<'n> WebClient<'n> {
    /// A client with the browser-default soft-fail revocation policy.
    pub fn new(resolver: Resolver<'n>, web: &'n WebNetwork, pki: &'n Pki) -> Self {
        WebClient {
            resolver,
            web,
            pki,
            checker: RevocationChecker::new(RevocationPolicy::SoftFail),
        }
    }

    /// Replaces the revocation policy (outage studies use hard-fail to
    /// expose CA criticality behaviorally).
    pub fn with_policy(mut self, policy: RevocationPolicy) -> Self {
        self.checker = RevocationChecker::new(policy);
        self
    }

    /// Replaces the client's one fault schedule with the static outage
    /// `faults` builds: its entities are down over all time. Like
    /// [`Self::set_schedule`], it replaces whatever schedule was set
    /// before; the two do not combine.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.resolver.set_schedule(faults.into());
    }

    /// Replaces the client's one fault schedule, which every layer this
    /// client touches reads (DNS servers, webservers, OCSP and CRL
    /// responders), at the resolver's clock. It replaces a plan set by
    /// [`Self::set_faults`] too.
    pub fn set_schedule(&mut self, schedule: FaultSchedule) {
        self.resolver.set_schedule(schedule);
    }

    /// Swaps the PKI view while keeping the client's state — resolver
    /// clock, DNS cache, and revocation cache all survive. Incident
    /// replays use this at phase boundaries ("the CA fixed its
    /// responder") so that cache carry-over effects stay visible.
    pub fn set_pki(&mut self, pki: &'n Pki) {
        self.pki = pki;
    }

    /// Read access to the underlying resolver.
    pub fn resolver(&self) -> &Resolver<'n> {
        &self.resolver
    }

    /// Mutable access to the underlying resolver (cache control, time).
    pub fn resolver_mut(&mut self) -> &mut Resolver<'n> {
        &mut self.resolver
    }

    /// Flushes client-side caches (DNS answers and OCSP responses).
    pub fn flush_caches(&mut self) {
        self.resolver.flush_cache();
        self.checker.flush();
    }

    /// Takes the revocation checker (with its response cache) out of the
    /// client — incident replays move a "poisoned" cache between clients
    /// whose PKI views differ.
    pub fn take_checker(self) -> RevocationChecker {
        self.checker
    }

    /// Installs a revocation checker (typically one taken from another
    /// client via [`Self::take_checker`]).
    pub fn set_checker(&mut self, checker: RevocationChecker) {
        self.checker = checker;
    }

    /// Executes the full request life cycle for `url`.
    #[must_use]
    pub fn fetch(&mut self, url: &Url) -> Result<FetchOutcome, FetchError> {
        // 1. DNS — read the (usually cached) resolution in place.
        let (cname_chain, ip) = self
            .resolver
            .resolve_with(&url.host, webdeps_dns::RecordType::A, |res| {
                let first_ip = res.answers.iter().find_map(|rr| rr.data.as_a());
                (res.cname_targets(), first_ip)
            })
            .map_err(|e| match e {
                ResolveError::Timeout { .. } => FetchError::DnsTimeout(e),
                _ => FetchError::Dns(e),
            })?;
        let ip = ip.ok_or_else(|| FetchError::NoAddress(url.host.clone()))?;

        // 2. Routing + server availability.
        let server = self.web.server_at(ip).ok_or(FetchError::NoServer(ip))?;
        if !self.resolver.entity_effectively_up(server.operator) {
            return Err(FetchError::ServerDown {
                operator: server.operator,
            });
        }
        let vhost = self
            .web
            .vhost(&url.host)
            .ok_or_else(|| FetchError::NoVirtualHost(url.host.clone()))?;

        // 3. TLS handshake + revocation (HTTPS only).
        let tls = if url.is_https() {
            let cfg = vhost
                .tls
                .as_ref()
                .ok_or_else(|| FetchError::TlsNotConfigured(url.host.clone()))?;
            let cert = &cfg.certificate;
            let now = self.resolver.now();
            if !cert.covers(&url.host) || !cert.valid_at(now) {
                return Err(FetchError::CertificateInvalid(url.host.clone()));
            }
            // A stapling server staples what the CA answers. An outage
            // of the CA's entity does not reach the staple already held
            // (its validity window outlives short incidents), but a
            // GlobalSign-style bad-response fault *is* faithfully
            // re-stapled — which is why that incident hit stapling sites
            // too. Reading the issuer's answer is a PKI consult.
            let stapled = if cfg.staple {
                self.resolver.log_pki_consult(cert.issuer);
                Some(self.pki.ocsp_answer(cert.issuer, cert.serial, now))
            } else {
                None
            };
            let mark = self.resolver.consult_mark();
            let mut transport = NetTransport {
                resolver: &mut self.resolver,
                web: self.web,
                pki: self.pki,
            };
            let revocation = self
                .checker
                .check(cert, stapled.as_ref(), &mut transport, now)
                .map_err(FetchError::Revocation)?;
            // A soft-fail check that passed fails only by settling
            // `Revoked` from a source it reaches, and an entity outage
            // removes sources without changing what the PKI answers: it
            // still passes, so its entity reads are soft. Its PKI reads
            // stay in the CA log, since a PKI fault can revoke.
            if self.checker.policy() == RevocationPolicy::SoftFail {
                self.resolver.soften_consults_since(mark);
            }
            Some(TlsSession {
                certificate: cert.clone(),
                stapled,
                revocation,
            })
        } else {
            None
        };

        Ok(FetchOutcome {
            url: url.clone(),
            ip,
            server: server.id,
            cname_chain,
            tls,
            page: vhost.page.clone(),
            redirect: vhost.redirect.clone(),
        })
    }

    /// Whether the revocation check of the last session was performed
    /// without touching the network (stapled or cached) — exposed for
    /// tests and incident replays.
    pub fn last_check_was_local(outcome: &FetchOutcome) -> bool {
        matches!(
            outcome.tls.as_ref().map(|t| t.revocation),
            Some(RevocationOutcome::Good(StatusSource::Stapled))
                | Some(RevocationOutcome::Good(StatusSource::Cache))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Page;
    use crate::server::{TlsConfig, VirtualHost};
    use webdeps_dns::record::{RecordData, Soa};
    use webdeps_dns::zone::Zone;
    use webdeps_dns::DnsNetwork;
    use webdeps_model::name::dn;
    use webdeps_model::{CaId, SiteId};
    use webdeps_tls::pki::OCSP_VALIDITY_SECS;
    use webdeps_tls::OcspFault;

    const SITE_ENTITY: EntityId = EntityId(0);
    const CA_ENTITY: EntityId = EntityId(1);

    struct World {
        dns: DnsNetwork,
        web: WebNetwork,
        pki: Pki,
    }

    /// example.com: private DNS + origin; cert from "CA Corp" whose OCSP
    /// responder host is ocsp.ca-corp.com (served by CA's own infra).
    fn world(staple: bool, must_staple: bool) -> World {
        let _ = SiteId(0);
        let mut pki_b = Pki::builder();
        let ca = pki_b.add_ca(
            "CA Corp",
            CA_ENTITY,
            vec![dn("ocsp.ca-corp.com")],
            vec![],
            1 << 40,
        );
        let mut pki = pki_b.build();
        let cert = pki.issue(
            ca,
            dn("example.com"),
            vec![dn("*.example.com")],
            webdeps_dns::SimTime(0),
            must_staple,
        );

        let mut dns_b = DnsNetwork::builder();
        let ns_site = dns_b.add_server(
            dn("ns1.example.com"),
            Ipv4Addr::new(192, 0, 2, 53),
            SITE_ENTITY,
        );
        let ns_ca = dns_b.add_server(
            dn("ns1.ca-corp.com"),
            Ipv4Addr::new(198, 51, 100, 53),
            CA_ENTITY,
        );
        let mut site_zone = Zone::new(
            dn("example.com"),
            Soa::standard(dn("ns1.example.com"), dn("hostmaster.example.com"), 1),
        );
        site_zone.add(dn("example.com"), RecordData::Ns(dn("ns1.example.com")));
        site_zone.add(
            dn("example.com"),
            RecordData::A(Ipv4Addr::new(192, 0, 2, 80)),
        );
        dns_b.add_zone(site_zone, vec![ns_site]);
        let mut ca_zone = Zone::new(
            dn("ca-corp.com"),
            Soa::standard(dn("ns1.ca-corp.com"), dn("hostmaster.ca-corp.com"), 1),
        );
        ca_zone.add(
            dn("ocsp.ca-corp.com"),
            RecordData::A(Ipv4Addr::new(198, 51, 100, 80)),
        );
        dns_b.add_zone(ca_zone, vec![ns_ca]);
        let dns = dns_b.build();

        let mut web_b = WebNetwork::builder();
        web_b.add_server(Ipv4Addr::new(192, 0, 2, 80), SITE_ENTITY);
        web_b.add_server(Ipv4Addr::new(198, 51, 100, 80), CA_ENTITY);
        web_b.set_vhost(
            dn("example.com"),
            VirtualHost {
                tls: Some(TlsConfig {
                    certificate: std::sync::Arc::new(cert),
                    staple,
                }),
                page: Some(std::sync::Arc::new(Page::new())),
                redirect: None,
            },
        );
        web_b.set_vhost(dn("ocsp.ca-corp.com"), VirtualHost::default());
        let web = web_b.build();

        World { dns, web, pki }
    }

    #[test]
    fn https_fetch_happy_path() {
        let w = world(false, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki);
        let out = client.fetch(&Url::https(dn("example.com"))).unwrap();
        assert_eq!(out.ip, Ipv4Addr::new(192, 0, 2, 80));
        let tls = out.tls.as_ref().unwrap();
        assert_eq!(
            tls.revocation,
            RevocationOutcome::Good(StatusSource::Responder)
        );
        assert!(!out.was_stapled());
        assert!(out.page.is_some());
    }

    #[test]
    fn stapled_fetch_never_contacts_responder() {
        let w = world(true, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki);
        // Kill the CA's whole infrastructure: a stapling site survives.
        client.set_faults(FaultPlan::healthy().fail_entity(CA_ENTITY));
        let out = client.fetch(&Url::https(dn("example.com"))).unwrap();
        assert!(out.was_stapled());
        assert_eq!(
            out.tls.unwrap().revocation,
            RevocationOutcome::Good(StatusSource::Stapled)
        );
    }

    #[test]
    fn hardfail_client_dies_with_ca_under_dns_level_outage() {
        let w = world(false, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki)
            .with_policy(RevocationPolicy::HardFail);
        client.set_faults(FaultPlan::healthy().fail_entity(CA_ENTITY));
        let err = client.fetch(&Url::https(dn("example.com"))).unwrap_err();
        assert_eq!(
            err,
            FetchError::Revocation(RevocationError::StatusUnavailable),
            "non-stapling site critically depends on its CA"
        );
        assert!(err.is_outage());
    }

    #[test]
    fn softfail_client_shrugs_off_ca_outage() {
        let w = world(false, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki);
        client.set_faults(FaultPlan::healthy().fail_entity(CA_ENTITY));
        let out = client.fetch(&Url::https(dn("example.com"))).unwrap();
        assert_eq!(
            out.tls.unwrap().revocation,
            RevocationOutcome::AcceptedUnchecked
        );
    }

    #[test]
    fn globalsign_style_incident_kills_even_stapling_sites() {
        let w = world(true, false);
        let mut pki = w.pki.clone();
        let ca = pki.ca_by_name("CA Corp").unwrap().id;
        pki.inject_fault(ca, OcspFault::MarksEverythingRevoked);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &pki);
        let err = client.fetch(&Url::https(dn("example.com"))).unwrap_err();
        assert!(matches!(
            err,
            FetchError::Revocation(RevocationError::Revoked(_))
        ));
    }

    #[test]
    fn pki_reads_are_logged_apart_from_entity_consults() {
        use RevocationPolicy::{HardFail, SoftFail};
        let ca = CaId(0);
        let distinct = |mut v: Vec<EntityId>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        for (case, staple, policy, revoked, entities, soft) in [
            // The staple answers the check: the issuer's fault state is
            // read, its responder (and so its entity) never contacted.
            ("stapled", true, SoftFail, false, vec![SITE_ENTITY], vec![]),
            // A soft-fail check that passed: no outage of the CA entity
            // can fail it, so its consults are soft.
            (
                "soft-fail",
                false,
                SoftFail,
                false,
                vec![SITE_ENTITY],
                vec![CA_ENTITY],
            ),
            // Under hard-fail a CA outage denies the site.
            (
                "hard-fail",
                false,
                HardFail,
                false,
                vec![SITE_ENTITY, CA_ENTITY],
                vec![],
            ),
            // A failed check keeps its consults: a responder outage
            // would turn `Revoked` into an unchecked accept.
            (
                "revoked",
                false,
                SoftFail,
                true,
                vec![SITE_ENTITY, CA_ENTITY],
                vec![],
            ),
        ] {
            let mut w = world(staple, false);
            if revoked {
                let vhost = w.web.vhost(&dn("example.com")).unwrap();
                w.pki
                    .revoke(ca, vhost.tls.as_ref().unwrap().certificate.serial);
            }
            let mut client =
                WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki).with_policy(policy);
            client.resolver_mut().disable_cache();
            client.resolver_mut().record_consults();
            let fetched = client.fetch(&Url::https(dn("example.com")));
            assert_eq!(fetched.is_err(), revoked, "{case}");
            let resolver = client.resolver_mut();
            assert_eq!(distinct(resolver.take_consults()), entities, "{case}");
            assert_eq!(distinct(resolver.take_soft_consults()), soft, "{case}");
            assert_eq!(resolver.take_pki_consults(), vec![ca], "{case}");
        }
    }

    #[test]
    fn http_fetch_skips_tls_entirely() {
        let w = world(false, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki)
            .with_policy(RevocationPolicy::HardFail);
        client.set_faults(FaultPlan::healthy().fail_entity(CA_ENTITY));
        let out = client.fetch(&Url::http(dn("example.com"))).unwrap();
        assert!(out.tls.is_none(), "plain HTTP has no CA dependency");
    }

    #[test]
    fn dns_outage_and_origin_outage_fail_distinctly() {
        let w = world(false, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki);
        client.set_faults(FaultPlan::healthy().fail_entity(SITE_ENTITY));
        match client.fetch(&Url::https(dn("example.com"))) {
            Err(FetchError::Dns(e)) => assert!(e.is_outage()),
            other => panic!("expected DNS outage, got {other:?}"),
        }
    }

    #[test]
    fn wrong_host_and_missing_tls_rejected() {
        let w = world(false, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki);
        assert!(matches!(
            client.fetch(&Url::https(dn("ocsp.ca-corp.com"))),
            Err(FetchError::TlsNotConfigured(_))
        ));
        assert!(matches!(
            client.fetch(&Url::https(dn("missing.example.com"))),
            Err(FetchError::Dns(_))
        ));
    }

    #[test]
    fn expired_certificate_rejected() {
        let w = world(false, false);
        // Build a short-lived-certificate world and advance past expiry.
        let mut pki_b = Pki::builder();
        let ca = pki_b.add_ca(
            "ShortCA",
            CA_ENTITY,
            vec![dn("ocsp.ca-corp.com")],
            vec![],
            10,
        );
        let mut pki = pki_b.build();
        let cert = pki.issue(
            ca,
            dn("example.com"),
            vec![],
            webdeps_dns::SimTime(0),
            false,
        );
        let mut web_b = WebNetwork::builder();
        web_b.add_server(Ipv4Addr::new(192, 0, 2, 80), SITE_ENTITY);
        web_b.set_vhost(
            dn("example.com"),
            VirtualHost {
                tls: Some(TlsConfig {
                    certificate: std::sync::Arc::new(cert),
                    staple: false,
                }),
                page: None,
                redirect: None,
            },
        );
        let web = web_b.build();
        let mut short = WebClient::new(Resolver::new(&w.dns), &web, &pki);
        short.resolver_mut().advance_time(11);
        assert!(matches!(
            short.fetch(&Url::https(dn("example.com"))),
            Err(FetchError::CertificateInvalid(_))
        ));
    }

    #[test]
    fn degraded_dns_maps_to_distinct_timeout_error() {
        use webdeps_dns::fault::Degradation;
        use webdeps_dns::SimTime;
        let w = world(false, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki);
        client.resolver_mut().disable_cache();
        // The site's nameserver answers 5 s late: alive, but slower than
        // any per-attempt timeout — every retry times out.
        client.set_schedule(FaultSchedule::seeded(1).fail_entity_during(
            SITE_ENTITY,
            SimTime(0),
            SimTime(10_000),
            Degradation::Latency { added_ms: 5_000 },
        ));
        let err = client.fetch(&Url::https(dn("example.com"))).unwrap_err();
        assert!(
            matches!(err, FetchError::DnsTimeout(_)),
            "degraded-but-alive must be distinguishable, got {err:?}"
        );
        assert!(err.is_outage());
        // A hard-down plan for the same entity replaces the schedule and
        // fails as SERVFAIL-shaped.
        client.set_faults(FaultPlan::healthy().fail_entity(SITE_ENTITY));
        let err = client.fetch(&Url::https(dn("example.com"))).unwrap_err();
        assert!(matches!(err, FetchError::Dns(_)), "got {err:?}");
    }

    #[test]
    fn schedule_takes_webserver_operator_down_in_window() {
        use webdeps_dns::fault::Degradation;
        use webdeps_dns::SimTime;
        let w = world(false, false);
        // DNS answer cached while healthy; later the *webserver* entity
        // goes hard-down on schedule.
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki);
        client.fetch(&Url::http(dn("example.com"))).unwrap();
        client.set_schedule(FaultSchedule::seeded(1).fail_entity_during(
            SITE_ENTITY,
            SimTime(100),
            SimTime(200),
            Degradation::Down,
        ));
        client.resolver_mut().advance_time(150);
        let err = client.fetch(&Url::http(dn("example.com"))).unwrap_err();
        assert!(
            matches!(err, FetchError::ServerDown { .. }),
            "cached DNS answer routes to a scheduled-down server, got {err:?}"
        );
        client.resolver_mut().advance_time(100);
        assert!(client.fetch(&Url::http(dn("example.com"))).is_ok());
    }

    #[test]
    fn set_pki_swaps_view_but_keeps_caches() {
        let w = world(false, false);
        let mut bad_pki = w.pki.clone();
        let ca = bad_pki.ca_by_name("CA Corp").unwrap().id;
        bad_pki.inject_fault(ca, OcspFault::MarksEverythingRevoked);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &bad_pki)
            .with_policy(RevocationPolicy::HardFail);
        // Poisoned response cached under the bad view…
        assert!(matches!(
            client.fetch(&Url::https(dn("example.com"))),
            Err(FetchError::Revocation(RevocationError::Revoked(_)))
        ));
        // …and the fix (same client, healthy PKI view) does not help
        // until the cached response expires.
        client.set_pki(&w.pki);
        assert!(matches!(
            client.fetch(&Url::https(dn("example.com"))),
            Err(FetchError::Revocation(RevocationError::Revoked(
                StatusSource::Cache
            )))
        ));
        client.resolver_mut().advance_time(OCSP_VALIDITY_SECS + 1);
        client.resolver_mut().flush_cache();
        assert!(client.fetch(&Url::https(dn("example.com"))).is_ok());
    }

    #[test]
    fn ocsp_response_cache_survives_responder_outage() {
        let w = world(false, false);
        let mut client = WebClient::new(Resolver::new(&w.dns), &w.web, &w.pki)
            .with_policy(RevocationPolicy::HardFail);
        let first = client.fetch(&Url::https(dn("example.com"))).unwrap();
        assert!(!WebClient::last_check_was_local(&first));
        // CA infrastructure dies; the cached OCSP response (valid 7
        // days) keeps the hard-fail client working…
        client.set_faults(FaultPlan::healthy().fail_entity(CA_ENTITY));
        let second = client.fetch(&Url::https(dn("example.com"))).unwrap();
        assert!(WebClient::last_check_was_local(&second));
        // …until it expires.
        client.resolver_mut().advance_time(OCSP_VALIDITY_SECS + 1);
        client.resolver_mut().flush_cache(); // DNS cache also expired
        assert!(client.fetch(&Url::https(dn("example.com"))).is_err());
    }
}
