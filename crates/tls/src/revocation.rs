//! Client-side revocation checking.
//!
//! Models what a browser does after receiving a certificate: prefer a
//! stapled OCSP response, fall back to querying the responder endpoints
//! from the certificate, cache responses until `next_update`, and apply
//! a soft-fail or hard-fail policy when no status can be obtained. The
//! *critical dependency* finding of the paper lives exactly here: a
//! website without stapling forces every client through the CA's
//! responder, so a responder outage (or a GlobalSign-style
//! misconfiguration, amplified by this very cache) denies the site.

use crate::cert::{Certificate, Endpoint};
use crate::crl::Crl;
use crate::ocsp::{CertStatus, OcspResponse};
use std::collections::HashMap;
use std::fmt;
use webdeps_dns::SimTime;
use webdeps_model::CaId;

/// How the checker obtains OCSP responses over the (simulated) network.
/// Implemented by the web substrate's HTTP client; tests use closures
/// over a [`crate::Pki`].
pub trait OcspTransport {
    /// Fetches the status of `(issuer, serial)` from `endpoint`.
    /// `Err(())` models any transport-level failure (DNS outage, CDN
    /// outage, responder down).
    #[allow(clippy::result_unit_err)]
    fn fetch_ocsp(
        &mut self,
        endpoint: &Endpoint,
        issuer: CaId,
        serial: u64,
    ) -> Result<OcspResponse, ()>;

    /// Downloads the issuer's CRL from a distribution point. The
    /// default declines (closures used as test transports usually only
    /// model OCSP); full clients override it.
    #[allow(clippy::result_unit_err)]
    fn fetch_crl(&mut self, _endpoint: &Endpoint, _issuer: CaId) -> Result<Crl, ()> {
        Err(())
    }
}

impl<F> OcspTransport for F
where
    F: FnMut(&Endpoint, CaId, u64) -> Result<OcspResponse, ()>,
{
    fn fetch_ocsp(
        &mut self,
        endpoint: &Endpoint,
        issuer: CaId,
        serial: u64,
    ) -> Result<OcspResponse, ()> {
        self(endpoint, issuer, serial)
    }
}

/// What to do when no revocation status can be obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RevocationPolicy {
    /// Browser default: proceed without a status (the attack surface
    /// that makes must-staple necessary).
    #[default]
    SoftFail,
    /// Abort the connection without a definitive status.
    HardFail,
    /// Require a fresh stapled response outright — the client never
    /// contacts responders, so it carries *no* dependency on the CA's
    /// OCSP infrastructure. This is the paper's recommended endpoint:
    /// universal stapling removes the CA from the availability-critical
    /// path entirely.
    StapleRequired,
}

/// Where a successful status came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusSource {
    /// Stapled by the webserver.
    Stapled,
    /// Served from the client's response cache.
    Cache,
    /// Fetched live from an OCSP responder.
    Responder,
    /// Looked up in a (possibly cached) CRL.
    Crl,
}

/// Successful check outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevocationOutcome {
    /// Certificate confirmed not revoked.
    Good(StatusSource),
    /// No status could be obtained; the soft-fail policy accepted the
    /// connection anyway.
    AcceptedUnchecked,
}

/// Failed check outcomes (connection aborts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevocationError {
    /// A definitive revoked status was obtained.
    Revoked(StatusSource),
    /// No status could be obtained and the policy is hard-fail.
    StatusUnavailable,
    /// The certificate requires stapling but none was presented.
    MustStapleViolated,
    /// The *client's* policy requires stapling but the server presented
    /// no fresh staple (distinct from [`Self::MustStapleViolated`],
    /// where the certificate itself carries the requirement).
    StapleRequiredByPolicy,
}

impl fmt::Display for RevocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RevocationError::Revoked(src) => write!(f, "certificate revoked (via {src:?})"),
            RevocationError::StatusUnavailable => write!(f, "revocation status unavailable"),
            RevocationError::MustStapleViolated => {
                write!(f, "must-staple certificate without staple")
            }
            RevocationError::StapleRequiredByPolicy => {
                write!(
                    f,
                    "client policy requires stapling; no fresh staple presented"
                )
            }
        }
    }
}

impl std::error::Error for RevocationError {}

/// Stateful revocation checker (one per simulated client).
#[derive(Debug, Clone)]
pub struct RevocationChecker {
    policy: RevocationPolicy,
    cache: HashMap<(CaId, u64), OcspResponse>,
    crl_cache: HashMap<CaId, Crl>,
}

impl Default for RevocationChecker {
    fn default() -> Self {
        RevocationChecker::new(RevocationPolicy::default())
    }
}

impl RevocationChecker {
    /// A checker with the given policy and an empty cache.
    pub fn new(policy: RevocationPolicy) -> Self {
        RevocationChecker {
            policy,
            cache: HashMap::new(),
            crl_cache: HashMap::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RevocationPolicy {
        self.policy
    }

    /// Number of cached OCSP responses.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of cached CRLs.
    pub fn crl_cache_len(&self) -> usize {
        self.crl_cache.len()
    }

    /// Drops all cached responses and lists.
    pub fn flush(&mut self) {
        self.cache.clear();
        self.crl_cache.clear();
    }

    fn settle(
        &self,
        status: CertStatus,
        source: StatusSource,
    ) -> Result<RevocationOutcome, RevocationError> {
        match status {
            CertStatus::Good => Ok(RevocationOutcome::Good(source)),
            CertStatus::Revoked => Err(RevocationError::Revoked(source)),
            // `Unknown` gives no definitive status; policy decides.
            CertStatus::Unknown => match self.policy {
                RevocationPolicy::SoftFail => Ok(RevocationOutcome::AcceptedUnchecked),
                RevocationPolicy::HardFail | RevocationPolicy::StapleRequired => {
                    Err(RevocationError::StatusUnavailable)
                }
            },
        }
    }

    /// Runs the full check for `cert`, optionally presented with a
    /// stapled response, using `transport` for live fetches.
    #[must_use]
    pub fn check(
        &mut self,
        cert: &Certificate,
        stapled: Option<&OcspResponse>,
        transport: &mut dyn OcspTransport,
        now: SimTime,
    ) -> Result<RevocationOutcome, RevocationError> {
        // 1. Stapled response wins when fresh: no network dependency.
        if let Some(response) = stapled {
            if response.fresh_at(now) && response.serial == cert.serial {
                return self.settle(response.status, StatusSource::Stapled);
            }
        }
        if cert.must_staple {
            // RFC 7633: without a (fresh) staple the client must abort;
            // an attacker could otherwise strip the OCSP check.
            return Err(RevocationError::MustStapleViolated);
        }
        if self.policy == RevocationPolicy::StapleRequired {
            // The client refuses to take on the responder dependency at
            // all: no fresh staple, no connection.
            return Err(RevocationError::StapleRequiredByPolicy);
        }

        // 2. Client cache.
        if let Some(cached) = self.cache.get(&(cert.issuer, cert.serial)) {
            if cached.fresh_at(now) {
                return self.settle(cached.status, StatusSource::Cache);
            }
        }

        // 3. Certificates without endpoints cannot be checked at all.
        if !cert.has_revocation_endpoints() {
            return match self.policy {
                RevocationPolicy::SoftFail => Ok(RevocationOutcome::AcceptedUnchecked),
                RevocationPolicy::HardFail | RevocationPolicy::StapleRequired => {
                    Err(RevocationError::StatusUnavailable)
                }
            };
        }

        // 4. Try each OCSP endpoint once.
        for endpoint in &cert.ocsp_urls {
            if let Ok(response) = transport.fetch_ocsp(endpoint, cert.issuer, cert.serial) {
                self.cache
                    .insert((cert.issuer, cert.serial), response.clone());
                return self.settle(response.status, StatusSource::Responder);
            }
        }

        // 5. Fall back to CRL distribution points: a cached fresh list
        // answers locally; otherwise download and cache one.
        if let Some(crl) = self.crl_cache.get(&cert.issuer) {
            if crl.fresh_at(now) {
                return self.settle(crl.status_of(cert.serial), StatusSource::Crl);
            }
        }
        for endpoint in &cert.crl_dps {
            if let Ok(crl) = transport.fetch_crl(endpoint, cert.issuer) {
                let status = crl.status_of(cert.serial);
                self.crl_cache.insert(cert.issuer, crl);
                return self.settle(status, StatusSource::Crl);
            }
        }

        // 6. Nothing reachable.
        match self.policy {
            RevocationPolicy::SoftFail => Ok(RevocationOutcome::AcceptedUnchecked),
            RevocationPolicy::HardFail | RevocationPolicy::StapleRequired => {
                Err(RevocationError::StatusUnavailable)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crl::Crl;
    use crate::ocsp::OcspFault;
    use crate::pki::{Pki, OCSP_VALIDITY_SECS};
    use webdeps_model::name::dn;
    use webdeps_model::EntityId;

    fn pki_with_cert(must_staple: bool) -> (Pki, Certificate) {
        let mut b = Pki::builder();
        let ca = b.add_ca(
            "CA",
            EntityId(0),
            vec![dn("ocsp.ca.com")],
            vec![dn("crl.ca.com")],
            1 << 30,
        );
        let mut pki = b.build();
        let cert = pki.issue(ca, dn("example.com"), vec![], SimTime(0), must_staple);
        (pki, cert)
    }

    /// Transport that serves straight from the PKI oracle at a fixed time.
    fn oracle(
        pki: &Pki,
        now: SimTime,
    ) -> impl FnMut(&Endpoint, CaId, u64) -> Result<OcspResponse, ()> + '_ {
        move |_, ca, serial| Ok(pki.ocsp_answer(ca, serial, now))
    }

    #[test]
    fn live_fetch_good_then_cached() {
        let (pki, cert) = pki_with_cert(false);
        let mut checker = RevocationChecker::new(RevocationPolicy::SoftFail);
        let out = checker
            .check(&cert, None, &mut oracle(&pki, SimTime(0)), SimTime(0))
            .unwrap();
        assert_eq!(out, RevocationOutcome::Good(StatusSource::Responder));
        // Second check must come from cache even with a dead transport.
        let mut dead = |_: &Endpoint, _: CaId, _: u64| Err(());
        let out = checker.check(&cert, None, &mut dead, SimTime(10)).unwrap();
        assert_eq!(out, RevocationOutcome::Good(StatusSource::Cache));
        assert_eq!(checker.cache_len(), 1);
    }

    #[test]
    fn stapled_response_bypasses_network() {
        let (pki, cert) = pki_with_cert(false);
        let staple = pki.ocsp_answer(cert.issuer, cert.serial, SimTime(0));
        let mut checker = RevocationChecker::new(RevocationPolicy::SoftFail);
        let mut dead = |_: &Endpoint, _: CaId, _: u64| Err(());
        let out = checker
            .check(&cert, Some(&staple), &mut dead, SimTime(5))
            .unwrap();
        assert_eq!(out, RevocationOutcome::Good(StatusSource::Stapled));
    }

    #[test]
    fn stale_staple_falls_through_to_network() {
        let (pki, cert) = pki_with_cert(false);
        let staple = pki.ocsp_answer(cert.issuer, cert.serial, SimTime(0));
        let later = SimTime(OCSP_VALIDITY_SECS + 1);
        let mut checker = RevocationChecker::new(RevocationPolicy::SoftFail);
        let out = checker
            .check(&cert, Some(&staple), &mut oracle(&pki, later), later)
            .unwrap();
        assert_eq!(out, RevocationOutcome::Good(StatusSource::Responder));
    }

    #[test]
    fn revoked_certificate_rejected() {
        let (mut pki, cert) = pki_with_cert(false);
        pki.revoke(cert.issuer, cert.serial);
        let mut checker = RevocationChecker::new(RevocationPolicy::SoftFail);
        let err = checker
            .check(&cert, None, &mut oracle(&pki, SimTime(0)), SimTime(0))
            .unwrap_err();
        assert_eq!(err, RevocationError::Revoked(StatusSource::Responder));
    }

    #[test]
    fn soft_fail_accepts_unreachable_responder_hard_fail_rejects() {
        let (_, cert) = pki_with_cert(false);
        // Every fetch fails, as when the CA's entity is down.
        let mut dead = |_: &Endpoint, _: CaId, _: u64| Err(());
        let mut soft = RevocationChecker::new(RevocationPolicy::SoftFail);
        let out = soft.check(&cert, None, &mut dead, SimTime(0)).unwrap();
        assert_eq!(out, RevocationOutcome::AcceptedUnchecked);

        let mut hard = RevocationChecker::new(RevocationPolicy::HardFail);
        let err = hard.check(&cert, None, &mut dead, SimTime(0)).unwrap_err();
        assert_eq!(err, RevocationError::StatusUnavailable);
    }

    #[test]
    fn must_staple_without_staple_aborts_even_soft_fail() {
        let (pki, cert) = pki_with_cert(true);
        let mut checker = RevocationChecker::new(RevocationPolicy::SoftFail);
        let err = checker
            .check(&cert, None, &mut oracle(&pki, SimTime(0)), SimTime(0))
            .unwrap_err();
        assert_eq!(err, RevocationError::MustStapleViolated);
    }

    #[test]
    fn staple_required_policy_severs_the_responder_dependency() {
        let (pki, cert) = pki_with_cert(false);
        let mut checker = RevocationChecker::new(RevocationPolicy::StapleRequired);
        // With a fresh staple the check passes without touching any
        // transport at all.
        let staple = pki.ocsp_answer(cert.issuer, cert.serial, SimTime(0));
        let mut untouchable = |_: &Endpoint, _: CaId, _: u64| panic!("no fetch expected");
        let out = checker
            .check(&cert, Some(&staple), &mut untouchable, SimTime(0))
            .unwrap();
        assert_eq!(out, RevocationOutcome::Good(StatusSource::Stapled));
        // Without one the connection aborts — even though the responder
        // is perfectly healthy.
        let err = checker
            .check(&cert, None, &mut oracle(&pki, SimTime(0)), SimTime(0))
            .unwrap_err();
        assert_eq!(err, RevocationError::StapleRequiredByPolicy);
        // A stale staple is no staple.
        let later = SimTime(OCSP_VALIDITY_SECS + 1);
        let err = checker
            .check(&cert, Some(&staple), &mut oracle(&pki, later), later)
            .unwrap_err();
        assert_eq!(err, RevocationError::StapleRequiredByPolicy);
    }

    #[test]
    fn globalsign_incident_replay_cache_extends_the_outage() {
        // 1. Client checks a perfectly good cert while the responder is
        //    misconfigured → revoked response gets cached.
        let (mut pki, cert) = pki_with_cert(false);
        pki.inject_fault(cert.issuer, OcspFault::MarksEverythingRevoked);
        let mut checker = RevocationChecker::new(RevocationPolicy::SoftFail);
        let err = checker
            .check(&cert, None, &mut oracle(&pki, SimTime(0)), SimTime(0))
            .unwrap_err();
        assert_eq!(err, RevocationError::Revoked(StatusSource::Responder));

        // 2. The CA fixes the misconfiguration…
        pki.clear_fault(cert.issuer);

        // 3. …but the client keeps rejecting from cache for the rest of
        //    the response validity window (the "persisted for over a
        //    week" effect).
        let one_day = SimTime(86_400);
        let err = checker
            .check(&cert, None, &mut oracle(&pki, one_day), one_day)
            .unwrap_err();
        assert_eq!(err, RevocationError::Revoked(StatusSource::Cache));

        // 4. After next_update the client re-fetches and recovers.
        let after = SimTime(OCSP_VALIDITY_SECS + 1);
        let out = checker
            .check(&cert, None, &mut oracle(&pki, after), after)
            .unwrap();
        assert_eq!(out, RevocationOutcome::Good(StatusSource::Responder));
    }

    /// Transport serving CRLs but no OCSP (responder down, CDP alive).
    struct CrlOnly<'a> {
        pki: &'a Pki,
        now: SimTime,
    }

    impl OcspTransport for CrlOnly<'_> {
        fn fetch_ocsp(&mut self, _: &Endpoint, _: CaId, _: u64) -> Result<OcspResponse, ()> {
            Err(())
        }
        fn fetch_crl(&mut self, _: &Endpoint, issuer: CaId) -> Result<Crl, ()> {
            Ok(self.pki.crl_for(issuer, self.now))
        }
    }

    #[test]
    fn crl_fallback_when_ocsp_unreachable() {
        let (mut pki, cert) = pki_with_cert(false);
        let other = pki.issue(cert.issuer, dn("other.com"), vec![], SimTime(0), false);
        pki.revoke(cert.issuer, other.serial);
        let mut checker = RevocationChecker::new(RevocationPolicy::HardFail);
        let mut transport = CrlOnly {
            pki: &pki,
            now: SimTime(0),
        };
        // Good cert passes via the CRL…
        let out = checker
            .check(&cert, None, &mut transport, SimTime(0))
            .unwrap();
        assert_eq!(out, RevocationOutcome::Good(StatusSource::Crl));
        assert_eq!(checker.crl_cache_len(), 1);
        // …and the revoked one is caught by the same (now cached) list.
        let err = checker
            .check(&other, None, &mut transport, SimTime(5))
            .unwrap_err();
        assert_eq!(err, RevocationError::Revoked(StatusSource::Crl));
    }

    #[test]
    fn cached_crl_answers_without_transport() {
        let (pki, cert) = pki_with_cert(false);
        let mut checker = RevocationChecker::new(RevocationPolicy::HardFail);
        let mut transport = CrlOnly {
            pki: &pki,
            now: SimTime(0),
        };
        checker
            .check(&cert, None, &mut transport, SimTime(0))
            .unwrap();
        // All transports dead: the cached CRL still answers…
        let mut dead = |_: &Endpoint, _: CaId, _: u64| Err(());
        let out = checker
            .check(&cert, None, &mut dead, SimTime(86_400))
            .unwrap();
        assert_eq!(out, RevocationOutcome::Good(StatusSource::Crl));
        // …until its validity window lapses.
        let later = SimTime(OCSP_VALIDITY_SECS + 1);
        let err = checker.check(&cert, None, &mut dead, later).unwrap_err();
        assert_eq!(err, RevocationError::StatusUnavailable);
        checker.flush();
        assert_eq!(checker.crl_cache_len(), 0);
    }

    #[test]
    fn no_endpoints_means_no_check() {
        let (_, mut cert) = pki_with_cert(false);
        cert.ocsp_urls.clear();
        cert.crl_dps.clear();
        let mut dead = |_: &Endpoint, _: CaId, _: u64| panic!("no fetch expected");
        let mut checker = RevocationChecker::new(RevocationPolicy::SoftFail);
        let out = checker.check(&cert, None, &mut dead, SimTime(0)).unwrap();
        assert_eq!(out, RevocationOutcome::AcceptedUnchecked);
    }
}
