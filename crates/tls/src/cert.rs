//! Certificates and the endpoints embedded in them.

use std::sync::Arc;
use webdeps_dns::SimTime;
use webdeps_model::{CaId, DomainName};

/// A host + path pair, as found in a certificate's Authority Information
/// Access (OCSP) and CRL-distribution-point extensions. Only the *host*
/// matters to the dependency analysis — it is what gets classified as a
/// private or third-party CA address.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Server hostname, e.g. `ocsp.digicert.com`.
    pub host: DomainName,
    /// Path component, e.g. `/`.
    pub path: String,
}

impl Endpoint {
    /// Builds an endpoint with a root path.
    pub fn at_root(host: DomainName) -> Self {
        Endpoint {
            host,
            path: "/".to_string(),
        }
    }

    /// Builds an endpoint with an explicit path.
    pub fn new(host: DomainName, path: impl Into<String>) -> Self {
        Endpoint {
            host,
            path: path.into(),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http://{}{}", self.host, self.path)
    }
}

/// An issued certificate, carrying exactly the fields the measurement
/// pipeline reads from real certificates.
///
/// Every certificate of a CA embeds the same endpoints, so the two
/// endpoint lists are the issuing CA's own (shared, built once when the
/// CA is registered); the SAN list is exact-size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Primary subject common name.
    pub subject: DomainName,
    /// Subject alternative names. Always includes the subject; wildcard
    /// entries are allowed. The SAN list is a key input to the paper's
    /// same-entity heuristics.
    pub san: Box<[DomainName]>,
    /// Issuing certificate authority.
    pub issuer: CaId,
    /// Start of validity.
    pub not_before: SimTime,
    /// End of validity.
    pub not_after: SimTime,
    /// OCSP responder endpoints (Authority Information Access), shared
    /// with the issuing CA.
    pub ocsp_urls: Arc<[Endpoint]>,
    /// CRL distribution points, shared with the issuing CA.
    pub crl_dps: Arc<[Endpoint]>,
    /// Whether the certificate carries the TLS-feature/must-staple
    /// extension (RFC 7633).
    pub must_staple: bool,
}

impl Certificate {
    /// Whether `host` is covered by this certificate (exact or wildcard
    /// SAN match).
    pub fn covers(&self, host: &DomainName) -> bool {
        self.san.iter().any(|pattern| host.matches(pattern))
    }

    /// Whether the certificate is within its validity window at `now`.
    pub fn valid_at(&self, now: SimTime) -> bool {
        self.not_before <= now && now < self.not_after
    }

    /// Whether the certificate offers any revocation-checking endpoint
    /// at all (certificates without OCSP/CRL cannot be checked and thus
    /// create no CA dependency at serving time).
    pub fn has_revocation_endpoints(&self) -> bool {
        !self.ocsp_urls.is_empty() || !self.crl_dps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    fn cert() -> Certificate {
        Certificate {
            serial: 7,
            subject: dn("example.com"),
            san: [dn("example.com"), dn("*.example.com")].into(),
            issuer: CaId(0),
            not_before: SimTime(100),
            not_after: SimTime(1_000),
            ocsp_urls: [Endpoint::at_root(dn("ocsp.ca-corp.com"))].into(),
            crl_dps: [Endpoint::new(dn("crl.ca-corp.com"), "/r1.crl")].into(),
            must_staple: false,
        }
    }

    #[test]
    fn san_coverage_includes_wildcards() {
        let c = cert();
        assert!(c.covers(&dn("example.com")));
        assert!(c.covers(&dn("www.example.com")));
        assert!(
            !c.covers(&dn("a.b.example.com")),
            "wildcard is single-label"
        );
        assert!(!c.covers(&dn("other.com")));
    }

    #[test]
    fn validity_window_is_half_open() {
        let c = cert();
        assert!(!c.valid_at(SimTime(99)));
        assert!(c.valid_at(SimTime(100)));
        assert!(c.valid_at(SimTime(999)));
        assert!(!c.valid_at(SimTime(1_000)));
    }

    #[test]
    fn endpoint_display_and_revocation_presence() {
        let c = cert();
        assert!(c.has_revocation_endpoints());
        assert_eq!(c.ocsp_urls[0].to_string(), "http://ocsp.ca-corp.com/");
        let mut bare = cert();
        bare.ocsp_urls = Arc::new([]);
        bare.crl_dps = Arc::new([]);
        assert!(!bare.has_revocation_endpoints());
    }
}
