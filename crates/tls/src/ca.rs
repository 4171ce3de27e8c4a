//! Certificate authorities.

use crate::cert::{Certificate, Endpoint};
use std::sync::Arc;
use webdeps_dns::SimTime;
use webdeps_model::{CaId, DomainName, EntityId};

/// One certificate authority: an organization operating OCSP responders
/// and CRL distribution points.
///
/// The *hostnames* of those endpoints are load-bearing: the paper's
/// CA→DNS and CA→CDN dependency measurements resolve and classify them
/// exactly as they do website hostnames.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    /// Identifier within the PKI.
    pub id: CaId,
    /// Display name, e.g. `"DigiCert"`.
    pub name: String,
    /// Owning organization.
    pub entity: EntityId,
    /// OCSP responder endpoints embedded into issued certificates
    /// (each certificate shares this list).
    pub ocsp_urls: Arc<[Endpoint]>,
    /// CRL distribution points embedded into issued certificates (each
    /// certificate shares this list).
    pub crl_dps: Arc<[Endpoint]>,
    /// Default certificate lifetime in seconds (Let's Encrypt: 90 days;
    /// commercial CAs: ~1 year).
    pub cert_lifetime: u64,
}

impl CertificateAuthority {
    /// Assembles the certificate this CA would issue for `subject` with
    /// the given SAN list (stored exact-size, the subject first when
    /// `san` lacks it). `serial` uniqueness is the PKI's job.
    pub fn make_certificate(
        &self,
        serial: u64,
        subject: DomainName,
        mut san: Vec<DomainName>,
        issued_at: SimTime,
        must_staple: bool,
    ) -> Certificate {
        if !san.contains(&subject) {
            san.insert(0, subject.clone());
        }
        Certificate {
            serial,
            subject,
            san: san.into_boxed_slice(),
            issuer: self.id,
            not_before: issued_at,
            not_after: issued_at.plus(self.cert_lifetime),
            ocsp_urls: self.ocsp_urls.clone(),
            crl_dps: self.crl_dps.clone(),
            must_staple,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    fn ca() -> CertificateAuthority {
        CertificateAuthority {
            id: CaId(3),
            name: "TestCA".into(),
            entity: EntityId(11),
            ocsp_urls: [Endpoint::at_root(dn("ocsp.testca.com"))].into(),
            crl_dps: [Endpoint::new(dn("crl.testca.com"), "/testca.crl")].into(),
            cert_lifetime: 90 * 86_400,
        }
    }

    #[test]
    fn issuance_fills_endpoints_and_validity() {
        let cert = ca().make_certificate(
            1,
            dn("example.com"),
            vec![dn("*.example.com")],
            SimTime(1_000),
            false,
        );
        assert_eq!(cert.issuer, CaId(3));
        assert_eq!(
            cert.san[0],
            dn("example.com"),
            "subject is prepended to SAN"
        );
        assert!(cert.covers(&dn("shop.example.com")));
        assert_eq!(cert.ocsp_urls[0].host, dn("ocsp.testca.com"));
        assert_eq!(cert.crl_dps[0].path, "/testca.crl");
        assert_eq!(cert.san.len(), 2);
        assert_eq!(cert.not_after, SimTime(1_000 + 90 * 86_400));
    }

    #[test]
    fn subject_not_duplicated_in_san() {
        let cert = ca().make_certificate(
            2,
            dn("example.com"),
            vec![dn("example.com"), dn("www.example.com")],
            SimTime(0),
            true,
        );
        assert_eq!(
            cert.san.iter().filter(|d| **d == dn("example.com")).count(),
            1
        );
        assert!(cert.must_staple);
    }
}
