//! The assembled PKI.
//!
//! [`Pki`] owns every CA, tracks issued-certificate status (good or
//! revoked), maps responder hostnames back to the CA that operates them,
//! and answers OCSP queries — including injected responder faults.

use crate::ca::CertificateAuthority;
use crate::cert::Certificate;
use crate::crl::Crl;
use crate::ocsp::{CertStatus, OcspFault, OcspResponse};
use std::collections::BTreeMap;
use webdeps_dns::SimTime;
use webdeps_model::{CaId, DomainName, EntityId};

/// How long an OCSP response stays valid (7 days, a typical production
/// window — and the horizon of the GlobalSign outage).
pub const OCSP_VALIDITY_SECS: u64 = 7 * 86_400;

/// Immutable-ish PKI state. Certificate issuance happens at build time;
/// revocations and responder faults can be injected afterwards to
/// replay incidents.
#[derive(Debug, Clone, Default)]
pub struct Pki {
    cas: Vec<CertificateAuthority>,
    /// (issuer, serial) → status.
    status: BTreeMap<(CaId, u64), CertStatus>,
    /// Responder/CRL host → operating CA.
    responder_hosts: BTreeMap<DomainName, CaId>,
    /// Per-CA injected fault.
    faults: BTreeMap<CaId, OcspFault>,
    next_serial: u64,
}

impl Pki {
    /// Starts a builder.
    pub fn builder() -> PkiBuilder {
        PkiBuilder {
            pki: Pki::default(),
        }
    }

    /// Looks up a CA.
    pub fn ca(&self, id: CaId) -> &CertificateAuthority {
        &self.cas[id.index()]
    }

    /// All CAs.
    pub fn cas(&self) -> &[CertificateAuthority] {
        &self.cas
    }

    /// Finds a CA by display name (test/report convenience).
    pub fn ca_by_name(&self, name: &str) -> Option<&CertificateAuthority> {
        self.cas.iter().find(|ca| ca.name == name)
    }

    /// The CA operating a responder or CRL host, if any.
    pub fn ca_for_responder(&self, host: &DomainName) -> Option<CaId> {
        self.responder_hosts.get(host).copied()
    }

    /// The serial the next [`Self::issue`] call will assign. Sharded
    /// world generation predicts serials from this base (plus per-shard
    /// prefix sums), builds certificates off-thread via
    /// [`CertificateAuthority::make_certificate`], and registers them in
    /// shard order through [`Self::register_issued`].
    pub fn next_serial(&self) -> u64 {
        self.next_serial
    }

    /// Registers an externally prepared certificate (see
    /// [`Self::next_serial`]) as issued and `Good`. The serial must be
    /// exactly the next one in sequence — a mismatch means the caller's
    /// serial prediction diverged from actual issuance order.
    pub fn register_issued(&mut self, ca: CaId, serial: u64) {
        assert_eq!(
            serial, self.next_serial,
            "prepared certificate serial out of sequence"
        );
        self.next_serial += 1;
        self.status.insert((ca, serial), CertStatus::Good);
    }

    /// Issues a certificate from `ca` and registers it as `Good`.
    pub fn issue(
        &mut self,
        ca: CaId,
        subject: DomainName,
        san: Vec<DomainName>,
        issued_at: SimTime,
        must_staple: bool,
    ) -> Certificate {
        let serial = self.next_serial;
        self.next_serial += 1;
        let cert =
            self.cas[ca.index()].make_certificate(serial, subject, san, issued_at, must_staple);
        self.status.insert((ca, serial), CertStatus::Good);
        cert
    }

    /// Marks a certificate revoked.
    pub fn revoke(&mut self, ca: CaId, serial: u64) {
        if let Some(s) = self.status.get_mut(&(ca, serial)) {
            *s = CertStatus::Revoked;
        }
    }

    /// Ground-truth status of a certificate.
    pub fn status_of(&self, ca: CaId, serial: u64) -> CertStatus {
        self.status
            .get(&(ca, serial))
            .copied()
            .unwrap_or(CertStatus::Unknown)
    }

    /// Injects a responder fault for a CA (see [`OcspFault`]).
    pub fn inject_fault(&mut self, ca: CaId, fault: OcspFault) {
        self.faults.insert(ca, fault);
    }

    /// Clears an injected fault.
    pub fn clear_fault(&mut self, ca: CaId) {
        self.faults.remove(&ca);
    }

    /// Serves an OCSP query *at the responder itself* (transport-level
    /// reachability of the responder host is the caller's problem —
    /// the web crate models that path, where an outage of the CA's
    /// entity fails the fetch).
    pub fn ocsp_answer(&self, ca: CaId, serial: u64, now: SimTime) -> OcspResponse {
        let status = match self.faults.get(&ca) {
            Some(OcspFault::MarksEverythingRevoked) => CertStatus::Revoked,
            None => self.status_of(ca, serial),
        };
        OcspResponse {
            serial,
            status,
            produced_at: now,
            next_update: now.plus(OCSP_VALIDITY_SECS),
        }
    }

    /// The entity operating a CA (for outage attribution).
    pub fn ca_entity(&self, ca: CaId) -> EntityId {
        self.cas[ca.index()].entity
    }

    /// Serves the CA's current CRL (reachability of the distribution
    /// point is, as for [`Self::ocsp_answer`], the caller's problem).
    /// Under a GlobalSign-style fault the list (mis)includes every
    /// certificate the CA ever issued.
    pub fn crl_for(&self, ca: CaId, now: SimTime) -> Crl {
        let only_revoked = match self.faults.get(&ca) {
            Some(OcspFault::MarksEverythingRevoked) => false,
            None => true,
        };
        Crl {
            issuer: ca,
            revoked: self
                .status
                .iter()
                .filter(|((issuer, _), status)| {
                    *issuer == ca && (!only_revoked || **status == CertStatus::Revoked)
                })
                .map(|((_, serial), _)| *serial)
                .collect(),
            this_update: now,
            next_update: now.plus(OCSP_VALIDITY_SECS),
        }
    }
}

/// Assembles a [`Pki`].
#[derive(Debug)]
pub struct PkiBuilder {
    pki: Pki,
}

impl PkiBuilder {
    /// Registers a CA; its responder and CRL hosts become routable to it.
    pub fn add_ca(
        &mut self,
        name: impl Into<String>,
        entity: EntityId,
        ocsp_hosts: Vec<DomainName>,
        crl_hosts: Vec<DomainName>,
        cert_lifetime: u64,
    ) -> CaId {
        let id = CaId::from_index(self.pki.cas.len());
        for host in ocsp_hosts.iter().chain(crl_hosts.iter()) {
            let prev = self.pki.responder_hosts.insert(host.clone(), id);
            assert!(prev.is_none(), "responder host {host} claimed by two CAs");
        }
        self.pki.cas.push(CertificateAuthority {
            id,
            name: name.into(),
            entity,
            ocsp_hosts,
            crl_hosts,
            cert_lifetime,
        });
        id
    }

    /// Finalizes the PKI.
    pub fn build(self) -> Pki {
        self.pki
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    fn pki() -> (Pki, CaId) {
        let mut b = Pki::builder();
        let ca = b.add_ca(
            "TestCA",
            EntityId(5),
            vec![dn("ocsp.testca.com")],
            vec![dn("crl.testca.com")],
            86_400 * 365,
        );
        (b.build(), ca)
    }

    #[test]
    fn issue_and_query_good_certificate() {
        let (mut pki, ca) = pki();
        let cert = pki.issue(ca, dn("example.com"), vec![], SimTime(0), false);
        assert_eq!(pki.status_of(ca, cert.serial), CertStatus::Good);
        let resp = pki.ocsp_answer(ca, cert.serial, SimTime(10));
        assert_eq!(resp.status, CertStatus::Good);
        assert_eq!(resp.next_update, SimTime(10 + OCSP_VALIDITY_SECS));
    }

    #[test]
    fn revocation_is_reflected() {
        let (mut pki, ca) = pki();
        let cert = pki.issue(ca, dn("example.com"), vec![], SimTime(0), false);
        pki.revoke(ca, cert.serial);
        assert_eq!(
            pki.ocsp_answer(ca, cert.serial, SimTime(1)).status,
            CertStatus::Revoked
        );
    }

    #[test]
    fn unknown_serial_is_unknown() {
        let (pki, ca) = pki();
        assert_eq!(pki.status_of(ca, 999), CertStatus::Unknown);
        assert_eq!(
            pki.ocsp_answer(ca, 999, SimTime(0)).status,
            CertStatus::Unknown
        );
    }

    #[test]
    fn globalsign_style_fault_marks_everything_revoked() {
        let (mut pki, ca) = pki();
        let cert = pki.issue(ca, dn("example.com"), vec![], SimTime(0), false);
        pki.inject_fault(ca, OcspFault::MarksEverythingRevoked);
        let resp = pki.ocsp_answer(ca, cert.serial, SimTime(5));
        assert_eq!(
            resp.status,
            CertStatus::Revoked,
            "fault must override ground truth"
        );
        pki.clear_fault(ca);
        assert_eq!(
            pki.ocsp_answer(ca, cert.serial, SimTime(6)).status,
            CertStatus::Good
        );
    }

    #[test]
    fn crl_reflects_revocations_and_faults() {
        let (mut pki, ca) = pki();
        let a = pki.issue(ca, dn("a.com"), vec![], SimTime(0), false);
        let b = pki.issue(ca, dn("b.com"), vec![], SimTime(0), false);
        pki.revoke(ca, a.serial);
        let crl = pki.crl_for(ca, SimTime(10));
        assert_eq!(crl.status_of(a.serial), CertStatus::Revoked);
        assert_eq!(crl.status_of(b.serial), CertStatus::Good);
        assert_eq!(crl.len(), 1);
        assert_eq!(crl.next_update, SimTime(10 + OCSP_VALIDITY_SECS));
        // GlobalSign-style fault revokes the world.
        pki.inject_fault(ca, OcspFault::MarksEverythingRevoked);
        let bad = pki.crl_for(ca, SimTime(11));
        assert_eq!(bad.len(), 2, "every issued serial appears revoked");
    }

    #[test]
    fn responder_hosts_map_back_to_ca() {
        let (pki, ca) = pki();
        assert_eq!(pki.ca_for_responder(&dn("ocsp.testca.com")), Some(ca));
        assert_eq!(pki.ca_for_responder(&dn("crl.testca.com")), Some(ca));
        assert_eq!(pki.ca_for_responder(&dn("nothing.zz")), None);
        assert_eq!(pki.ca_entity(ca), EntityId(5));
        assert_eq!(pki.ca_by_name("TestCA").unwrap().id, ca);
        assert!(pki.ca_by_name("Nope").is_none());
    }

    #[test]
    #[should_panic(expected = "claimed by two CAs")]
    fn duplicate_responder_host_panics() {
        let mut b = Pki::builder();
        b.add_ca("A", EntityId(0), vec![dn("ocsp.shared.com")], vec![], 1);
        b.add_ca("B", EntityId(1), vec![dn("ocsp.shared.com")], vec![], 1);
    }
}
