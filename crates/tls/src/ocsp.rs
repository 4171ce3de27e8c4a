//! OCSP responses and responder failure modes.

use webdeps_dns::SimTime;

/// Revocation status of a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertStatus {
    /// Not revoked.
    Good,
    /// Revoked by the issuer.
    Revoked,
    /// The responder does not know the certificate.
    Unknown,
}

/// A signed OCSP response (modulo the crypto, which the analysis never
/// inspects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcspResponse {
    /// Serial of the certificate the response covers.
    pub serial: u64,
    /// Asserted status.
    pub status: CertStatus,
    /// Production time.
    pub produced_at: SimTime,
    /// End of the response's validity window — clients may cache the
    /// response until then, which is why the GlobalSign misconfiguration
    /// outlived its server-side fix by days.
    pub next_update: SimTime,
}

impl OcspResponse {
    /// Whether the response is still usable at `now`.
    pub fn fresh_at(&self, now: SimTime) -> bool {
        now < self.next_update
    }
}

/// Injected responder misbehavior, per CA: what the CA *answers*. An
/// unreachable responder is an outage of the CA's entity in the fault
/// schedule instead, which fails every OCSP and CRL fetch and leaves
/// staples alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OcspFault {
    /// The GlobalSign-2016 failure: the responder answers, but marks
    /// *every* certificate revoked.
    MarksEverythingRevoked,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freshness_window() {
        let r = OcspResponse {
            serial: 1,
            status: CertStatus::Good,
            produced_at: SimTime(0),
            next_update: SimTime(3600),
        };
        assert!(r.fresh_at(SimTime(0)));
        assert!(r.fresh_at(SimTime(3599)));
        assert!(!r.fresh_at(SimTime(3600)));
    }
}
