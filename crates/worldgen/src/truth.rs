//! Ground truth.
//!
//! A [`SiteTruth`] is both the *plan* the world builder materializes into
//! zones/certs/pages and the *answer key* the validation harness scores
//! the measurement heuristics against. The measurement pipeline itself
//! must never read these — it sees only the wire.

use crate::profiles::{CaProfile, CdnProfile, DepState};
use webdeps_model::{DomainName, Rank, SiteId};

/// Ground-truth DNS assignment of one site.
#[derive(Debug, Clone)]
pub struct DnsAssignment {
    /// Dependency state.
    pub state: DepState,
    /// Third-party provider names used (catalog names), empty for
    /// private sites.
    pub providers: Vec<String>,
    /// Whether the zone's SOA carries the provider's MNAME/RNAME
    /// (provider-managed) instead of the site's own.
    pub provider_soa: bool,
    /// Whether the site's *private* nameservers live under a separate
    /// alias domain owned by the same entity (the youtube/google-style
    /// TLD-strawman false positive).
    pub alias_ns: bool,
}

/// Ground-truth CDN assignment of one site.
#[derive(Debug, Clone)]
pub struct CdnAssignment {
    /// Dependency state.
    pub state: CdnProfile,
    /// CDN names used (catalog names for third-party; the conglomerate's
    /// private CDN name for [`CdnProfile::Private`]).
    pub cdns: Vec<String>,
}

/// Ground-truth CA assignment of one site.
#[derive(Debug, Clone)]
pub struct CaAssignment {
    /// Dependency state.
    pub state: CaProfile,
    /// Issuing CA name (catalog name, or the conglomerate's private CA).
    pub ca: Option<String>,
}

/// Complete ground truth for one website in one snapshot.
#[derive(Debug, Clone)]
pub struct SiteTruth {
    /// Stable universe index (identity across snapshots).
    pub universe: usize,
    /// Identifier within this snapshot's world.
    pub id: SiteId,
    /// Rank in this snapshot's list.
    pub rank: Rank,
    /// Registrable domain.
    pub domain: DomainName,
    /// Conglomerate membership (index into
    /// [`crate::providers::CONGLOMERATES`]), when the site belongs to a
    /// multi-property organization.
    pub conglomerate: Option<usize>,
    /// DNS assignment.
    pub dns: DnsAssignment,
    /// CDN assignment.
    pub cdn: CdnAssignment,
    /// CA assignment.
    pub ca: CaAssignment,
}

impl SiteTruth {
    /// Whether the site serves HTTPS in this snapshot.
    pub fn https(&self) -> bool {
        self.ca.state.is_https()
    }

    /// The site's row of the public site list.
    pub fn listing(&self) -> SiteListing {
        SiteListing {
            id: self.id,
            rank: self.rank,
            domain: self.domain.clone(),
            document_hosts: self.document_hosts(),
            https: self.https(),
        }
    }

    /// The document hosts a browser would discover, in priority order.
    pub fn document_hosts(&self) -> Vec<DomainName> {
        match self.cdn.state {
            CdnProfile::None => vec![self.domain.clone()],
            CdnProfile::Private | CdnProfile::SingleThird => {
                // lint:allow(panic) — "www" is a valid DNS label by construction
                vec![self.domain.child("www").expect("valid label")]
            }
            CdnProfile::Multi => vec![
                // lint:allow(panic) — "www" and "www2" are valid DNS labels by construction
                self.domain.child("www").expect("valid label"),
                self.domain.child("www2").expect("valid label"),
            ],
        }
    }
}

/// One row of the public site list (the Alexa-equivalent input to the
/// measurement pipeline — wire-discoverable information only).
#[derive(Debug, Clone)]
pub struct SiteListing {
    /// Site identifier.
    pub id: SiteId,
    /// Popularity rank.
    pub rank: Rank,
    /// Registrable domain.
    pub domain: DomainName,
    /// Document endpoints, in the order a browser would discover them.
    pub document_hosts: Vec<DomainName>,
    /// Whether the site answers on HTTPS.
    pub https: bool,
}

/// Full answer key for a generated world.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Per-site truths, indexed by [`SiteId`].
    pub sites: Vec<SiteTruth>,
}

impl GroundTruth {
    /// Truth for one site.
    pub fn site(&self, id: SiteId) -> &SiteTruth {
        &self.sites[id.index()]
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the world is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The public site list (what the measurement pipeline is given).
    pub fn listings(&self) -> Vec<SiteListing> {
        self.sites.iter().map(SiteTruth::listing).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    fn truth(cdn_state: CdnProfile, ca_state: CaProfile) -> SiteTruth {
        SiteTruth {
            universe: 0,
            id: SiteId(0),
            rank: Rank(1),
            domain: dn("site-0.com"),
            conglomerate: None,
            dns: DnsAssignment {
                state: DepState::SingleThird,
                providers: vec!["Cloudflare".into()],
                provider_soa: true,
                alias_ns: false,
            },
            cdn: CdnAssignment {
                state: cdn_state,
                cdns: vec![],
            },
            ca: CaAssignment {
                state: ca_state,
                ca: None,
            },
        }
    }

    #[test]
    fn document_hosts_follow_cdn_state() {
        assert_eq!(
            truth(CdnProfile::None, CaProfile::NoHttps).document_hosts(),
            vec![dn("site-0.com")]
        );
        assert_eq!(
            truth(CdnProfile::SingleThird, CaProfile::NoHttps).document_hosts(),
            vec![dn("www.site-0.com")]
        );
        assert_eq!(
            truth(CdnProfile::Multi, CaProfile::NoHttps).document_hosts(),
            vec![dn("www.site-0.com"), dn("www2.site-0.com")]
        );
    }

    #[test]
    fn listings_expose_only_public_facts() {
        let gt = GroundTruth {
            sites: vec![truth(CdnProfile::None, CaProfile::ThirdNoStaple)],
        };
        let ls = gt.listings();
        assert_eq!(ls.len(), 1);
        assert!(ls[0].https);
        assert_eq!(ls[0].domain, dn("site-0.com"));
        assert!(!gt.is_empty());
        assert_eq!(gt.len(), 1);
    }
}
