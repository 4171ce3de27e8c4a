//! Per-site classifier results.
//!
//! Everything in here is *inferred from the wire* — provider identities
//! are registrable domains of observed infrastructure (`dnsmadeeasy.com`,
//! `akamaiedge.net`), never catalog names, because the pipeline has no
//! access to ground truth. The pipeline packs these per-site results
//! into the columns of [`crate::MeasurementDataset`] as each site is
//! classified.

use crate::classify::Classification;
use webdeps_model::DomainName;
use webdeps_worldgen::profiles::{CaProfile, CdnProfile, DepState};

/// Wire-inferred provider identity: the registrable domain of the
/// provider's observed infrastructure.
///
/// Backed by a shared string, so cloning a key (the per-site hot path
/// tallies keys into several maps) bumps a refcount instead of copying
/// the domain. The derived comparisons and hash all delegate to the
/// string content, so equal keys behave identically whether or not they
/// share an allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderKey(std::sync::Arc<str>);

impl ProviderKey {
    /// Builds a key from a registrable domain.
    pub fn new(domain: impl Into<std::sync::Arc<str>>) -> Self {
        ProviderKey(domain.into())
    }

    /// The key as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ProviderKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One nameserver pair observation.
#[derive(Debug, Clone)]
pub struct NsPair {
    /// The nameserver host.
    pub host: DomainName,
    /// Classification of the (site, nameserver) pair.
    pub class: Classification,
    /// Entity group the host was merged into (index into
    /// [`SiteDnsMeasurement::groups`]).
    pub group: usize,
}

/// One grouped nameserver entity for a site.
#[derive(Debug, Clone)]
pub struct NsGroup {
    /// Inferred identity (min registrable domain of members).
    pub key: ProviderKey,
    /// Combined classification of the group.
    pub class: Classification,
}

/// DNS measurement of one site (§3.1).
#[derive(Debug, Clone, Default)]
pub struct SiteDnsMeasurement {
    /// Raw (site, nameserver) observations.
    pub pairs: Vec<NsPair>,
    /// Entity groups after TLD/SOA-MNAME/SOA-RNAME merging.
    pub groups: Vec<NsGroup>,
    /// Inferred dependency state; `None` when any pair stayed
    /// unclassified (the site is excluded, §3.1's 18%).
    pub state: Option<DepState>,
}

impl SiteDnsMeasurement {
    /// Third-party provider keys (distinct groups classified third).
    pub fn third_parties(&self) -> impl Iterator<Item = &ProviderKey> {
        self.groups
            .iter()
            .filter(|g| g.class == Classification::ThirdParty)
            .map(|g| &g.key)
    }

    /// Whether the site was successfully characterized.
    pub fn characterized(&self) -> bool {
        self.state.is_some()
    }
}

/// One CDN detected on a site's internal resources.
#[derive(Debug, Clone)]
pub struct DetectedCdn {
    /// Inferred identity: the registrable domain of the matched
    /// CNAME-map suffix.
    pub key: ProviderKey,
    /// Classification of the (site, CDN) pair; private evidence from
    /// any witness wins.
    pub class: Classification,
    /// The chain host of the first internal resource that matched the
    /// CDN: the name the inter-service stage probes it at.
    pub witness: DomainName,
}

/// CDN measurement of one site (§3.3).
#[derive(Debug, Clone, Default)]
pub struct SiteCdnMeasurement {
    /// Distinct CDNs detected on internal resources, in detection
    /// order.
    pub cdns: Vec<DetectedCdn>,
    /// Inferred dependency state; `None` when the site uses a CDN that
    /// could not be classified.
    pub state: Option<CdnProfile>,
}

impl SiteCdnMeasurement {
    /// Whether any CDN was detected.
    pub fn uses_cdn(&self) -> bool {
        !self.cdns.is_empty()
    }

    /// Third-party CDN keys.
    pub fn third_parties(&self) -> impl Iterator<Item = &ProviderKey> {
        self.cdns
            .iter()
            .filter(|c| c.class == Classification::ThirdParty)
            .map(|c| &c.key)
    }
}

/// CA measurement of one site (§3.2).
#[derive(Debug, Clone, Default)]
pub struct SiteCaMeasurement {
    /// Whether the site answered on HTTPS.
    pub https: bool,
    /// OCSP responder hosts from the certificate.
    pub ocsp_hosts: Vec<DomainName>,
    /// CRL distribution hosts from the certificate.
    pub crl_hosts: Vec<DomainName>,
    /// Inferred CA identity + classification.
    pub ca: Option<(ProviderKey, Classification)>,
    /// Whether a stapled OCSP response was presented.
    pub stapled: bool,
    /// Inferred dependency state.
    pub state: Option<CaProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_key_display() {
        let k = ProviderKey::new("dnsmadeeasy.com");
        assert_eq!(k.to_string(), "dnsmadeeasy.com");
        assert_eq!(k.as_str(), "dnsmadeeasy.com");
    }

    #[test]
    fn dns_measurement_helpers() {
        let m = SiteDnsMeasurement {
            pairs: vec![],
            groups: vec![
                NsGroup {
                    key: ProviderKey::new("dyn.com"),
                    class: Classification::ThirdParty,
                },
                NsGroup {
                    key: ProviderKey::new("self.com"),
                    class: Classification::Private,
                },
            ],
            state: Some(DepState::PrivatePlusThird),
        };
        assert!(m.characterized());
        assert_eq!(m.third_parties().count(), 1);
    }

    #[test]
    fn cdn_measurement_helpers() {
        let mut m = SiteCdnMeasurement::default();
        assert!(!m.uses_cdn());
        let cdn = |key: &str, class| DetectedCdn {
            key: ProviderKey::new(key),
            class,
            witness: webdeps_model::name::dn(&format!("edge.{key}")),
        };
        m.cdns
            .push(cdn("akamaiedge.net", Classification::ThirdParty));
        m.cdns.push(cdn("own-cdn.net", Classification::Private));
        assert!(m.uses_cdn());
        assert_eq!(m.third_parties().count(), 1);
    }
}
