//! Third-party classification heuristics (§3.1–§3.3).
//!
//! Three strategies over the same wire-visible [`Evidence`]:
//!
//! * [`ClassifierKind::TldOnly`] — the prior-work strawman: same
//!   registrable domain ⇒ private, else third party.
//! * [`ClassifierKind::SoaOnly`] — the other strawman: mismatching SOA
//!   authority ⇒ third party, matching ⇒ private.
//! * [`ClassifierKind::Combined`] — the paper's heuristic: TLD match,
//!   then certificate SAN evidence, then SOA mismatch, then (for DNS
//!   only) the concentration-≥-threshold rule; anything left is
//!   `Unknown` and excluded from analysis.
//!
//! [`classify`] is the one classifier: every service's
//! `classify_site`, the inter-service probes and validation decide
//! through it. A separate transcription of the same rules lives in
//! `tests/report_oracles.rs` as the oracle it is held to.

use crate::dataset::ProviderKey;
use webdeps_dns::Soa;
use webdeps_model::{DomainName, PublicSuffixList};

/// Outcome of classifying one (site, candidate-host) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Classification {
    /// The candidate belongs to the site's own organization.
    Private,
    /// The candidate is operated by a third party.
    ThirdParty,
    /// The heuristic could not decide; the pair is excluded.
    Unknown,
}

/// Which strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// Registrable-domain matching only.
    TldOnly,
    /// SOA-authority matching only.
    SoaOnly,
    /// The paper's combined heuristic.
    Combined,
}

impl ClassifierKind {
    /// All strategies, for the validation sweep.
    pub const ALL: [ClassifierKind; 3] = [
        ClassifierKind::TldOnly,
        ClassifierKind::SoaOnly,
        ClassifierKind::Combined,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ClassifierKind::TldOnly => "TLD matching",
            ClassifierKind::SoaOnly => "SOA matching",
            ClassifierKind::Combined => "combined heuristic",
        }
    }
}

/// Wire-visible evidence about one (site, candidate) pair.
#[derive(Debug, Clone)]
pub struct Evidence<'a> {
    /// The website's registrable domain.
    pub site: &'a DomainName,
    /// The candidate host being classified (nameserver, OCSP/CRL host,
    /// or CDN CNAME).
    pub candidate: &'a DomainName,
    /// SAN list from the site's certificate, when it serves HTTPS.
    pub san: Option<&'a [DomainName]>,
    /// SOA of the site's zone, when resolvable.
    pub site_soa: Option<&'a Soa>,
    /// SOA of the candidate's zone, when resolvable.
    pub candidate_soa: Option<&'a Soa>,
    /// How many sites in the dataset use the candidate's registrable
    /// domain (the concentration rule input; `None` outside the DNS
    /// measurement).
    pub concentration: Option<usize>,
    /// Concentration threshold (50 at the paper's 100K scale).
    pub threshold: usize,
}

/// Provider key for `name`: its registrable domain, or the name itself
/// when it has none (the convention every measurement uses for
/// wire-inferred identities).
pub fn provider_key(name: &DomainName, psl: &PublicSuffixList) -> ProviderKey {
    ProviderKey::new(psl.registrable_str(name).unwrap_or(name.as_str()))
}

/// Whether two SOAs denote the same administrative authority: matching
/// MNAME or RNAME registrable domains (the paper's §3.1 grouping rule).
pub fn soa_same_authority(a: &Soa, b: &Soa, psl: &PublicSuffixList) -> bool {
    psl.same_registrable_domain(&a.mname, &b.mname)
        || psl.same_registrable_domain(&a.rname, &b.rname)
}

/// Whether the SAN list covers the candidate's registrable domain ("all
/// TLDs present in the SAN list belong to the same logical entity",
/// §3.1).
pub fn san_covers(san: &[DomainName], candidate: &DomainName, psl: &PublicSuffixList) -> bool {
    let Some(cand_reg) = psl.registrable_str(candidate) else {
        return false;
    };
    san.iter()
        .any(|entry| psl.registrable_str(entry) == Some(cand_reg))
}

/// Runs a strategy over evidence: the §3 classifier.
///
/// Every heuristic rule bottoms out in "what is this hostname's
/// registrable domain?", which the [`PublicSuffixList`]'s compiled
/// suffix table answers without allocating, so nothing is remembered
/// between calls. Results are pinned identical to a separate
/// transcription by `cached_classify_matches_uncached` in
/// `tests/report_oracles.rs`.
///
/// ```
/// use webdeps_measure::classify::classify;
/// use webdeps_measure::{Classification, ClassifierKind, Evidence};
/// use webdeps_model::{name::dn, PublicSuffixList};
/// let psl = PublicSuffixList::builtin();
/// let site = dn("example.com");
/// let ns = dn("ns1.dynect.net");
/// let ev = Evidence {
///     site: &site, candidate: &ns, san: None,
///     site_soa: None, candidate_soa: None,
///     concentration: Some(120), threshold: 50,
/// };
/// assert_eq!(
///     classify(ClassifierKind::Combined, &ev, &psl),
///     Classification::ThirdParty
/// );
/// ```
pub fn classify(kind: ClassifierKind, ev: &Evidence<'_>, psl: &PublicSuffixList) -> Classification {
    match kind {
        ClassifierKind::TldOnly => {
            if psl.same_registrable_domain(ev.site, ev.candidate) {
                Classification::Private
            } else {
                Classification::ThirdParty
            }
        }
        ClassifierKind::SoaOnly => match (ev.site_soa, ev.candidate_soa) {
            (Some(a), Some(b)) => {
                if soa_same_authority(a, b, psl) {
                    Classification::Private
                } else {
                    Classification::ThirdParty
                }
            }
            _ => Classification::Unknown,
        },
        ClassifierKind::Combined => {
            // Rule 1: registrable-domain match ⇒ private.
            if psl.same_registrable_domain(ev.site, ev.candidate) {
                return Classification::Private;
            }
            // Rule 2: candidate's domain appears in the site's SAN
            // list ⇒ same logical entity ⇒ private.
            if let Some(san) = ev.san {
                if san_covers(san, ev.candidate, psl) {
                    return Classification::Private;
                }
            }
            // Rule 3: differing SOA authorities ⇒ third party.
            if let (Some(a), Some(b)) = (ev.site_soa, ev.candidate_soa) {
                if !soa_same_authority(a, b, psl) {
                    return Classification::ThirdParty;
                }
            }
            // Rule 4 (DNS only): widely shared infrastructure is a
            // third-party provider even when it manages the SOA.
            if let Some(c) = ev.concentration {
                if c >= ev.threshold {
                    return Classification::ThirdParty;
                }
            }
            Classification::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    fn soa(mname: &str, rname: &str) -> Soa {
        Soa::standard(dn(mname), dn(rname), 1)
    }

    fn base_ev<'a>(site: &'a DomainName, candidate: &'a DomainName) -> Evidence<'a> {
        Evidence {
            site,
            candidate,
            san: None,
            site_soa: None,
            candidate_soa: None,
            concentration: None,
            threshold: 50,
        }
    }

    #[test]
    fn tld_only_straightforward() {
        let psl = PublicSuffixList::builtin();
        let site = dn("example.com");
        let own = dn("ns1.example.com");
        let other = dn("ns1.dynect.net");
        assert_eq!(
            classify(ClassifierKind::TldOnly, &base_ev(&site, &own), &psl),
            Classification::Private
        );
        assert_eq!(
            classify(ClassifierKind::TldOnly, &base_ev(&site, &other), &psl),
            Classification::ThirdParty
        );
    }

    #[test]
    fn soa_only_follows_authority() {
        let psl = PublicSuffixList::builtin();
        let site = dn("example.com");
        let ns = dn("ns1.dynect.net");
        let site_soa = soa("ns1.example.com", "hostmaster.example.com");
        let provider_soa = soa("ns1.dynect.net", "hostmaster.dynect.net");
        let mut ev = base_ev(&site, &ns);
        ev.site_soa = Some(&site_soa);
        ev.candidate_soa = Some(&provider_soa);
        assert_eq!(
            classify(ClassifierKind::SoaOnly, &ev, &psl),
            Classification::ThirdParty
        );
        // Provider-managed site SOA makes the strawman call it private.
        let managed = soa("ns1.dynect.net", "hostmaster.dynect.net");
        ev.site_soa = Some(&managed);
        assert_eq!(
            classify(ClassifierKind::SoaOnly, &ev, &psl),
            Classification::Private
        );
        ev.candidate_soa = None;
        assert_eq!(
            classify(ClassifierKind::SoaOnly, &ev, &psl),
            Classification::Unknown
        );
    }

    #[test]
    fn combined_rule_order() {
        let psl = PublicSuffixList::builtin();
        let site = dn("ytube.com");
        let alias_ns = dn("ns1.googol.com");
        // Rule 2: SAN rescues the alias-domain private case that TLD
        // matching gets wrong.
        let san = vec![dn("ytube.com"), dn("*.googol.com")];
        let mut ev = base_ev(&site, &alias_ns);
        ev.san = Some(&san);
        assert_eq!(
            classify(ClassifierKind::Combined, &ev, &psl),
            Classification::Private
        );
        assert_eq!(
            classify(ClassifierKind::TldOnly, &ev, &psl),
            Classification::ThirdParty,
            "the strawman misfires on alias domains"
        );
    }

    #[test]
    fn combined_soa_mismatch_then_concentration() {
        let psl = PublicSuffixList::builtin();
        let site = dn("shop.net");
        let ns = dn("ns1.bigdns.com");
        let site_soa = soa("ns1.shop.net", "hostmaster.shop.net");
        let ns_soa = soa("ns1.bigdns.com", "hostmaster.bigdns.com");
        let mut ev = base_ev(&site, &ns);
        ev.site_soa = Some(&site_soa);
        ev.candidate_soa = Some(&ns_soa);
        assert_eq!(
            classify(ClassifierKind::Combined, &ev, &psl),
            Classification::ThirdParty
        );

        // Provider-managed SOA: rule 3 can't fire; concentration decides.
        let managed = soa("ns1.bigdns.com", "hostmaster.bigdns.com");
        ev.site_soa = Some(&managed);
        ev.concentration = Some(120);
        assert_eq!(
            classify(ClassifierKind::Combined, &ev, &psl),
            Classification::ThirdParty
        );
        ev.concentration = Some(3);
        assert_eq!(
            classify(ClassifierKind::Combined, &ev, &psl),
            Classification::Unknown,
            "small provider-managed setups stay uncharacterized"
        );
    }

    #[test]
    fn san_covers_matches_registrable_domains() {
        let psl = PublicSuffixList::builtin();
        let san = vec![dn("example.com"), dn("*.cdn-brand.net")];
        assert!(san_covers(&san, &dn("edge7.cdn-brand.net"), &psl));
        assert!(san_covers(&san, &dn("www.example.com"), &psl));
        assert!(!san_covers(&san, &dn("other.org"), &psl));
        assert!(
            !san_covers(&san, &dn("com"), &psl),
            "bare suffixes never covered"
        );
    }

    #[test]
    fn soa_authority_grouping() {
        let psl = PublicSuffixList::builtin();
        // The Alibaba case: different zones, same master nameserver.
        let a = soa("ns1.alibabadns.com", "hostmaster.alibabadns.com");
        let b = soa("ns1.alibabadns.com", "hostmaster.alicdn-dns.com");
        assert!(soa_same_authority(&a, &b, &psl), "same MNAME groups");
        let c = soa("ns1.other.net", "hostmaster.alibabadns.com");
        assert!(soa_same_authority(&a, &c, &psl), "same RNAME groups");
        let d = soa("ns1.other.net", "hostmaster.other.net");
        assert!(!soa_same_authority(&a, &d, &psl));
    }

    #[test]
    fn strategy_labels() {
        for k in ClassifierKind::ALL {
            assert!(!k.label().is_empty());
        }
    }
}
