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
//! Every rule reads a hostname only through its registrable domain, so
//! the evidence carries domains, not names: a [`DomainTable`] asks the
//! public-suffix list once per name and interns the answer as a
//! [`RegId`], and an SOA becomes an [`Authority`], the ids of its
//! MNAME's and RNAME's registrable domains. [`classify`] is the one
//! classifier and decides by comparing ids: every service's
//! `classify_site`, the inter-service probes and validation decide
//! through it. A separate transcription of the same rules over raw
//! names and SOAs lives in `tests/report_oracles.rs` as the oracle it
//! is held to.

use crate::columnar::checked_offset;
use crate::dataset::ProviderKey;
use std::num::NonZeroU32;
use webdeps_dns::Soa;
use webdeps_model::{DomainName, NameTable, PublicSuffixList};

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

/// A registrable domain interned in a [`DomainTable`]. Ids from one
/// table are equal exactly when their domains are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(NonZeroU32);

impl RegId {
    /// Dense index of the id within its table (0-based).
    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// Whether two names share a registrable domain, given each one's
/// ([`DomainTable::registrable`]). Names that are themselves bare
/// public suffixes (`None`) never match anything.
pub fn same_domain(a: Option<RegId>, b: Option<RegId>) -> bool {
    a.is_some() && a == b
}

/// The administrative authority an SOA names: the registrable domains
/// of its MNAME and RNAME.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Authority {
    /// Registrable domain of the primary master nameserver.
    pub mname: Option<RegId>,
    /// Registrable domain of the responsible mailbox.
    pub rname: Option<RegId>,
}

impl Authority {
    /// Whether two SOAs denote the same administrative authority:
    /// matching MNAME or RNAME registrable domains (the paper's §3.1
    /// grouping rule).
    pub fn same_as(self, other: Authority) -> bool {
        same_domain(self.mname, other.mname) || same_domain(self.rname, other.rname)
    }
}

/// Registrable domains interned for one stretch of measurement work (a
/// shard of sites, a validation sample, the inter-service probes).
///
/// Every registrable-domain question measurement asks goes through a
/// table: [`Self::registrable`] asks the public-suffix list and
/// interns the answer, and [`Self::lookups`] counts the questions. A
/// name asked again before the next [`Self::begin_site`] is answered
/// from the site's own short list instead, so each of a site's names is
/// reduced once however many rules compare it. The text of each domain
/// is stored once, in one arena.
///
/// ```
/// use webdeps_measure::classify::{same_domain, DomainTable};
/// use webdeps_model::{name::dn, PublicSuffixList};
/// let psl = PublicSuffixList::builtin();
/// let mut table = DomainTable::new(&psl);
/// let a = table.registrable(&dn("www.example.co.uk"));
/// let b = table.registrable(&dn("cdn.example.co.uk"));
/// assert!(same_domain(a, b));
/// assert_eq!(table.text(a.unwrap()), "example.co.uk");
/// assert_eq!(table.registrable(&dn("co.uk")), None);
/// assert_eq!(table.lookups(), 3);
/// ```
#[derive(Debug)]
pub struct DomainTable<'p> {
    psl: &'p PublicSuffixList,
    /// Every interned domain's text, back to back.
    text: String,
    /// End offset in `text` of each id's domain, by id.
    ends: Vec<u32>,
    /// Ids by domain text.
    index: NameTable,
    /// The text of the names reduced since the last
    /// [`Self::begin_site`], back to back: a copy, so the memo touches
    /// no shared name's reference count.
    site_text: String,
    /// Each of those names: its end offset in `site_text` and its
    /// registrable domain.
    site_names: Vec<(u32, Option<RegId>)>,
    /// Questions asked of the public-suffix list.
    lookups: u64,
}

impl<'p> DomainTable<'p> {
    /// An empty table over `psl`.
    pub fn new(psl: &'p PublicSuffixList) -> Self {
        DomainTable {
            psl,
            text: String::new(),
            ends: Vec::new(),
            index: NameTable::default(),
            site_text: String::new(),
            site_names: Vec::new(),
            lookups: 0,
        }
    }

    /// Starts the next site: names reduced so far are asked of the
    /// public-suffix list again if they recur.
    pub fn begin_site(&mut self) {
        self.site_text.clear();
        self.site_names.clear();
    }

    /// The id of `name`'s registrable domain, or `None` when the name
    /// is itself a public suffix.
    pub fn registrable(&mut self, name: &DomainName) -> Option<RegId> {
        let mut start = 0;
        for &(end, id) in &self.site_names {
            if &self.site_text[start..end as usize] == name.as_str() {
                return id;
            }
            start = end as usize;
        }
        self.lookups += 1;
        let id = self.psl.registrable_str(name).map(|reg| self.intern(reg));
        self.site_text.push_str(name.as_str());
        self.site_names
            .push((checked_offset(self.site_text.len()), id));
        id
    }

    /// The authority `soa` names.
    pub fn authority(&mut self, soa: &Soa) -> Authority {
        Authority {
            mname: self.registrable(&soa.mname),
            rname: self.registrable(&soa.rname),
        }
    }

    /// The text of an interned domain.
    pub fn text(&self, id: RegId) -> &str {
        entry(&self.text, &self.ends, id.index())
    }

    /// The provider key of a name whose registrable domain is `reg`:
    /// that domain, or the name itself when it has none (the
    /// convention every measurement uses for wire-inferred
    /// identities).
    pub fn key_text<'a>(&'a self, reg: Option<RegId>, name: &'a DomainName) -> &'a str {
        reg.map_or(name.as_str(), |id| self.text(id))
    }

    /// [`Self::key_text`] as an owned key.
    pub fn key(&self, reg: Option<RegId>, name: &DomainName) -> ProviderKey {
        ProviderKey::new(self.key_text(reg, name))
    }

    /// Questions asked of the public-suffix list so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Distinct domains interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The id of `reg`, interned on first sight.
    fn intern(&mut self, reg: &str) -> RegId {
        let (text, ends) = (&self.text, &self.ends);
        let index = match self.index.get(reg, |i| entry(text, ends, i as usize)) {
            Some(i) => i,
            None => {
                let i = checked_offset(self.ends.len());
                self.text.push_str(reg);
                self.ends.push(checked_offset(self.text.len()));
                self.index.insert(reg, i);
                i
            }
        };
        RegId(NonZeroU32::MIN.saturating_add(index))
    }
}

/// Entry `i` of a [`DomainTable`]'s text arena.
fn entry<'a>(text: &'a str, ends: &[u32], i: usize) -> &'a str {
    let start = i.checked_sub(1).map_or(0, |p| ends[p] as usize);
    &text[start..ends[i] as usize]
}

/// A site's own names reduced to registrable domains once: the site's
/// and its certificate's SAN entries'. Rules 1 and 2 of the combined
/// heuristic and the CDN rule's internal-resource test compare
/// candidates against it.
#[derive(Debug, Clone)]
pub struct SiteDomains {
    /// The site's registrable domain.
    pub site: Option<RegId>,
    /// The distinct registrable domains of the SAN entries, in
    /// certificate order (empty without a certificate).
    pub san: Vec<RegId>,
}

impl SiteDomains {
    /// Reduces `site` and its SAN list through `table`.
    pub fn new(site: &DomainName, san: Option<&[DomainName]>, table: &mut DomainTable<'_>) -> Self {
        let mut out = SiteDomains {
            site: table.registrable(site),
            san: Vec::new(),
        };
        for entry in san.unwrap_or_default() {
            if let Some(id) = table.registrable(entry) {
                if !out.san.contains(&id) {
                    out.san.push(id);
                }
            }
        }
        out
    }

    /// Whether the SAN list covers a candidate whose registrable domain
    /// is `reg` ("all TLDs present in the SAN list belong to the same
    /// logical entity", §3.1).
    pub fn san_covers(&self, reg: Option<RegId>) -> bool {
        reg.is_some_and(|id| self.san.contains(&id))
    }

    /// Whether a host whose registrable domain is `reg` is *internal*
    /// to the site: the site's registrable domain, or covered by the
    /// SAN list.
    pub fn is_internal(&self, reg: Option<RegId>) -> bool {
        same_domain(self.site, reg) || self.san_covers(reg)
    }
}

/// Wire-visible evidence about one (site, candidate) pair, as the
/// rules read it: registrable domains and authorities. The names are
/// kept beside them for those who score a decision (validation).
#[derive(Debug, Clone)]
pub struct Evidence<'a> {
    /// The website's registrable domain.
    pub site: &'a DomainName,
    /// The candidate host being classified (nameserver, OCSP/CRL host,
    /// or CDN CNAME).
    pub candidate: &'a DomainName,
    /// The site's registrable domain and SAN coverage.
    pub domains: &'a SiteDomains,
    /// The candidate's registrable domain.
    pub candidate_domain: Option<RegId>,
    /// Authority of the site's zone SOA, when resolvable.
    pub site_soa: Option<Authority>,
    /// Authority of the candidate's zone SOA, when resolvable.
    pub candidate_soa: Option<Authority>,
    /// How many sites in the dataset use the candidate's registrable
    /// domain (the concentration rule input; `None` outside the DNS
    /// measurement).
    pub concentration: Option<usize>,
    /// Concentration threshold (50 at the paper's 100K scale).
    pub threshold: usize,
}

/// Runs a strategy over evidence: the §3 classifier.
///
/// Every rule compares registrable-domain ids that a [`DomainTable`]
/// interned, so nothing here asks the public-suffix list. Results are
/// pinned identical to a transcription over raw names and SOAs by
/// `cached_classify_matches_uncached` in `tests/report_oracles.rs`.
///
/// ```
/// use webdeps_measure::classify::{classify, DomainTable, SiteDomains};
/// use webdeps_measure::{Classification, ClassifierKind, Evidence};
/// use webdeps_model::{name::dn, PublicSuffixList};
/// let psl = PublicSuffixList::builtin();
/// let mut table = DomainTable::new(&psl);
/// let site = dn("example.com");
/// let ns = dn("ns1.dynect.net");
/// let domains = SiteDomains::new(&site, None, &mut table);
/// let ev = Evidence {
///     site: &site, candidate: &ns, domains: &domains,
///     candidate_domain: table.registrable(&ns),
///     site_soa: None, candidate_soa: None,
///     concentration: Some(120), threshold: 50,
/// };
/// assert_eq!(classify(ClassifierKind::Combined, &ev), Classification::ThirdParty);
/// ```
pub fn classify(kind: ClassifierKind, ev: &Evidence<'_>) -> Classification {
    let same_domain = same_domain(ev.domains.site, ev.candidate_domain);
    let soas = ev.site_soa.zip(ev.candidate_soa);
    match kind {
        ClassifierKind::TldOnly => {
            if same_domain {
                Classification::Private
            } else {
                Classification::ThirdParty
            }
        }
        ClassifierKind::SoaOnly => match soas {
            Some((a, b)) if a.same_as(b) => Classification::Private,
            Some(_) => Classification::ThirdParty,
            None => Classification::Unknown,
        },
        ClassifierKind::Combined => {
            // Rule 1: registrable-domain match ⇒ private.
            // Rule 2: candidate's domain appears in the site's SAN
            // list ⇒ same logical entity ⇒ private.
            if same_domain || ev.domains.san_covers(ev.candidate_domain) {
                return Classification::Private;
            }
            // Rule 3: differing SOA authorities ⇒ third party.
            if soas.is_some_and(|(a, b)| !a.same_as(b)) {
                return Classification::ThirdParty;
            }
            // Rule 4 (DNS only): widely shared infrastructure is a
            // third-party provider even when it manages the SOA.
            if ev.concentration.is_some_and(|c| c >= ev.threshold) {
                return Classification::ThirdParty;
            }
            Classification::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    fn soa(table: &mut DomainTable<'_>, mname: &str, rname: &str) -> Option<Authority> {
        Some(table.authority(&Soa::standard(dn(mname), dn(rname), 1)))
    }

    /// Evidence about (`site`, `candidate`) with no SAN, SOA or
    /// concentration signal; `domains` must be `site`'s.
    fn base_ev<'a>(
        site: &'a DomainName,
        candidate: &'a DomainName,
        domains: &'a SiteDomains,
        table: &mut DomainTable<'_>,
    ) -> Evidence<'a> {
        Evidence {
            site,
            candidate,
            domains,
            candidate_domain: table.registrable(candidate),
            site_soa: None,
            candidate_soa: None,
            concentration: None,
            threshold: 50,
        }
    }

    #[test]
    fn tld_only_straightforward() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let site = dn("example.com");
        let domains = SiteDomains::new(&site, None, &mut table);
        let own = dn("ns1.example.com");
        let other = dn("ns1.dynect.net");
        assert_eq!(
            classify(
                ClassifierKind::TldOnly,
                &base_ev(&site, &own, &domains, &mut table)
            ),
            Classification::Private
        );
        assert_eq!(
            classify(
                ClassifierKind::TldOnly,
                &base_ev(&site, &other, &domains, &mut table)
            ),
            Classification::ThirdParty
        );
    }

    #[test]
    fn soa_only_follows_authority() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let site = dn("example.com");
        let ns = dn("ns1.dynect.net");
        let domains = SiteDomains::new(&site, None, &mut table);
        let mut ev = base_ev(&site, &ns, &domains, &mut table);
        ev.site_soa = soa(&mut table, "ns1.example.com", "hostmaster.example.com");
        ev.candidate_soa = soa(&mut table, "ns1.dynect.net", "hostmaster.dynect.net");
        assert_eq!(
            classify(ClassifierKind::SoaOnly, &ev),
            Classification::ThirdParty
        );
        // Provider-managed site SOA makes the strawman call it private.
        ev.site_soa = soa(&mut table, "ns1.dynect.net", "hostmaster.dynect.net");
        assert_eq!(
            classify(ClassifierKind::SoaOnly, &ev),
            Classification::Private
        );
        ev.candidate_soa = None;
        assert_eq!(
            classify(ClassifierKind::SoaOnly, &ev),
            Classification::Unknown
        );
    }

    #[test]
    fn combined_rule_order() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let site = dn("ytube.com");
        let alias_ns = dn("ns1.googol.com");
        // Rule 2: SAN rescues the alias-domain private case that TLD
        // matching gets wrong.
        let san = vec![dn("ytube.com"), dn("*.googol.com")];
        let domains = SiteDomains::new(&site, Some(&san), &mut table);
        let ev = base_ev(&site, &alias_ns, &domains, &mut table);
        assert_eq!(
            classify(ClassifierKind::Combined, &ev),
            Classification::Private
        );
        assert_eq!(
            classify(ClassifierKind::TldOnly, &ev),
            Classification::ThirdParty,
            "the strawman misfires on alias domains"
        );
    }

    #[test]
    fn combined_soa_mismatch_then_concentration() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let site = dn("shop.net");
        let ns = dn("ns1.bigdns.com");
        let domains = SiteDomains::new(&site, None, &mut table);
        let mut ev = base_ev(&site, &ns, &domains, &mut table);
        ev.site_soa = soa(&mut table, "ns1.shop.net", "hostmaster.shop.net");
        ev.candidate_soa = soa(&mut table, "ns1.bigdns.com", "hostmaster.bigdns.com");
        assert_eq!(
            classify(ClassifierKind::Combined, &ev),
            Classification::ThirdParty
        );

        // Provider-managed SOA: rule 3 can't fire; concentration decides.
        ev.site_soa = soa(&mut table, "ns1.bigdns.com", "hostmaster.bigdns.com");
        ev.concentration = Some(120);
        assert_eq!(
            classify(ClassifierKind::Combined, &ev),
            Classification::ThirdParty
        );
        ev.concentration = Some(3);
        assert_eq!(
            classify(ClassifierKind::Combined, &ev),
            Classification::Unknown,
            "small provider-managed setups stay uncharacterized"
        );
    }

    #[test]
    fn san_covers_matches_registrable_domains() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let san = vec![dn("example.com"), dn("*.cdn-brand.net"), dn("com")];
        let domains = SiteDomains::new(&dn("example.com"), Some(&san), &mut table);
        assert_eq!(domains.san.len(), 2, "one id per distinct domain");
        let mut covered = |host: &str| domains.san_covers(table.registrable(&dn(host)));
        assert!(covered("edge7.cdn-brand.net"));
        assert!(covered("www.example.com"));
        assert!(!covered("other.org"));
        assert!(!covered("com"), "bare suffixes never covered");
    }

    #[test]
    fn internal_hosts_share_the_site_domain_or_its_san() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let site = dn("shop.com");
        let san = vec![dn("shop.com"), dn("*.shopimg.net")];
        let with_san = SiteDomains::new(&site, Some(&san), &mut table);
        let without = SiteDomains::new(&site, None, &mut table);
        for (host, domains, internal) in [
            ("static.shop.com", &without, true),
            ("static.fontserve.com", &without, false),
            ("a.shopimg.net", &with_san, true),
            ("a.shopimg.net", &without, false),
        ] {
            let reg = table.registrable(&dn(host));
            assert_eq!(domains.is_internal(reg), internal, "{host}, {domains:?}");
        }
    }

    #[test]
    fn soa_authority_grouping() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let mut authority = |m: &str, r: &str| soa(&mut table, m, r).unwrap();
        // The Alibaba case: different zones, same master nameserver.
        let a = authority("ns1.alibabadns.com", "hostmaster.alibabadns.com");
        let b = authority("ns1.alibabadns.com", "hostmaster.alicdn-dns.com");
        assert!(a.same_as(b), "same MNAME groups");
        let c = authority("ns1.other.net", "hostmaster.alibabadns.com");
        assert!(a.same_as(c), "same RNAME groups");
        let d = authority("ns1.other.net", "hostmaster.other.net");
        assert!(!a.same_as(d));
        let bare = authority("com", "net");
        assert!(!bare.same_as(bare), "bare suffixes name no authority");
    }

    #[test]
    fn table_asks_each_site_name_once() {
        let psl = PublicSuffixList::builtin();
        let mut table = DomainTable::new(&psl);
        let name = dn("a.example.com");
        let first = table.registrable(&name);
        assert_eq!(table.registrable(&name), first);
        assert_eq!(table.lookups(), 1, "the site's repeat is answered locally");
        table.begin_site();
        assert_eq!(table.registrable(&name), first, "ids outlive the site");
        assert_eq!(table.registrable(&dn("b.example.com")), first);
        assert_eq!((table.lookups(), table.len()), (3, 1));
        assert_eq!(table.key(None, &dn("co.uk")).as_str(), "co.uk");
        assert_eq!(table.key(first, &name).as_str(), "example.com");
    }

    #[test]
    fn strategy_labels() {
        for k in ClassifierKind::ALL {
            assert!(!k.label().is_empty());
        }
    }
}
