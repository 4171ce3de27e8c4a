//! Authoritative zones.
//!
//! A [`Zone`] is the unit of DNS authority: an origin (apex) name, a SOA,
//! a set of in-zone records, and zone cuts delegating child zones to
//! other nameservers. [`Zone::lookup`] implements the authoritative
//! answer algorithm the resolver consumes: answers, CNAME redirects,
//! referrals with in-bailiwick glue, and negative answers (NODATA /
//! NXDOMAIN) carrying the zone SOA exactly like RFC 2308 negative
//! responses — which is what lets `dig SOA <host>` discover the
//! enclosing zone's authority, a step the paper's heuristics rely on.

use crate::clock::Ttl;
use crate::record::{RecordData, RecordType, ResourceRecord, Soa};
use std::collections::{BTreeMap, HashSet};
use webdeps_model::DomainName;

/// Result of an authoritative lookup inside a single zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Authoritative answer records for the query.
    Answer(Vec<ResourceRecord>),
    /// The name is an alias; the resolver must chase `target`.
    CnameRedirect {
        /// The CNAME record itself (returned in the answer section).
        record: ResourceRecord,
        /// Alias target to continue with.
        target: DomainName,
    },
    /// The name lies at or below a zone cut: authority passes to the
    /// child zone's nameservers.
    Referral {
        /// The owner name of the zone cut.
        cut: DomainName,
        /// NS hosts of the child zone.
        ns_hosts: Vec<DomainName>,
        /// In-bailiwick glue A records for those hosts, when known.
        glue: Vec<ResourceRecord>,
    },
    /// The name exists but has no records of the queried type
    /// (RFC 2308 NODATA). Carries the zone SOA as the authority section.
    NoData {
        /// Zone SOA for negative caching / authority discovery.
        soa: Soa,
    },
    /// The name does not exist in this zone. Carries the zone SOA.
    NxDomain {
        /// Zone SOA for negative caching / authority discovery.
        soa: Soa,
    },
    /// The query name is not within this zone at all (server
    /// misdirection; the resolver treats it as a lame delegation).
    OutOfZone,
}

/// One authoritative zone.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: DomainName,
    soa: Soa,
    default_ttl: Ttl,
    /// Records keyed by owner name.
    records: BTreeMap<DomainName, Vec<ResourceRecord>>,
    /// Zone cuts: child apex → NS hosts of the child zone.
    delegations: BTreeMap<DomainName, Vec<DomainName>>,
    /// Every owner name plus all empty non-terminals, for NXDOMAIN
    /// versus NODATA discrimination.
    names: HashSet<DomainName>,
}

impl Zone {
    /// Creates an empty zone. The SOA record is materialized at the apex.
    pub fn new(origin: DomainName, soa: Soa) -> Self {
        let mut zone = Zone {
            origin: origin.clone(),
            soa: soa.clone(),
            default_ttl: Ttl::DEFAULT,
            records: BTreeMap::new(),
            delegations: BTreeMap::new(),
            names: HashSet::new(),
        };
        zone.insert(ResourceRecord::new(origin, RecordData::Soa(soa)));
        zone
    }

    /// The zone apex.
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// The zone's SOA payload.
    pub fn soa(&self) -> &Soa {
        &self.soa
    }

    /// Iterates over every record in the zone (including the SOA),
    /// in owner-name order.
    pub fn records(&self) -> impl Iterator<Item = &ResourceRecord> {
        self.records.values().flatten()
    }

    /// All NS hosts listed at the apex (the zone's advertised
    /// nameserver set — what `dig NS <apex>` returns).
    pub fn apex_ns_hosts(&self) -> Vec<DomainName> {
        self.records
            .get(&self.origin)
            .map(|rrs| {
                rrs.iter()
                    .filter_map(|rr| rr.data.as_ns().cloned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Registers a name and all its ancestors up to the apex as existing.
    ///
    /// Callers guarantee `name` is at or below the apex, so the suffix
    /// chain passes exactly through the origin — ancestors are probed
    /// borrowed and only materialized when newly inserted.
    fn mark_names(&mut self, name: &DomainName) {
        let origin_labels = self.origin.label_count();
        let mut k = name.label_count();
        while k >= origin_labels {
            if self.names.contains(name.suffix_str(k)) {
                break; // ancestors already marked
            }
            self.names.insert(name.suffix(k));
            k -= 1;
        }
    }

    /// Adds a record, or says why it cannot join this zone: its owner is
    /// outside the zone, or it would put a CNAME beside other data at
    /// one name (a CNAME owner carries no other data, RFC 1034 §3.6.2).
    /// A refused record leaves the zone unchanged.
    #[must_use = "a refused record was not added"]
    pub(crate) fn try_insert(&mut self, rr: ResourceRecord) -> Result<(), String> {
        if !rr.name.is_equal_or_subdomain_of(&self.origin) {
            return Err(format!("record {rr} is outside zone {}", self.origin));
        }
        // A clash needs records at the name, which marked it already.
        self.mark_names(&rr.name);
        let is_cname = |r: &ResourceRecord| matches!(r.data, RecordData::Cname(_));
        let rrs = self.records.entry(rr.name.clone()).or_default();
        if rrs.iter().any(|r| is_cname(r) != is_cname(&rr)) {
            return Err(format!(
                "CNAME at {} would coexist with other records",
                rr.name
            ));
        }
        rrs.push(rr);
        Ok(())
    }

    /// Adds a record. Panics when the owner name is outside the zone or
    /// the record would put a CNAME beside other data — such zones are
    /// generator bugs. Untrusted zone files go through
    /// [`crate::parse_zone`], which reports the same conflicts as errors.
    pub fn insert(&mut self, rr: ResourceRecord) {
        if let Err(conflict) = self.try_insert(rr) {
            // lint:allow(panic) — generated zones are trusted; a conflict is a generator bug, and parse_zone screens untrusted text first
            panic!("{conflict}");
        }
    }

    /// Convenience: insert with the zone default TTL.
    pub fn add(&mut self, name: DomainName, data: RecordData) {
        self.insert(ResourceRecord::with_ttl(name, self.default_ttl, data));
    }

    /// Declares a zone cut delegating `child` to `ns_hosts`. Glue A
    /// records for in-bailiwick hosts should be inserted separately.
    pub fn delegate(&mut self, child: DomainName, ns_hosts: Vec<DomainName>) {
        assert!(
            child.is_subdomain_of(&self.origin),
            "delegation {child} must be strictly below origin {}",
            self.origin
        );
        assert!(
            !ns_hosts.is_empty(),
            "delegation {child} needs at least one NS host"
        );
        self.mark_names(&child);
        self.delegations.insert(child, ns_hosts);
    }

    /// The deepest zone cut at or above `name` (strictly below the
    /// apex), if any.
    fn covering_delegation(&self, name: &DomainName) -> Option<&DomainName> {
        // Walk from `name` upward with borrowed suffix probes; the first
        // delegation hit is the deepest cut because cuts cannot nest
        // within a single zone's authoritative data in our builder.
        // Cuts are strictly below the apex, so the apex itself is skipped.
        let origin_labels = self.origin.label_count();
        let mut k = name.label_count();
        while k > origin_labels {
            if let Some((cut, _)) = self.delegations.get_key_value(name.suffix_str(k)) {
                return Some(cut);
            }
            k -= 1;
        }
        None
    }

    /// Whether `name` exists in the zone (has records, children, or is
    /// an empty non-terminal).
    pub fn name_exists(&self, name: &DomainName) -> bool {
        self.names.contains(name)
    }

    /// Authoritative lookup.
    pub fn lookup(&self, qname: &DomainName, qtype: RecordType) -> ZoneAnswer {
        if !qname.is_equal_or_subdomain_of(&self.origin) {
            return ZoneAnswer::OutOfZone;
        }

        if let Some(cut) = self.covering_delegation(qname) {
            let ns_hosts = self.delegations[cut].clone();
            let glue = ns_hosts
                .iter()
                .flat_map(|h| {
                    self.records
                        .get(h)
                        .into_iter()
                        .flatten()
                        .filter(|rr| matches!(rr.data, RecordData::A(_)))
                })
                .cloned()
                .collect();
            return ZoneAnswer::Referral {
                cut: cut.clone(),
                ns_hosts,
                glue,
            };
        }

        if let Some(rrs) = self.records.get(qname) {
            // CNAME redirect takes precedence unless the query asks for
            // the CNAME itself.
            if qtype != RecordType::Cname {
                if let Some(cname) = rrs
                    .iter()
                    .find(|rr| rr.data.record_type() == RecordType::Cname)
                {
                    // lint:allow(panic) — infallible: the match arm above guarantees a CNAME record
                    let target = cname.data.as_cname().expect("checked above").clone();
                    return ZoneAnswer::CnameRedirect {
                        record: cname.clone(),
                        target,
                    };
                }
            }
            let answers: Vec<ResourceRecord> = rrs
                .iter()
                .filter(|rr| rr.data.record_type() == qtype)
                .cloned()
                .collect();
            if !answers.is_empty() {
                return ZoneAnswer::Answer(answers);
            }
        }

        if self.name_exists(qname) {
            ZoneAnswer::NoData {
                soa: self.soa.clone(),
            }
        } else {
            ZoneAnswer::NxDomain {
                soa: self.soa.clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use webdeps_model::name::dn;

    fn example_zone() -> Zone {
        let soa = Soa::standard(dn("ns1.example.com"), dn("hostmaster.example.com"), 2020);
        let mut z = Zone::new(dn("example.com"), soa);
        z.add(dn("example.com"), RecordData::Ns(dn("ns1.example.com")));
        z.add(dn("example.com"), RecordData::Ns(dn("ns2.dyn-dns.net")));
        z.add(
            dn("example.com"),
            RecordData::A(Ipv4Addr::new(192, 0, 2, 10)),
        );
        z.add(
            dn("ns1.example.com"),
            RecordData::A(Ipv4Addr::new(192, 0, 2, 53)),
        );
        z.add(dn("www.example.com"), RecordData::Cname(dn("example.com")));
        z.add(dn("a.b.example.com"), RecordData::Txt("deep".into()));
        z.delegate(dn("sub.example.com"), vec![dn("ns1.sub.example.com")]);
        z.add(
            dn("ns1.sub.example.com"),
            RecordData::A(Ipv4Addr::new(192, 0, 2, 99)),
        );
        z
    }

    #[test]
    fn answer_exact_match() {
        let z = example_zone();
        match z.lookup(&dn("example.com"), RecordType::A) {
            ZoneAnswer::Answer(rrs) => {
                assert_eq!(rrs.len(), 1);
                assert_eq!(rrs[0].data.as_a(), Some(Ipv4Addr::new(192, 0, 2, 10)));
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn apex_ns_set() {
        let z = example_zone();
        let ns = z.apex_ns_hosts();
        assert_eq!(ns, vec![dn("ns1.example.com"), dn("ns2.dyn-dns.net")]);
    }

    #[test]
    fn soa_at_apex() {
        let z = example_zone();
        match z.lookup(&dn("example.com"), RecordType::Soa) {
            ZoneAnswer::Answer(rrs) => {
                assert_eq!(rrs[0].data.as_soa().unwrap().mname, dn("ns1.example.com"));
            }
            other => panic!("expected SOA answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_redirect_beats_other_types() {
        let z = example_zone();
        match z.lookup(&dn("www.example.com"), RecordType::A) {
            ZoneAnswer::CnameRedirect { target, .. } => assert_eq!(target, dn("example.com")),
            other => panic!("expected redirect, got {other:?}"),
        }
        // Asking for the CNAME itself returns it as a plain answer.
        match z.lookup(&dn("www.example.com"), RecordType::Cname) {
            ZoneAnswer::Answer(rrs) => assert_eq!(rrs.len(), 1),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn referral_below_zone_cut_with_glue() {
        let z = example_zone();
        match z.lookup(&dn("deep.sub.example.com"), RecordType::A) {
            ZoneAnswer::Referral {
                cut,
                ns_hosts,
                glue,
            } => {
                assert_eq!(cut, dn("sub.example.com"));
                assert_eq!(ns_hosts, vec![dn("ns1.sub.example.com")]);
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].data.as_a(), Some(Ipv4Addr::new(192, 0, 2, 99)));
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let z = example_zone();
        // `b.example.com` is an empty non-terminal (ancestor of
        // a.b.example.com) → NODATA, not NXDOMAIN.
        assert!(matches!(
            z.lookup(&dn("b.example.com"), RecordType::A),
            ZoneAnswer::NoData { .. }
        ));
        assert!(matches!(
            z.lookup(&dn("missing.example.com"), RecordType::A),
            ZoneAnswer::NxDomain { .. }
        ));
        // Negative answers carry the zone SOA.
        if let ZoneAnswer::NxDomain { soa } = z.lookup(&dn("missing.example.com"), RecordType::A) {
            assert_eq!(soa.rname, dn("hostmaster.example.com"));
        }
    }

    #[test]
    fn out_of_zone_detected() {
        let z = example_zone();
        assert_eq!(
            z.lookup(&dn("other.net"), RecordType::A),
            ZoneAnswer::OutOfZone
        );
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn out_of_zone_insert_panics() {
        let mut z = example_zone();
        z.add(dn("other.net"), RecordData::Txt("x".into()));
    }

    #[test]
    #[should_panic(expected = "coexist")]
    fn cname_exclusivity_enforced() {
        let mut z = example_zone();
        z.add(
            dn("host.example.com"),
            RecordData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        z.add(dn("host.example.com"), RecordData::Cname(dn("example.com")));
    }
}
