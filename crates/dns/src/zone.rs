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
//!
//! # Layout
//!
//! A zone holds its records in one exact-size array sorted by owner
//! name, so one owner's records are a contiguous run and
//! [`Zone::records`] iterates in owner-name order. The array is sorted
//! once per batch: [`Zone::insert_all`] appends the batch and runs one
//! stable sort, which keeps each owner's records in insertion order, so
//! a bulk fill of a provider zone costs one sort and not one per
//! record. The SOA payload is shared by the zone and its apex record.
//!
//! A zone answers the same way at every size; only the way it finds an
//! owner's run depends on the size. Up to [`SCAN_RECORDS`] records it
//! scans the array, which costs no index bytes. Above that it hashes:
//! an FNV-1a table maps each name to its run. A binary search would
//! read one owner's text per step, each from a different allocation.
//! The table also holds the names that exist without records (zone
//! cuts and empty non-terminals), so NXDOMAIN versus NODATA is one
//! probe. A scanned zone answers that question from the array: a name
//! exists when some owner or cut lies at or below it.

use crate::clock::Ttl;
use crate::record::{RecordData, RecordType, ResourceRecord, Soa};
use std::sync::Arc;
use webdeps_model::DomainName;
use webdeps_model::NameTable;

/// Zones with at most this many records scan them; larger ones hash.
pub const SCAN_RECORDS: usize = 16;

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

/// A zone cut: the child apex and the NS hosts of the child zone.
type Cut = (DomainName, Box<[DomainName]>);

/// One authoritative zone.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: DomainName,
    /// The SOA payload, shared with the apex SOA record.
    soa: Arc<Soa>,
    /// Every record, sorted by owner name; insertion order within an
    /// owner.
    records: Box<[ResourceRecord]>,
    /// Zone cuts, in declaration order.
    cuts: Box<[Cut]>,
    /// The name index of a zone above [`SCAN_RECORDS`] records.
    index: Option<Box<NameIndex>>,
}

/// The hash index of a large zone. Id `i` below the record count names
/// the run that starts at record `i`; id `records + j` names `bare[j]`.
#[derive(Debug, Clone)]
struct NameIndex {
    names: NameTable,
    /// Names that own no record: cuts and empty non-terminals.
    bare: Box<[DomainName]>,
}

impl NameIndex {
    /// Indexes every owner of `records`, every cut, and every name
    /// between them and the apex.
    fn build(origin: &DomainName, records: &[ResourceRecord], cuts: &[Cut]) -> NameIndex {
        let owners = records
            .iter()
            .enumerate()
            .filter(|&(i, rr)| i == 0 || records[i - 1].name != rr.name);
        let mut names = NameTable::with_capacity(owners.clone().count() + cuts.len());
        let mut bare: Vec<DomainName> = Vec::new();
        for (i, rr) in owners.clone() {
            names.insert(rr.name.as_str(), i as u32);
        }
        // An owner's ancestors, and a cut with its ancestors, exist too.
        // Every owner is visited, so the walk stops at the first name
        // already present: its own ancestors are covered by its visit.
        let walks = owners
            .map(|(_, rr)| (&rr.name, false))
            .chain(cuts.iter().map(|(cut, _)| (cut, true)));
        for (name, include_self) in walks {
            let mut rest = name.as_str();
            if !include_self {
                rest = rest.split_once('.').map_or("", |(_, parent)| parent);
            }
            while rest.len() > origin.as_str().len() {
                if names.get(rest, |id| name_of(records, &bare, id)).is_some() {
                    break;
                }
                names.insert(rest, (records.len() + bare.len()) as u32);
                bare.push(name.suffix(rest.split('.').count()));
                rest = rest.split_once('.').map_or("", |(_, parent)| parent);
            }
        }
        NameIndex {
            names,
            bare: bare.into_boxed_slice(),
        }
    }

    /// The id of `name`, when it exists in the zone.
    fn find(&self, name: &str, records: &[ResourceRecord]) -> Option<u32> {
        self.names.get(name, |id| name_of(records, &self.bare, id))
    }

    /// Bytes of heap the index owns, itself included.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<NameIndex>()
            + self.names.heap_bytes()
            + std::mem::size_of_val(&*self.bare)
    }
}

/// The name behind index id `id` (see [`NameIndex`]).
fn name_of<'a>(records: &'a [ResourceRecord], bare: &'a [DomainName], id: u32) -> &'a str {
    match records.get(id as usize) {
        Some(rr) => rr.name.as_str(),
        None => bare[id as usize - records.len()].as_str(),
    }
}

/// Whether a record is a CNAME (which excludes every other record at
/// its owner, RFC 1034 §3.6.2).
fn is_cname(rr: &ResourceRecord) -> bool {
    matches!(rr.data, RecordData::Cname(_))
}

impl Zone {
    /// Creates an empty zone. The SOA record is materialized at the apex.
    pub fn new(origin: DomainName, soa: Soa) -> Self {
        let soa = Arc::new(soa);
        let apex = ResourceRecord::new(origin.clone(), RecordData::Soa(Arc::clone(&soa)));
        Zone {
            origin,
            soa,
            records: Box::new([apex]),
            cuts: Box::default(),
            index: None,
        }
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
        self.records.iter()
    }

    /// All NS hosts listed at the apex (the zone's advertised
    /// nameserver set — what `dig NS <apex>` returns).
    pub fn apex_ns_hosts(&self) -> Vec<DomainName> {
        self.owned(&self.origin)
            .iter()
            .filter_map(|rr| rr.data.as_ns().cloned())
            .collect()
    }

    /// Bytes of heap the zone owns: its record array, SOA, cuts and
    /// index. Names are shared text and are not counted; TXT payloads
    /// are.
    pub fn heap_bytes(&self) -> usize {
        let records = std::mem::size_of_val(&*self.records)
            + self
                .records
                .iter()
                .map(|rr| match &rr.data {
                    RecordData::Txt(text) => text.capacity(),
                    _ => 0,
                })
                .sum::<usize>();
        // The SOA's allocation holds two reference counts beside it.
        let soa = std::mem::size_of::<Soa>() + 2 * std::mem::size_of::<usize>();
        let cuts = std::mem::size_of_val(&*self.cuts)
            + self
                .cuts
                .iter()
                .map(|(_, hosts)| std::mem::size_of_val(&**hosts))
                .sum::<usize>();
        records + soa + cuts + self.index.as_ref().map_or(0, |index| index.heap_bytes())
    }

    /// The records `name` owns, in insertion order.
    fn owned(&self, name: &DomainName) -> &[ResourceRecord] {
        let start = match &self.index {
            Some(index) => index
                .find(name.as_str(), &self.records)
                .map(|id| id as usize)
                .filter(|&i| i < self.records.len()),
            None => self.records.iter().position(|rr| rr.name == *name),
        };
        let Some(start) = start else {
            return &[];
        };
        let run = &self.records[start..];
        &run[..run.iter().take_while(|rr| rr.name == *name).count()]
    }

    /// Whether `name`, which lies in the zone, exists: it owns records,
    /// is a zone cut, or is an empty non-terminal above one of those.
    fn name_exists(&self, name: &DomainName) -> bool {
        match &self.index {
            Some(index) => index.find(name.as_str(), &self.records).is_some(),
            None => self
                .records
                .iter()
                .map(|rr| &rr.name)
                .chain(self.cuts.iter().map(|(cut, _)| cut))
                .any(|owner| owner.is_equal_or_subdomain_of(name)),
        }
    }

    /// Adds a batch of records, or names the first one that cannot join
    /// this zone — by its position in `batch` — and why: its owner is
    /// outside the zone, or it would put a CNAME beside other data at
    /// one name (a CNAME owner carries no other data, RFC 1034 §3.6.2).
    /// The answer is the one inserting the batch record by record would
    /// give. A refused batch leaves the zone unchanged.
    #[must_use = "a refused batch was not added"]
    pub(crate) fn try_insert_all(
        &mut self,
        batch: Vec<ResourceRecord>,
    ) -> Result<(), (usize, String)> {
        let mut refusal = batch
            .iter()
            .position(|rr| !rr.name.is_equal_or_subdomain_of(&self.origin))
            .map(|i| {
                (
                    i,
                    format!("record {} is outside zone {}", batch[i], self.origin),
                )
            });
        // Visit the batch owner by owner, each owner's records in batch
        // order: the first record whose kind differs from the owner's
        // first record (already in the zone, or first in the batch)
        // breaks exclusivity.
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by(|&a, &b| batch[a].name.cmp(&batch[b].name));
        for group in order.chunk_by(|&a, &b| batch[a].name == batch[b].name) {
            let owner = &batch[group[0]].name;
            let kind = is_cname(self.owned(owner).first().unwrap_or(&batch[group[0]]));
            let clash = group.iter().copied().find(|&i| is_cname(&batch[i]) != kind);
            if let Some(i) = clash.filter(|&i| refusal.as_ref().is_none_or(|(j, _)| i < *j)) {
                refusal = Some((
                    i,
                    format!("CNAME at {owner} would coexist with other records"),
                ));
            }
        }
        if let Some(refusal) = refusal {
            return Err(refusal);
        }
        let mut records = std::mem::take(&mut self.records).into_vec();
        records.reserve_exact(batch.len());
        records.extend(batch);
        records.sort_by(|a, b| a.name.cmp(&b.name));
        self.records = records.into_boxed_slice();
        self.reindex();
        Ok(())
    }

    /// Adds a batch of records with one sort and one re-index. Panics
    /// when a record's owner is outside the zone or a record would put
    /// a CNAME beside other data — such zones are generator bugs.
    /// Untrusted zone files go through [`crate::parse_zone`], which
    /// reports the same conflicts as errors.
    pub fn insert_all(&mut self, batch: impl IntoIterator<Item = ResourceRecord>) {
        if let Err((_, conflict)) = self.try_insert_all(batch.into_iter().collect()) {
            // lint:allow(panic) — generated zones are trusted; a conflict is a generator bug, and parse_zone screens untrusted text first
            panic!("{conflict}");
        }
    }

    /// Adds one record with the default TTL; see [`Self::insert_all`],
    /// which a fill of many records should use.
    pub fn add(&mut self, name: DomainName, data: RecordData) {
        self.insert_all([ResourceRecord::with_ttl(name, Ttl::DEFAULT, data)]);
    }

    /// Declares a zone cut delegating `child` to `ns_hosts`, replacing
    /// an earlier cut at `child`. Glue A records for in-bailiwick hosts
    /// should be inserted separately.
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
        let mut cuts = std::mem::take(&mut self.cuts).into_vec();
        cuts.retain(|(cut, _)| *cut != child);
        cuts.push((child, ns_hosts.into_boxed_slice()));
        self.cuts = cuts.into_boxed_slice();
        self.reindex();
    }

    /// Rebuilds the name index after the records or cuts changed.
    fn reindex(&mut self) {
        self.index = (self.records.len() > SCAN_RECORDS)
            .then(|| Box::new(NameIndex::build(&self.origin, &self.records, &self.cuts)));
    }

    /// The deepest zone cut at or above `name`, if any.
    fn covering_cut(&self, name: &DomainName) -> Option<&Cut> {
        self.cuts
            .iter()
            .filter(|(cut, _)| name.is_equal_or_subdomain_of(cut))
            .max_by_key(|(cut, _)| cut.as_str().len())
    }

    /// Authoritative lookup.
    pub fn lookup(&self, qname: &DomainName, qtype: RecordType) -> ZoneAnswer {
        if !qname.is_equal_or_subdomain_of(&self.origin) {
            return ZoneAnswer::OutOfZone;
        }

        if let Some((cut, ns_hosts)) = self.covering_cut(qname) {
            let glue = ns_hosts
                .iter()
                .flat_map(|h| self.owned(h))
                .filter(|rr| matches!(rr.data, RecordData::A(_)))
                .cloned()
                .collect();
            return ZoneAnswer::Referral {
                cut: cut.clone(),
                ns_hosts: ns_hosts.to_vec(),
                glue,
            };
        }

        let rrs = self.owned(qname);
        // CNAME redirect takes precedence unless the query asks for the
        // CNAME itself.
        if qtype != RecordType::Cname {
            if let Some((record, target)) = rrs
                .iter()
                .find_map(|rr| rr.data.as_cname().map(|target| (rr, target)))
            {
                return ZoneAnswer::CnameRedirect {
                    record: record.clone(),
                    target: target.clone(),
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

        let soa = Soa::clone(&self.soa);
        if !rrs.is_empty() || self.name_exists(qname) {
            ZoneAnswer::NoData { soa }
        } else {
            ZoneAnswer::NxDomain { soa }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use webdeps_model::name::dn;
    use webdeps_model::DetRng;

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

    /// The example zone as a scanned zone and, padded past
    /// [`SCAN_RECORDS`] in one batch, as a hashed one: every test below
    /// asks both.
    fn example_zones() -> [Zone; 2] {
        let small = example_zone();
        assert!(small.index.is_none());
        let mut large = example_zone();
        large.insert_all((0..SCAN_RECORDS).map(|i| {
            ResourceRecord::new(
                dn(&format!("pad{i}.example.com")),
                RecordData::Txt(format!("pad {i}")),
            )
        }));
        assert!(large.index.is_some());
        [small, large]
    }

    #[test]
    fn answer_exact_match() {
        for z in example_zones() {
            match z.lookup(&dn("example.com"), RecordType::A) {
                ZoneAnswer::Answer(rrs) => {
                    assert_eq!(rrs.len(), 1);
                    assert_eq!(rrs[0].data.as_a(), Some(Ipv4Addr::new(192, 0, 2, 10)));
                }
                other => panic!("expected answer, got {other:?}"),
            }
        }
    }

    #[test]
    fn apex_ns_set() {
        for z in example_zones() {
            let ns = z.apex_ns_hosts();
            assert_eq!(ns, vec![dn("ns1.example.com"), dn("ns2.dyn-dns.net")]);
        }
    }

    #[test]
    fn soa_at_apex() {
        for z in example_zones() {
            match z.lookup(&dn("example.com"), RecordType::Soa) {
                ZoneAnswer::Answer(rrs) => {
                    assert_eq!(rrs[0].data.as_soa().unwrap().mname, dn("ns1.example.com"));
                }
                other => panic!("expected SOA answer, got {other:?}"),
            }
        }
    }

    #[test]
    fn cname_redirect_beats_other_types() {
        for z in example_zones() {
            match z.lookup(&dn("www.example.com"), RecordType::A) {
                ZoneAnswer::CnameRedirect { target, .. } => {
                    assert_eq!(target, dn("example.com"))
                }
                other => panic!("expected redirect, got {other:?}"),
            }
            // Asking for the CNAME itself returns it as a plain answer.
            match z.lookup(&dn("www.example.com"), RecordType::Cname) {
                ZoneAnswer::Answer(rrs) => assert_eq!(rrs.len(), 1),
                other => panic!("expected answer, got {other:?}"),
            }
        }
    }

    #[test]
    fn referral_below_zone_cut_with_glue() {
        for z in example_zones() {
            for qname in ["deep.sub.example.com", "sub.example.com"] {
                match z.lookup(&dn(qname), RecordType::A) {
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
        }
    }

    #[test]
    fn nodata_vs_nxdomain() {
        for z in example_zones() {
            // `b.example.com` is an empty non-terminal (ancestor of
            // a.b.example.com) → NODATA, not NXDOMAIN.
            assert!(matches!(
                z.lookup(&dn("b.example.com"), RecordType::A),
                ZoneAnswer::NoData { .. }
            ));
            assert!(matches!(
                z.lookup(&dn("ns1.example.com"), RecordType::Txt),
                ZoneAnswer::NoData { .. }
            ));
            assert!(matches!(
                z.lookup(&dn("missing.example.com"), RecordType::A),
                ZoneAnswer::NxDomain { .. }
            ));
            assert!(matches!(
                z.lookup(&dn("x.a.b.example.com"), RecordType::A),
                ZoneAnswer::NxDomain { .. }
            ));
            // Negative answers carry the zone SOA.
            if let ZoneAnswer::NxDomain { soa } =
                z.lookup(&dn("missing.example.com"), RecordType::A)
            {
                assert_eq!(soa.rname, dn("hostmaster.example.com"));
            }
        }
    }

    #[test]
    fn out_of_zone_detected() {
        for z in example_zones() {
            assert_eq!(
                z.lookup(&dn("other.net"), RecordType::A),
                ZoneAnswer::OutOfZone
            );
        }
    }

    #[test]
    fn records_sorted_by_owner_in_insertion_order() {
        for z in example_zones() {
            let owners: Vec<&str> = z.records().map(|rr| rr.name.as_str()).collect();
            assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{owners:?}");
            let apex: Vec<RecordType> = z
                .records()
                .filter(|rr| rr.name == dn("example.com"))
                .map(|rr| rr.data.record_type())
                .collect();
            assert_eq!(
                apex,
                [
                    RecordType::Soa,
                    RecordType::Ns,
                    RecordType::Ns,
                    RecordType::A
                ]
            );
        }
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

    /// A batch names its first offending record, as inserting it record
    /// by record would, and a refused batch changes nothing.
    #[test]
    fn refused_batch_names_its_first_conflict() {
        for mut z in example_zones() {
            let before: Vec<ResourceRecord> = z.records().cloned().collect();
            let a = |name: &str| ResourceRecord::new(dn(name), RecordData::A(Ipv4Addr::LOCALHOST));
            let cname = |name: &str| ResourceRecord::new(dn(name), RecordData::Cname(dn("x.net")));
            let batch = vec![
                a("h1.example.com"),
                cname("h2.example.com"),
                a("h2.example.com"),
                cname("h1.example.com"),
                a("other.net"),
            ];
            let (at, why) = z.try_insert_all(batch).unwrap_err();
            assert_eq!(at, 2);
            assert!(why.contains("CNAME at h2.example.com"), "{why}");
            // A clash with a record already in the zone.
            let (at, why) = z
                .try_insert_all(vec![a("h3.example.com"), a("www.example.com")])
                .unwrap_err();
            assert_eq!(at, 1, "{why}");
            // An owner outside the zone before any clash.
            let (at, why) = z
                .try_insert_all(vec![a("other.net"), cname("example.com")])
                .unwrap_err();
            assert_eq!(at, 0);
            assert!(why.contains("outside zone"), "{why}");
            let after: Vec<ResourceRecord> = z.records().cloned().collect();
            assert_eq!(before, after);
        }
    }

    /// Every zone answers as the unsorted, unindexed list of what was
    /// inserted would, across both sides of [`SCAN_RECORDS`] and with
    /// records added one at a time and in batches.
    #[test]
    fn lookups_match_the_inserted_records() {
        const LABELS: [&str; 6] = ["www", "a", "b", "ns1", "cdn", "img"];
        let origin = dn("zone.test");
        for seed in 0..48u64 {
            let mut rng = DetRng::new(seed);
            let soa = Soa::standard(dn("ns1.zone.test"), dn("hostmaster.zone.test"), 1);
            let mut zone = Zone::new(origin.clone(), soa.clone());
            let mut inserted = vec![zone.records[0].clone()];
            let mut cuts: Vec<Cut> = Vec::new();
            let random_name = |rng: &mut DetRng| {
                let mut name = origin.clone();
                for _ in 0..rng.below(3) {
                    name = name.child(LABELS[rng.below(LABELS.len())]).unwrap();
                }
                name
            };
            let target = rng.below(40);
            while inserted.len() < target {
                let batch: Vec<ResourceRecord> = (0..1 + rng.below(6))
                    .map(|i| {
                        let data = match rng.below(4) {
                            0 => RecordData::Cname(dn("target.elsewhere.net")),
                            1 => RecordData::Ns(dn("ns9.elsewhere.net")),
                            2 => RecordData::Txt(format!("t{i}")),
                            _ => RecordData::A(Ipv4Addr::from(rng.next_u64() as u32)),
                        };
                        ResourceRecord::new(random_name(&mut rng), data)
                    })
                    .collect();
                if zone.try_insert_all(batch.clone()).is_ok() {
                    inserted.extend(batch);
                }
                if rng.below(12) == 0 {
                    let child = origin.child(LABELS[rng.below(LABELS.len())]).unwrap();
                    let child = child.child("deleg").unwrap();
                    let hosts = vec![child.child("ns1").unwrap(), dn("ns.elsewhere.net")];
                    zone.delegate(child.clone(), hosts.clone());
                    cuts.retain(|(cut, _)| *cut != child);
                    cuts.push((child, hosts.clone().into_boxed_slice()));
                    let glue =
                        ResourceRecord::new(hosts[0].clone(), RecordData::A(Ipv4Addr::LOCALHOST));
                    if zone.try_insert_all(vec![glue.clone()]).is_ok() {
                        inserted.push(glue);
                    }
                }
            }
            let mut sorted = inserted.clone();
            sorted.sort_by(|a, b| a.name.cmp(&b.name));
            assert!(zone.records().eq(sorted.iter()), "seed {seed}");
            assert_eq!(zone.index.is_some(), inserted.len() > SCAN_RECORDS);

            let owned = |name: &DomainName| -> Vec<ResourceRecord> {
                inserted
                    .iter()
                    .filter(|rr| rr.name == *name)
                    .cloned()
                    .collect()
            };
            let expect = |qname: &DomainName, qtype: RecordType| -> ZoneAnswer {
                if let Some((cut, hosts)) = cuts
                    .iter()
                    .filter(|(cut, _)| qname.is_equal_or_subdomain_of(cut))
                    .max_by_key(|(cut, _)| cut.label_count())
                {
                    return ZoneAnswer::Referral {
                        cut: cut.clone(),
                        ns_hosts: hosts.to_vec(),
                        glue: hosts
                            .iter()
                            .flat_map(&owned)
                            .filter(|rr| rr.data.as_a().is_some())
                            .collect(),
                    };
                }
                let rrs = owned(qname);
                if let Some(rr) = rrs.iter().find(|rr| rr.data.as_cname().is_some()) {
                    if qtype != RecordType::Cname {
                        let target = rr.data.as_cname().unwrap().clone();
                        return ZoneAnswer::CnameRedirect {
                            record: rr.clone(),
                            target,
                        };
                    }
                }
                let answers: Vec<_> = rrs
                    .into_iter()
                    .filter(|rr| rr.data.record_type() == qtype)
                    .collect();
                let exists = inserted
                    .iter()
                    .map(|rr| &rr.name)
                    .chain(cuts.iter().map(|(cut, _)| cut))
                    .any(|n| n.is_equal_or_subdomain_of(qname));
                match (answers.is_empty(), exists) {
                    (false, _) => ZoneAnswer::Answer(answers),
                    (true, true) => ZoneAnswer::NoData { soa: soa.clone() },
                    (true, false) => ZoneAnswer::NxDomain { soa: soa.clone() },
                }
            };
            let mut probe = DetRng::new(seed ^ 0xD0);
            for _ in 0..64 {
                let mut qname = random_name(&mut probe);
                if probe.below(4) == 0 {
                    qname = qname.child("deleg").unwrap();
                }
                for qtype in [
                    RecordType::A,
                    RecordType::Ns,
                    RecordType::Soa,
                    RecordType::Cname,
                    RecordType::Txt,
                ] {
                    assert_eq!(
                        zone.lookup(&qname, qtype),
                        expect(&qname, qtype),
                        "seed {seed}: {qname} {qtype}"
                    );
                }
            }
        }
    }

    #[test]
    fn heap_bytes_counts_the_arrays() {
        let [small, large] = example_zones();
        let records = |z: &Zone| z.records().count() * std::mem::size_of::<ResourceRecord>();
        assert!(small.heap_bytes() > records(&small));
        assert!(large.heap_bytes() > records(&large) + SCAN_RECORDS * 8);
    }
}
