//! DNS resource records.
//!
//! Only the record types the measurement methodology touches are modeled:
//! `NS` (nameserver discovery), `SOA` (the paper's authority-mismatch and
//! entity-grouping heuristics use the MNAME and RNAME fields), `A`
//! (reachability / glue), `CNAME` (CDN detection), and `TXT` (misc
//! metadata, exercised by tests).

use crate::clock::Ttl;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;
use webdeps_model::DomainName;

/// Record type tag (the QTYPE of a query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 address record.
    A,
    /// Nameserver delegation record.
    Ns,
    /// Start-of-authority record.
    Soa,
    /// Canonical-name alias record.
    Cname,
    /// Free-text record.
    Txt,
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Ns => "NS",
            RecordType::Soa => "SOA",
            RecordType::Cname => "CNAME",
            RecordType::Txt => "TXT",
        };
        f.write_str(s)
    }
}

/// Start-of-authority payload.
///
/// `mname` (master nameserver) and `rname` (administrator mailbox,
/// encoded as a domain name per RFC 1035) are the two fields the paper
/// uses to group nameservers into owning entities when measuring
/// redundancy: two nameservers with the same SOA `MNAME` or `RNAME`
/// belong to the same operator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Soa {
    /// Primary master nameserver for the zone.
    pub mname: DomainName,
    /// Responsible-party mailbox (dots-for-@ encoding).
    pub rname: DomainName,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval (seconds).
    pub refresh: u32,
    /// Retry interval (seconds).
    pub retry: u32,
    /// Expiry (seconds).
    pub expire: u32,
    /// Negative-caching TTL (seconds).
    pub minimum: u32,
}

impl Soa {
    /// A SOA with conventional timer values, as generated zones use.
    pub fn standard(mname: DomainName, rname: DomainName, serial: u32) -> Self {
        Soa {
            mname,
            rname,
            serial,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }
    }
}

impl fmt::Display for Soa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {} {} {}",
            self.mname,
            self.rname,
            self.serial,
            self.refresh,
            self.retry,
            self.expire,
            self.minimum
        )
    }
}

/// Typed record payload.
///
/// The SOA payload lives out of line: only a zone's apex record carries
/// one, and inline it would more than double every other record (a
/// stored [`ResourceRecord`] is 48 bytes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecordData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Delegation to a nameserver host.
    Ns(DomainName),
    /// Start of authority, shared with the zone that owns it.
    Soa(Arc<Soa>),
    /// Alias to the canonical name.
    Cname(DomainName),
    /// Free text.
    Txt(String),
}

impl RecordData {
    /// The type tag of this payload.
    pub fn record_type(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Soa(_) => RecordType::Soa,
            RecordData::Cname(_) => RecordType::Cname,
            RecordData::Txt(_) => RecordType::Txt,
        }
    }

    /// The nameserver host, when this is an NS record.
    pub fn as_ns(&self) -> Option<&DomainName> {
        match self {
            RecordData::Ns(host) => Some(host),
            _ => None,
        }
    }

    /// The alias target, when this is a CNAME record.
    pub fn as_cname(&self) -> Option<&DomainName> {
        match self {
            RecordData::Cname(target) => Some(target),
            _ => None,
        }
    }

    /// The address, when this is an A record.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self {
            RecordData::A(ip) => Some(*ip),
            _ => None,
        }
    }

    /// The SOA payload, when this is a SOA record.
    pub fn as_soa(&self) -> Option<&Soa> {
        match self {
            RecordData::Soa(soa) => Some(soa.as_ref()),
            _ => None,
        }
    }
}

impl fmt::Display for RecordData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordData::A(ip) => write!(f, "A {ip}"),
            RecordData::Ns(h) => write!(f, "NS {h}"),
            RecordData::Soa(s) => write!(f, "SOA {s}"),
            RecordData::Cname(t) => write!(f, "CNAME {t}"),
            RecordData::Txt(t) => write!(f, "TXT {t:?}"),
        }
    }
}

/// A complete resource record: owner name, TTL, and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name the record is attached to.
    pub name: DomainName,
    /// Time to live.
    pub ttl: Ttl,
    /// Payload.
    pub data: RecordData,
}

impl ResourceRecord {
    /// Builds a record with the default TTL.
    pub fn new(name: DomainName, data: RecordData) -> Self {
        ResourceRecord {
            name,
            ttl: Ttl::DEFAULT,
            data,
        }
    }

    /// Builds a record with an explicit TTL.
    pub fn with_ttl(name: DomainName, ttl: Ttl, data: RecordData) -> Self {
        ResourceRecord { name, ttl, data }
    }
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.ttl.seconds(), self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    #[test]
    fn payload_type_tags() {
        assert_eq!(
            RecordData::A(Ipv4Addr::LOCALHOST).record_type(),
            RecordType::A
        );
        assert_eq!(
            RecordData::Ns(dn("ns1.example.com")).record_type(),
            RecordType::Ns
        );
        assert_eq!(
            RecordData::Cname(dn("cdn.example.net")).record_type(),
            RecordType::Cname
        );
        assert_eq!(RecordData::Txt("x".into()).record_type(), RecordType::Txt);
        let soa = Soa::standard(dn("ns1.example.com"), dn("hostmaster.example.com"), 1);
        assert_eq!(
            RecordData::Soa(Arc::new(soa)).record_type(),
            RecordType::Soa
        );
    }

    /// Zones store one record per answer; the SOA payload lives out of
    /// line so that a record stays within 48 bytes.
    #[test]
    fn stored_record_is_compact() {
        assert!(std::mem::size_of::<ResourceRecord>() <= 48);
    }

    #[test]
    fn accessors_are_type_safe() {
        let ns = RecordData::Ns(dn("ns1.example.com"));
        assert_eq!(ns.as_ns(), Some(&dn("ns1.example.com")));
        assert_eq!(ns.as_cname(), None);
        assert_eq!(ns.as_a(), None);
        assert_eq!(ns.as_soa(), None);
        let a = RecordData::A(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(a.as_a(), Some(Ipv4Addr::new(192, 0, 2, 1)));
    }

    #[test]
    fn display_formats() {
        let rr = ResourceRecord::with_ttl(
            dn("www.example.com"),
            Ttl(300),
            RecordData::Cname(dn("cust-1.cdn.example.net")),
        );
        assert_eq!(
            rr.to_string(),
            "www.example.com 300 CNAME cust-1.cdn.example.net"
        );
    }
}
