//! RFC 1035 master-file ("zone file") parsing and serialization.
//!
//! Supports the subset of the master-file syntax the simulator uses:
//! `$ORIGIN` and `$TTL` directives, relative and absolute owner names,
//! the `@` apex shorthand, blank-owner continuation (a record inheriting
//! the previous owner), comments, and the `SOA`, `NS`, `A`, `CNAME`,
//! and `TXT` record types. Every [`Zone`] can round-trip through its
//! textual form, which makes worlds inspectable with standard DNS
//! tooling habits and lets tests pin zone contents as fixtures.

use crate::clock::Ttl;
use crate::record::{RecordData, ResourceRecord, Soa};
use crate::zone::Zone;
use std::fmt;
use std::net::Ipv4Addr;
use webdeps_model::{DomainName, ModelError};

/// Zone-file parse errors, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZonefileError {
    /// Line the error occurred on (1-based; 0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ZonefileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ZonefileError {}

fn err(line: usize, message: impl Into<String>) -> ZonefileError {
    ZonefileError {
        line,
        message: message.into(),
    }
}

/// Resolves a possibly-relative name against the origin.
fn resolve_name(
    token: &str,
    origin: &DomainName,
    line: usize,
) -> Result<DomainName, ZonefileError> {
    let name = if token == "@" {
        Ok(origin.clone())
    } else if let Some(absolute) = token.strip_suffix('.') {
        DomainName::parse(absolute)
    } else {
        DomainName::parse(&format!("{token}.{origin}"))
    };
    name.map_err(|e: ModelError| err(line, e.to_string()))
}

/// Strips comments: everything after the first `;` that is outside a
/// quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (idx, ch) in line.char_indices() {
        match ch {
            '"' => in_quotes = !in_quotes,
            ';' if !in_quotes => return &line[..idx],
            _ => {}
        }
    }
    line
}

/// Parses a zone file into a [`Zone`]. The file must contain exactly one
/// SOA record; `$ORIGIN` defaults to `default_origin` when absent.
///
/// ```
/// use webdeps_dns::Zone;
/// let zone = Zone::from_zonefile(
///     "$ORIGIN example.com.\n\
///      @ IN SOA ns1 hostmaster 1 7200 900 1209600 300\n\
///      @ IN NS ns1\n\
///      ns1 IN A 192.0.2.53\n",
/// ).unwrap();
/// assert_eq!(zone.origin().as_str(), "example.com");
/// assert_eq!(zone.to_zonefile().lines().count(), 5);
/// ```
#[must_use]
pub fn parse_zone(text: &str, default_origin: Option<&DomainName>) -> Result<Zone, ZonefileError> {
    let mut origin: Option<DomainName> = default_origin.cloned();
    let mut default_ttl = Ttl::DEFAULT;
    let mut last_owner: Option<DomainName> = None;
    let mut soa: Option<(DomainName, Soa, Ttl)> = None;
    let mut records: Vec<(usize, ResourceRecord)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let had_leading_ws = raw.starts_with(' ') || raw.starts_with('\t');
        let line = strip_comment(raw).trim_end();
        if line.trim().is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = line.trim().strip_prefix("$ORIGIN") {
            let name = rest.trim().trim_end_matches('.');
            origin = Some(DomainName::parse(name).map_err(|e| err(line_no, e.to_string()))?);
            continue;
        }
        if let Some(rest) = line.trim().strip_prefix("$TTL") {
            let secs: u32 = rest
                .trim()
                .parse()
                .map_err(|_| err(line_no, format!("bad $TTL {rest:?}")))?;
            default_ttl = Ttl(secs);
            continue;
        }

        let origin_ref = origin
            .as_ref()
            .ok_or_else(|| err(line_no, "no $ORIGIN declared"))?
            .clone();

        let mut tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }

        // Owner: a line starting with whitespace continues the previous
        // owner; otherwise the first token is the owner.
        let owner = if had_leading_ws {
            last_owner
                .clone()
                .ok_or_else(|| err(line_no, "continuation line before any owner"))?
        } else {
            let token = tokens.remove(0);
            resolve_name(token, &origin_ref, line_no)?
        };
        last_owner = Some(owner.clone());

        // Optional TTL, optional class (IN).
        let mut ttl = default_ttl;
        if let Some(first) = tokens.first() {
            if let Ok(secs) = first.parse::<u32>() {
                ttl = Ttl(secs);
                tokens.remove(0);
            }
        }
        if tokens
            .first()
            .map(|t| t.eq_ignore_ascii_case("IN"))
            .unwrap_or(false)
        {
            tokens.remove(0);
        }

        let Some(rtype) = tokens.first().copied() else {
            return Err(err(line_no, "missing record type"));
        };
        tokens.remove(0);

        match rtype.to_ascii_uppercase().as_str() {
            "SOA" => {
                if soa.is_some() {
                    return Err(err(line_no, "duplicate SOA"));
                }
                if tokens.len() != 7 {
                    return Err(err(
                        line_no,
                        format!("SOA needs MNAME RNAME SERIAL REFRESH RETRY EXPIRE MINIMUM, got {} fields", tokens.len()),
                    ));
                }
                let mname = resolve_name(tokens[0], &origin_ref, line_no)?;
                let rname = resolve_name(tokens[1], &origin_ref, line_no)?;
                let nums: Vec<u32> = tokens[2..7]
                    .iter()
                    .map(|t| {
                        t.parse::<u32>()
                            .map_err(|_| err(line_no, format!("bad SOA number {t:?}")))
                    })
                    .collect::<Result<_, _>>()?;
                soa = Some((
                    owner,
                    Soa {
                        mname,
                        rname,
                        serial: nums[0],
                        refresh: nums[1],
                        retry: nums[2],
                        expire: nums[3],
                        minimum: nums[4],
                    },
                    ttl,
                ));
            }
            "NS" => {
                let host = resolve_name(
                    tokens
                        .first()
                        .ok_or_else(|| err(line_no, "NS needs a host"))?,
                    &origin_ref,
                    line_no,
                )?;
                records.push((
                    line_no,
                    ResourceRecord::with_ttl(owner, ttl, RecordData::Ns(host)),
                ));
            }
            "A" => {
                let ip: Ipv4Addr = tokens
                    .first()
                    .ok_or_else(|| err(line_no, "A needs an address"))?
                    .parse()
                    .map_err(|_| err(line_no, "bad IPv4 address"))?;
                records.push((
                    line_no,
                    ResourceRecord::with_ttl(owner, ttl, RecordData::A(ip)),
                ));
            }
            "CNAME" => {
                let target = resolve_name(
                    tokens
                        .first()
                        .ok_or_else(|| err(line_no, "CNAME needs a target"))?,
                    &origin_ref,
                    line_no,
                )?;
                records.push((
                    line_no,
                    ResourceRecord::with_ttl(owner, ttl, RecordData::Cname(target)),
                ));
            }
            "TXT" => {
                let joined = tokens.join(" ");
                let content = joined.trim().trim_matches('"').to_string();
                records.push((
                    line_no,
                    ResourceRecord::with_ttl(owner, ttl, RecordData::Txt(content)),
                ));
            }
            other => return Err(err(line_no, format!("unsupported record type {other:?}"))),
        }
    }

    let (apex, soa, _ttl) = soa.ok_or_else(|| err(0, "zone file has no SOA record"))?;
    if let Some(origin) = &origin {
        if &apex != origin {
            return Err(err(
                0,
                format!("SOA owner {apex} does not match origin {origin}"),
            ));
        }
    }
    let mut zone = Zone::new(apex, soa);
    for (line_no, rr) in records {
        zone.try_insert(rr)
            .map_err(|conflict| err(line_no, conflict))?;
    }
    Ok(zone)
}

/// Serializes a zone to master-file text. Output parses back to an
/// equivalent zone via [`parse_zone`].
pub fn format_zone(zone: &Zone) -> String {
    let origin = zone.origin();
    let soa = zone.soa();
    let mut out = String::new();
    out.push_str(&format!("$ORIGIN {origin}.\n"));
    out.push_str(&format!("$TTL {}\n", Ttl::DEFAULT.seconds()));
    out.push_str(&format!(
        "@ IN SOA {}. {}. {} {} {} {} {}\n",
        soa.mname, soa.rname, soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum
    ));
    for rr in zone.records() {
        if matches!(rr.data, RecordData::Soa(_)) {
            continue;
        }
        let owner = if rr.name == *origin {
            "@".to_string()
        } else {
            format!("{}.", rr.name)
        };
        let data = match &rr.data {
            RecordData::A(ip) => format!("A {ip}"),
            RecordData::Ns(h) => format!("NS {h}."),
            RecordData::Cname(t) => format!("CNAME {t}."),
            RecordData::Txt(t) => format!("TXT \"{t}\""),
            // lint:allow(panic) — infallible: the loop skips SOA records before this match
            RecordData::Soa(_) => unreachable!("skipped above"),
        };
        out.push_str(&format!("{owner} {} IN {data}\n", rr.ttl.seconds()));
    }
    out
}

impl Zone {
    /// Parses a zone from master-file text (see [`parse_zone`]).
    #[must_use]
    pub fn from_zonefile(text: &str) -> Result<Zone, ZonefileError> {
        parse_zone(text, None)
    }

    /// Serializes to master-file text (see [`format_zone`]).
    pub fn to_zonefile(&self) -> String {
        format_zone(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordType;
    use webdeps_model::name::dn;

    const EXAMPLE: &str = r#"
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1.example.com. hostmaster.example.com. 2020010101 7200 900 1209600 300
@   IN NS ns1.example.com.
@   IN NS ns2.dyn-like.net.
@   IN A 192.0.2.10
ns1 IN A 192.0.2.53
    IN TXT "primary nameserver"    ; comment on the continuation line
www 300 IN CNAME cust-7.cdnco.net.
blog IN CNAME @
"#;

    #[test]
    fn parses_a_realistic_zone() {
        let zone = Zone::from_zonefile(EXAMPLE).expect("parses");
        assert_eq!(zone.origin(), &dn("example.com"));
        assert_eq!(zone.soa().serial, 2020010101);
        assert_eq!(zone.soa().rname, dn("hostmaster.example.com"));
        assert_eq!(
            zone.apex_ns_hosts(),
            vec![dn("ns1.example.com"), dn("ns2.dyn-like.net")]
        );
        // Relative, absolute, and @ names all resolved.
        match zone.lookup(&dn("www.example.com"), RecordType::Cname) {
            crate::zone::ZoneAnswer::Answer(rrs) => {
                assert_eq!(rrs[0].data.as_cname(), Some(&dn("cust-7.cdnco.net")));
                assert_eq!(rrs[0].ttl, Ttl(300), "per-record TTL honoured");
            }
            other => panic!("expected CNAME answer, got {other:?}"),
        }
        match zone.lookup(&dn("blog.example.com"), RecordType::Cname) {
            crate::zone::ZoneAnswer::Answer(rrs) => {
                assert_eq!(
                    rrs[0].data.as_cname(),
                    Some(&dn("example.com")),
                    "@ expands to apex"
                );
            }
            other => panic!("expected CNAME answer, got {other:?}"),
        }
        // Continuation line attached the TXT to ns1.
        match zone.lookup(&dn("ns1.example.com"), RecordType::Txt) {
            crate::zone::ZoneAnswer::Answer(rrs) => {
                assert_eq!(rrs[0].data, RecordData::Txt("primary nameserver".into()));
            }
            other => panic!("expected TXT answer, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_through_text() {
        let zone = Zone::from_zonefile(EXAMPLE).unwrap();
        let text = zone.to_zonefile();
        let reparsed = Zone::from_zonefile(&text).expect("roundtrip parses: {text}");
        assert_eq!(reparsed.origin(), zone.origin());
        assert_eq!(reparsed.soa(), zone.soa());
        assert_eq!(reparsed.apex_ns_hosts(), zone.apex_ns_hosts());
        assert_eq!(
            reparsed.lookup(&dn("www.example.com"), RecordType::Cname),
            zone.lookup(&dn("www.example.com"), RecordType::Cname)
        );
        assert_eq!(reparsed.records().count(), zone.records().count());
    }

    #[test]
    fn generated_world_zones_roundtrip() {
        use crate::network::DnsNetwork;
        use crate::record::Soa;
        // A hand-built zone with every record type.
        let mut b = DnsNetwork::builder();
        let s = b.add_server(
            dn("ns1.x.com"),
            Ipv4Addr::new(192, 0, 2, 1),
            webdeps_model::EntityId(0),
        );
        let mut z = Zone::new(
            dn("x.com"),
            Soa::standard(dn("ns1.x.com"), dn("h.x.com"), 7),
        );
        z.add(dn("x.com"), RecordData::Ns(dn("ns1.x.com")));
        z.add(dn("x.com"), RecordData::A(Ipv4Addr::new(192, 0, 2, 80)));
        z.add(dn("a.x.com"), RecordData::Cname(dn("b.other.net")));
        z.add(dn("t.x.com"), RecordData::Txt("hello world".into()));
        b.add_zone(z.clone(), vec![s]);
        let text = z.to_zonefile();
        let re = Zone::from_zonefile(&text).unwrap();
        assert_eq!(re.soa(), z.soa());
        assert_eq!(re.records().count(), z.records().count());
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let missing_soa = "$ORIGIN x.com.\n@ IN NS ns1.x.com.\n";
        let e = Zone::from_zonefile(missing_soa).unwrap_err();
        assert!(e.message.contains("no SOA"));

        let bad_type = "$ORIGIN x.com.\n@ IN SOA ns1.x.com. h.x.com. 1 2 3 4 5\n@ IN MX 10 mail\n";
        let e = Zone::from_zonefile(bad_type).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("MX"));

        let bad_ip = "$ORIGIN x.com.\n@ IN SOA ns1.x.com. h.x.com. 1 2 3 4 5\n@ IN A 999.1.1.1\n";
        let e = Zone::from_zonefile(bad_ip).unwrap_err();
        assert_eq!(e.line, 3);

        let no_origin = "@ IN A 1.2.3.4\n";
        let e = Zone::from_zonefile(no_origin).unwrap_err();
        assert!(e.message.contains("$ORIGIN"));

        let dup_soa = "$ORIGIN x.com.\n@ IN SOA ns1.x.com. h.x.com. 1 2 3 4 5\n@ IN SOA ns1.x.com. h.x.com. 1 2 3 4 5\n";
        let e = Zone::from_zonefile(dup_soa).unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    /// Untrusted text that would break a zone invariant is an error on
    /// its line, never a panic.
    #[test]
    fn zone_invariant_violations_are_errors_not_panics() {
        const HEAD: &str = "$ORIGIN example.com.\n@ IN SOA ns1 hostmaster 1 2 3 4 5\n";
        let outside = format!("{HEAD}other.net. IN A 192.0.2.1\n");
        let e = Zone::from_zonefile(&outside).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("outside zone example.com"), "{e}");

        let cname_after_a = format!("{HEAD}www IN A 192.0.2.1\nwww IN CNAME other.net.\n");
        let e = Zone::from_zonefile(&cname_after_a).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("CNAME at www.example.com"), "{e}");

        let a_after_cname = format!("{HEAD}www IN CNAME other.net.\nwww IN A 192.0.2.1\n");
        let e = Zone::from_zonefile(&a_after_cname).unwrap_err();
        assert_eq!(e.line, 4);

        let cname_at_apex = format!("{HEAD}@ IN CNAME other.net.\n");
        assert_eq!(Zone::from_zonefile(&cname_at_apex).unwrap_err().line, 3);
    }

    #[test]
    fn default_origin_parameter() {
        let text = "@ IN SOA ns1 hostmaster 1 2 3 4 5\n@ IN A 192.0.2.1\n";
        let zone = parse_zone(text, Some(&dn("fallback.org"))).unwrap();
        assert_eq!(zone.origin(), &dn("fallback.org"));
        assert_eq!(zone.soa().mname, dn("ns1.fallback.org"));
    }
}
