//! Request grammar and reply rendering.
//!
//! Frame payloads are single-line UTF-8 commands. The parser is total:
//! any byte sequence maps to either a [`Request`] or a description of
//! why not — it never panics, never allocates proportionally to
//! attacker-declared sizes, and unknown verbs fail closed.
//!
//! Replies are plain text with a fixed first token:
//!
//! * `OK <epoch> …` — answered from the index state at `epoch`. The
//!   third token names the answer (the verb; `PONG` for `PING`).
//!   `OUTAGE` answers
//!   `OK <epoch> OUTAGE <key> affected=<n> total=<n> probed=<n>`: sites
//!   the outage takes down, sites in the world, and sites the sweep
//!   probed — the provider's footprint, not the whole world, and not
//!   the sites that consulted the provider only inside a soft-fail
//!   revocation check that passed, which its outage cannot deny (see
//!   `webdeps_core::outage`). Parsers should pick tokens by their
//!   `name=` prefix, not by position. `STATS` ends with the pooled
//!   latency quantiles `p50us=<n> p99us=<n>`, then the same two per
//!   engine query kind: `rank_p50us=`, `rank_p99us=`, and likewise for
//!   `sites`, `churn` and `outage`;
//! * `BUSY retry-after-ms=<n>` — load shed at admission;
//! * `DEADLINE <epoch>` — the query's time budget expired mid-scan;
//! * `ERR <reason>` — malformed request, unknown provider, or a
//!   contained execution failure.

use webdeps_core::{Churn, ProviderRef};
use webdeps_model::{ServiceKind, SiteId};

/// One parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check; answered without touching the index.
    Ping,
    /// One-line health summary (up/degraded + contained-panic count).
    Health,
    /// Full counters: queue depths, sheds, deadlines, latencies, epoch.
    Stats,
    /// Graceful shutdown: stop accepting, drain in-flight, exit.
    Shutdown,
    /// Top-N providers of a kind by impact (critical dependents).
    Rank {
        /// Service kind to rank.
        kind: ServiceKind,
        /// Number of rows.
        top: usize,
    },
    /// The dependent-site set of one provider.
    Sites {
        /// Provider service kind.
        kind: ServiceKind,
        /// Provider wire key.
        key: String,
    },
    /// Behavioral outage probe of one provider (deadline-bounded).
    Outage {
        /// Provider wire key or catalog name.
        key: String,
    },
    /// One churn delta against the resident index.
    Churn(Churn),
    /// Deliberately panicking query — only honored when the server was
    /// started with poison queries enabled (torture/smoke); proves the
    /// `catch_unwind` isolation layer end to end.
    Poison,
}

/// Parses a service kind token.
fn parse_kind(tok: &str) -> Result<ServiceKind, String> {
    match tok {
        "dns" => Ok(ServiceKind::Dns),
        "cdn" => Ok(ServiceKind::Cdn),
        "ca" => Ok(ServiceKind::Ca),
        "cloud" => Ok(ServiceKind::Cloud),
        other => Err(format!("unknown service kind '{other}'")),
    }
}

/// Renders a kind the way the request parser reads it.
pub fn kind_token(kind: ServiceKind) -> &'static str {
    match kind {
        ServiceKind::Dns => "dns",
        ServiceKind::Cdn => "cdn",
        ServiceKind::Ca => "ca",
        ServiceKind::Cloud => "cloud",
    }
}

fn parse_crit(tok: &str) -> Result<bool, String> {
    match tok {
        "critical" => Ok(true),
        "shared" => Ok(false),
        other => Err(format!("expected 'critical' or 'shared', got '{other}'")),
    }
}

fn parse_site(tok: &str) -> Result<SiteId, String> {
    tok.parse::<u32>()
        .map(SiteId)
        .map_err(|_| format!("bad site id '{tok}'"))
}

/// Parses one frame payload into a [`Request`].
#[must_use]
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let mut toks = text.split_ascii_whitespace();
    let verb = toks.next().ok_or_else(|| "empty request".to_string())?;
    let req = match verb {
        "PING" => Request::Ping,
        "HEALTH" => Request::Health,
        "STATS" => Request::Stats,
        "SHUTDOWN" => Request::Shutdown,
        "POISON" => Request::Poison,
        "RANK" => {
            let kind = parse_kind(toks.next().ok_or("RANK needs a kind")?)?;
            let top = toks
                .next()
                .ok_or("RANK needs a row count")?
                .parse::<usize>()
                .map_err(|_| "bad row count".to_string())?;
            Request::Rank {
                kind,
                top: top.min(100),
            }
        }
        "SITES" => {
            let kind = parse_kind(toks.next().ok_or("SITES needs a kind")?)?;
            let key = toks.next().ok_or("SITES needs a provider key")?.to_string();
            Request::Sites { kind, key }
        }
        "OUTAGE" => {
            let key = toks
                .next()
                .ok_or("OUTAGE needs a provider key")?
                .to_string();
            Request::Outage { key }
        }
        "CHURN" => {
            let op = toks.next().ok_or("CHURN needs an operation")?;
            let delta = match op {
                "ADD-SITE" | "RM-SITE" => {
                    let site = parse_site(toks.next().ok_or("missing site id")?)?;
                    let kind = parse_kind(toks.next().ok_or("missing kind")?)?;
                    let key = toks.next().ok_or("missing provider key")?.to_string();
                    let critical = parse_crit(toks.next().ok_or("missing criticality")?)?;
                    let provider = ProviderRef { key, kind };
                    if op == "ADD-SITE" {
                        Churn::AddSiteEdge {
                            site,
                            provider,
                            critical,
                        }
                    } else {
                        Churn::RemoveSiteEdge {
                            site,
                            provider,
                            critical,
                        }
                    }
                }
                "ADD-PROV" | "RM-PROV" => {
                    let fk = parse_kind(toks.next().ok_or("missing consumer kind")?)?;
                    let fkey = toks.next().ok_or("missing consumer key")?.to_string();
                    let tk = parse_kind(toks.next().ok_or("missing provider kind")?)?;
                    let tkey = toks.next().ok_or("missing provider key")?.to_string();
                    let critical = parse_crit(toks.next().ok_or("missing criticality")?)?;
                    let from = ProviderRef {
                        key: fkey,
                        kind: fk,
                    };
                    let to = ProviderRef {
                        key: tkey,
                        kind: tk,
                    };
                    if op == "ADD-PROV" {
                        Churn::AddProviderEdge { from, to, critical }
                    } else {
                        Churn::RemoveProviderEdge { from, to, critical }
                    }
                }
                other => return Err(format!("unknown CHURN op '{other}'")),
            };
            Request::Churn(delta)
        }
        other => return Err(format!("unknown verb '{other}'")),
    };
    if toks.next().is_some() {
        return Err("trailing tokens after request".to_string());
    }
    Ok(req)
}

/// First token of every reply, for cheap client-side dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// `OK <epoch> …`
    Ok,
    /// `BUSY retry-after-ms=<n>`
    Busy,
    /// `DEADLINE <epoch>`
    Deadline,
    /// `ERR <reason>`
    Err,
}

/// Splits a reply into its kind and, for `OK`/`DEADLINE`, the epoch it
/// answered from. Returns `None` on anything that is not a well-formed
/// reply — the torture client counts those as protocol violations.
pub fn classify_reply(payload: &[u8]) -> Option<(ReplyKind, Option<u64>)> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut toks = text.split_ascii_whitespace();
    match toks.next()? {
        "OK" => {
            let epoch = toks.next()?.parse::<u64>().ok()?;
            Some((ReplyKind::Ok, Some(epoch)))
        }
        "DEADLINE" => {
            let epoch = toks.next()?.parse::<u64>().ok()?;
            Some((ReplyKind::Deadline, Some(epoch)))
        }
        "BUSY" => Some((ReplyKind::Busy, None)),
        "ERR" => Some((ReplyKind::Err, None)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(parse_request(b"PING"), Ok(Request::Ping));
        assert_eq!(
            parse_request(b"RANK dns 5"),
            Ok(Request::Rank {
                kind: ServiceKind::Dns,
                top: 5
            })
        );
        assert_eq!(
            parse_request(b"SITES cdn akamai.com"),
            Ok(Request::Sites {
                kind: ServiceKind::Cdn,
                key: "akamai.com".to_string()
            })
        );
        assert_eq!(
            parse_request(b"CHURN ADD-SITE 7 dns dynect.net critical"),
            Ok(Request::Churn(Churn::AddSiteEdge {
                site: SiteId(7),
                provider: ProviderRef::new("dynect.net", ServiceKind::Dns),
                critical: true,
            }))
        );
        assert_eq!(
            parse_request(b"CHURN RM-PROV cdn akamai.com dns dynect.net shared"),
            Ok(Request::Churn(Churn::RemoveProviderEdge {
                from: ProviderRef::new("akamai.com", ServiceKind::Cdn),
                to: ProviderRef::new("dynect.net", ServiceKind::Dns),
                critical: false,
            }))
        );
    }

    #[test]
    fn rank_top_is_capped() {
        match parse_request(b"RANK ca 100000") {
            Ok(Request::Rank { top, .. }) => assert_eq!(top, 100),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn garbage_fails_closed() {
        assert!(parse_request(b"").is_err());
        assert!(parse_request(b"FROB x").is_err());
        assert!(parse_request(b"RANK dns").is_err());
        assert!(parse_request(b"RANK dns five").is_err());
        assert!(parse_request(b"PING extra").is_err());
        assert!(parse_request(b"CHURN ADD-SITE x dns a.com critical").is_err());
        assert!(parse_request(&[0xff, 0xfe, 0x00]).is_err());
    }

    #[test]
    fn replies_classify() {
        assert_eq!(
            classify_reply(b"OK 42 RANK dns 0"),
            Some((ReplyKind::Ok, Some(42)))
        );
        assert_eq!(
            classify_reply(b"DEADLINE 7"),
            Some((ReplyKind::Deadline, Some(7)))
        );
        assert_eq!(
            classify_reply(b"BUSY retry-after-ms=25"),
            Some((ReplyKind::Busy, None))
        );
        assert_eq!(classify_reply(b"ERR nope"), Some((ReplyKind::Err, None)));
        assert_eq!(classify_reply(b"WAT"), None);
        assert_eq!(classify_reply(b"OK notanum"), None);
    }
}
