//! Resolution tracing (`dig +trace` for the simulator).
//!
//! [`Resolver::trace`] runs an iterative resolution — the walk
//! [`Resolver::resolve`] takes on a cache miss — while recording every
//! authority tier contacted, which server answered (or why none could),
//! and each CNAME hop: the debugging view operators reach for when "why
//! doesn't this resolve during the outage?" comes up.

use crate::record::RecordType;
use crate::resolver::Resolver;
use webdeps_model::DomainName;

/// What happened at one step of the walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A zone tier was contacted successfully.
    Tier {
        /// Zone origin of the tier.
        zone: DomainName,
        /// Hostname of the server that answered.
        server: DomainName,
    },
    /// Every server of a tier was down.
    TierDown {
        /// Zone origin of the unreachable tier.
        zone: DomainName,
        /// Number of servers tried.
        servers_tried: usize,
    },
    /// The deepest zone answered with records.
    Answer {
        /// Answering zone.
        zone: DomainName,
        /// Number of records in the answer.
        records: usize,
    },
    /// A CNAME hop was taken.
    CnameHop {
        /// Alias owner.
        from: DomainName,
        /// Alias target.
        to: DomainName,
    },
    /// A terminal negative or error outcome: the last event of a failed
    /// trace.
    Failed {
        /// Rendered error.
        error: String,
    },
}

/// A full resolution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The traced query.
    pub qname: DomainName,
    /// The traced query type.
    pub qtype: RecordType,
    /// Events in wire order.
    pub events: Vec<TraceEvent>,
    /// Whether the resolution ultimately succeeded.
    pub success: bool,
}

impl Trace {
    /// Renders the trace like `dig +trace` output.
    pub fn render(&self) -> String {
        let mut out = format!(";; trace {} {}\n", self.qname, self.qtype);
        for event in &self.events {
            match event {
                TraceEvent::Tier { zone, server } => {
                    out.push_str(&format!(";; zone {zone} @ {server}\n"));
                }
                TraceEvent::TierDown {
                    zone,
                    servers_tried,
                } => {
                    out.push_str(&format!(
                        ";; zone {zone}: all {servers_tried} servers unreachable\n"
                    ));
                }
                TraceEvent::Answer { zone, records } => {
                    out.push_str(&format!(";; answer from {zone}: {records} record(s)\n"));
                }
                TraceEvent::CnameHop { from, to } => {
                    out.push_str(&format!(";; cname {from} -> {to}\n"));
                }
                TraceEvent::Failed { error } => {
                    out.push_str(&format!(";; failed: {error}\n"));
                }
            }
        }
        out
    }
}

impl Resolver<'_> {
    /// Traces an iterative resolution without touching the answer cache
    /// (a diagnostic should always show the live wire). The events come
    /// from the walk an uncached [`Resolver::resolve`] takes — same
    /// fault schedule, retries and clock — so a trace succeeds exactly
    /// when that resolve would, a failed one ends on the resolve error,
    /// and its contacts count in the resolver's stats like any query.
    pub fn trace(&mut self, qname: &DomainName, qtype: RecordType) -> Trace {
        let mut events = Vec::new();
        let result = self.walk_chain(qname, qtype, Some(&mut events));
        if let Err(error) = &result {
            events.push(TraceEvent::Failed {
                error: error.to_string(),
            });
        }
        Trace {
            qname: qname.clone(),
            qtype,
            events,
            success: result.is_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::network::DnsNetwork;
    use crate::record::{RecordData, Soa};
    use crate::zone::Zone;
    use std::net::Ipv4Addr;
    use webdeps_model::name::dn;
    use webdeps_model::EntityId;

    fn network() -> DnsNetwork {
        let mut b = DnsNetwork::builder();
        let site = b.add_server(dn("ns1.shop.com"), Ipv4Addr::new(192, 0, 2, 1), EntityId(0));
        let cdn = b.add_server(
            dn("ns1.cdnco.net"),
            Ipv4Addr::new(203, 0, 113, 1),
            EntityId(1),
        );
        let mut z = Zone::new(
            dn("shop.com"),
            Soa::standard(dn("ns1.shop.com"), dn("h.shop.com"), 1),
        );
        z.add(dn("www.shop.com"), RecordData::Cname(dn("cust.cdnco.net")));
        z.add(dn("shop.com"), RecordData::A(Ipv4Addr::new(192, 0, 2, 80)));
        b.add_zone(z, vec![site]);
        let mut c = Zone::new(
            dn("cdnco.net"),
            Soa::standard(dn("ns1.cdnco.net"), dn("h.cdnco.net"), 1),
        );
        c.add(
            dn("cust.cdnco.net"),
            RecordData::A(Ipv4Addr::new(203, 0, 113, 80)),
        );
        b.add_zone(c, vec![cdn]);
        b.build()
    }

    #[test]
    fn trace_shows_the_full_walk() {
        let net = network();
        let mut r = Resolver::new(&net);
        let trace = r.trace(&dn("www.shop.com"), RecordType::A);
        assert!(trace.success);
        let rendered = trace.render();
        assert!(
            rendered.contains("zone shop.com @ ns1.shop.com"),
            "{rendered}"
        );
        assert!(rendered.contains("cname www.shop.com -> cust.cdnco.net"));
        assert!(rendered.contains("zone cdnco.net @ ns1.cdnco.net"));
        assert!(rendered.contains("answer from cdnco.net: 1 record(s)"));
    }

    #[test]
    fn trace_pinpoints_the_dead_tier() {
        let net = network();
        let mut r = Resolver::new(&net);
        r.set_schedule(FaultPlan::healthy().fail_entity(EntityId(1)).into());
        let trace = r.trace(&dn("www.shop.com"), RecordType::A);
        assert!(!trace.success);
        assert!(trace.events.contains(&TraceEvent::TierDown {
            zone: dn("cdnco.net"),
            servers_tried: 1
        }));
        // The working tier before it is still visible.
        assert!(matches!(trace.events[0], TraceEvent::Tier { .. }));
    }

    /// Inside a scheduled hard-down window the trace must fail where
    /// resolution fails.
    #[test]
    fn trace_honours_a_scheduled_down_window() {
        use crate::clock::SimTime;
        use crate::fault::{Degradation, FaultSchedule};
        let net = network();
        let mut r = Resolver::new(&net);
        r.disable_cache();
        r.set_schedule(FaultSchedule::seeded(3).fail_entity_during(
            EntityId(1),
            SimTime(100),
            SimTime(200),
            Degradation::Down,
        ));
        assert!(r.trace(&dn("www.shop.com"), RecordType::A).success);
        r.advance_time(150);
        assert!(r.resolve(&dn("www.shop.com"), RecordType::A).is_err());
        let trace = r.trace(&dn("www.shop.com"), RecordType::A);
        assert!(!trace.success, "{}", trace.render());
        assert!(trace.events.contains(&TraceEvent::TierDown {
            zone: dn("cdnco.net"),
            servers_tried: 1
        }));
        r.advance_time(100);
        assert!(r.trace(&dn("www.shop.com"), RecordType::A).success);
    }

    /// Live-but-slow servers time out in a trace as they do in a resolve.
    #[test]
    fn trace_reports_a_degraded_tier_as_a_timeout() {
        use crate::clock::SimTime;
        use crate::fault::{Degradation, FaultSchedule};
        let net = network();
        let mut r = Resolver::new(&net);
        r.set_schedule(FaultSchedule::seeded(3).fail_entity_during(
            EntityId(1),
            SimTime(0),
            SimTime(100),
            Degradation::Latency { added_ms: 5_000 },
        ));
        let trace = r.trace(&dn("www.shop.com"), RecordType::A);
        assert!(!trace.success);
        assert!(
            trace
                .render()
                .contains("retries exhausted against zone cdnco.net"),
            "{}",
            trace.render()
        );
    }

    #[test]
    fn trace_reports_negative_answers() {
        let net = network();
        let mut r = Resolver::new(&net);
        let trace = r.trace(&dn("missing.shop.com"), RecordType::A);
        assert!(!trace.success);
        assert!(trace.render().contains("NXDOMAIN"));
        let trace = r.trace(&dn("unknown.zz"), RecordType::A);
        assert!(trace.render().contains("no authority known"));
    }

    /// A zone of CNAMEs: each `(alias, target)` pair under `chain.com`,
    /// plus an A record for `end`.
    fn cname_network(links: &[(&str, &str)], end: &str) -> DnsNetwork {
        let mut b = DnsNetwork::builder();
        let s = b.add_server(
            dn("ns1.chain.com"),
            Ipv4Addr::new(192, 0, 2, 1),
            EntityId(0),
        );
        let mut z = Zone::new(
            dn("chain.com"),
            Soa::standard(dn("ns1.chain.com"), dn("h.chain.com"), 1),
        );
        for (alias, target) in links {
            z.add(dn(alias), RecordData::Cname(dn(target)));
        }
        z.add(dn(end), RecordData::A(Ipv4Addr::new(192, 0, 2, 80)));
        b.add_zone(z, vec![s]);
        b.build()
    }

    /// Traces and resolves `qname` on fresh resolvers: both fail alike,
    /// the trace ends on the resolve error, and both contact as many
    /// tiers. Returns that count.
    fn assert_trace_agrees_with_resolve(net: &DnsNetwork, qname: &str) -> u64 {
        let mut r = Resolver::new(net);
        let trace = r.trace(&dn(qname), RecordType::A);
        let traced = r.stats().queries_sent;
        let mut r = Resolver::new(net);
        let resolved = r.resolve(&dn(qname), RecordType::A);
        assert_eq!(trace.success, resolved.is_ok(), "{}", trace.render());
        let error = resolved.expect_err("the chain cannot resolve").to_string();
        assert_eq!(
            trace.events.last(),
            Some(&TraceEvent::Failed { error }),
            "{}",
            trace.render()
        );
        assert_eq!(traced, r.stats().queries_sent, "{}", trace.render());
        traced
    }

    #[test]
    fn trace_fails_on_a_cname_loop_like_resolve() {
        let net = cname_network(
            &[
                ("a.chain.com", "b.chain.com"),
                ("b.chain.com", "a.chain.com"),
            ],
            "c.chain.com",
        );
        assert_eq!(assert_trace_agrees_with_resolve(&net, "a.chain.com"), 2);
    }

    #[test]
    fn trace_fails_on_an_over_long_chain_like_resolve() {
        let names: Vec<String> = (0..=10).map(|i| format!("h{i}.chain.com")).collect();
        let links: Vec<(&str, &str)> = names
            .windows(2)
            .map(|w| (w[0].as_str(), w[1].as_str()))
            .collect();
        let net = cname_network(&links, &names[10]);
        assert_eq!(assert_trace_agrees_with_resolve(&net, "h0.chain.com"), 9);
    }
}
