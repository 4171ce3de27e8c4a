//! Resolution tracing (`dig +trace` for the simulator).
//!
//! [`Resolver::trace`] re-runs an iterative resolution while recording
//! every authority tier contacted, which server answered (or why none
//! could), and each CNAME hop — the debugging view operators reach for
//! when "why doesn't this resolve during the outage?" comes up.

use crate::record::RecordType;
use crate::resolver::{ResolveError, Resolver};
use crate::zone::ZoneAnswer;
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
    /// A terminal negative or error outcome.
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
    /// (a diagnostic should always show the live wire). Each tier is
    /// contacted through the same reachability check as resolution —
    /// fault plan, fault schedule and retries at the resolver's clock —
    /// so a trace succeeds exactly when an uncached resolve would, and
    /// its contacts count in the resolver's stats like any query.
    pub fn trace(&mut self, qname: &DomainName, qtype: RecordType) -> Trace {
        let network = self.network();
        let mut events = Vec::new();
        let mut current = qname.clone();
        let mut success = false;

        'chase: for _hop in 0..=8 {
            let tiers = network.authority_chain(&current);
            if tiers.is_empty() {
                events.push(TraceEvent::Failed {
                    error: ResolveError::UnknownZone {
                        name: current.clone(),
                    }
                    .to_string(),
                });
                break;
            }
            for dep in &tiers {
                match self.contact_tier(dep, &current) {
                    Ok(sid) => events.push(TraceEvent::Tier {
                        zone: dep.zone.origin().clone(),
                        server: network.server(sid).hostname.clone(),
                    }),
                    Err(ResolveError::AllServersDown { .. }) => {
                        events.push(TraceEvent::TierDown {
                            zone: dep.zone.origin().clone(),
                            servers_tried: dep.servers.len(),
                        });
                        break 'chase;
                    }
                    Err(error) => {
                        events.push(TraceEvent::Failed {
                            error: error.to_string(),
                        });
                        break 'chase;
                    }
                }
            }
            // lint:allow(panic) — infallible: emptiness is checked immediately above
            let deepest = tiers.last().expect("non-empty");
            match deepest.zone.lookup(&current, qtype) {
                ZoneAnswer::Answer(records) => {
                    events.push(TraceEvent::Answer {
                        zone: deepest.zone.origin().clone(),
                        records: records.len(),
                    });
                    success = true;
                    break;
                }
                ZoneAnswer::CnameRedirect { target, .. } => {
                    events.push(TraceEvent::CnameHop {
                        from: current.clone(),
                        to: target.clone(),
                    });
                    current = target;
                }
                other => {
                    let error = match other {
                        ZoneAnswer::NoData { .. } => format!("NODATA for {current}"),
                        ZoneAnswer::NxDomain { .. } => format!("NXDOMAIN for {current}"),
                        ZoneAnswer::Referral { cut, .. } => format!("lame delegation at {cut}"),
                        _ => "unexpected answer".to_string(),
                    };
                    events.push(TraceEvent::Failed { error });
                    break;
                }
            }
        }

        Trace {
            qname: qname.clone(),
            qtype,
            events,
            success,
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
        r.set_faults(FaultPlan::healthy().fail_entity(EntityId(1)));
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
    /// resolution fails, not report the plan-only view.
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
}
