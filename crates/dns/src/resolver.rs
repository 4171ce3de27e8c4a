//! The iterative resolver.
//!
//! [`Resolver`] is the client-side engine the measurement pipeline and
//! the web crawler use for every lookup. It walks the authority chain of
//! a query name (registry tier → … → deepest deployed zone), requires
//! every tier to have at least one reachable server under its one
//! [`FaultSchedule`] (a static [`FaultPlan`](crate::fault::FaultPlan) is
//! a schedule too), chases CNAME chains across zones, and caches both
//! positive and negative answers with TTL semantics.
//! [`Resolver::trace`] records the events of that same walk.
//!
//! Client-side resilience is modelled explicitly, because it decides
//! incident outcomes as much as server-side redundancy does:
//!
//! * each zone tier is retried across the NS preference order, three
//!   rounds with a 1 s per-attempt timeout (stub-resolver practice) —
//!   under *partial* packet loss (the Mirai wave shape) retries convert
//!   most would-be failures into slow successes, and exhausting them
//!   yields the distinct [`ResolveError::Timeout`] rather than a
//!   SERVFAIL-shaped [`ResolveError::AllServersDown`];
//! * an opt-in [`StalePolicy`] serves cached answers up to one day past
//!   their expiry while authority is unreachable (RFC 8767 serve-stale).

use crate::cache::{CacheHit, DnsCache};
use crate::clock::SimClock;
use crate::fault::FaultSchedule;
use crate::network::{DnsNetwork, ZoneDeployment};
use crate::record::{RecordType, ResourceRecord, Soa};
use crate::server::ServerId;
use crate::trace::TraceEvent;
use crate::zone::ZoneAnswer;
use std::fmt;
use std::net::Ipv4Addr;
use webdeps_model::{CaId, DomainName, EntityId};

/// Maximum CNAME chain length before the resolver gives up (mirrors the
/// chase limits of production resolvers).
const MAX_CNAME_HOPS: usize = 8;

/// Rounds through a zone tier's NS preference order before a lookup
/// gives up. With the timeout below, this is stub-resolver practice, and
/// it equals a single attempt on a healthy or hard-down network: retries
/// only change outcomes under partial degradation.
const ATTEMPTS: u32 = 3;

/// Per-attempt timeout, milliseconds: a response delayed past it counts
/// as lost.
const ATTEMPT_TIMEOUT_MS: u32 = 1_000;

/// How far past TTL expiry serve-stale answers, seconds (one day; RFC
/// 8767 suggests one to three).
const MAX_STALE_SECS: u64 = 86_400;

/// A successful resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The name originally queried.
    pub qname: DomainName,
    /// The type originally queried.
    pub qtype: RecordType,
    /// Final answer records (of type `qtype`, owned by the last name in
    /// the chain).
    pub answers: Vec<ResourceRecord>,
    /// CNAME records traversed, in traversal order (empty when the name
    /// answered directly).
    pub chain: Vec<ResourceRecord>,
    /// Origin of the zone that produced the final answer.
    pub authority_zone: DomainName,
}

impl Resolution {
    /// The canonical (final) name after CNAME chasing.
    pub fn canonical_name(&self) -> &DomainName {
        self.chain
            .last()
            .and_then(|rr| rr.data.as_cname())
            .unwrap_or(&self.qname)
    }

    /// All addresses in the answer (for A queries).
    pub fn addresses(&self) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|rr| rr.data.as_a())
            .collect()
    }

    /// All CNAME targets traversed, in order.
    pub fn cname_targets(&self) -> Vec<DomainName> {
        self.chain
            .iter()
            .filter_map(|rr| rr.data.as_cname().cloned())
            .collect()
    }
}

/// Resolution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No deployed zone is authoritative for the name.
    UnknownZone {
        /// The unresolvable name.
        name: DomainName,
    },
    /// Every server of a zone on the authority path is down — the
    /// on-the-wire signature of a provider outage (timeouts/SERVFAIL).
    AllServersDown {
        /// The name being resolved when the outage was hit.
        name: DomainName,
        /// Origin of the unreachable zone.
        zone: DomainName,
    },
    /// A referral pointed at a zone that is not deployed anywhere.
    LameDelegation {
        /// The zone cut that is lame.
        cut: DomainName,
    },
    /// The name does not exist (authoritative denial).
    NxDomain {
        /// The denied name.
        name: DomainName,
        /// SOA of the denying zone (negative-caching scope).
        soa: Soa,
    },
    /// The name exists but has no records of the queried type.
    NoData {
        /// The queried name.
        name: DomainName,
        /// SOA of the answering zone.
        soa: Soa,
    },
    /// A CNAME loop or over-long chain was detected.
    ChainTooLong {
        /// The name whose chain exceeded the limit.
        name: DomainName,
    },
    /// A zone tier had live servers, but every retry attempt against
    /// them was lost or answered too late — the signature of a
    /// *degraded* (not dead) nameserver set. Distinct from
    /// [`ResolveError::AllServersDown`] so clients can tell "the
    /// provider is gone" from "the provider is drowning".
    Timeout {
        /// The name being resolved when retries ran out.
        name: DomainName,
        /// Origin of the degraded zone.
        zone: DomainName,
    },
}

impl ResolveError {
    /// Whether this is a *negative* authoritative answer (cacheable),
    /// as opposed to an availability failure.
    pub fn is_negative_answer(&self) -> bool {
        matches!(
            self,
            ResolveError::NxDomain { .. } | ResolveError::NoData { .. }
        )
    }

    /// Whether this failure is caused by unavailability (outage-shaped),
    /// i.e. the resolution *would* succeed on healthy infrastructure.
    pub fn is_outage(&self) -> bool {
        matches!(
            self,
            ResolveError::AllServersDown { .. } | ResolveError::Timeout { .. }
        )
    }
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::UnknownZone { name } => write!(f, "no authority known for {name}"),
            ResolveError::AllServersDown { name, zone } => {
                write!(f, "all servers for zone {zone} down while resolving {name}")
            }
            ResolveError::LameDelegation { cut } => write!(f, "lame delegation at {cut}"),
            ResolveError::NxDomain { name, .. } => write!(f, "NXDOMAIN for {name}"),
            ResolveError::NoData { name, .. } => write!(f, "NODATA for {name}"),
            ResolveError::ChainTooLong { name } => write!(f, "CNAME chain too long at {name}"),
            ResolveError::Timeout { name, zone } => {
                write!(f, "retries exhausted against zone {zone} resolving {name}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// RFC 8767 serve-stale policy: whether the resolver may answer from
/// cache entries up to one day past their TTL expiry when authority is
/// unreachable. Off by default — stale answers are a deliberate
/// resilience trade-off, not baseline behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StalePolicy {
    /// Whether serve-stale is active.
    pub enabled: bool,
}

impl StalePolicy {
    /// Serve-stale on.
    pub fn serve_stale() -> Self {
        StalePolicy { enabled: true }
    }
}

/// Counters exposed for benchmarking and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Authoritative queries sent (one per zone tier contacted).
    pub queries_sent: u64,
    /// Lookups answered from cache.
    pub cache_hits: u64,
    /// Successful resolutions.
    pub successes: u64,
    /// Failed resolutions (including negative answers).
    pub failures: u64,
    /// Retry rounds run beyond the first attempt.
    pub retries: u64,
    /// Tier contacts that exhausted every retry against live servers.
    pub timeouts: u64,
    /// Lookups answered from expired cache entries (RFC 8767).
    pub stale_served: u64,
}

/// Iterative, caching resolver bound to a [`DnsNetwork`].
#[derive(Debug, Clone)]
pub struct Resolver<'n> {
    network: &'n DnsNetwork,
    clock: SimClock,
    cache: DnsCache,
    schedule: FaultSchedule,
    stale: StalePolicy,
    stats: ResolverStats,
    caching_enabled: bool,
    /// Fault-state reads, while recording is on.
    consulted: Option<ConsultLog>,
}

/// The consult recorder's three logs. A CA's PKI fault and an outage of
/// the CA's entity reach different sites (a stapling site reads the
/// first but never contacts the second), so they are kept apart. Entity
/// consults the caller marks soft (see [`Resolver::soften_consults_since`])
/// move to a log of their own.
#[derive(Debug, Clone, Default)]
struct ConsultLog {
    entities: Vec<EntityId>,
    soft: Vec<EntityId>,
    cas: Vec<CaId>,
}

impl<'n> Resolver<'n> {
    /// A resolver with healthy infrastructure and caching enabled.
    pub fn new(network: &'n DnsNetwork) -> Self {
        Resolver {
            network,
            clock: SimClock::new(),
            cache: DnsCache::new(),
            schedule: FaultSchedule::empty(),
            stale: StalePolicy::default(),
            stats: ResolverStats::default(),
            caching_enabled: true,
            consulted: None,
        }
    }

    /// Replaces the resolver's one fault schedule: a static outage
    /// ([`FaultPlan`](crate::fault::FaultPlan), via `into()`) or an
    /// incident timeline. The cache is *not* flushed: cached answers
    /// outliving an outage is exactly the behavior the paper discusses
    /// around the GlobalSign incident. The schedule is write-only: it is
    /// read only through the consults [`Self::record_consults`] logs.
    pub fn set_schedule(&mut self, schedule: FaultSchedule) {
        self.schedule = schedule;
    }

    /// Sets the RFC 8767 serve-stale policy.
    pub fn set_stale_policy(&mut self, stale: StalePolicy) {
        self.stale = stale;
    }

    /// Whether an entity's non-DNS infrastructure (webservers, OCSP
    /// responders) is up under the schedule at the current simulated
    /// time. Logged as a consult while recording (see
    /// [`Self::record_consults`]).
    pub fn entity_effectively_up(&mut self, entity: EntityId) -> bool {
        if let Some(log) = self.consulted.as_mut() {
            log.entities.push(entity);
        }
        !self.schedule.entity_down_at(entity, self.clock.now())
    }

    /// Turns the consult recorder on for the rest of this resolver's
    /// life (it is off by default). From then on the resolver logs every
    /// entity whose fault state it reads: the operator of *every* server
    /// in each contacted tier's set, live or not, and every argument of
    /// [`Self::entity_effectively_up`]. The fetch path above it reports
    /// its reads of a CA's PKI fault state through
    /// [`Self::log_pki_consult`]. These are the only reads of fault state
    /// on the lookup and fetch paths, so a walk that never consulted an
    /// entity (or a CA) takes the identical path when only that one
    /// fails — the soundness argument behind outage footprints. The
    /// fetch path moves the entity reads of a passed soft-fail
    /// revocation check to a third, soft log
    /// ([`Self::soften_consults_since`]).
    pub fn record_consults(&mut self) {
        self.consulted.get_or_insert_with(ConsultLog::default);
    }

    /// Logs a read of `ca`'s PKI fault state (its OCSP/CRL answers or
    /// the staple its customers serve) while recording. The PKI lives
    /// above this crate, so the fetch path that reads it reports the
    /// read here; it is logged apart from [`Self::take_consults`].
    pub fn log_pki_consult(&mut self, ca: CaId) {
        if let Some(log) = self.consulted.as_mut() {
            log.cas.push(ca);
        }
    }

    /// Drains the entity consult log (in consult order, with repeats;
    /// empty while the recorder is off).
    pub fn take_consults(&mut self) -> Vec<EntityId> {
        self.consulted
            .as_mut()
            .map(|log| std::mem::take(&mut log.entities))
            .unwrap_or_default()
    }

    /// Drains the PKI consult log (see [`Self::log_pki_consult`]).
    pub fn take_pki_consults(&mut self) -> Vec<CaId> {
        self.consulted
            .as_mut()
            .map(|log| std::mem::take(&mut log.cas))
            .unwrap_or_default()
    }

    /// A mark in the entity consult log: the number of consults it holds
    /// (0 while the recorder is off). Pass it to
    /// [`Self::soften_consults_since`].
    pub fn consult_mark(&self) -> usize {
        self.consulted.as_ref().map_or(0, |log| log.entities.len())
    }

    /// Moves the entity consults logged since `mark` into the soft log.
    /// The fetch path calls this for the reads a soft-fail revocation
    /// check made when the check passed: no outage of those entities
    /// can fail it. A no-op while the recorder is off.
    pub fn soften_consults_since(&mut self, mark: usize) {
        if let Some(log) = self.consulted.as_mut() {
            let mark = mark.min(log.entities.len());
            log.soft.extend(log.entities.drain(mark..));
        }
    }

    /// Drains the soft consult log (in consult order, with repeats;
    /// empty while the recorder is off).
    pub fn take_soft_consults(&mut self) -> Vec<EntityId> {
        self.consulted
            .as_mut()
            .map(|log| std::mem::take(&mut log.soft))
            .unwrap_or_default()
    }

    /// Disables the answer cache (every lookup hits authority).
    pub fn disable_cache(&mut self) {
        self.caching_enabled = false;
        self.cache.clear();
    }

    /// Flushes all cached answers.
    pub fn flush_cache(&mut self) {
        self.cache.clear();
    }

    /// Caps the answer cache at `max_names` distinct names (0 =
    /// unbounded, the default). See [`crate::cache::DnsCache::set_bound`];
    /// crawl pipelines use this so a million one-shot site names cannot
    /// bloat the cache into a multi-gigabyte table.
    pub fn bound_cache(&mut self, max_names: usize) {
        self.cache.set_bound(max_names);
    }

    /// The simulated clock (read-only).
    pub fn now(&self) -> crate::clock::SimTime {
        self.clock.now()
    }

    /// Advances simulated time (expires cache entries naturally).
    pub fn advance_time(&mut self, secs: u64) {
        self.clock.advance(secs);
    }

    /// Resolver statistics so far.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Contacts one zone tier: walks the NS preference order up to
    /// [`ATTEMPTS`] times, skipping hard-down servers and drawing
    /// per-attempt loss/latency outcomes from the schedule. Returns the
    /// server that answered, [`ResolveError::AllServersDown`] when no
    /// server was even a candidate, and [`ResolveError::Timeout`] when
    /// live-but-degraded servers ate every retry.
    #[must_use = "an unreachable tier fails the lookup"]
    fn contact_tier(
        &mut self,
        dep: &ZoneDeployment,
        qname: &DomainName,
    ) -> Result<ServerId, ResolveError> {
        self.stats.queries_sent += 1;
        let network = self.network;
        if let Some(log) = self.consulted.as_mut() {
            // Every server of the set, not just the first live one: the
            // live server a walk reaches depends on all of their states.
            log.entities
                .extend(dep.servers.iter().map(|&sid| network.server(sid).operator));
        }
        // Fast path: with no phase, the first server answers.
        if self.schedule.is_empty() {
            return dep
                .servers
                .first()
                .copied()
                .ok_or_else(|| ResolveError::AllServersDown {
                    name: qname.clone(),
                    zone: dep.zone.origin().clone(),
                });
        }
        let now = self.clock.now();
        // Hashed only when a loss draw needs it.
        let mut qhash = None;
        let mut had_candidate = false;
        for attempt in 0..ATTEMPTS {
            if attempt > 0 && had_candidate {
                self.stats.retries += 1;
            }
            let mut tried_this_round = false;
            for &sid in &dep.servers {
                let cond =
                    self.schedule
                        .server_condition_at(sid, network.server(sid).operator, now);
                if cond.down {
                    continue;
                }
                had_candidate = true;
                tried_this_round = true;
                // An answer delayed past the per-attempt timeout is
                // indistinguishable from a lost packet.
                if cond.added_ms > ATTEMPT_TIMEOUT_MS {
                    continue;
                }
                if cond.loss > 0.0 {
                    let qhash =
                        *qhash.get_or_insert_with(|| FaultSchedule::qname_hash(qname.as_str()));
                    if self
                        .schedule
                        .attempt_dropped(cond.loss, sid, qhash, now, attempt)
                    {
                        continue;
                    }
                }
                return Ok(sid);
            }
            if !tried_this_round {
                break;
            }
        }
        if had_candidate {
            self.stats.timeouts += 1;
            Err(ResolveError::Timeout {
                name: qname.clone(),
                zone: dep.zone.origin().clone(),
            })
        } else {
            Err(ResolveError::AllServersDown {
                name: qname.clone(),
                zone: dep.zone.origin().clone(),
            })
        }
    }

    /// Full iterative resolution of `(qname, qtype)`.
    #[must_use]
    pub fn resolve(
        &mut self,
        qname: &DomainName,
        qtype: RecordType,
    ) -> Result<Resolution, ResolveError> {
        self.resolve_with(qname, qtype, Resolution::clone)
    }

    /// Resolves `(qname, qtype)` and hands the resolution to `f` *in
    /// place* — the allocation-lean engine behind [`Self::resolve`]. A
    /// fresh cache hit is read borrowed instead of deep-cloning the
    /// answer set, and on a miss the new resolution moves into the cache
    /// after `f` has seen it — the dominant resolver costs at crawl
    /// scale were exactly those two clones.
    #[must_use]
    pub fn resolve_with<R>(
        &mut self,
        qname: &DomainName,
        qtype: RecordType,
        f: impl FnOnce(&Resolution) -> R,
    ) -> Result<R, ResolveError> {
        let mut stale_fallback: Option<Resolution> = None;
        if self.caching_enabled {
            let now = self.clock.now();
            if let Some(cached) = self.cache.peek_fresh(qname, qtype, now) {
                self.stats.cache_hits += 1;
                return match cached {
                    Ok(res) => Ok(f(res)),
                    Err(err) => Err(err.clone()),
                };
            }
            let window = if self.stale.enabled {
                MAX_STALE_SECS
            } else {
                0
            };
            match self.cache.lookup(qname, qtype, now, window) {
                // Unreachable in practice (peek_fresh tests the same TTL
                // condition), kept total for robustness.
                Some(CacheHit::Fresh(cached)) => {
                    self.stats.cache_hits += 1;
                    return cached.map(|res| f(&res));
                }
                Some(CacheHit::Stale { value, .. }) => stale_fallback = Some(value),
                None => {}
            }
        }
        let result = self.walk_chain(qname, qtype, None);
        match result {
            Ok(res) => {
                self.stats.successes += 1;
                let out = f(&res);
                if self.caching_enabled {
                    self.cache
                        .put_positive(qname.clone(), qtype, res, self.clock.now());
                }
                Ok(out)
            }
            Err(err) => {
                if err.is_outage() {
                    // RFC 8767: authority unreachable, an expired answer
                    // is better than none. The entry is deliberately not
                    // re-cached — it keeps aging toward the stale horizon.
                    if let Some(res) = stale_fallback {
                        self.stats.stale_served += 1;
                        self.stats.successes += 1;
                        return Ok(f(&res));
                    }
                }
                self.stats.failures += 1;
                if self.caching_enabled && err.is_negative_answer() {
                    self.cache
                        .put_negative(qname.clone(), qtype, err.clone(), self.clock.now());
                }
                Err(err)
            }
        }
    }

    /// The one resolution walk, uncached: [`Self::resolve_with`] takes
    /// it on a cache miss and [`Self::trace`] takes it with `events`, to
    /// which it appends each tier contacted, each CNAME hop taken and the
    /// answer. The caller records the error, if any.
    #[must_use]
    pub(crate) fn walk_chain(
        &mut self,
        qname: &DomainName,
        qtype: RecordType,
        mut events: Option<&mut Vec<TraceEvent>>,
    ) -> Result<Resolution, ResolveError> {
        let network = self.network;
        let mut current = qname.clone();
        let mut chain: Vec<ResourceRecord> = Vec::new();

        for _hop in 0..=MAX_CNAME_HOPS {
            let tiers = network.authority_chain(&current);
            if tiers.is_empty() {
                return Err(ResolveError::UnknownZone { name: current });
            }
            // Every tier on the authority path must be reachable: a dead
            // parent zone denies the referral to its children.
            for dep in &tiers {
                match self.contact_tier(dep, &current) {
                    Ok(sid) => push_event(&mut events, || TraceEvent::Tier {
                        zone: dep.zone.origin().clone(),
                        server: network.server(sid).hostname.clone(),
                    }),
                    Err(err) => {
                        if let ResolveError::AllServersDown { .. } = err {
                            push_event(&mut events, || TraceEvent::TierDown {
                                zone: dep.zone.origin().clone(),
                                servers_tried: dep.servers.len(),
                            });
                        }
                        return Err(err);
                    }
                }
            }
            // lint:allow(panic) — infallible: emptiness is checked immediately above
            let deepest = tiers.last().expect("non-empty checked above");
            match deepest.zone.lookup(&current, qtype) {
                ZoneAnswer::Answer(answers) => {
                    push_event(&mut events, || TraceEvent::Answer {
                        zone: deepest.zone.origin().clone(),
                        records: answers.len(),
                    });
                    return Ok(Resolution {
                        qname: qname.clone(),
                        qtype,
                        answers,
                        chain,
                        authority_zone: deepest.zone.origin().clone(),
                    });
                }
                ZoneAnswer::CnameRedirect { record, target } => {
                    // Loop detection: a repeated target means a cycle.
                    if target == *qname
                        || chain.iter().any(|rr| rr.data.as_cname() == Some(&target))
                    {
                        return Err(ResolveError::ChainTooLong { name: target });
                    }
                    push_event(&mut events, || TraceEvent::CnameHop {
                        from: current.clone(),
                        to: target.clone(),
                    });
                    chain.push(record);
                    current = target;
                }
                ZoneAnswer::Referral { cut, .. } => {
                    // authority_chain already found the deepest deployed
                    // zone, so a referral here means the child zone is
                    // not deployed anywhere.
                    return Err(ResolveError::LameDelegation { cut });
                }
                ZoneAnswer::NoData { soa } => {
                    return Err(ResolveError::NoData { name: current, soa });
                }
                ZoneAnswer::NxDomain { soa } => {
                    return Err(ResolveError::NxDomain { name: current, soa });
                }
                ZoneAnswer::OutOfZone => {
                    return Err(ResolveError::LameDelegation { cut: current });
                }
            }
        }
        Err(ResolveError::ChainTooLong { name: current })
    }

    /// Resolves a hostname to addresses, chasing CNAMEs.
    #[must_use]
    pub fn resolve_addresses(&mut self, host: &DomainName) -> Result<Vec<Ipv4Addr>, ResolveError> {
        self.resolve_with(host, RecordType::A, |r| r.addresses())
    }

    /// Whether the host currently resolves to at least one address.
    pub fn is_resolvable(&mut self, host: &DomainName) -> bool {
        matches!(self.resolve_addresses(host), Ok(addrs) if !addrs.is_empty())
    }
}

/// Appends the event `make` builds when the walk is traced.
fn push_event(events: &mut Option<&mut Vec<TraceEvent>>, make: impl FnOnce() -> TraceEvent) {
    if let Some(events) = events {
        events.push(make());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::record::{RecordData, Soa};
    use crate::zone::Zone;
    use webdeps_model::name::dn;
    use webdeps_model::EntityId;

    /// Two-provider world: example.com served by both a private server
    /// and a Dyn-like provider; www points via CNAME to a CDN host in a
    /// different zone.
    fn build_network() -> DnsNetwork {
        let mut b = DnsNetwork::builder();
        let pvt = b.add_server(
            dn("ns1.example.com"),
            Ipv4Addr::new(192, 0, 2, 1),
            EntityId(0),
        );
        let dyn1 = b.add_server(
            dn("ns1.dyn-like.net"),
            Ipv4Addr::new(198, 51, 100, 1),
            EntityId(1),
        );
        let cdn = b.add_server(
            dn("ns1.cdnco.net"),
            Ipv4Addr::new(203, 0, 113, 1),
            EntityId(2),
        );

        let mut site = Zone::new(
            dn("example.com"),
            Soa::standard(dn("ns1.example.com"), dn("hostmaster.example.com"), 1),
        );
        site.add(dn("example.com"), RecordData::Ns(dn("ns1.example.com")));
        site.add(dn("example.com"), RecordData::Ns(dn("ns1.dyn-like.net")));
        site.add(
            dn("example.com"),
            RecordData::A(Ipv4Addr::new(192, 0, 2, 80)),
        );
        site.add(
            dn("www.example.com"),
            RecordData::Cname(dn("cust-1.cdnco.net")),
        );
        b.add_zone(site, vec![pvt, dyn1]);

        let mut cdnzone = Zone::new(
            dn("cdnco.net"),
            Soa::standard(dn("ns1.cdnco.net"), dn("ops.cdnco.net"), 1),
        );
        cdnzone.add(dn("cdnco.net"), RecordData::Ns(dn("ns1.cdnco.net")));
        cdnzone.add(
            dn("cust-1.cdnco.net"),
            RecordData::A(Ipv4Addr::new(203, 0, 113, 80)),
        );
        b.add_zone(cdnzone, vec![cdn]);

        b.build()
    }

    #[test]
    fn resolves_direct_a_record() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        let res = r.resolve(&dn("example.com"), RecordType::A).unwrap();
        assert_eq!(res.addresses(), vec![Ipv4Addr::new(192, 0, 2, 80)]);
        assert_eq!(res.authority_zone, dn("example.com"));
        assert!(res.chain.is_empty());
        assert_eq!(res.canonical_name(), &dn("example.com"));
    }

    #[test]
    fn chases_cname_across_zones() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        let res = r.resolve(&dn("www.example.com"), RecordType::A).unwrap();
        assert_eq!(res.addresses(), vec![Ipv4Addr::new(203, 0, 113, 80)]);
        assert_eq!(res.cname_targets(), vec![dn("cust-1.cdnco.net")]);
        assert_eq!(res.canonical_name(), &dn("cust-1.cdnco.net"));
        assert_eq!(res.authority_zone, dn("cdnco.net"));
    }

    #[test]
    fn negative_answers() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        assert!(matches!(
            r.resolve(&dn("missing.example.com"), RecordType::A),
            Err(ResolveError::NxDomain { .. })
        ));
        assert!(matches!(
            r.resolve(&dn("example.com"), RecordType::Txt),
            Err(ResolveError::NoData { .. })
        ));
        assert!(matches!(
            r.resolve(&dn("unknown-zone.zz"), RecordType::A),
            Err(ResolveError::UnknownZone { .. })
        ));
    }

    #[test]
    fn redundancy_survives_single_provider_outage() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.set_schedule(FaultPlan::healthy().fail_entity(EntityId(1)).into()); // Dyn-like down
                                                                              // example.com still resolves via its private server.
        assert!(r.is_resolvable(&dn("example.com")));
    }

    #[test]
    fn total_outage_fails_resolution() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.set_schedule(
            FaultPlan::healthy()
                .fail_entity(EntityId(0))
                .fail_entity(EntityId(1))
                .into(),
        );
        let err = r.resolve(&dn("example.com"), RecordType::A).unwrap_err();
        assert!(err.is_outage(), "expected outage, got {err}");
        assert!(
            matches!(err, ResolveError::AllServersDown { ref zone, .. } if *zone == dn("example.com"))
        );
    }

    #[test]
    fn cdn_outage_breaks_cname_tail_only() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.set_schedule(FaultPlan::healthy().fail_entity(EntityId(2)).into()); // CDN down
        assert!(r.is_resolvable(&dn("example.com")), "apex unaffected");
        let err = r
            .resolve(&dn("www.example.com"), RecordType::A)
            .unwrap_err();
        assert!(
            matches!(err, ResolveError::AllServersDown { ref zone, .. } if *zone == dn("cdnco.net"))
        );
    }

    #[test]
    fn cache_serves_through_outage_until_ttl_expiry() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        assert!(r.is_resolvable(&dn("example.com")));
        let hits_before = r.stats().cache_hits;
        // Take everything down; the cached answer must survive…
        r.set_schedule(
            FaultPlan::healthy()
                .fail_entity(EntityId(0))
                .fail_entity(EntityId(1))
                .into(),
        );
        assert!(
            r.is_resolvable(&dn("example.com")),
            "cached answer should persist"
        );
        assert_eq!(r.stats().cache_hits, hits_before + 1);
        // …until the TTL (default 3600 s) lapses.
        r.advance_time(3_601);
        assert!(
            !r.is_resolvable(&dn("example.com")),
            "expired cache must re-query"
        );
    }

    #[test]
    fn disabled_cache_requeries_every_time() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.disable_cache();
        r.resolve(&dn("example.com"), RecordType::A).unwrap();
        let q1 = r.stats().queries_sent;
        r.resolve(&dn("example.com"), RecordType::A).unwrap();
        assert!(r.stats().queries_sent > q1);
        assert_eq!(r.stats().cache_hits, 0);
    }

    #[test]
    fn stats_track_successes_and_failures() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.resolve(&dn("example.com"), RecordType::A).unwrap();
        let _ = r.resolve(&dn("missing.example.com"), RecordType::A);
        let s = r.stats();
        assert_eq!(s.successes, 1);
        assert_eq!(s.failures, 1);
        assert!(s.queries_sent >= 2);
    }

    #[test]
    fn schedule_outage_window_opens_and_closes() {
        use crate::clock::SimTime;
        use crate::fault::Degradation;
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.disable_cache();
        r.set_schedule(
            FaultSchedule::seeded(1)
                .fail_entity_during(EntityId(0), SimTime(100), SimTime(200), Degradation::Down)
                .fail_entity_during(EntityId(1), SimTime(100), SimTime(200), Degradation::Down),
        );
        assert!(r.is_resolvable(&dn("example.com")), "before the window");
        r.advance_time(150);
        let err = r.resolve(&dn("example.com"), RecordType::A).unwrap_err();
        assert!(
            matches!(err, ResolveError::AllServersDown { .. }),
            "hard-down window yields SERVFAIL shape, got {err}"
        );
        r.advance_time(100);
        assert!(r.is_resolvable(&dn("example.com")), "after the window");
    }

    #[test]
    fn latency_past_timeout_is_a_timeout_not_servfail() {
        use crate::clock::SimTime;
        use crate::fault::Degradation;
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.disable_cache();
        let slow = |added_ms| {
            FaultSchedule::seeded(1)
                .fail_entity_during(
                    EntityId(0),
                    SimTime(0),
                    SimTime(1_000),
                    Degradation::Latency { added_ms },
                )
                .fail_entity_during(
                    EntityId(1),
                    SimTime(0),
                    SimTime(1_000),
                    Degradation::Latency { added_ms },
                )
        };
        r.set_schedule(slow(ATTEMPT_TIMEOUT_MS + 1));
        let err = r.resolve(&dn("example.com"), RecordType::A).unwrap_err();
        assert!(
            matches!(err, ResolveError::Timeout { .. }),
            "live-but-slow servers must time out, got {err}"
        );
        assert!(err.is_outage());
        assert_eq!(r.stats().timeouts, 1);
        assert_eq!(r.stats().retries, u64::from(ATTEMPTS - 1));
        // Latency within the per-attempt timeout is absorbed entirely.
        r.set_schedule(slow(ATTEMPT_TIMEOUT_MS));
        assert!(r.is_resolvable(&dn("example.com")));
        assert_eq!(r.stats().timeouts, 1);
    }

    #[test]
    fn retries_ride_out_partial_loss() {
        use crate::clock::SimTime;
        use crate::fault::Degradation;
        let net = build_network();
        let loss = FaultSchedule::seeded(7)
            .fail_entity_during(
                EntityId(0),
                SimTime(0),
                SimTime(1_000_000),
                Degradation::Loss { probability: 0.7 },
            )
            .fail_entity_during(
                EntityId(1),
                SimTime(0),
                SimTime(1_000_000),
                Degradation::Loss { probability: 0.7 },
            );
        let mut r = Resolver::new(&net);
        r.disable_cache();
        r.set_schedule(loss);
        let mut ok = 0;
        for _ in 0..200 {
            if r.is_resolvable(&dn("example.com")) {
                ok += 1;
            }
            r.advance_time(1); // fresh loss draws each probe
        }
        // 3 attempts × 2 servers at p=0.7 ⇒ P(all six lost) ≈ 0.12; a
        // single attempt (both servers once, P(lost) = 0.49) survives
        // about half the time, so the bound shows that retries matter.
        assert!(ok >= 140, "expected high survival, got {ok}/200");
        assert!(r.stats().retries > 0, "losses must be retried");
    }

    #[test]
    fn serve_stale_bridges_an_outage_within_its_window() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.set_stale_policy(StalePolicy::serve_stale());
        assert!(r.is_resolvable(&dn("example.com")));
        r.set_schedule(
            FaultPlan::healthy()
                .fail_entity(EntityId(0))
                .fail_entity(EntityId(1))
                .into(),
        );
        // Past the TTL (3600 s) but within the stale window (1 day):
        // the expired answer bridges the outage.
        r.advance_time(7_200);
        assert!(
            r.is_resolvable(&dn("example.com")),
            "stale answer must be served during the outage"
        );
        assert_eq!(r.stats().stale_served, 1);
        // Healthy authority is always preferred over a stale answer.
        r.set_schedule(FaultSchedule::empty());
        assert!(r.is_resolvable(&dn("example.com")));
        assert_eq!(r.stats().stale_served, 1, "no stale hit when live works");
        // Beyond the window the answer is gone for good.
        r.set_schedule(
            FaultPlan::healthy()
                .fail_entity(EntityId(0))
                .fail_entity(EntityId(1))
                .into(),
        );
        r.advance_time(3_600 + 86_400 + 1);
        assert!(
            !r.is_resolvable(&dn("example.com")),
            "stale horizon must be honoured"
        );
    }

    #[test]
    fn stale_disabled_by_default() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        assert!(r.is_resolvable(&dn("example.com")));
        r.set_schedule(
            FaultPlan::healthy()
                .fail_entity(EntityId(0))
                .fail_entity(EntityId(1))
                .into(),
        );
        r.advance_time(3_601);
        assert!(!r.is_resolvable(&dn("example.com")));
        assert_eq!(r.stats().stale_served, 0);
    }

    #[test]
    fn entity_effectively_up_follows_the_one_schedule() {
        use crate::clock::SimTime;
        use crate::fault::Degradation;
        let net = build_network();
        let mut r = Resolver::new(&net);
        assert!(r.entity_effectively_up(EntityId(5)));
        r.set_schedule(FaultSchedule::seeded(1).fail_entity_during(
            EntityId(5),
            SimTime(0),
            SimTime(100),
            Degradation::Down,
        ));
        assert!(!r.entity_effectively_up(EntityId(5)));
        r.advance_time(100);
        assert!(r.entity_effectively_up(EntityId(5)), "window closed");
        r.set_schedule(FaultPlan::healthy().fail_entity(EntityId(5)).into());
        assert!(!r.entity_effectively_up(EntityId(5)), "a plan replaces it");
        r.advance_time(365 * 86_400);
        assert!(!r.entity_effectively_up(EntityId(5)), "over all time");
    }

    #[test]
    fn recorder_logs_every_server_of_each_tier_and_is_off_by_default() {
        let net = build_network();
        let mut r = Resolver::new(&net);
        r.disable_cache();
        assert!(r.is_resolvable(&dn("www.example.com")));
        assert_eq!(r.consult_mark(), 0);
        r.soften_consults_since(0);
        assert!(r.take_consults().is_empty(), "off by default");
        assert!(r.take_soft_consults().is_empty(), "off by default");

        r.record_consults();
        assert!(r.is_resolvable(&dn("www.example.com")));
        // example.com answers from its first server, yet the Dyn-like
        // second server's operator is logged too; the CNAME target's
        // tier follows.
        assert_eq!(
            r.take_consults(),
            vec![EntityId(0), EntityId(1), EntityId(2)]
        );
        assert!(r.entity_effectively_up(EntityId(7)));
        assert_eq!(r.take_consults(), vec![EntityId(7)]);
        // PKI reads land in their own log, never among the entities.
        r.log_pki_consult(CaId(3));
        assert!(r.take_consults().is_empty());
        assert_eq!(r.take_pki_consults(), vec![CaId(3)]);
        // Consults after a mark move to the soft log; earlier ones stay.
        assert!(r.entity_effectively_up(EntityId(4)));
        let mark = r.consult_mark();
        assert!(r.entity_effectively_up(EntityId(5)));
        assert!(r.entity_effectively_up(EntityId(6)));
        r.soften_consults_since(mark);
        assert_eq!(r.take_consults(), vec![EntityId(4)]);
        assert_eq!(r.take_soft_consults(), vec![EntityId(5), EntityId(6)]);
        assert!(r.take_soft_consults().is_empty(), "drained");
    }

    #[test]
    fn cname_loop_detected() {
        let mut b = DnsNetwork::builder();
        let s = b.add_server(
            dn("ns1.loopy.com"),
            Ipv4Addr::new(192, 0, 2, 1),
            EntityId(0),
        );
        let mut z = Zone::new(
            dn("loopy.com"),
            Soa::standard(dn("ns1.loopy.com"), dn("hostmaster.loopy.com"), 1),
        );
        z.add(dn("a.loopy.com"), RecordData::Cname(dn("b.loopy.com")));
        z.add(dn("b.loopy.com"), RecordData::Cname(dn("a.loopy.com")));
        b.add_zone(z, vec![s]);
        let net = b.build();
        let mut r = Resolver::new(&net);
        assert!(matches!(
            r.resolve(&dn("a.loopy.com"), RecordType::A),
            Err(ResolveError::ChainTooLong { .. })
        ));
    }
}
