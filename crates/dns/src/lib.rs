//! # webdeps-dns
//!
//! An authoritative-DNS simulator: the substrate under every measurement
//! in the study. It models exactly the parts of the DNS that the paper's
//! methodology touches:
//!
//! * **zones** with NS / SOA / A / CNAME / TXT records and delegations,
//! * **authoritative servers** operated by entities (providers or the
//!   website itself),
//! * an **iterative resolver** that walks root → TLD → zone referrals,
//!   chases CNAME chains, and honours glue,
//! * a **TTL cache** with a simulated clock (caching is how the
//!   GlobalSign revocation incident persisted for a week),
//! * **fault injection** through one model, a [`FaultSchedule`] per
//!   resolver: entities or servers go down, drop packets, answer late
//!   or flap over time windows (the Mirai-Dyn waves), and a static
//!   outage — a provider's entire fleet down, as [`FaultPlan`] builds
//!   it — is `Down` phases over all time; observe which resolutions
//!   fail, or [`Resolver::trace`] the walk a lookup takes.
//!
//! The API mirrors the `dig` workflow the paper's scripts used:
//! [`dig::Dig`] offers `ns`, `soa`, and `cname_chain` lookups returning
//! structured answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod dig;
pub mod fault;
pub mod network;
pub mod record;
pub mod resolver;
pub mod server;
pub mod trace;
pub mod zone;
pub mod zonefile;

pub use cache::{CacheHit, DnsCache};
pub use clock::{SimClock, SimTime, Ttl};
pub use dig::Dig;
pub use fault::{Degradation, FaultPhase, FaultPlan, FaultSchedule, FaultTarget, ServerCondition};
pub use network::{DnsNetwork, NetworkBuilder};
pub use record::{RecordData, RecordType, ResourceRecord, Soa};
pub use resolver::{Resolution, ResolveError, Resolver, ResolverStats, StalePolicy};
pub use server::{AuthoritativeServer, ServerId};
pub use trace::{Trace, TraceEvent};
pub use zone::{Zone, ZoneAnswer};
pub use zonefile::{format_zone, parse_zone, ZonefileError};
