//! # webdeps-model
//!
//! Foundation types shared by every `webdeps` subsystem: DNS-style domain
//! names, a public-suffix list, organizational entities, website rank
//! buckets, typed identifiers, service kinds, and a deterministic RNG
//! facade used by the synthetic-world generator.
//!
//! The types here deliberately mirror the vocabulary of Kashaf et al.
//! (IMC 2020): a *website* is identified by its registrable domain, a
//! *provider* is an organizational [`Entity`] offering one of the
//! [`ServiceKind`]s on a website's critical path, and popularity is
//! stratified into the paper's rank buckets (top-100 / 1K / 10K / 100K).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entity;
pub mod error;
pub mod ids;
pub mod intern;
pub mod name;
pub mod name_table;
pub mod par;
pub mod prng;
pub mod psl;
pub mod rank;
pub mod rng;
pub mod service;
pub mod timing;

pub use entity::{Entity, EntityKind, EntityRegistry};
pub use error::ModelError;
pub use ids::{CaId, CdnId, EntityId, ProviderId, SiteId};
pub use intern::{Interner, NameId};
pub use name::DomainName;
pub use name_table::NameTable;
pub use par::{
    effective_jobs, fan_out, fan_out_chunked, resolve_jobs, PoolBusy, PoolProbe, WorkerPool,
    MAX_AUTO_JOBS,
};
pub use psl::PublicSuffixList;
pub use rank::{Rank, RankBucket};
pub use rng::DetRng;
pub use service::ServiceKind;
