//! # webdeps-measure
//!
//! The paper's measurement methodology (§3), as an executable pipeline.
//! Everything here observes the world *over the wire* — `dig`-style DNS
//! queries, TLS handshakes, and headless crawls — and never touches the
//! world generator's ground truth. The one exception is
//! [`validation`], which replays the paper's manual-verification step:
//! it samples rows of a measured dataset, measures those sites again
//! through the pipeline's own per-site path, scores every pair the
//! classifiers decide with each strategy against ground truth, and
//! reports per-strategy accuracy (the 100% / 97% / 56% table of §3.1).
//!
//! Pipeline stages:
//!
//! 1. **Crawl** every site's landing page ([`webdeps_web::Crawler`]).
//! 2. **DNS** (§3.1): `dig NS`, SOA fetches, the combined
//!    TLD ∧ SAN ∧ SOA ∧ concentration heuristic, and entity grouping
//!    for redundancy.
//! 3. **CA** (§3.2): OCSP/CRL endpoint extraction, third-party
//!    classification, OCSP-stapling detection.
//! 4. **CDN** (§3.3): internal-resource identification, CNAME-chain
//!    mapping through the self-populated CNAME-to-CDN map,
//!    third-party classification.
//! 5. **Inter-service** (§3.4): the same classifiers applied to the
//!    observed providers themselves (CDN→DNS, CA→DNS, CA→CDN).
//!
//! [`measure_world`], the only entry point, runs them all and returns
//! the one [`MeasurementDataset`] every table, audit, graph and the
//! daemon read. It takes no settings: the concentration threshold is
//! the world's and the worker count is `WEBDEPS_JOBS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ca;
pub mod cdn;
pub mod classify;
pub mod columnar;
pub mod dataset;
pub mod dns;
pub mod interservice;
pub mod pipeline;
pub mod summary;
pub mod validation;

pub use classify::{Classification, ClassifierKind, Evidence};
pub use columnar::{MeasurementDataset, SiteView};
pub use dataset::{ProviderKey, SiteCaMeasurement, SiteCdnMeasurement, SiteDnsMeasurement};
pub use interservice::{InterServiceDep, ProviderMeasurement};
pub use pipeline::measure_world;
pub use summary::{summarize, summarize_pair, ComparisonSummary, DatasetSummary};
pub use validation::{validate_world, StrategyAccuracy, ValidationReport};
