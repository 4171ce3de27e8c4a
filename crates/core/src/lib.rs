//! # webdeps-core
//!
//! The paper's analysis layer: turns a [`webdeps_measure::MeasurementDataset`]
//! — the one columnar dataset the pipeline produces — into the
//! quantities the paper reports. Every module reads the dataset through
//! its per-site views and provider table; none re-measures.
//!
//! * [`graph`] — the typed dependency graph (websites and providers,
//!   direct and inter-service edges, criticality flags), built by the
//!   one serial [`DepGraph::from_dataset`].
//! * [`metrics`] — the options and scores of **concentration** `C_p`
//!   and **impact** `I_p` (§2.2), with and without indirect
//!   dependencies.
//! * [`reach`] — [`ReachIndex`], the one index that answers both: one
//!   copy of the consumer rows and one SCC condensation per metric,
//!   patched in place under churn. A reverse BFS (in its tests) and the
//!   paper's literal recursive set unions (in `tests/properties.rs`)
//!   are its oracles.
//! * [`stats`] — rank-stratified percentages behind Figures 2, 3, 4.
//! * [`concentration`] — provider coverage CDFs behind Figure 6.
//! * [`evolution`] — 2016→2020 transition tables (Tables 3, 4, 5 for
//!   sites; Tables 7, 8, 9 for providers).
//! * [`outage`] — behavioral what-ifs: fail a provider in the simulator
//!   and count actually-unreachable sites, cross-validating the
//!   graph-derived impact numbers.
//! * [`resilience`] — the per-site dependency audit the paper sketches
//!   as future work (§8.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concentration;
pub mod dot;
pub mod evolution;
pub mod graph;
pub mod metrics;
pub mod outage;
pub mod reach;
pub mod resilience;
pub mod stats;

pub use concentration::{coverage_curve, providers_for_coverage, CoveragePoint};
pub use dot::{to_dot, DotOptions};
pub use evolution::{ca_trends, cdn_trends, dns_trends, provider_trends, TrendTable};
pub use graph::{DepGraph, EdgeKind, GraphBuilder, NodeId, NodeKind, NodeRef};
pub use metrics::{MetricOptions, ProviderScore};
pub use outage::{probe_site, simulate_outage, OutageIndex, OutageResult};
pub use reach::{Applied, ApplyKind, Churn, ChurnError, Metric, ProviderRef, ReachIndex, SiteSet};
pub use resilience::{audit_site, robustness_score, RiskLevel, SiteAudit};
pub use stats::{
    ca_figure, cdn_figure, dns_figure, top_providers_in_bucket, CaFigure, CdnFigure, DnsFigure,
};
