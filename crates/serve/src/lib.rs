//! # webdeps-serve
//!
//! A fault-tolerant resident query daemon over the dependency-graph
//! analyses of Kashaf et al. (IMC 2020). The daemon loads a synthetic
//! world once, builds one incremental [`ReachIndex`] (critical-only
//! impact and all-edge concentration over one copy of the graph), and
//! answers concurrent ranking / consumer-set / outage-simulation
//! queries over a tiny length-prefixed TCP protocol.
//!
//! The crate is organised as the daemon's robustness layers:
//!
//! * [`frame`] — length-prefixed, size-capped framing with a
//!   panic-free reader that distinguishes clean closes from torn
//!   frames and stalls;
//! * [`proto`] — the request grammar and reply classifier, parsed
//!   without panics in the style of the lint JSON reader;
//! * [`stats`] — lock-free health counters and a power-of-two latency
//!   histogram behind `/health`-style queries;
//! * [`engine`] — query execution over the epoch-versioned index with
//!   per-query deadline budgets and churn cross-checking;
//! * [`server`] — bounded admission, explicit `BUSY` shedding,
//!   per-query `catch_unwind` isolation, and graceful drain;
//! * [`torture`] — the deterministic seeded chaos client that asserts
//!   zero panics, zero wrong-epoch answers, and bounded shed-vs-hang.
//!
//! [`ReachIndex`]: webdeps_core::ReachIndex

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod frame;
pub mod proto;
pub mod server;
pub mod stats;
pub mod torture;

pub use engine::{Engine, Outcome};
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
pub use proto::{classify_reply, parse_request, ReplyKind, Request};
pub use server::{connect, roundtrip, spawn, ServerConfig, ServerHandle};
pub use stats::{LatencyHistogram, ServerStats};
pub use torture::{run_torture, TortureConfig, TortureReport};
