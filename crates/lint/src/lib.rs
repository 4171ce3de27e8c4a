//! # webdeps-lint
//!
//! A dependency-free static-analysis pass over the workspace. The
//! reproduction's published tables and figures are only trustworthy
//! because the pipeline is deterministic; this crate is the
//! machine-checked version of that promise. It lexes every workspace
//! source with its own lightweight Rust lexer, parses the token stream
//! into an item/statement tree ([`parser`]), and enforces five
//! invariant families as named rules:
//!
//! * **determinism** — `hash-iter` (no `HashMap`/`HashSet` iteration
//!   order reaching output), `wall-clock` (no `Instant::now` /
//!   `SystemTime` outside `crates/bench` and `dns::clock`), `env-rand`
//!   (no process-environment reads or ambient randomness in library
//!   code), `seed-flow` (randomness flows through `&mut DetRng`; no
//!   minting fresh streams outside worldgen/testkit/bench), and
//!   `float-ord` (no partially-ordered float comparators or keys);
//! * **panic-safety** — `panic` (no `unwrap()`/`expect()`/`panic!`/
//!   `unreachable!` in non-test library code);
//! * **error discipline** — `result-dropped` (no discarding calls to
//!   workspace fns returning `Result`/`Report`) and `must-use-api`
//!   (pub `Result`/`Report` fns carry `#[must_use]`);
//! * **concurrency-safety** — `thread-capture` (spawned closures
//!   return shard results merged after join instead of mutating a
//!   captured accumulator), `lock-poison-unwrap` (recover from lock
//!   poisoning with `into_inner` instead of unwrapping), and the
//!   interprocedural concurrency pass ([`concurrency`]):
//!   `lock-order-cycle` (no cycle in the propagated lock-order graph,
//!   reported with a witness chain), `blocking-while-locked` (no
//!   blocking op reachable while a guard is live),
//!   `guard-across-fanout` (no guard live across `par::fan_out`), and
//!   `atomic-ordering-mixed` (one ordering discipline per atomic
//!   field);
//! * **reachability** — the interprocedural rules ([`interproc`]):
//!   `panic-reachable` (no pub API outside bench/testkit from which an
//!   unjustified panic site is reachable), `taint-escape` (no pub fn
//!   return value that can carry wall-clock or hash-iteration-order
//!   taint minted in a callee), and `seed-flow-transitive` (no pub fn
//!   outside the seeded crates that can reach an RNG-minting site
//!   through any call chain);
//! * **layering & hygiene** — `layering` (crate edges follow the
//!   declared DAG `model → {dns,tls,web} → worldgen → measure → core →
//!   chaos → reports`, with `testkit`/`bench`/`lint` leaf-only),
//!   `extern-dep` (hermetic build, zero external crates), `dbg`,
//!   `todo`, and `allow-syntax`.
//!
//! Rules carry a severity (`deny` fails the run, `warn` reports only);
//! gradually-enforced rules start at `warn` and pre-existing findings
//! can be absorbed by a committed `LINT_BASELINE.json`. The [`driver`]
//! lints the workspace in one serial pass in sorted-path order, so
//! every run renders a byte-identical report (schema `webdeps-lint/4`).
//!
//! Violations can be suppressed inline, one per site:
//!
//! ```text
//! map.remove(&k).expect("inserted above"); // lint:allow(panic) — key inserted two lines up
//! ```
//!
//! or for a whole file with `// lint:allow-file(rule) — reason`; a
//! reason may wrap onto following comment-only lines. Every
//! suppression must carry a reason and is counted in the report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod driver;
pub mod interproc;
pub mod json;
pub mod layering;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use config::Config;
pub use diag::{Report, Severity, Violation};
pub use driver::{lint_source, lint_workspace};
