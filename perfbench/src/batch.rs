//! The loop shared by the batch workloads (repro, chaos): one op is one
//! invocation of the command, timed from start to teardown.

use std::time::Instant;

use crate::digest;
use crate::report::RunReport;
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;

/// What every batch op measures.
pub struct Timed {
    pub setup_s: f64,
    pub latency_ms: f64,
    pub cpu_ms: f64,
    /// FNV-1a of what the CLI would print to stdout.
    pub digest: u64,
}

/// A batch workload's op and its structural output check.
pub trait Op {
    fn timed(&self) -> &Timed;
    fn check(&self) -> Result<(), String>;
    /// Work done, for `throughput_per_s` (sites measured, site-probes).
    fn units(&self) -> f64;
}

/// Runs `f` in a span when tracing.
pub fn step<T>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Checks one op (structure, agreement with the run's first op, pinned
/// digest) and counts it.
fn record<O: Op>(
    report: &mut RunReport,
    name: &str,
    seed: u64,
    sites: usize,
    op: &O,
    first: Option<u64>,
) {
    let d = op.timed().digest;
    let checked = op.check().and_then(|()| match first {
        Some(f) if f != d => Err(format!("{name}: output differs between two ops of one run")),
        _ => digest::check(name, seed, sites, d),
    });
    match checked {
        Ok(()) => report.ok(),
        Err(why) => report.fail(why),
    }
}

/// Set-ups without the rest of the op, each returning its time in
/// seconds: more `setup_s` samples for a workload whose set-up is a
/// short phase.
pub struct ExtraSetups<'a> {
    pub count: usize,
    pub run: &'a mut dyn FnMut() -> f64,
}

/// End-to-end run: ops back to back while the next one, and the extra
/// set-ups after the ops, are expected to end within `seconds` (at least
/// one op); medians over ops, and for `setup_s` over every set-up.
pub fn run<O: Op>(
    name: &str,
    (seed, sites, seconds): (u64, usize, f64),
    report: &mut RunReport,
    mut op: impl FnMut() -> O,
    extra: Option<ExtraSetups>,
) {
    let start = Instant::now();
    let mut ops: Vec<O> = Vec::new();
    // Peak RSS of one invocation, as a user running the command sees it;
    // later ops in the same process add allocator fragmentation.
    let mut peak_rss_mb = f64::NAN;
    loop {
        let o = op();
        record(
            report,
            name,
            seed,
            sites,
            &o,
            ops.first().map(|f| f.timed().digest),
        );
        let t = o.timed();
        eprintln!(
            "{name}: op {} setup {:.3} s, latency {:.1} ms, cpu {:.0} ms, digest {:016x}",
            ops.len() + 1,
            t.setup_s,
            t.latency_ms,
            t.cpu_ms,
            t.digest
        );
        let extra_s = extra.as_ref().map_or(0.0, |e| e.count as f64 * t.setup_s);
        let next_s = t.latency_ms / 1e3 + extra_s;
        if ops.is_empty() {
            peak_rss_mb = sys::peak_rss_mb();
        }
        ops.push(o);
        if start.elapsed().as_secs_f64() + next_s > seconds {
            break;
        }
    }
    if !report.correct() {
        return;
    }
    let mut setups: Vec<f64> = ops.iter().map(|o| o.timed().setup_s).collect();
    if let Some(e) = extra {
        setups.extend((0..e.count).map(|_| (e.run)()));
    }
    eprintln!("{name}: set-ups {setups:?} s");
    let med = |f: fn(&Timed) -> f64| {
        median(&ops.iter().map(|o| f(o.timed())).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let latency_ms = med(|t| t.latency_ms);
    report.set("setup_s", median(&setups).unwrap_or(f64::NAN));
    report.set("latency_ms", latency_ms);
    report.set("throughput_per_s", ops[0].units() / (latency_ms / 1e3));
    report.set("cpu_ms_per_op", med(|t| t.cpu_ms));
    report.set("peak_rss_mb", peak_rss_mb);
}

/// Traced run's end-to-end part: a warm-up op, one op with spans, then
/// one untraced op as the reference; sets `trace.overhead_ms` and
/// returns the traced op when all three passed their checks. The first
/// op of a process runs on fresh pages and a cold allocator, so neither
/// compared op is the first.
pub fn traced_pair<O: Op>(
    name: &str,
    (seed, sites): (u64, usize),
    report: &mut RunReport,
    tracer: &mut Tracer,
    op: impl Fn(Option<&mut Tracer>) -> O,
) -> Option<O> {
    let warm = op(None);
    record(report, name, seed, sites, &warm, None);
    let first = Some(warm.timed().digest);
    drop(warm);
    let traced = op(Some(tracer));
    record(report, name, seed, sites, &traced, first);
    let plain = op(None);
    record(report, name, seed, sites, &plain, first);
    if !report.correct() {
        return None;
    }
    report.set(
        "trace.overhead_ms",
        traced.timed().latency_ms - plain.timed().latency_ms,
    );
    for (metric, label) in crate::WORLDGEN_PHASES {
        report.set(metric, tracer.phase_ms(label));
    }
    Some(traced)
}
