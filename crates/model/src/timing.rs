//! Opt-in coarse phase timing.
//!
//! The million-site pipeline is tuned by measurement, not guesswork:
//! every coarse phase (plan, site build, concentration pass, classify
//! pass, assembly) wraps itself in a [`scope`] guard, and the bench
//! harness drains the samples into `BENCH_measure_world.json` through
//! its `record_metric` channel. Recording is disabled by default and
//! costs one relaxed atomic load per phase when off, so the
//! instrumentation can stay in the production code path.
//!
//! Beside the phase times the sink keeps work counters ([`add_count`]):
//! integer totals a phase reports about itself (e.g. DNS queries sent),
//! summed per label and drained apart from the times by
//! [`drain_counts`], so a reader of [`drain`] never mistakes a count
//! for a duration.
//!
//! Determinism: timing never feeds back into generation or measurement
//! — the sink is observe-only, and labels aggregate in first-seen
//! order so drained reports are stable run to run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<(&'static str, Duration)>> = Mutex::new(Vec::new());
/// Work counters, one summed entry per label in first-seen order.
static COUNTS: Mutex<Vec<(&'static str, u64)>> = Mutex::new(Vec::new());

/// One aggregated phase measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSample {
    /// Phase label, e.g. `"gen/build_sites"`.
    pub label: &'static str,
    /// Total wall time across every scope with this label.
    pub elapsed: Duration,
    /// Number of scopes that reported under this label.
    pub count: u64,
}

/// Turns phase recording on. Cheap to call repeatedly.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns phase recording off (samples already taken are kept until
/// [`drain`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether phase recording is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a scoped phase timer. The elapsed time is recorded when the
/// guard drops; when recording is off this is a no-op (no clock read).
#[must_use = "the timer records on drop; binding to _ ends the phase immediately"]
pub fn scope(label: &'static str) -> PhaseScope {
    PhaseScope {
        label,
        start: is_enabled().then(Instant::now),
    }
}

/// Times a closure under `label` and returns its result.
pub fn time<T>(label: &'static str, f: impl FnOnce() -> T) -> T {
    let _scope = scope(label);
    f()
}

/// Adds `n` to the work counter `label` when recording is on (a no-op
/// otherwise). Counters are summed per label, so the sink holds one
/// entry per label however often a phase reports.
pub fn add_count(label: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    let mut counts = match COUNTS.lock() {
        Ok(counts) => counts,
        Err(poisoned) => poisoned.into_inner(),
    };
    match counts.iter_mut().find(|(l, _)| *l == label) {
        Some((_, total)) => *total += n,
        None => counts.push((label, n)),
    }
}

/// Drains the work counters recorded so far, `(label, total)` in
/// first-seen order, and resets them.
pub fn drain_counts() -> Vec<(&'static str, u64)> {
    match COUNTS.lock() {
        Ok(mut counts) => std::mem::take(&mut *counts),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

/// Drains all samples recorded so far, aggregated by label in
/// first-seen order, and resets the sink.
pub fn drain() -> Vec<PhaseSample> {
    let raw = match SINK.lock() {
        Ok(mut sink) => std::mem::take(&mut *sink),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    };
    let mut out: Vec<PhaseSample> = Vec::new();
    for (label, elapsed) in raw {
        match out.iter_mut().find(|s| s.label == label) {
            Some(s) => {
                s.elapsed += elapsed;
                s.count += 1;
            }
            None => out.push(PhaseSample {
                label,
                elapsed,
                count: 1,
            }),
        }
    }
    out
}

/// Guard returned by [`scope`]; records the elapsed phase time when
/// dropped.
#[derive(Debug)]
pub struct PhaseScope {
    label: &'static str,
    start: Option<Instant>,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            let mut sink = match SINK.lock() {
                Ok(sink) => sink,
                Err(poisoned) => poisoned.into_inner(),
            };
            sink.push((self.label, elapsed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global, so the tests share one sequence and
    // run under a lock to keep `cargo test`'s parallel runner out.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _l = locked();
        disable();
        let _ = drain();
        {
            let _s = scope("idle");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn enabled_scopes_aggregate_by_label_in_first_seen_order() {
        let _l = locked();
        enable();
        let _ = drain();
        time("a", || ());
        time("b", || ());
        time("a", || ());
        disable();
        let samples = drain();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].label, "a");
        assert_eq!(samples[0].count, 2);
        assert_eq!(samples[1].label, "b");
        assert_eq!(samples[1].count, 1);
        assert!(drain().is_empty(), "drain resets the sink");
    }

    #[test]
    fn counters_sum_per_label_apart_from_phase_times() {
        let _l = locked();
        disable();
        let _ = (drain(), drain_counts());
        add_count("off", 5);
        assert!(
            drain_counts().is_empty(),
            "disabled counters record nothing"
        );
        enable();
        add_count("q", 3);
        add_count("h", 1);
        add_count("q", 4);
        disable();
        assert_eq!(drain_counts(), vec![("q", 7), ("h", 1)]);
        assert!(drain().is_empty(), "counters never reach the phase times");
        assert!(drain_counts().is_empty(), "drain_counts resets them");
    }
}
