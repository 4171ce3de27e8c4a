//! Fixture: clean library code plus exactly two justified suppressions.

use std::collections::BTreeMap;

/// Sums the values of an ordered map.
pub fn total(m: &BTreeMap<String, u32>) -> u32 {
    m.values().sum()
}

/// Returns the first element of a slice the fixture guarantees is
/// non-empty.
pub fn first(xs: &[u32]) -> u32 {
    // lint:allow(panic) — fixture invariant: callers always pass non-empty slices,
    // so taking the head cannot fail even under adversarial inputs
    *xs.first().expect("non-empty by fixture invariant")
}

/// The head of a non-empty slice, via [`first`]. The justification on
/// `first`'s panic site discharges it for every caller, so the
/// interprocedural `panic-reachable` rule stays quiet here.
pub fn head(xs: &[u32]) -> u32 {
    first(xs)
}

/// Encodes a flag as a byte.
pub fn encode(flag: bool) -> u8 {
    u8::from(flag)
}

/// Decodes a byte [`encode`] wrote.
pub fn decode(byte: u8) -> bool {
    match byte {
        0 => false,
        1 => true,
        // lint:allow(panic) — fixture invariant: every decoded byte comes from `encode`
        other => unreachable!("invalid flag byte {other}"),
    }
}

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks a counter, recovering from poisoning: the data under a
/// poisoned lock is intact, so the guard is handed back instead of
/// cascading the panic (the idiom `lock-poison-unwrap` asks for).
pub fn counter_guard(m: &Mutex<u64>) -> MutexGuard<'_, u64> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Bumps the counter in a tight scope, then waits with no guard live —
/// the shape `blocking-while-locked` wants.
pub fn bump_then_wait(m: &Mutex<u64>) {
    {
        let mut g = counter_guard(m);
        *g += 1;
    }
    std::thread::sleep(std::time::Duration::from_millis(1));
}

/// One atomic field, one ordering discipline (`Relaxed` everywhere).
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Records one event.
pub fn record_event() {
    EVENTS.fetch_add(1, Ordering::Relaxed);
}

/// Reads the event counter.
pub fn events() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1);
        m.insert("b".to_string(), 2);
        assert_eq!(total(&m), 3);
    }
}
