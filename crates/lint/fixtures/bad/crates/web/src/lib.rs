//! Fixture: every source-side rule violated at least once. This file
//! is never compiled — it exists to be scanned by `webdeps-lint` in
//! the CLI integration tests.

use std::collections::HashMap;

pub fn panics(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn clock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn ambient() -> Option<String> {
    std::env::var("HOME").ok()
}

pub fn leak_order(m: &HashMap<String, u32>) -> Vec<String> {
    let mut out = Vec::new();
    for k in m.keys() {
        out.push(k.clone());
    }
    out
}

pub fn layered() {
    let _ = webdeps_reports::exists;
}

pub fn debugging(x: u32) -> u32 {
    dbg!(x)
}

// TODO make this a real module someday
pub fn todo_marker() {}

pub fn bad_allow(v: Option<u32>) -> u32 {
    v.expect("set") // lint:allow(panic)
}

pub fn might_fail(x: u32) -> Result<u32, String> {
    if x == 0 {
        return Err("zero".to_string());
    }
    Ok(x)
}

pub fn discards() {
    might_fail(3);
}

pub fn fresh_stream() -> u64 {
    let mut rng = DetRng::new(7);
    rng.next_u64()
}

pub fn rank_scores(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn racy_merge(xs: &[u32]) -> Vec<u32> {
    let mut acc = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            for x in xs {
                acc.push(*x);
            }
        });
    });
    acc
}

// The three interprocedural rules: each hazard hides in a private
// helper, invisible to the per-file rules at the pub API.

fn hidden_panic(v: &[u32]) -> u32 {
    v.first().copied().expect("non-empty")
}

pub fn head(v: &[u32]) -> u32 {
    hidden_panic(v)
}

fn now_tag() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

pub fn stamp() -> u64 {
    let t = now_tag();
    size_of_val(&t) as u64
}

fn mint() -> u64 {
    let mut rng = DetRng::new(9);
    rng.next_u64()
}

pub fn draw() -> u64 {
    mint()
}

// The concurrency rules: a two-function lock-order cycle (each side
// takes one lock directly and the other through a private helper), a
// guard held across a direct sleep, a guard held across a helper that
// sleeps, a guard held across a fan-out, a poisoned-lock unwrap, and
// one atomic field accessed with mixed orderings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct Pair {
    a: Mutex<u64>,
    b: Mutex<u64>,
}

impl Pair {
    fn grab_a(&self) -> u64 {
        *self.a.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn grab_b(&self) -> u64 {
        *self.b.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn forward(&self) -> u64 {
        let ga = self.a.lock().unwrap_or_else(|p| p.into_inner());
        *ga + self.grab_b()
    }

    pub fn backward(&self) -> u64 {
        let gb = self.b.lock().unwrap_or_else(|p| p.into_inner());
        *gb + self.grab_a()
    }
}

pub fn blocky(m: &Mutex<u64>) -> u64 {
    let g = m.lock().unwrap_or_else(|p| p.into_inner());
    std::thread::sleep(std::time::Duration::from_millis(1));
    *g
}

fn naps() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn blocky2(m: &Mutex<u64>) -> u64 {
    let g = m.lock().unwrap_or_else(|p| p.into_inner());
    naps();
    *g
}

pub fn fan_out(xs: &[u32]) -> Vec<u32> {
    xs.to_vec()
}

pub fn fanned(m: &Mutex<u64>, xs: &[u32]) -> u64 {
    let g = m.lock().unwrap_or_else(|p| p.into_inner());
    let parts = fan_out(xs);
    *g + parts.len() as u64
}

pub fn poison_prone(m: &Mutex<u64>) -> u64 {
    *m.lock().unwrap()
}

static TICKS: AtomicU64 = AtomicU64::new(0);

pub fn tick() {
    TICKS.fetch_add(1, Ordering::Relaxed);
}

pub fn ticks() -> u64 {
    TICKS.load(Ordering::SeqCst)
}

// `unreachable!` is a panic site too: unjustified in a pub fn, and
// hidden in a private helper behind one.

pub fn decode(byte: u8) -> bool {
    match byte {
        0 => false,
        1 => true,
        other => unreachable!("invalid flag byte {other}"),
    }
}

fn hidden_unreachable(byte: u8) -> u8 {
    if byte > 1 {
        unreachable!("checked by every caller");
    }
    byte
}

pub fn decode_flag(byte: u8) -> u8 {
    hidden_unreachable(byte)
}
