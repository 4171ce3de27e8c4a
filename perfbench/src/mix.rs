//! The serve-mix request sequence.
//!
//! Each connection walks its own seeded sequence in blocks of 100
//! requests holding exactly 39 `RANK` and 39 `SITES` reads (78 %), 20
//! writes (20 %) and two `OUTAGE`s (2 %), shuffled within the block.
//! Writes come in pairs: a `CHURN ADD-SITE` followed later in the block
//! by the `RM-SITE` of the same edge, so the resident index is back in
//! its starting state at every block boundary. Connections churn
//! disjoint sites (site ids congruent to the connection index modulo the
//! connection count).
//!
//! No query log of this service exists, so the choices inside the
//! 78/20/2 split are the plainest ones, each for a stated reason:
//!
//! - `RANK` and `SITES` get equal shares. They are the service's two
//!   read questions (which providers matter most; which sites depend on
//!   this one), and they cost differently: a `RANK` sorts every provider
//!   of a kind, a `SITES` is one lookup. The serve workload's
//!   `latency_ms` is the mean of the two classes' p50s, so each class
//!   moves it by its share. (With unequal shares, a p50 over the pooled
//!   reads would sit in the majority class and hide the other; with
//!   equal shares it would sit on the boundary between them.)
//! - Kinds are uniform over dns, cdn and ca: the paper treats the three
//!   services alike, one analysis each.
//! - Provider keys are uniform over each kind's top 8, so no single
//!   provider's list size or outage decides the figures.
//! - Churn edges are critical. The engine keeps an impact index (critical
//!   edges only) beside a concentration index (every edge); a critical
//!   edge changes both, so a write pays for the whole write path.

pub const BLOCK: usize = 100;
pub const RANKS: usize = 39;
pub const SITES: usize = 39;
pub const WRITES: usize = 20;
pub const OUTAGES: usize = 2;

pub const KINDS: [&str; 3] = ["dns", "cdn", "ca"];

/// Request class, as reported per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Rank,
    Sites,
    Churn,
    Outage,
}

impl Class {
    pub fn verb(self) -> &'static str {
        match self {
            Class::Rank => "RANK",
            Class::Sites => "SITES",
            Class::Churn => "CHURN",
            Class::Outage => "OUTAGE",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    pub text: String,
}

/// SplitMix64: the benchmark's own generator, so the request sequence
/// does not move when the program's PRNG changes.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An endless request sequence for one connection.
pub struct MixStream {
    rng: Rng,
    /// Top providers per kind, in `KINDS` order.
    keys: [Vec<String>; 3],
    conn: usize,
    conns: usize,
    sites: usize,
    pending: Vec<Request>,
    /// The `RM-SITE` closing the open churn pair, if one is open.
    open_rm: Option<String>,
}

impl MixStream {
    pub fn new(
        seed: u64,
        conn: usize,
        conns: usize,
        keys: [Vec<String>; 3],
        sites: usize,
    ) -> MixStream {
        assert!(
            keys.iter().all(|k| !k.is_empty()),
            "every kind needs a provider"
        );
        assert!(
            conn < conns && sites >= conns,
            "connection {conn} of {conns}, {sites} sites"
        );
        MixStream {
            rng: Rng::new(seed ^ (conn as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
            keys,
            conn,
            conns,
            sites,
            pending: Vec::new(),
            open_rm: None,
        }
    }

    fn key(&mut self, kind: usize) -> String {
        let n = self.keys[kind].len();
        self.keys[kind][self.rng.below(n)].clone()
    }

    fn block(&mut self) -> Vec<Request> {
        let mut slots: Vec<Class> = [Class::Rank; RANKS]
            .into_iter()
            .chain([Class::Sites; SITES])
            .chain([Class::Churn; WRITES])
            .chain([Class::Outage; OUTAGES])
            .collect();
        for i in (1..slots.len()).rev() {
            let j = self.rng.below(i + 1);
            slots.swap(i, j);
        }
        let mut out = Vec::with_capacity(BLOCK);
        let mut open: Option<String> = None;
        for class in slots {
            let kind = self.rng.below(KINDS.len());
            let k = KINDS[kind];
            let req = match class {
                Class::Rank => Request {
                    class: Class::Rank,
                    text: format!("RANK {k} 10"),
                },
                Class::Sites => Request {
                    class: Class::Sites,
                    text: format!("SITES {k} {}", self.key(kind)),
                },
                Class::Churn => match open.take() {
                    Some(edge) => Request {
                        class: Class::Churn,
                        text: format!("CHURN RM-SITE {edge}"),
                    },
                    None => {
                        let site = self.conn + self.conns * self.rng.below(self.sites / self.conns);
                        let edge = format!("{site} {k} {} critical", self.key(kind));
                        let text = format!("CHURN ADD-SITE {edge}");
                        open = Some(edge);
                        Request {
                            class: Class::Churn,
                            text,
                        }
                    }
                },
                Class::Outage => Request {
                    class: Class::Outage,
                    text: format!("OUTAGE {}", self.key(kind)),
                },
            };
            out.push(req);
        }
        out.reverse();
        out
    }

    /// The next request of the sequence.
    pub fn next_request(&mut self) -> Request {
        if self.pending.is_empty() {
            self.pending = self.block();
        }
        let req = self.pending.pop().expect("a block is never empty");
        if let Some(edge) = req.text.strip_prefix("CHURN ADD-SITE ") {
            self.open_rm = Some(format!("CHURN RM-SITE {edge}"));
        } else if req.text.starts_with("CHURN RM-SITE ") {
            self.open_rm = None;
        }
        req
    }

    /// The request that closes the open churn pair, if any; sent when a
    /// run stops mid-block so the index ends where it started.
    pub fn close(&mut self) -> Option<Request> {
        self.open_rm.take().map(|text| Request {
            class: Class::Churn,
            text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> [Vec<String>; 3] {
        [
            vec!["a.net".into(), "b.net".into()],
            vec!["c.com".into()],
            vec!["d.org".into(), "e.org".into(), "f.org".into()],
        ]
    }

    fn take(seed: u64, conn: usize, n: usize) -> Vec<Request> {
        let mut s = MixStream::new(seed, conn, 2, keys(), 1_000);
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn the_sequence_is_deterministic_per_seed() {
        assert_eq!(take(7, 0, 500), take(7, 0, 500));
        assert_ne!(take(7, 0, 500), take(8, 0, 500));
        assert_ne!(take(7, 0, 500), take(7, 1, 500));
    }

    #[test]
    fn every_block_hits_the_exact_shares() {
        assert_eq!((RANKS + SITES, WRITES, OUTAGES), (78, 20, 2));
        assert_eq!(RANKS + SITES + WRITES + OUTAGES, BLOCK);
        for seed in 0..20 {
            let reqs = take(seed, 0, BLOCK * 40);
            for block in reqs.chunks(BLOCK) {
                let count = |f: fn(Class) -> bool| block.iter().filter(|r| f(r.class)).count();
                assert_eq!(count(|c| c == Class::Rank), RANKS);
                assert_eq!(count(|c| c == Class::Sites), SITES);
                assert_eq!(count(|c| c == Class::Churn), WRITES);
                assert_eq!(count(|c| c == Class::Outage), OUTAGES);
                for r in block {
                    assert!(r.text.starts_with(r.class.verb()), "{}", r.text);
                }
            }
        }
    }

    #[test]
    fn churn_pairs_cancel_within_each_block() {
        for seed in 0..20 {
            for conn in 0..2 {
                let reqs = take(seed, conn, BLOCK * 40);
                for block in reqs.chunks(BLOCK) {
                    let mut edges: Vec<&str> = Vec::new();
                    for r in block {
                        if let Some(e) = r.text.strip_prefix("CHURN ADD-SITE ") {
                            edges.push(e);
                        } else if let Some(e) = r.text.strip_prefix("CHURN RM-SITE ") {
                            let at = edges
                                .iter()
                                .position(|x| *x == e)
                                .expect("RM after its ADD");
                            edges.remove(at);
                        }
                    }
                    assert!(edges.is_empty(), "block leaves {edges:?} open");
                    let sites = block.iter().filter_map(|r| {
                        r.text
                            .strip_prefix("CHURN ")
                            .map(|t| t.split(' ').nth(1).unwrap_or(""))
                    });
                    for site in sites {
                        let id: usize = site.parse().expect("numeric site");
                        assert_eq!(id % 2, conn, "connections churn disjoint sites");
                    }
                }
            }
        }
    }

    #[test]
    fn close_sends_the_open_pairs_rm() {
        let mut s = MixStream::new(3, 0, 2, keys(), 1_000);
        loop {
            let r = s.next_request();
            if let Some(edge) = r.text.strip_prefix("CHURN ADD-SITE ") {
                let rm = s.close().expect("a pair is open");
                assert_eq!(rm.text, format!("CHURN RM-SITE {edge}"));
                assert!(s.close().is_none());
                break;
            }
        }
    }

    #[test]
    fn every_request_parses() {
        for r in take(11, 1, BLOCK * 10) {
            let parsed = webdeps_serve::parse_request(r.text.as_bytes());
            assert!(parsed.is_ok(), "{}: {parsed:?}", r.text);
        }
    }
}
