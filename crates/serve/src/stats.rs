//! Health counters and latency tracking.
//!
//! Everything the `/stats` query reports lives here, designed to be
//! updated from many worker threads without contention surprises:
//! plain atomics for counters, and a fixed-size logarithmic histogram
//! (one atomic per power-of-two microsecond bucket) for latencies —
//! recording is lock-free and O(1), and quantiles are read by a single
//! cumulative walk. Memory is constant no matter how many queries the
//! daemon has served.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::proto::Request;

/// Number of power-of-two microsecond buckets: bucket `i` holds
/// latencies in `[2^i, 2^(i+1))` µs, except bucket 0 (`< 2` µs) and the
/// last bucket (everything above ~17 minutes).
const BUCKETS: usize = 30;

/// Lock-free logarithmic latency histogram.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_of(micros: u64) -> usize {
        if micros < 2 {
            0
        } else {
            (63 - micros.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Records one observation.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The upper bound (µs) of the bucket containing quantile `q`
    /// (`0.0..=1.0`), or 0 with no observations. Bucket-resolution
    /// (±2×) is plenty for shed/deadline tuning.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        let target = ((total as f64) * clamped).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

/// The engine query kinds whose latency `STATS` also reports apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `RANK`.
    Rank,
    /// `SITES`.
    Sites,
    /// `CHURN`.
    Churn,
    /// `OUTAGE`.
    Outage,
}

impl QueryKind {
    /// Every kind, in `STATS` order.
    pub const ALL: [QueryKind; 4] = [
        QueryKind::Rank,
        QueryKind::Sites,
        QueryKind::Churn,
        QueryKind::Outage,
    ];

    /// The kind of an engine query; `None` for connection-level requests
    /// and `POISON`.
    pub fn of(req: &Request) -> Option<QueryKind> {
        match req {
            Request::Rank { .. } => Some(QueryKind::Rank),
            Request::Sites { .. } => Some(QueryKind::Sites),
            Request::Churn(_) => Some(QueryKind::Churn),
            Request::Outage { .. } => Some(QueryKind::Outage),
            Request::Ping
            | Request::Health
            | Request::Stats
            | Request::Shutdown
            | Request::Poison => None,
        }
    }

    /// The prefix of this kind's `STATS` tokens (`outage` in
    /// `outage_p50us=`).
    pub fn token(self) -> &'static str {
        match self {
            QueryKind::Rank => "rank",
            QueryKind::Sites => "sites",
            QueryKind::Churn => "churn",
            QueryKind::Outage => "outage",
        }
    }
}

/// All server-wide health counters, shared by workers, the accept loop,
/// and the stats/health queries.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections admitted to a worker.
    pub accepted: AtomicU64,
    /// Connections or requests shed with a `BUSY` reply.
    pub sheds: AtomicU64,
    /// Queries cut off mid-scan with a `DEADLINE` reply.
    pub deadlines: AtomicU64,
    /// Queries whose execution panicked and was contained (`ERR`).
    pub contained_panics: AtomicU64,
    /// Malformed requests answered with `ERR`.
    pub parse_errors: AtomicU64,
    /// Queries answered `OK`.
    pub ok_replies: AtomicU64,
    /// Churn deltas absorbed by SCC-local patching.
    pub churn_patched: AtomicU64,
    /// Churn deltas that forced a full rebuild.
    pub churn_rebuilt: AtomicU64,
    /// Per-query latency distribution, every request pooled.
    pub latency: LatencyHistogram,
    /// The same latencies of engine queries, by [`QueryKind`] in
    /// [`QueryKind::ALL`] order.
    by_kind: [LatencyHistogram; 4],
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Convenience relaxed increment.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience relaxed read.
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Records one request's latency: pooled, and under its kind when
    /// it is an engine query.
    pub fn record_latency(&self, kind: Option<QueryKind>, micros: u64) {
        self.latency.record_micros(micros);
        if let Some(kind) = kind {
            self.by_kind[kind as usize].record_micros(micros);
        }
    }

    /// The latency distribution of one query kind.
    pub fn kind_latency(&self, kind: QueryKind) -> &LatencyHistogram {
        &self.by_kind[kind as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_walk_the_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_micros(0.5), 0);
        // 98 fast observations, 2 slow ones.
        for _ in 0..98 {
            h.record_micros(10);
        }
        for _ in 0..2 {
            h.record_micros(100_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_micros(0.50);
        let p99 = h.quantile_micros(0.99);
        assert!(p50 <= 16, "p50 bucket bound was {p50}");
        assert!(p99 >= 65_536, "p99 bucket bound was {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 1);
        assert_eq!(LatencyHistogram::bucket_of(4), 2);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }
}
