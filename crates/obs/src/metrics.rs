//! Metrics: atomic counters/gauges, fixed-bucket latency histograms,
//! cache statistics, and the process-global registry.

use crate::json::{self, Json, Object};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Monotonic event counter. All operations are relaxed atomics; callers
/// gate recording on [`crate::enabled`] themselves when the increment
/// sits on a hot path.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Upper bounds (µs, inclusive) of the fixed latency buckets; a final
/// overflow bucket catches everything above the last bound. Roughly
/// log-spaced from 1 µs to 10 s — wide enough for a warm cache hit and
/// a cold n = 10⁴ factorization in the same histogram.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 15] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 100_000, 10_000_000,
];

const NUM_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// Fixed-bucket latency histogram (microseconds). Lock-free recording,
/// quantiles read from cumulative bucket counts (resolution = the
/// bucket bound, which is plenty for p50/p95/p99 dashboards).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; NUM_BUCKETS],
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub const fn new() -> Histogram {
        Histogram {
            counts: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum_us: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record_us(&self, us: u64) {
        let idx = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record_us(d.as_micros() as u64);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket containing quantile `q` ∈ [0, 1].
    /// Samples in the overflow bucket report the last finite bound.
    /// Returns 0.0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= target {
                let bound_idx = i.min(LATENCY_BUCKET_BOUNDS_US.len() - 1);
                return LATENCY_BUCKET_BOUNDS_US[bound_idx] as f64;
            }
        }
        *LATENCY_BUCKET_BOUNDS_US.last().unwrap() as f64
    }

    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum_us.store(0, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_us: self.sum_us(),
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
            buckets: LATENCY_BUCKET_BOUNDS_US
                .iter()
                .copied()
                .zip(self.counts.iter().map(|c| c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_us: u64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    /// `(bucket_upper_bound_us, count)` pairs; the overflow bucket
    /// (everything above the last bound) is omitted from this list but
    /// included in `count`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Json for HistogramSnapshot {
    fn write_json(&self, out: &mut String) {
        Object::new()
            .field("count", self.count)
            .field("sum_us", self.sum_us)
            .field("p50_us", self.p50_us)
            .field("p95_us", self.p95_us)
            .field("p99_us", self.p99_us)
            .field("buckets_us", &self.buckets)
            .write_json(out);
    }
}

/// Hit/miss/insert/evict accounting for a keyed cache, embeddable per
/// cache instance (e.g. one per `RomServer`).
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: Counter,
    pub misses: Counter,
    pub inserts: Counter,
    /// Entries displaced by a bounded cache to make room; zero for an
    /// unbounded cache, so `inserts - evictions` is the live entry count.
    pub evictions: Counter,
}

impl CacheStats {
    pub const fn new() -> CacheStats {
        CacheStats {
            hits: Counter::new(),
            misses: Counter::new(),
            inserts: Counter::new(),
            evictions: Counter::new(),
        }
    }

    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
        }
    }

    pub fn reset(&self) {
        self.hits.reset();
        self.misses.reset();
        self.inserts.reset();
        self.evictions.reset();
    }
}

/// Point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
}

impl CacheStatsSnapshot {
    /// Total lookups observed.
    pub fn queries(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits over total lookups; 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let q = self.queries();
        if q == 0 {
            0.0
        } else {
            self.hits as f64 / q as f64
        }
    }
}

/// The process-global registry of pipeline counters and gauges.
///
/// Recording is gated by the caller on `enabled(ObsLevel::Timings)`, so
/// at `BDSM_OBS=off` the registry stays untouched (and reads as zero).
#[derive(Debug)]
pub struct Metrics {
    /// Sparse LU numeric factorizations completed.
    pub lu_factorizations: Counter,
    /// Supernode panels packed by the blocked numeric kernel.
    pub lu_supernode_panels: Counter,
    /// MGS re-orthogonalization passes run while merging Krylov candidates.
    pub mgs_reorth_passes: Counter,
    /// Candidate panels absorbed by the blocked orthogonalization kernel
    /// (each = two block-projection passes plus an intra-panel sweep).
    pub ortho_panel_merges: Counter,
    /// Nonzeros (L + U) of the most recent sparse LU factorization.
    pub factor_nnz: Gauge,
    /// Basis column count of the most recent reduction merge.
    pub basis_columns: Gauge,
}

static METRICS: Metrics = Metrics {
    lu_factorizations: Counter::new(),
    lu_supernode_panels: Counter::new(),
    mgs_reorth_passes: Counter::new(),
    ortho_panel_merges: Counter::new(),
    factor_nnz: Gauge::new(),
    basis_columns: Gauge::new(),
};

/// The process-global [`Metrics`] registry.
pub fn metrics() -> &'static Metrics {
    &METRICS
}

impl Metrics {
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("lu_factorizations", self.lu_factorizations.get()),
                ("lu_supernode_panels", self.lu_supernode_panels.get()),
                ("mgs_reorth_passes", self.mgs_reorth_passes.get()),
                ("ortho_panel_merges", self.ortho_panel_merges.get()),
            ],
            gauges: vec![
                ("factor_nnz", self.factor_nnz.get()),
                ("basis_columns", self.basis_columns.get()),
            ],
        }
    }

    /// Zero everything; tests and benches call this between phases.
    pub fn reset(&self) {
        self.lu_factorizations.reset();
        self.lu_supernode_panels.reset();
        self.mgs_reorth_passes.reset();
        self.ortho_panel_merges.reset();
        self.factor_nnz.reset();
        self.basis_columns.reset();
    }
}

/// Point-in-time copy of the global registry, JSON-dumpable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .chain(self.gauges.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// JSON object: `{"counters": {...}, "gauges": {...}}`.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Json for MetricsSnapshot {
    fn write_json(&self, out: &mut String) {
        let object =
            |pairs: &[(&str, u64)]| pairs.iter().fold(Object::new(), |o, (k, v)| o.field(k, v));
        Object::new()
            .field("counters", object(&self.counters))
            .field("gauges", object(&self.gauges))
            .write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(17);
        g.set(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0.0);
        // 90 fast (≤10us), 9 medium (≤1000us), 1 slow (≤100000us).
        for _ in 0..90 {
            h.record_us(7);
        }
        for _ in 0..9 {
            h.record_us(800);
        }
        h.record_us(60_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_us(), 90 * 7 + 9 * 800 + 60_000);
        assert_eq!(h.quantile_us(0.50), 10.0);
        assert_eq!(h.quantile_us(0.95), 1_000.0);
        assert_eq!(h.quantile_us(0.99), 1_000.0);
        assert_eq!(h.quantile_us(1.0), 100_000.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50_us, 10.0);
        assert!(snap.to_json().contains("\"p95_us\": 1e3"));
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::new();
        h.record_us(u64::MAX / 2);
        assert_eq!(h.count(), 1);
        // Overflow samples report the last finite bound.
        assert_eq!(h.quantile_us(0.5), 10_000_000.0);
    }

    #[test]
    fn cache_stats_invariants() {
        let s = CacheStats::new();
        s.misses.inc();
        s.inserts.inc();
        for _ in 0..3 {
            s.hits.inc();
        }
        let snap = s.snapshot();
        assert_eq!(snap.queries(), 4);
        assert_eq!(snap.hit_rate(), 0.75);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.evictions, 0);
        // A bounded cache displacing an entry counts it without touching
        // the hit/miss classification of lookups.
        s.evictions.inc();
        let snap = s.snapshot();
        assert_eq!(snap.queries(), 4);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.inserts - snap.evictions, 0);
        let empty = CacheStats::new().snapshot();
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn registry_snapshot_json() {
        // Use local structures (the global registry is shared across tests).
        let m = Metrics {
            lu_factorizations: Counter::new(),
            lu_supernode_panels: Counter::new(),
            mgs_reorth_passes: Counter::new(),
            ortho_panel_merges: Counter::new(),
            factor_nnz: Gauge::new(),
            basis_columns: Gauge::new(),
        };
        m.lu_factorizations.add(3);
        m.factor_nnz.set(12345);
        let snap = m.snapshot();
        assert_eq!(snap.get("lu_factorizations"), Some(3));
        assert_eq!(snap.get("factor_nnz"), Some(12345));
        assert_eq!(snap.get("nope"), None);
        let json = snap.to_json();
        assert!(json.contains("\"lu_factorizations\": 3"));
        assert!(json.contains("\"gauges\": {"));
        assert!(json.contains("\"factor_nnz\": 12345"));
    }
}
