//! Counters: the atomic [`Counter`], cache statistics, and the
//! process-global registry. Latency is not kept here — a span's duration
//! is the one timing record.

use crate::json::{self, Json, Object};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counter. All operations are relaxed atomics and
/// ungated: a counter counts at every [`ObsLevel`](crate::ObsLevel).
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
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
        }
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

/// The process-global registry of pipeline counters.
///
/// Its counters count at every observability level, so a reduce run at
/// `BDSM_OBS=off` is counted too. Tests and benches read a delta, or
/// [`reset`](Metrics::reset) between phases.
#[derive(Debug)]
pub struct Metrics {
    /// Sparse LU numeric factorizations completed.
    pub lu_factorizations: Counter,
}

static METRICS: Metrics = Metrics {
    lu_factorizations: Counter::new(),
};

/// The process-global [`Metrics`] registry.
pub fn metrics() -> &'static Metrics {
    &METRICS
}

impl Metrics {
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("lu_factorizations", self.lu_factorizations.get())],
        }
    }

    /// Zero everything; tests and benches call this between phases.
    pub fn reset(&self) {
        self.lu_factorizations.reset();
    }
}

/// Point-in-time copy of the global registry, JSON-dumpable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// JSON object: `{"counters": {...}}`.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Json for MetricsSnapshot {
    fn write_json(&self, out: &mut String) {
        let counters = self
            .counters
            .iter()
            .fold(Object::new(), |o, (k, v)| o.field(k, v));
        Object::new().field("counters", counters).write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn cache_stats_invariants() {
        let s = CacheStats::default();
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
        let empty = CacheStats::default().snapshot();
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn registry_snapshot_json() {
        // Use a local registry (the global one is shared across tests).
        let m = Metrics {
            lu_factorizations: Counter::new(),
        };
        m.lu_factorizations.add(3);
        let snap = m.snapshot();
        assert_eq!(snap.get("lu_factorizations"), Some(3));
        assert_eq!(snap.get("nope"), None);
        assert_eq!(snap.to_json(), "{\"counters\": {\"lu_factorizations\": 3}}");
    }
}
