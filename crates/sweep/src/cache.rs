//! Content-hashed result cache.
//!
//! Keys are [`JobSpec::fingerprint`](crate::JobSpec::fingerprint) values;
//! values are shared [`SimReport`]s. The cache is thread-safe and lives
//! for the duration of an engine, so every figure or sweep submitted to
//! the same engine reuses previously simulated points — the paper's
//! figures overlap heavily (every figure re-runs the eight baselines, C2
//! appears in four different studies), so a full `st repro` pass sees a
//! substantial hit rate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use st_core::SimReport;

/// Hit/miss counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (including batch-level dedup of
    /// identical points submitted together).
    pub hits: u64,
    /// Lookups that required a fresh simulation.
    pub misses: u64,
    /// Distinct simulation points currently stored.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups answered without simulating, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe fingerprint → report cache.
#[derive(Debug, Default)]
pub struct ResultCache {
    map: Mutex<HashMap<u64, Arc<SimReport>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Looks up a fingerprint, counting a hit or a miss.
    #[must_use]
    pub fn get(&self, fingerprint: u64) -> Option<Arc<SimReport>> {
        let found = self.map.lock().expect("cache poisoned").get(&fingerprint).cloned();
        match found {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Counts a hit that was resolved outside the map (batch-level dedup
    /// of identical points submitted in the same run).
    pub fn count_dedup_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a freshly simulated report, unless the fingerprint already
    /// has one (two reports of one fingerprint are bit-identical), and
    /// returns whether it did.
    pub fn insert(&self, fingerprint: u64, report: Arc<SimReport>) -> bool {
        let mut map = self.map.lock().expect("cache poisoned");
        if map.contains_key(&fingerprint) {
            return false;
        }
        map.insert(fingerprint, report);
        true
    }

    /// Seeds the cache with entries loaded from elsewhere (the
    /// persistent on-disk cache) without touching the hit/miss counters,
    /// returning how many were newly added.
    pub fn preload(&self, entries: impl IntoIterator<Item = (u64, Arc<SimReport>)>) -> u64 {
        let mut map = self.map.lock().expect("cache poisoned");
        let mut added = 0;
        for (fp, report) in entries {
            if map.insert(fp, report).is_none() {
                added += 1;
            }
        }
        added
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("cache poisoned").len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> Arc<SimReport> {
        Arc::new(
            crate::JobSpec::new(
                st_isa::WorkloadSpec::builder("cache-test").seed(1).blocks(64).build(),
                500,
            )
            .run(),
        )
    }

    #[test]
    fn preload_seeds_without_counting() {
        let cache = ResultCache::new();
        let r = dummy_report();
        assert_eq!(cache.preload([(7, Arc::clone(&r)), (9, Arc::clone(&r))]), 2);
        assert_eq!(cache.preload([(7, Arc::clone(&r))]), 0, "already present");
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!((stats.hits, stats.misses), (0, 0), "preload is not a lookup");
        assert!(cache.get(7).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn get_insert_and_stats() {
        let cache = ResultCache::new();
        assert!(cache.get(42).is_none());
        let r = dummy_report();
        assert!(cache.insert(42, Arc::clone(&r)));
        assert!(!cache.insert(42, Arc::clone(&r)), "a fingerprint is stored once");
        let back = cache.get(42).expect("cached");
        assert_eq!(*back, *r);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }
}
