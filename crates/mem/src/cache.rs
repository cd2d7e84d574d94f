//! Set-associative cache with true-LRU replacement.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Name used in stats reports (e.g. "l1i").
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Cache::new`]).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two() && self.line_bytes > 0);
        assert!(self.ways > 0, "associativity must be positive");
        let lines = self.size_bytes / self.line_bytes;
        assert!(lines > 0 && lines.is_multiple_of(self.ways), "ways must divide line count");
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss accounting for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses were made.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    lru: u64,
    /// Filled by a wrong-path access and not yet touched by the correct
    /// path; invalidated when the wrong path squashes.
    spec: bool,
}

/// A set-associative, true-LRU, allocate-on-miss cache.
///
/// Set index and tag extraction are pure shift/mask operations whose
/// shift amounts are precomputed at construction, so the per-access
/// lookup does no division or recount of the geometry.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    offset_bits: u32,
    /// `sets - 1` (sets are a power of two).
    set_mask: usize,
    /// `offset_bits + log2(sets)` worth of low bits removed for the tag.
    tag_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the line size or implied set count is not a power of two,
    /// or the associativity does not divide the line count.
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        let ways = config.ways;
        Cache {
            offset_bits: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            config,
            lines: vec![Line::default(); sets * ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses `addr`, allocating on miss. Returns `true` on hit.
    ///
    /// A correct-path hit on a speculatively filled line adopts the line
    /// (clears its speculative tag).
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_inner(addr, false)
    }

    /// Accesses `addr` on behalf of a *wrong-path* instruction. Misses
    /// allocate lines tagged speculative; the caller records the address
    /// and invalidates it via [`Cache::invalidate_if_speculative`] when the
    /// wrong path squashes.
    ///
    /// Rationale: in a synthetic CFG, wrong paths revisit nearby code and
    /// data, so permanent wrong-path fills act as prefetches for the
    /// near-future correct path — the *opposite* of the cache-pollution
    /// effect §3 of the paper observes. Tag-and-invalidate keeps the costs
    /// of wrong-path fills (bandwidth, energy, victim eviction = pollution)
    /// while removing the synthetic warming benefit. Recovery invalidates
    /// the fills in [`crate::MemoryHierarchy::squash_speculative`];
    /// ROADMAP item 5 ("Wrong-path work is free") discusses the cost this
    /// model still leaves out.
    pub fn access_speculative(&mut self, addr: u64) -> bool {
        self.access_inner(addr, true)
    }

    fn access_inner(&mut self, addr: u64, speculative: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.locate(addr);
        let base = set * self.config.ways;
        for line in &mut self.lines[base..base + self.config.ways] {
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                if !speculative {
                    line.spec = false;
                }
                return true;
            }
        }
        self.stats.misses += 1;
        let victim = self.lines[base..base + self.config.ways]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("ways > 0");
        self.lines[base + victim] = Line { valid: true, tag, lru: self.tick, spec: speculative };
        false
    }

    /// Invalidates the line holding `addr` if it is still tagged as a
    /// speculative (wrong-path) fill.
    pub fn invalidate_if_speculative(&mut self, addr: u64) {
        let (set, tag) = self.locate(addr);
        let base = set * self.config.ways;
        for line in &mut self.lines[base..base + self.config.ways] {
            if line.valid && line.tag == tag && line.spec {
                line.valid = false;
            }
        }
    }

    /// Checks for `addr` without allocating or touching LRU state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let base = set * self.config.ways;
        self.lines[base..base + self.config.ways].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the whole cache (keeps statistics).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.offset_bits;
        let set = (line_addr as usize) & self.set_mask;
        let tag = line_addr >> self.tag_shift;
        (set, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets * 2 ways * 32-byte lines = 256 bytes.
        Cache::new(CacheConfig {
            name: "tiny".into(),
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x101f), "same 32-byte line");
        assert!(!c.access(0x1020), "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // 4 sets, so addresses 4 lines apart share a set: stride 4*32 = 128.
        let a = 0x0000;
        let b = 0x0080;
        let d = 0x0100;
        c.access(a);
        c.access(b);
        assert!(c.access(a), "refresh a; b becomes LRU");
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_allocate_or_touch_lru() {
        let mut c = tiny();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40), "probe did not allocate");
        let misses_before = c.stats().misses;
        assert!(c.probe(0x40));
        assert_eq!(c.stats().misses, misses_before, "probe not counted");
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x40);
        assert!(c.probe(0x40));
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.access(i * 32);
        }
        for i in 0..4u64 {
            assert!(c.probe(i * 32), "set {i}");
        }
    }

    #[test]
    fn paper_l1_geometry() {
        let cfg = CacheConfig {
            name: "l1d".into(),
            size_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 32,
            hit_latency: 1,
        };
        assert_eq!(cfg.sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            name: "bad".into(),
            size_bytes: 96,
            ways: 1,
            line_bytes: 32,
            hit_latency: 1,
        });
    }
}
