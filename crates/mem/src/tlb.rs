//! Fully-associative translation lookaside buffer.
//!
//! Table 3: 128 entries, fully associative, 4 KB pages. Only timing is
//! modelled: a miss costs a fixed refill penalty and installs the page.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel for "no slot" in the recency-list links.
const NIL: u32 = u32::MAX;

/// Fully-associative TLB with true-LRU replacement.
///
/// Resident pages are indexed page → slot and kept on a doubly linked
/// recency list, most recently used at the head, so a hit, a miss and
/// the choice of victim each cost O(1) instead of a scan of every entry.
/// The victim is the list tail, the page whose last access is oldest.
/// That is the page a scan for the smallest last-access tick picks:
/// every access stamps exactly one page with a fresh tick, so no two
/// pages share one and the minimum is unique.
#[derive(Debug, Clone)]
pub struct Tlb {
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    slots: Vec<TlbEntry>,
    /// Slots emptied by a squash, reused before the vector grows.
    free: Vec<u32>,
    /// Most recently used slot ([`NIL`] when empty).
    head: u32,
    /// Least recently used slot: the next victim.
    tail: u32,
    capacity: usize,
    page_bits: u32,
    /// Resident pages still tagged as wrong-path installs.
    speculative: usize,
    accesses: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    page: u64,
    /// Installed by a wrong-path access; evicted on squash (see the cache
    /// counterpart [`crate::Cache::access_speculative`] for the rationale).
    spec: bool,
    /// Neighbour toward the head (more recently used).
    prev: u32,
    /// Neighbour toward the tail (less recently used).
    next: u32,
}

/// Multiplicative hash of a page number. Pages come from the simulated
/// program, not from outside input, so a fixed odd multiplier is enough:
/// it keeps consecutive pages in distinct buckets and spreads the high
/// bits the table's tag bytes use.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Tlb {
    /// Creates a TLB with `capacity` entries and `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    #[must_use]
    pub fn new(capacity: usize, page_bytes: u64) -> Tlb {
        assert!(capacity > 0, "capacity must be positive");
        assert!(page_bytes.is_power_of_two(), "page size must be a power of two");
        Tlb {
            index: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            page_bits: page_bytes.trailing_zeros(),
            speculative: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The paper's configuration: 128 entries, 4 KB pages.
    #[must_use]
    pub fn paper_default() -> Tlb {
        Tlb::new(128, 4096)
    }

    /// Translates `addr`; returns `true` on hit. Misses install the page.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_inner(addr, false)
    }

    /// Wrong-path translation: installed pages are tagged speculative and
    /// can be dropped with [`Tlb::squash_speculative`].
    pub fn access_speculative(&mut self, addr: u64) -> bool {
        self.access_inner(addr, true)
    }

    fn access_inner(&mut self, addr: u64, speculative: bool) -> bool {
        self.accesses += 1;
        let page = addr >> self.page_bits;
        if let Some(&s) = self.index.get(&page) {
            if s != self.head {
                self.unlink(s);
                self.push_front(s);
            }
            let e = &mut self.slots[s as usize];
            if !speculative && e.spec {
                e.spec = false;
                self.speculative -= 1;
            }
            return true;
        }
        self.misses += 1;
        let entry = TlbEntry { page, spec: speculative, prev: NIL, next: NIL };
        let s = if self.index.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let old = self.slots[victim as usize];
            self.index.remove(&old.page);
            if old.spec {
                self.speculative -= 1;
            }
            self.slots[victim as usize] = entry;
            victim
        } else if let Some(s) = self.free.pop() {
            self.slots[s as usize] = entry;
            s
        } else {
            self.slots.push(entry);
            (self.slots.len() - 1) as u32
        };
        self.push_front(s);
        self.index.insert(page, s);
        if speculative {
            self.speculative += 1;
        }
        false
    }

    /// Detaches slot `s` from the recency list.
    fn unlink(&mut self, s: u32) {
        let TlbEntry { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Makes slot `s` the most recently used.
    fn push_front(&mut self, s: u32) {
        let old_head = self.head;
        let e = &mut self.slots[s as usize];
        e.prev = NIL;
        e.next = old_head;
        match old_head {
            NIL => self.tail = s,
            h => self.slots[h as usize].prev = s,
        }
        self.head = s;
    }

    /// Drops all pages still tagged as wrong-path installs. The survivors
    /// keep their recency order.
    pub fn squash_speculative(&mut self) {
        if self.speculative == 0 {
            return;
        }
        let mut s = self.head;
        while s != NIL {
            let e = self.slots[s as usize];
            if e.spec {
                self.unlink(s);
                self.index.remove(&e.page);
                self.free.push(s);
            }
            s = e.next;
        }
        self.speculative = 0;
    }

    /// Miss rate in `[0, 1]`.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1ffc), "same 4 KB page");
        assert!(!t.access(0x2000), "next page");
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = Tlb::new(2, 4096);
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        assert!(t.access(0x0000), "refresh page 0; page 1 is LRU");
        t.access(0x2000); // evicts page 1
        assert!(t.access(0x0000));
        assert!(!t.access(0x1000), "page 1 was evicted");
    }

    #[test]
    fn miss_rate_accounting() {
        let mut t = Tlb::new(128, 4096);
        for i in 0..10u64 {
            t.access(i * 4096);
        }
        for i in 0..10u64 {
            t.access(i * 4096);
        }
        assert_eq!(t.accesses(), 20);
        assert!((t.miss_rate() - 0.5).abs() < 1e-12);
    }

    /// The scan-based TLB this one replaced: every hit scans for the
    /// page, every miss at capacity scans again for the smallest
    /// last-access tick.
    struct ScanTlb {
        entries: Vec<(u64, u64, bool)>,
        capacity: usize,
        tick: u64,
    }

    impl ScanTlb {
        fn access(&mut self, page: u64, speculative: bool) -> bool {
            self.tick += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
                e.1 = self.tick;
                if !speculative {
                    e.2 = false;
                }
                return true;
            }
            if self.entries.len() == self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(i, _)| i)
                    .expect("non-empty");
                self.entries.swap_remove(victim);
            }
            self.entries.push((page, self.tick, speculative));
            false
        }

        fn squash_speculative(&mut self) {
            self.entries.retain(|e| !e.2);
        }
    }

    #[test]
    fn agrees_with_the_scan_tlb_on_random_sequences() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for capacity in [1usize, 2, 128] {
            let mut tlb = Tlb::new(capacity, 4096);
            let mut reference = ScanTlb { entries: Vec::new(), capacity, tick: 0 };
            // Pages drawn from three times the capacity give both hits
            // and evictions; squashes come often enough to empty the
            // wrong-path installs many times over.
            let pages = 3 * capacity as u64;
            for step in 0..200_000 {
                let r = next();
                if r % 64 == 0 {
                    tlb.squash_speculative();
                    reference.squash_speculative();
                    continue;
                }
                let page = (r >> 8) % pages;
                let speculative = r % 4 == 1;
                let addr = (page << 12) | ((r >> 40) & 0xfff);
                let hit = if speculative { tlb.access_speculative(addr) } else { tlb.access(addr) };
                assert_eq!(
                    hit,
                    reference.access(page, speculative),
                    "capacity {capacity}, step {step}, page {page}, speculative {speculative}"
                );
            }
            assert_eq!(tlb.index.len(), reference.entries.len());
        }
    }

    #[test]
    fn paper_default_has_128_entries() {
        let mut t = Tlb::paper_default();
        for i in 0..128u64 {
            t.access(i << 12);
        }
        for i in 0..128u64 {
            assert!(t.access(i << 12), "page {i} retained");
        }
    }
}
