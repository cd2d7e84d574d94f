//! Branch target buffer.
//!
//! Table 3 of the paper: 1024 entries, 2-way set associative. The BTB
//! supplies taken-branch and jump targets at fetch; on a BTB miss the fetch
//! engine cannot redirect (it falls through), which is the same policy
//! SimpleScalar's front end uses.

use st_isa::Pc;

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    valid: bool,
    tag: u64,
    target: u64,
    /// Higher = more recently used.
    lru: u64,
}

/// Set-associative branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    sets: usize,
    /// log2 of `sets`: the set count is a power of two (a divisor of the
    /// power-of-two entry count), so the tag is a shift, not a division.
    set_bits: u32,
    ways: usize,
    entries: Vec<BtbEntry>,
    tick: u64,
    lookups: u64,
    hits: u64,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, `ways` is zero, or `ways`
    /// does not divide `entries`.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Btb {
        assert!(entries.is_power_of_two() && entries > 0, "entries must be a power of two");
        assert!(ways > 0 && entries.is_multiple_of(ways), "ways must divide entries");
        Btb {
            sets: entries / ways,
            set_bits: (entries / ways).trailing_zeros(),
            ways,
            entries: vec![BtbEntry::default(); entries],
            tick: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// The paper's configuration: 1024 entries, 2-way.
    #[must_use]
    pub fn paper_default() -> Btb {
        Btb::new(1024, 2)
    }

    fn set_of(&self, pc: Pc) -> usize {
        ((pc.addr() >> 2) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, pc: Pc) -> u64 {
        (pc.addr() >> 2) >> self.set_bits
    }

    /// Looks up the predicted target for the control instruction at `pc`.
    pub fn lookup(&mut self, pc: Pc) -> Option<Pc> {
        self.lookups += 1;
        self.tick += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.ways;
        for e in &mut self.entries[base..base + self.ways] {
            if e.valid && e.tag == tag {
                e.lru = self.tick;
                self.hits += 1;
                return Some(Pc(e.target));
            }
        }
        None
    }

    /// Installs or refreshes the target for `pc` (called at branch
    /// resolution for taken branches and jumps).
    pub fn install(&mut self, pc: Pc, target: Pc) {
        self.tick += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.ways;
        // Hit: update target.
        for e in &mut self.entries[base..base + self.ways] {
            if e.valid && e.tag == tag {
                e.target = target.addr();
                e.lru = self.tick;
                return;
            }
        }
        // Miss: replace LRU way.
        let victim = self.entries[base..base + self.ways]
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("ways > 0");
        self.entries[base + victim] =
            BtbEntry { valid: true, tag, target: target.addr(), lru: self.tick };
    }

    /// Number of lookups performed.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Fraction of lookups that hit, or 0 if none were made.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_install() {
        let mut btb = Btb::new(64, 2);
        let pc = Pc(0x40_0000);
        assert_eq!(btb.lookup(pc), None);
        btb.install(pc, Pc(0x40_1000));
        assert_eq!(btb.lookup(pc), Some(Pc(0x40_1000)));
        assert!(btb.hit_rate() > 0.0);
    }

    #[test]
    fn install_refreshes_target() {
        let mut btb = Btb::new(64, 2);
        let pc = Pc(0x40_0000);
        btb.install(pc, Pc(0x40_1000));
        btb.install(pc, Pc(0x40_2000));
        assert_eq!(btb.lookup(pc), Some(Pc(0x40_2000)));
    }

    #[test]
    fn lru_replacement_within_set() {
        // 2 sets * 2 ways; pcs mapping to the same set are 2 apart (>>2 & 1).
        let mut btb = Btb::new(4, 2);
        let a = Pc(0x40_0000); // set 0
        let b = Pc(0x40_0008); // set 0 (0x8 >> 2 = 2, & 1 = 0)
        let c = Pc(0x40_0010); // set 0
        btb.install(a, Pc(1 << 2));
        btb.install(b, Pc(2 << 2));
        // Touch `a` so `b` is LRU.
        assert!(btb.lookup(a).is_some());
        btb.install(c, Pc(3 << 2));
        assert!(btb.lookup(a).is_some(), "recently used entry survives");
        assert!(btb.lookup(b).is_none(), "LRU entry evicted");
        assert!(btb.lookup(c).is_some());
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut btb = Btb::new(4, 2);
        let a = Pc(0x40_0000); // set 0
        let d = Pc(0x40_0004); // set 1
        btb.install(a, Pc(0x100));
        btb.install(d, Pc(0x200));
        assert_eq!(btb.lookup(a), Some(Pc(0x100)));
        assert_eq!(btb.lookup(d), Some(Pc(0x200)));
    }

    #[test]
    fn paper_default_dimensions() {
        let btb = Btb::paper_default();
        assert_eq!(btb.sets, 512);
        assert_eq!(btb.ways, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Btb::new(100, 2);
    }
}
