//! Cache-friendly microarchitectural state primitives for the hot loop.
//!
//! The cycle loop of [`crate::core::Core`] used to walk `VecDeque`s and a
//! `BTreeMap` every cycle: wakeup was O(window × finishing), selection
//! rescanned the whole RUU, and completion events churned allocator and
//! tree nodes. The primitives here back the same architecture with flat
//! arrays and bitmasks:
//!
//! * [`Ring`] — a fixed-capacity ring buffer whose entries keep a stable
//!   *physical slot* for their whole lifetime, so other structures can
//!   refer to entries by index (bitmask columns, LSQ links) instead of
//!   searching;
//! * [`Bits`] — a dense bitset over physical slots (selection request
//!   lines, unissued-store tracking);
//! * [`DepMatrix`] — per-producer dependant masks: wakeup broadcasts by
//!   walking one word-mask instead of scanning the window;
//! * [`EventWheel`] — completion events bucketed by cycle modulo a
//!   power-of-two horizon (amortised O(1) push/drain, no tree rebalance;
//!   an overflow map keeps exotic latencies correct);
//! * [`FuPool`] — functional-unit arbitration: a per-cycle counter for
//!   pipelined pools, a free counter and a min-heap of busy-until times
//!   for unpipelined ones, instead of a per-dispatch linear scan;
//! * [`RenameTable`] / [`CheckpointPool`] — the rename map as a flat
//!   sentinel-coded array with recycled checkpoint storage (conditional
//!   branches snapshot the map; the pool removes the per-branch
//!   allocation);
//! * [`InstrSlab`] — slot-resident [`DynInstr`] bodies. In-flight
//!   structures (IFQ, RUU) move 4-byte handles; the 144 B payload is
//!   written once at fetch and dropped in place at commit/squash,
//!   eliminating the IFQ→RUU and retire-time memmoves the PR 3 profile
//!   flagged.
//!
//! All of these are *representation* changes only: the golden
//! differential tests in `st-sweep` pin every simulation result bit to
//! the pre-refactor implementation.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

use st_isa::Reg;

use crate::instr::{DynInstr, SeqNum};

// ---------------------------------------------------------------------
// InstrSlab
// ---------------------------------------------------------------------

/// Slot-resident storage for in-flight [`DynInstr`] bodies.
///
/// Fetch writes each dynamic instruction into a slab slot exactly once;
/// from then on the IFQ and RUU move only the returned 4-byte handle.
/// The body is mutated in place (ledger charges, prediction fields) and
/// dropped in place when the instruction commits or squashes, so the
/// 144 B payload is never copied between pipeline structures. Handles
/// are recycled through a free list; occupancy is bounded by
/// `ifq_size + ruu_size`.
#[derive(Debug)]
pub(crate) struct InstrSlab {
    buf: Vec<Option<DynInstr>>,
    free: Vec<u32>,
}

impl InstrSlab {
    /// A slab pre-sized for `cap` concurrently live instructions.
    pub(crate) fn with_capacity(cap: usize) -> InstrSlab {
        InstrSlab { buf: Vec::with_capacity(cap), free: Vec::new() }
    }

    /// Stores `d`, returning its handle.
    pub(crate) fn insert(&mut self, d: DynInstr) -> u32 {
        match self.free.pop() {
            Some(h) => {
                debug_assert!(self.buf[h as usize].is_none(), "free-list slot in use");
                self.buf[h as usize] = Some(d);
                h
            }
            None => {
                self.buf.push(Some(d));
                (self.buf.len() - 1) as u32
            }
        }
    }

    /// The instruction behind `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not a live handle (a pipeline bookkeeping bug).
    pub(crate) fn get(&self, h: u32) -> &DynInstr {
        self.buf[h as usize].as_ref().expect("live instruction handle")
    }

    /// Mutable access to the instruction behind `h`.
    pub(crate) fn get_mut(&mut self, h: u32) -> &mut DynInstr {
        self.buf[h as usize].as_mut().expect("live instruction handle")
    }

    /// Drops the body behind `h` in place and recycles the handle.
    pub(crate) fn release(&mut self, h: u32) {
        debug_assert!(self.buf[h as usize].is_some(), "double release");
        self.buf[h as usize] = None;
        self.free.push(h);
    }

    /// Number of live bodies (testing).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.buf.iter().filter(|s| s.is_some()).count()
    }
}

// ---------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------

/// A fixed-capacity ring buffer with stable physical slots.
///
/// Entries are pushed at the back (allocating the next slot after the
/// back) and popped from either end; an entry's slot never changes while
/// it is live, so slots can index side structures ([`Bits`],
/// [`DepMatrix`]). Capacity is rounded up to a power of two.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: Vec<Option<T>>,
    mask: usize,
    head: usize,
    len: usize,
}

impl<T> Ring<T> {
    /// A ring holding at least `cap` entries.
    pub(crate) fn with_capacity(cap: usize) -> Ring<T> {
        let cap = cap.max(2).next_power_of_two();
        Ring { buf: (0..cap).map(|_| None).collect(), mask: cap - 1, head: 0, len: 0 }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot count (power of two).
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The slot the next [`Ring::push_back`] will use.
    pub(crate) fn next_slot(&self) -> usize {
        (self.head + self.len) & self.mask
    }

    /// Appends at the back, returning the entry's physical slot.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full (callers bound occupancy by the
    /// configured structure size, which never exceeds the capacity).
    pub(crate) fn push_back(&mut self, value: T) -> usize {
        assert!(self.len < self.buf.len(), "ring overflow");
        let slot = self.next_slot();
        debug_assert!(self.buf[slot].is_none(), "slot in use");
        self.buf[slot] = Some(value);
        self.len += 1;
        slot
    }

    /// The oldest entry.
    pub(crate) fn front(&self) -> Option<&T> {
        self.get(self.head)
    }

    /// The youngest entry.
    pub(crate) fn back(&self) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        self.get((self.head + self.len - 1) & self.mask)
    }

    /// Removes and returns the oldest entry and its slot.
    pub(crate) fn pop_front(&mut self) -> Option<(usize, T)> {
        if self.len == 0 {
            return None;
        }
        let slot = self.head;
        let v = self.buf[slot].take().expect("front occupied");
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some((slot, v))
    }

    /// Removes and returns the youngest entry and its slot.
    pub(crate) fn pop_back(&mut self) -> Option<(usize, T)> {
        if self.len == 0 {
            return None;
        }
        let slot = (self.head + self.len - 1) & self.mask;
        let v = self.buf[slot].take().expect("back occupied");
        self.len -= 1;
        Some((slot, v))
    }

    /// The entry at `slot`, if that slot is live.
    pub(crate) fn get(&self, slot: usize) -> Option<&T> {
        self.buf[slot].as_ref()
    }

    /// Mutable access to the entry at `slot`.
    pub(crate) fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.buf[slot].as_mut()
    }

    /// Physical slot of the `pos`-th entry from the front.
    pub(crate) fn slot_at(&self, pos: usize) -> usize {
        debug_assert!(pos < self.len);
        (self.head + pos) & self.mask
    }

    /// Ring position (0 = oldest) of a live entry's slot.
    pub(crate) fn pos_of(&self, slot: usize) -> usize {
        (slot.wrapping_sub(self.head)) & self.mask
    }

    /// The occupied physical index ranges, front segment first. Iterating
    /// `a` then `b` visits entries oldest → youngest.
    pub(crate) fn segments(&self) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let end = self.head + self.len;
        if end <= self.buf.len() {
            (self.head..end, 0..0)
        } else {
            (self.head..self.buf.len(), 0..end - self.buf.len())
        }
    }

    /// The physical index ranges of entries strictly *older* than the live
    /// entry at `slot`, front segment first.
    pub(crate) fn segments_before(
        &self,
        slot: usize,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let end = self.head + self.pos_of(slot);
        if end <= self.buf.len() {
            (self.head..end, 0..0)
        } else {
            (self.head..self.buf.len(), 0..end - self.buf.len())
        }
    }

    /// Iterates `(slot, entry)` pairs oldest → youngest.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let (a, b) = self.segments();
        a.chain(b).map(|slot| (slot, self.buf[slot].as_ref().expect("segment slot occupied")))
    }

    /// Binary-searches the live entries by a key that is monotonically
    /// increasing from front to back, returning the matching slot.
    pub(crate) fn find_by_key<K: Ord>(&self, key: K, key_of: impl Fn(&T) -> K) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let slot = self.slot_at(mid);
            let entry = self.buf[slot].as_ref().expect("mid slot occupied");
            match key_of(entry).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(slot),
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Bits
// ---------------------------------------------------------------------

/// A dense bitset over the physical slots of a [`Ring`].
#[derive(Debug)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// An all-clear bitset covering `cap` slots.
    pub(crate) fn new(cap: usize) -> Bits {
        Bits { words: vec![0; cap.div_ceil(64)] }
    }

    /// Sets bit `i`.
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Word `w` of the bitset with every bit outside `range` cleared.
    pub(crate) fn word_in(&self, w: usize, range: &std::ops::Range<usize>) -> u64 {
        let mut word = self.words[w];
        if w == range.start / 64 {
            word &= !0u64 << (range.start % 64);
        }
        if w == (range.end - 1) / 64 {
            let top = range.end - w * 64;
            if top < 64 {
                word &= (1u64 << top) - 1;
            }
        }
        word
    }

    /// Whether any bit in `[range.start, range.end)` is set (early-exits
    /// on the first nonzero masked word — this sits on the load-issue
    /// memory-ordering path).
    pub(crate) fn any_in(&self, range: std::ops::Range<usize>) -> bool {
        if range.start >= range.end {
            return false;
        }
        (range.start / 64..=(range.end - 1) / 64).any(|w| self.word_in(w, &range) != 0)
    }
}

// ---------------------------------------------------------------------
// DepMatrix
// ---------------------------------------------------------------------

/// Per-producer dependant masks: row `p` holds one bit per window slot
/// waiting on producer `p`. Writeback walks a row instead of the window.
#[derive(Debug)]
pub(crate) struct DepMatrix {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl DepMatrix {
    /// A matrix for `cap` producer rows × `cap` dependant columns.
    pub(crate) fn new(cap: usize) -> DepMatrix {
        let words_per_row = cap.div_ceil(64);
        DepMatrix { words_per_row, bits: vec![0; cap * words_per_row] }
    }

    /// Marks `dependant` as waiting on `producer`.
    pub(crate) fn set(&mut self, producer: usize, dependant: usize) {
        self.bits[producer * self.words_per_row + dependant / 64] |= 1u64 << (dependant % 64);
    }

    /// Clears `dependant` from `producer`'s row (no-op if not set).
    pub(crate) fn clear(&mut self, producer: usize, dependant: usize) {
        self.bits[producer * self.words_per_row + dependant / 64] &= !(1u64 << (dependant % 64));
    }

    /// Clears a producer's whole row (slot allocation hygiene).
    pub(crate) fn clear_row(&mut self, producer: usize) {
        let base = producer * self.words_per_row;
        self.bits[base..base + self.words_per_row].fill(0);
    }

    /// Calls `f` for every dependant of `producer` and clears the row.
    pub(crate) fn drain_row(&mut self, producer: usize, mut f: impl FnMut(usize)) {
        let base = producer * self.words_per_row;
        for w in 0..self.words_per_row {
            let mut word = std::mem::take(&mut self.bits[base + w]);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                f(w * 64 + bit);
                word &= word - 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// EventWheel
// ---------------------------------------------------------------------

/// One scheduled completion: the finishing instruction's sequence number
/// plus the RUU slot it occupied at issue. The slot is a *hint*: by the
/// completion cycle the instruction may have been squashed and the slot
/// reused, so consumers must validate `ruu[slot].seq == seq` before use
/// (sequence numbers are never reused, making the check exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Completion {
    pub(crate) seq: SeqNum,
    pub(crate) slot: u32,
}

/// Completion events bucketed by cycle modulo a power-of-two horizon.
///
/// The hot path (every FU completion: cache hits, ALU ops) lands within
/// the horizon and costs one `Vec::push`; anything farther out (no
/// modelled latency reaches it, but axis sweeps could construct one)
/// falls back to an ordered overflow map. Draining a cycle takes its
/// wheel bucket plus the exact-cycle overflow entry.
#[derive(Debug)]
pub(crate) struct EventWheel {
    slots: Vec<Vec<Completion>>,
    mask: u64,
    overflow: BTreeMap<u64, Vec<Completion>>,
}

impl EventWheel {
    /// A wheel spanning `span` cycles (rounded up to a power of two).
    pub(crate) fn new(span: usize) -> EventWheel {
        let span = span.max(2).next_power_of_two();
        EventWheel {
            slots: (0..span).map(|_| Vec::new()).collect(),
            mask: span as u64 - 1,
            overflow: BTreeMap::new(),
        }
    }

    /// Schedules a completion at cycle `at` (`at > now`, and every cycle
    /// in between will be drained exactly once).
    pub(crate) fn push(&mut self, now: u64, at: u64, ev: Completion) {
        debug_assert!(at > now, "completion must be in the future");
        if at - now <= self.mask {
            self.slots[(at & self.mask) as usize].push(ev);
        } else {
            self.overflow.entry(at).or_default().push(ev);
        }
    }

    /// Moves every event scheduled for exactly `cycle` into `out`.
    pub(crate) fn drain_into(&mut self, cycle: u64, out: &mut Vec<Completion>) {
        out.append(&mut self.slots[(cycle & self.mask) as usize]);
        if self.overflow.is_empty() {
            return;
        }
        if let Some(mut v) = self.overflow.remove(&cycle) {
            out.append(&mut v);
        }
    }
}

// ---------------------------------------------------------------------
// FuPool
// ---------------------------------------------------------------------

/// One functional-unit pool with min-tracked availability.
///
/// A pipelined unit is busy only in the cycle it accepts an operation,
/// so a pipelined pool counts the operations accepted in the current
/// cycle: with `now` monotone across calls, every earlier reservation has
/// expired, exactly as a list of busy-until times would report. An
/// unpipelined pool keeps a count of free units plus a min-heap of
/// busy-until times; expired reservations are folded back into the free
/// count on access. Which physical unit serves a request is unobservable
/// (units are identical), so both are behaviourally exact.
#[derive(Debug)]
pub(crate) struct FuPool {
    /// Unpipelined pools: units free now. Pipelined pools: all units.
    free: u32,
    busy_until: BinaryHeap<Reverse<u64>>,
    latency: u32,
    pipelined: bool,
    /// Pipelined pools: the cycle `accepted` counts for.
    cycle: u64,
    /// Pipelined pools: operations accepted in `cycle`.
    accepted: u32,
}

impl FuPool {
    pub(crate) fn new(count: u32, latency: u32, pipelined: bool) -> FuPool {
        FuPool {
            free: count,
            busy_until: BinaryHeap::with_capacity(if pipelined { 0 } else { count as usize }),
            latency,
            pipelined,
            cycle: 0,
            accepted: 0,
        }
    }

    /// Acquires a unit if one is free at `now` (monotone across calls),
    /// returning its operation latency.
    pub(crate) fn try_acquire(&mut self, now: u64) -> Option<u32> {
        if self.pipelined {
            if now != self.cycle {
                self.cycle = now;
                self.accepted = 0;
            }
            if self.accepted == self.free {
                return None;
            }
            self.accepted += 1;
            return Some(self.latency);
        }
        while let Some(&Reverse(t)) = self.busy_until.peek() {
            if t > now {
                break;
            }
            self.busy_until.pop();
            self.free += 1;
        }
        if self.free == 0 {
            return None;
        }
        self.free -= 1;
        self.busy_until.push(Reverse(now + u64::from(self.latency)));
        Some(self.latency)
    }
}

// ---------------------------------------------------------------------
// RenameTable / CheckpointPool
// ---------------------------------------------------------------------

/// Sentinel-coded producer sequence number (`NONE` = value architectural).
const NO_PRODUCER: u64 = u64::MAX;

/// One rename-map snapshot: youngest in-flight producer (and the RUU
/// slot it occupied) per register.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RenameSnapshot {
    seq: [u64; Reg::COUNT],
    slot: [u32; Reg::COUNT],
}

/// Rename table: architectural register → youngest in-flight producer,
/// stored flat so snapshots are one small `memcpy`. Alongside each
/// producer's sequence number the table caches the RUU slot the producer
/// was dispatched into, so operand resolution is one validated array
/// read instead of a window search (slot reuse is detected by comparing
/// the slot's live sequence number — sequence numbers are never reused).
#[derive(Debug)]
pub(crate) struct RenameTable {
    map: RenameSnapshot,
}

impl RenameTable {
    pub(crate) fn new() -> RenameTable {
        RenameTable {
            map: RenameSnapshot { seq: [NO_PRODUCER; Reg::COUNT], slot: [0; Reg::COUNT] },
        }
    }

    /// The youngest in-flight producer of `r` and its dispatch-time RUU
    /// slot, if any.
    pub(crate) fn get(&self, r: Reg) -> Option<(SeqNum, usize)> {
        match self.map.seq[r.index()] {
            NO_PRODUCER => None,
            seq => Some((SeqNum(seq), self.map.slot[r.index()] as usize)),
        }
    }

    /// Records `seq` (dispatched into RUU `slot`) as the youngest
    /// producer of `r`.
    pub(crate) fn set(&mut self, r: Reg, seq: SeqNum, slot: usize) {
        self.map.seq[r.index()] = seq.0;
        self.map.slot[r.index()] = slot as u32;
    }

    /// Frees the mapping if `seq` is still the youngest producer of `r`.
    pub(crate) fn clear_if(&mut self, r: Reg, seq: SeqNum) {
        if self.map.seq[r.index()] == seq.0 {
            self.map.seq[r.index()] = NO_PRODUCER;
        }
    }

    /// Copies the current map out (checkpoint).
    pub(crate) fn snapshot(&self) -> RenameSnapshot {
        self.map
    }

    /// Restores a checkpointed map.
    pub(crate) fn restore(&mut self, snap: &RenameSnapshot) {
        self.map = *snap;
    }
}

/// Recycled storage for rename checkpoints: conditional branches
/// snapshot the rename map at dispatch; the pool replaces a per-branch
/// heap allocation with an index into reused rows.
#[derive(Debug, Default)]
pub(crate) struct CheckpointPool {
    store: Vec<RenameSnapshot>,
    free: Vec<u32>,
}

impl CheckpointPool {
    /// Stores a snapshot, returning its pool index.
    pub(crate) fn alloc(&mut self, snap: RenameSnapshot) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.store[idx as usize] = snap;
                idx
            }
            None => {
                self.store.push(snap);
                (self.store.len() - 1) as u32
            }
        }
    }

    /// Reads a stored snapshot.
    pub(crate) fn get(&self, idx: u32) -> &RenameSnapshot {
        &self.store[idx as usize]
    }

    /// Returns a snapshot's storage to the pool.
    pub(crate) fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_slab_recycles_handles_without_moving_bodies() {
        use st_isa::{OpClass, Pc};
        let blank = |seq: u64| DynInstr {
            seq: SeqNum(seq),
            pc: Pc(0x40_0000),
            op: OpClass::IntAlu,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: false,
            branch: None,
            pred_taken: false,
            pred_next: Pc(0x40_0004),
            true_taken: false,
            true_next: Pc(0x40_0004),
            confidence: None,
            hist_checkpoint: None,
            hist_at_predict: 0,
            mem_addr: None,
            ledger: st_power::EnergyLedger::default(),
        };
        let mut slab = InstrSlab::with_capacity(4);
        let a = slab.insert(blank(1));
        let b = slab.insert(blank(2));
        assert_ne!(a, b);
        assert_eq!(slab.get(a).seq, SeqNum(1));
        slab.get_mut(a).hist_at_predict = 7;
        assert_eq!(slab.get(a).hist_at_predict, 7);
        slab.release(a);
        assert_eq!(slab.live(), 1);
        // The freed handle is recycled for the next insertion.
        let c = slab.insert(blank(3));
        assert_eq!(c, a);
        assert_eq!(slab.get(c).seq, SeqNum(3));
        assert_eq!(slab.get(b).seq, SeqNum(2));
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn ring_slots_are_stable_across_wrap() {
        let mut r: Ring<u64> = Ring::with_capacity(4);
        assert_eq!(r.capacity(), 4);
        let s0 = r.push_back(10);
        let s1 = r.push_back(11);
        assert_eq!(r.front(), Some(&10));
        assert_eq!(r.pop_front(), Some((s0, 10)));
        // Push enough to wrap; slot s1's entry must not move.
        let s2 = r.push_back(12);
        let s3 = r.push_back(13);
        let s4 = r.push_back(14);
        assert_eq!(r.len(), 4);
        assert_eq!(r.get(s1), Some(&11));
        assert_eq!(r.get(s4), Some(&14));
        assert_eq!(r.back(), Some(&14));
        // Order front → back survives the wrap.
        let order: Vec<u64> = r.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, vec![11, 12, 13, 14]);
        // pos_of inverts slot_at.
        for pos in 0..r.len() {
            assert_eq!(r.pos_of(r.slot_at(pos)), pos);
        }
        assert_eq!(r.pop_back(), Some((s4, 14)));
        assert_eq!(r.pop_back(), Some((s3, 13)));
        assert_eq!(r.pop_front(), Some((s1, 11)));
        assert_eq!(r.pop_front(), Some((s2, 12)));
        assert!(r.is_empty());
        assert_eq!(r.pop_front(), None);
        assert_eq!(r.pop_back(), None);
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn ring_rejects_overflow() {
        let mut r: Ring<u8> = Ring::with_capacity(2);
        r.push_back(1);
        r.push_back(2);
        r.push_back(3);
    }

    #[test]
    fn ring_binary_search_by_monotone_key() {
        let mut r: Ring<u64> = Ring::with_capacity(8);
        // Force a wrapped layout.
        for i in 0..5 {
            r.push_back(i);
        }
        for _ in 0..3 {
            r.pop_front();
        }
        for i in 5..10 {
            r.push_back(i * 10);
        }
        // Keys: 3, 4, 50, 60, 70, 80, 90 — monotone front → back.
        assert_eq!(r.find_by_key(50, |v| *v).map(|s| r.get(s).copied()), Some(Some(50)));
        assert!(r.find_by_key(51, |v| *v).is_none());
        assert!(r.find_by_key(3, |v| *v).is_some());
        assert!(r.find_by_key(90, |v| *v).is_some());
        assert!(r.find_by_key(2, |v| *v).is_none());
        assert!(r.find_by_key(91, |v| *v).is_none());
    }

    #[test]
    fn bits_range_iteration_handles_word_boundaries() {
        let mut b = Bits::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            b.set(i);
        }
        // Set bits of a range, read word by word as the issue stage does.
        let in_range = |range: std::ops::Range<usize>| {
            let mut seen = Vec::new();
            if range.is_empty() {
                return seen;
            }
            for w in range.start / 64..=(range.end - 1) / 64 {
                let mut word = b.word_in(w, &range);
                while word != 0 {
                    seen.push(w * 64 + word.trailing_zeros() as usize);
                    word &= word - 1;
                }
            }
            seen
        };
        assert_eq!(in_range(0..200), vec![0, 63, 64, 127, 128, 199]);
        assert_eq!(in_range(63..128), vec![63, 64, 127]);
        assert_eq!(in_range(1..63), Vec::<usize>::new());
        assert!(in_range(64..64).is_empty());
        assert!(b.any_in(199..200));
        assert!(!b.any_in(129..199));
        b.clear(64);
        assert!(!b.any_in(64..65));
    }

    #[test]
    fn dep_matrix_set_drain_clear() {
        let mut m = DepMatrix::new(130);
        m.set(5, 0);
        m.set(5, 64);
        m.set(5, 129);
        m.set(6, 7);
        let mut woken = Vec::new();
        m.drain_row(5, |d| woken.push(d));
        assert_eq!(woken, vec![0, 64, 129]);
        woken.clear();
        m.drain_row(5, |d| woken.push(d));
        assert!(woken.is_empty(), "drain clears the row");
        m.clear(6, 7);
        m.drain_row(6, |d| woken.push(d));
        assert!(woken.is_empty());
        m.set(6, 1);
        m.clear_row(6);
        m.drain_row(6, |d| woken.push(d));
        assert!(woken.is_empty());
    }

    #[test]
    fn event_wheel_delivers_on_exact_cycle() {
        let ev = |n: u64| Completion { seq: SeqNum(n), slot: n as u32 };
        let mut w = EventWheel::new(8);
        w.push(10, 11, ev(1));
        w.push(10, 17, ev(2)); // exactly at horizon edge (delta 7 <= mask)
        w.push(10, 1000, ev(3)); // far future → overflow
        let mut out = Vec::new();
        for cycle in 11..=1000 {
            w.drain_into(cycle, &mut out);
            match cycle {
                11 => assert_eq!(out, vec![ev(1)]),
                17 => assert_eq!(out, vec![ev(2)]),
                1000 => assert_eq!(out, vec![ev(3)]),
                _ => assert!(out.is_empty(), "spurious event at {cycle}"),
            }
            out.clear();
        }
    }

    #[test]
    fn fu_pool_matches_scan_semantics() {
        // 2 unpipelined units, latency 3.
        let mut p = FuPool::new(2, 3, false);
        assert_eq!(p.try_acquire(0), Some(3));
        assert_eq!(p.try_acquire(0), Some(3));
        assert_eq!(p.try_acquire(0), None, "both busy until 3");
        assert_eq!(p.try_acquire(2), None);
        assert_eq!(p.try_acquire(3), Some(3), "freed at 3");
        // Pipelined: busy one cycle only.
        let mut q = FuPool::new(1, 4, true);
        assert_eq!(q.try_acquire(5), Some(4));
        assert_eq!(q.try_acquire(5), None);
        assert_eq!(q.try_acquire(6), Some(4));
    }

    /// The heap-only pool the counter replaced for pipelined units.
    struct HeapFuPool {
        free: u32,
        busy_until: BinaryHeap<Reverse<u64>>,
        latency: u32,
        pipelined: bool,
    }

    impl HeapFuPool {
        fn try_acquire(&mut self, now: u64) -> Option<u32> {
            while let Some(&Reverse(t)) = self.busy_until.peek() {
                if t > now {
                    break;
                }
                self.busy_until.pop();
                self.free += 1;
            }
            if self.free == 0 {
                return None;
            }
            self.free -= 1;
            let busy = if self.pipelined { 1 } else { u64::from(self.latency) };
            self.busy_until.push(Reverse(now + busy));
            Some(self.latency)
        }
    }

    #[test]
    fn fu_pools_agree_with_the_heap_pool() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for pipelined in [true, false] {
            for (count, latency) in [(0, 1), (1, 1), (1, 3), (2, 4), (8, 1), (4, 20)] {
                let mut pool = FuPool::new(count, latency, pipelined);
                let mut reference =
                    HeapFuPool { free: count, busy_until: BinaryHeap::new(), latency, pipelined };
                let mut now = 0u64;
                for step in 0..20_000 {
                    let r = next();
                    // Several requests per cycle, idle gaps, and cycles
                    // that skip ahead past every reservation.
                    now += match r % 8 {
                        0..=3 => 0,
                        4..=6 => 1,
                        _ => r >> 59,
                    };
                    assert_eq!(
                        pool.try_acquire(now),
                        reference.try_acquire(now),
                        "pipelined {pipelined}, {count} x latency {latency}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn rename_table_and_checkpoints_round_trip() {
        let mut t = RenameTable::new();
        let r1 = Reg(1);
        let r2 = Reg(2);
        assert_eq!(t.get(r1), None);
        t.set(r1, SeqNum(7), 3);
        t.set(r2, SeqNum(9), 4);
        assert_eq!(t.get(r1), Some((SeqNum(7), 3)));
        let mut pool = CheckpointPool::default();
        let cp = pool.alloc(t.snapshot());
        t.set(r1, SeqNum(20), 5);
        t.clear_if(r2, SeqNum(9));
        assert_eq!(t.get(r2), None);
        t.clear_if(r1, SeqNum(7));
        assert_eq!(t.get(r1), Some((SeqNum(20), 5)), "clear_if only frees matching seq");
        let snap = *pool.get(cp);
        t.restore(&snap);
        pool.release(cp);
        assert_eq!(t.get(r1), Some((SeqNum(7), 3)));
        assert_eq!(t.get(r2), Some((SeqNum(9), 4)));
        // Released storage is recycled.
        let cp2 = pool.alloc(t.snapshot());
        assert_eq!(cp, cp2);
    }
}
