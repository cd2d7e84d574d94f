//! Back-end stages: issue (select + execute start), writeback (wakeup +
//! branch resolution + recovery) and in-order commit.
//!
//! Behavioural contract: these are line-for-line ports of the seed
//! implementation's stage logic onto the slot-stable state of
//! [`crate::hotstate`] — every activity event, ledger charge and counter
//! update fires in the same order with the same values, which the golden
//! differential tests in `st-sweep` verify bit-for-bit.

use st_isa::OpClass;
use st_power::{InstrFate, Unit};

use crate::controller::OracleMode;
use crate::core::{Core, NO_STORE_SLOT};
use crate::hotstate::Completion;
use crate::instr::SeqNum;

impl Core {
    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    pub(crate) fn commit(&mut self) {
        for _ in 0..self.config.commit_width {
            let Some(head) = self.ruu.front() else { break };
            if !head.completed {
                break;
            }
            let (_, mut e) = self.ruu.pop_front().expect("checked non-empty");
            let h = e.h;
            let ev = self.ev;
            let (op, dest, seq, pc, mem_addr) = {
                let d = self.slab.get(h);
                debug_assert!(!d.wrong_path, "wrong-path instruction reached commit");
                (d.op, d.dest, d.seq, d.pc, d.mem_addr)
            };
            // A committing entry cannot still wait on a producer (in-order
            // commit: its producers retired first, and their writeback
            // broadcast cleared the wait) — so no dependant bits linger.
            debug_assert_eq!(e.src_wait, [None, None], "commit with pending producers");

            // Store data is written to the cache at commit (squashed stores
            // never touch memory).
            if op == OpClass::Store {
                let addr = mem_addr.expect("store carries an address");
                let res = self.mem.access_data(addr, true);
                self.activity.add(Unit::DCache, 1);
                self.slab.get_mut(h).ledger.charge(Unit::DCache, ev[Unit::DCache.index()]);
                if res.l2_accessed {
                    self.activity.add(Unit::DCache2, 1);
                    self.slab.get_mut(h).ledger.charge(Unit::DCache2, ev[Unit::DCache2.index()]);
                }
            }
            // Architectural register write.
            if dest.is_some() {
                self.activity.add(Unit::Regfile, 1);
                self.slab.get_mut(h).ledger.charge(Unit::Regfile, ev[Unit::Regfile.index()]);
            }

            // Trainer updates: only committed (correct-path) branches train
            // the tables, so wrong paths cannot corrupt them.
            if op == OpClass::Branch {
                let d = self.slab.get(h);
                let dir_correct = d.pred_taken == d.true_taken;
                self.bstats.record(dir_correct);
                if let Some(conf) = d.confidence {
                    self.cstats.record(conf, dir_correct);
                }
                let pred = st_bpred::Prediction { taken: d.pred_taken, weak: false };
                self.predictor.update(d.pc, d.hist_at_predict, d.true_taken, d.pred_taken);
                self.estimator.update(d.pc, d.hist_at_predict, pred, dir_correct);
                if d.true_taken {
                    self.btb.install(d.pc, d.true_next);
                }
                self.perf.branches_committed += 1;
                if !dir_correct {
                    self.perf.mispredicts_committed += 1;
                }
            } else if op == OpClass::Jump {
                let true_next = self.slab.get(h).true_next;
                self.btb.install(pc, true_next);
            }

            // Free the rename mapping if this instruction is still the
            // youngest producer of its destination.
            if let Some(d) = dest {
                self.rename.clear_if(d, seq);
            }
            // Retire the LSQ entry.
            if op.is_mem() {
                debug_assert_eq!(self.lsq.front().map(|l| l.seq), Some(seq));
                let (lslot, l) = self.lsq.pop_front().expect("LSQ head present");
                if l.is_store {
                    self.lsq_unissued_stores.clear(lslot);
                }
            }
            // Recycle the branch's checkpoint storage.
            if let Some(cp) = e.rename_checkpoint.take() {
                self.checkpoints.release(cp);
            }

            self.charge_requests(h, e.requests);
            self.account.settle(&self.slab.get(h).ledger, InstrFate::Committed);
            self.perf.committed += 1;
            if let Some(trace) = &mut self.commit_trace {
                trace.push(pc);
            }
            // The body retires in place; only the handle is recycled.
            self.slab.release(h);
        }
    }

    // ------------------------------------------------------------------
    // Writeback / branch resolution
    // ------------------------------------------------------------------

    pub(crate) fn writeback(&mut self) {
        let mut finishing = std::mem::take(&mut self.finishing);
        debug_assert!(finishing.is_empty());
        self.wheel.drain_into(self.cycle, &mut finishing);
        if finishing.is_empty() {
            self.finishing = finishing;
            return;
        }
        finishing.sort_unstable();
        for &Completion { seq, slot } in &finishing {
            let slot = slot as usize;
            // The instruction may have been squashed since it was issued
            // (and its slot reused): only the original occupant — same
            // never-reused sequence number — completes here.
            match self.ruu.get(slot) {
                Some(e) if e.seq == seq => {}
                _ => continue,
            }
            let e = self.ruu.get_mut(slot).expect("live slot");
            e.completed = true;
            let h = e.h;
            let ev = self.ev;
            let d_dest = self.slab.get(h).dest;

            // Result broadcast: wake dependants.
            self.activity.add(Unit::Window, 1);
            self.slab.get_mut(h).ledger.charge(Unit::Window, ev[Unit::Window.index()]);
            if d_dest.is_some() {
                self.activity.add(Unit::ResultBus, 1);
                self.slab.get_mut(h).ledger.charge(Unit::ResultBus, ev[Unit::ResultBus.index()]);
                // One pass over this producer's dependant mask instead of
                // a window walk: clear the matching source waits and raise
                // request lines for entries whose operands are now ready.
                let deps = &mut self.ruu_deps;
                let ruu = &mut self.ruu;
                let request = &mut self.ruu_request;
                deps.drain_row(slot, |dep_slot| {
                    let dep = ruu.get_mut(dep_slot).expect("dependant slot live");
                    for w in &mut dep.src_wait {
                        if w.is_some_and(|p| p.seq == seq) {
                            *w = None;
                            dep.wait_count -= 1;
                        }
                    }
                    if dep.wait_count == 0 && !dep.issued {
                        request.set(dep_slot);
                    }
                });
            }

            // Branch resolution.
            let (is_cond, mispredicted) = {
                let d = self.slab.get(h);
                (d.is_cond_branch(), d.mispredicted())
            };
            if is_cond {
                self.controller.on_branch_resolved(seq, mispredicted);
                if mispredicted {
                    self.recover(slot, seq);
                }
            }
        }
        finishing.clear();
        self.finishing = finishing;
    }

    /// Misprediction recovery: squash everything younger than the branch at
    /// `slot`, restore checkpoints and redirect fetch.
    fn recover(&mut self, slot: usize, seq: SeqNum) {
        self.perf.recoveries += 1;
        let branch = self.ruu.get(slot).expect("branch slot live");
        let (true_next, true_taken, was_wrong_path, hist_checkpoint) = {
            let d = self.slab.get(branch.h);
            (d.true_next, d.true_taken, d.wrong_path, d.hist_checkpoint)
        };

        // Squash younger instructions from the fetch queue...
        while let Some(&crate::core::IfqSlot { h, .. }) = self.ifq.back() {
            if self.slab.get(h).seq <= seq {
                break;
            }
            self.ifq.pop_back();
            self.account.settle(&self.slab.get(h).ledger, InstrFate::Squashed);
            self.perf.squashed += 1;
            self.slab.release(h);
        }
        // ...and the window/LSQ.
        while self.ruu.back().is_some_and(|b| b.seq > seq) {
            let (s, e) = self.ruu.pop_back().expect("checked non-empty");
            self.ruu_request.clear(s);
            // Unhook from producers still in flight so a reused slot
            // cannot receive a stale wakeup.
            for w in e.src_wait.into_iter().flatten() {
                if self.in_flight(w).is_some() {
                    self.ruu_deps.clear(w.slot as usize, s);
                }
            }
            if let Some(cp) = e.rename_checkpoint {
                self.checkpoints.release(cp);
            }
            self.charge_requests(e.h, e.requests);
            self.account.settle(&self.slab.get(e.h).ledger, InstrFate::Squashed);
            self.perf.squashed += 1;
            self.slab.release(e.h);
        }
        while self.lsq.back().is_some_and(|b| b.seq > seq) {
            let (s, l) = self.lsq.pop_back().expect("checked non-empty");
            if l.is_store {
                self.lsq_unissued_stores.clear(s);
                self.lsq_last_store = l.prev_store_slot;
            }
        }

        // Restore the rename map from the branch's dispatch-time snapshot.
        let cp = self
            .ruu
            .get_mut(slot)
            .expect("branch slot live")
            .rename_checkpoint
            .take()
            .expect("conditional branches carry a rename checkpoint");
        let snap = *self.checkpoints.get(cp);
        self.rename.restore(&snap);
        self.checkpoints.release(cp);

        // Repair the speculative global history: rewind to the branch's
        // fetch-time checkpoint, then shift in the resolved outcome.
        if let Some(cp) = hist_checkpoint {
            self.ghr.restore(cp);
            self.ghr.push(true_taken);
        }

        self.controller.on_squash(seq);
        self.mem.squash_speculative();

        // Redirect fetch. If the *divergence* branch (a correct-path
        // misprediction) resolved, the machine is back on the architectural
        // path; a wrong-path branch redirects within the wrong path.
        self.fetch_pc = true_next;
        if !was_wrong_path {
            self.on_correct_path = true;
        }
        self.fetch_stall_until = self.cycle + 1 + u64::from(self.config.extra_mispredict_penalty);
    }

    // ------------------------------------------------------------------
    // Issue (wakeup happened at writeback; this is select + execute start)
    // ------------------------------------------------------------------

    pub(crate) fn issue(&mut self) {
        // Visit the raised request lines in program order: the front
        // segment of the ring, then the wrapped one. Each word of the
        // bitset is copied before its bits are visited, and no entry
        // joins or leaves the request set mid-stage except by issuing,
        // which clears only its own bit after its visit, so the copy is
        // the stage-start snapshot.
        let mut issued = 0;
        let (seg_a, seg_b) = self.ruu.segments();
        for seg in [seg_a, seg_b] {
            if seg.is_empty() {
                continue;
            }
            for w in seg.start / 64..=(seg.end - 1) / 64 {
                let mut word = self.ruu_request.word_in(w, &seg);
                while word != 0 {
                    let slot = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if self.select(slot, issued) {
                        issued += 1;
                    }
                }
            }
        }
    }

    /// Selection and execute start for the requesting entry at `slot`,
    /// with `issued` instructions already issued this cycle; returns
    /// whether it issued.
    fn select(&mut self, slot: usize, issued: u32) -> bool {
        let e = self.ruu.get(slot).expect("requesting slot live");
        debug_assert!(!e.issued && !e.completed && e.wait_count == 0);
        let (h, op, wrong_path) = (e.h, e.op, e.wrong_path);
        // Selection throttling: the no-select bit keeps the entry from
        // raising its request line while the trigger is unresolved
        // (Figure 2) — which also saves the selection-arbitration
        // energy counted for requesting entries below.
        if let Some(trigger) = e.no_select {
            if self.in_flight(trigger).is_some_and(|t| !t.completed) {
                self.perf.selection_blocked += 1;
                return false;
            }
            self.ruu.get_mut(slot).expect("live").no_select = None;
        }
        if self.oracle == OracleMode::Select && wrong_path {
            return false;
        }

        // The entry raises its request line: selection arbitration
        // burns window energy every cycle the entry competes, granted
        // or not (this is the activity the no-select bit suppresses).
        // The ledger charge waits for commit or squash.
        self.activity.add(Unit::Window, 1);
        self.ruu.get_mut(slot).expect("live").requests += 1;

        if issued >= self.config.issue_width {
            return false; // requesting but no issue slot this cycle
        }

        let latency = match op {
            OpClass::IntAlu | OpClass::Branch => self.int_alu.try_acquire(self.cycle),
            OpClass::IntMult => self.int_mult.try_acquire(self.cycle),
            OpClass::FpAlu => self.fp_alu.try_acquire(self.cycle),
            OpClass::FpMult => self.fp_mult.try_acquire(self.cycle),
            OpClass::Load | OpClass::Store => {
                // A memory-ordering block retries next cycle.
                let Some(lat) = self.mem_issue_latency(slot) else { return false };
                self.mem_ports.try_acquire(self.cycle).map(|port_lat| port_lat + lat)
            }
            OpClass::Jump | OpClass::Nop => unreachable!("complete at dispatch"),
        };
        let Some(latency) = latency else { return false };

        let e = self.ruu.get_mut(slot).expect("live");
        e.issued = true;
        let seq = e.seq;
        let done = self.cycle + u64::from(latency + self.config.exec_extra_latency).max(1);
        self.wheel.push(self.cycle, done, Completion { seq, slot: slot as u32 });
        self.ruu_request.clear(slot);

        // FU energy (the window read was counted with the request).
        self.activity.add(Unit::Alu, 1);
        let alu_event = self.ev[Unit::Alu.index()];
        let lsq_event = self.ev[Unit::Lsq.index()];
        let d = self.slab.get_mut(h);
        d.ledger.charge(Unit::Alu, alu_event);
        if op.is_mem() {
            self.activity.add(Unit::Lsq, 1);
            d.ledger.charge(Unit::Lsq, lsq_event);
        }

        self.perf.issued += 1;
        if wrong_path {
            self.perf.wrong_path_issued += 1;
        }
        true
    }

    /// Marks the store at LSQ `slot` as having computed its address (a
    /// store that found no memory port retries, so this can repeat).
    fn lsq_mark_issued(&mut self, slot: usize) {
        let l = self.lsq.get_mut(slot).expect("store LSQ entry live");
        debug_assert!(l.is_store);
        if !l.issued {
            l.issued = true;
            self.stores_addressed += 1;
        }
        self.lsq_unissued_stores.clear(slot);
    }

    /// Whether a store older than the load at LSQ `lsq_slot` has not yet
    /// computed its address.
    fn older_store_unaddressed(&self, lsq_slot: usize) -> bool {
        let (seg_a, seg_b) = self.lsq.segments_before(lsq_slot);
        self.lsq_unissued_stores.any_in(seg_a) || self.lsq_unissued_stores.any_in(seg_b)
    }

    /// Memory-ordering check for the memory instruction at RUU `slot`;
    /// returns the cache-access latency if it may issue now.
    ///
    /// Semantics (identical to the seed's double LSQ scan): a load blocks
    /// while *any* older store's address is unknown; once all are known it
    /// forwards when the youngest older store matches its address.
    fn mem_issue_latency(&mut self, slot: usize) -> Option<u32> {
        let e = self.ruu.get(slot).expect("live slot");
        let (seq, lsq_slot, h, wrong_path) = (e.seq, e.lsq_slot as usize, e.h, e.wrong_path);

        if e.op == OpClass::Store {
            // Stores only compute their address here; data goes to the
            // cache at commit.
            self.lsq_mark_issued(lsq_slot);
            return Some(0);
        }

        // Loads: all older stores must have known addresses. The unissued
        // mask covers exactly the live stores, and everything older than
        // this load sits in the ring segments before its slot.
        //
        // A load found blocked stays blocked until some store address
        // becomes known, which moves `stores_addressed`: squashing an
        // older store squashes this load too, a store retires only after
        // it has issued, and dispatch is in order, so every store
        // dispatched since is younger. While the count has not moved
        // the scan would answer the same, so it is skipped.
        if e.blocked_at == self.stores_addressed {
            debug_assert!(
                self.older_store_unaddressed(lsq_slot),
                "skipped blocked-load check disagrees with the LSQ scan"
            );
            return None;
        }
        if self.older_store_unaddressed(lsq_slot) {
            self.ruu.get_mut(slot).expect("live").blocked_at = self.stores_addressed;
            return None; // unknown older store address
        }
        // Forward when the youngest older store matches. The link recorded
        // at dispatch is validated against slot reuse: a reused slot holds
        // a younger entry, and in-order commit guarantees that if the
        // linked store retired, no older store remains either.
        let load = self.lsq.get(lsq_slot).expect("load LSQ entry live");
        let addr = load.addr;
        let forward = load.prev_store_slot != NO_STORE_SLOT
            && self
                .lsq
                .get(load.prev_store_slot as usize)
                .is_some_and(|p| p.is_store && p.seq < seq && p.addr == addr);
        if forward {
            return Some(1); // store-to-load forwarding
        }
        let res = if wrong_path {
            self.mem.access_data_wrong_path(addr)
        } else {
            self.mem.access_data(addr, false)
        };
        self.activity.add(Unit::DCache, 1);
        let dcache_event = self.ev[Unit::DCache.index()];
        let dcache2_event = self.ev[Unit::DCache2.index()];
        let d = self.slab.get_mut(h);
        d.ledger.charge(Unit::DCache, dcache_event);
        if res.l2_accessed {
            self.activity.add(Unit::DCache2, 1);
            d.ledger.charge(Unit::DCache2, dcache2_event);
        }
        Some(res.latency)
    }
}
