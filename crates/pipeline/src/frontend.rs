//! Front-end stages: fetch (predicted-path instruction delivery) and
//! dispatch (decode + rename + window/LSQ insert).
//!
//! Ported stage-for-stage from the seed implementation; only the backing
//! state changed (slot-stable rings, pooled rename checkpoints, the
//! dependant matrix fed at rename). The golden differential tests in
//! `st-sweep` pin the behaviour bit-for-bit.

use st_isa::OpClass;
use st_power::Unit;

use crate::controller::{BranchEvent, OracleMode};
use crate::core::{Core, IfqSlot, InFlight, LsqEntry, RuuEntry, NOT_BLOCKED, NO_LSQ_SLOT};

impl Core {
    // ------------------------------------------------------------------
    // Dispatch (decode + rename + window/LSQ insert)
    // ------------------------------------------------------------------

    pub(crate) fn dispatch(&mut self) {
        let width = self.config.decode_width;
        let mut allowance = self.controller.decode_allowance(self.cycle, width).min(width);
        // Instructions at or below the horizon predate every active decode
        // trigger (including the trigger branch itself) and are exempt from
        // the gate; without this, a decode stall could strand its own
        // trigger branch in the fetch queue forever.
        let horizon = self.controller.decode_bypass_horizon();
        // Selection throttling's trigger (Figure 2's no-select bit), asked
        // for once per stage and its slot resolved at the first younger
        // instruction. Exact: the controller changes only when a branch
        // is predicted or resolves, never inside dispatch, so every
        // instruction of the stage sees the same trigger; and dispatch
        // takes the fetch queue in program order, so a trigger dispatched
        // in this stage precedes every younger instruction, whose window
        // entries (and the trigger's own state) nothing else in the stage
        // changes.
        let trigger = self.controller.no_select_trigger();
        let mut trigger_slot: Option<Option<InFlight>> = None;
        let oracle = self.oracle;
        let mut dispatched = 0;
        let mut gated = false;
        while dispatched < width {
            let Some(&IfqSlot { h, ready_at }) = self.ifq.front() else { break };
            if ready_at > self.cycle {
                break;
            }
            // Decode reads: the body stays slot-resident in the slab; only
            // the handle moves from the IFQ to the window.
            let (seq, op, dest, src1, src2, wrong_path, mem_addr) = {
                let d = self.slab.get(h);
                (d.seq, d.op, d.dest, d.src1, d.src2, d.wrong_path, d.mem_addr)
            };
            let exempt = horizon.is_some_and(|hz| seq <= hz);
            if allowance == 0 && !exempt {
                gated = true;
                break;
            }
            if oracle == OracleMode::Decode && wrong_path {
                break; // refuse wrong-path instructions; squash clears them
            }
            if self.ruu.len() >= self.config.ruu_size {
                break;
            }
            if op.is_mem() && self.lsq.len() >= self.config.lsq_size {
                break;
            }

            self.ifq.pop_front();
            let ruu_slot = self.ruu.next_slot();
            // Scoreboard hygiene: the slot's previous occupant left no
            // request line or dependant bits behind, but a fresh row costs
            // nothing and makes the invariant local.
            self.ruu_request.clear(ruu_slot);
            self.ruu_deps.clear_row(ruu_slot);

            // Rename: resolve source operands against in-flight producers.
            let mut src_wait = [None, None];
            let mut wait_count = 0u8;
            let mut ready_reads = 0u32;
            for (i, src) in [src1, src2].into_iter().enumerate() {
                let Some(r) = src else { continue };
                match self.rename.get(r) {
                    // The cached slot is validated against reuse: a live
                    // slot whose sequence number differs means the
                    // producer already retired.
                    Some((producer, pslot)) => {
                        match self.ruu.get(pslot) {
                            Some(p) if p.seq == producer && !p.completed => {
                                src_wait[i] = Some(InFlight { seq: producer, slot: pslot as u32 });
                                wait_count += 1;
                                self.ruu_deps.set(pslot, ruu_slot);
                            }
                            _ => ready_reads += 1, // completed or already retired
                        }
                    }
                    None => ready_reads += 1,
                }
            }
            // Conditional branches snapshot the rename map for recovery
            // (into recycled pool storage instead of a fresh allocation).
            let rename_checkpoint =
                (op == OpClass::Branch).then(|| self.checkpoints.alloc(self.rename.snapshot()));
            if let Some(dest) = dest {
                self.rename.set(dest, seq, ruu_slot);
            }

            // Selection-throttling tag: set while the trigger branch is
            // in flight and unresolved, with the trigger's slot so issue
            // can re-check it without a search.
            let no_select = match trigger {
                Some(trigger) if trigger < seq => *trigger_slot.get_or_insert_with(|| {
                    self.find_ruu(trigger)
                        .filter(|&t| !self.ruu.get(t).expect("found slot live").completed)
                        .map(|t| InFlight { seq: trigger, slot: t as u32 })
                }),
                _ => None,
            };

            // Energy: rename slot, window insert, register reads of ready
            // operands (Wattch footnote 2 semantics).
            self.activity.add(Unit::Rename, 1);
            self.activity.add(Unit::Window, 1);
            if ready_reads > 0 {
                self.activity.add(Unit::Regfile, ready_reads);
            }
            let ev = self.ev;
            {
                let d = self.slab.get_mut(h);
                d.ledger.charge(Unit::Rename, ev[Unit::Rename.index()]);
                d.ledger.charge(Unit::Window, ev[Unit::Window.index()]);
                if ready_reads > 0 {
                    d.ledger
                        .charge(Unit::Regfile, f64::from(ready_reads) * ev[Unit::Regfile.index()]);
                }
            }

            let completed = matches!(op, OpClass::Jump | OpClass::Nop);
            let mut lsq_slot = NO_LSQ_SLOT;
            if op.is_mem() {
                let is_store = op == OpClass::Store;
                let slot = self.lsq.push_back(LsqEntry {
                    seq,
                    is_store,
                    addr: mem_addr.expect("memory op carries address"),
                    issued: false,
                    prev_store_slot: self.lsq_last_store,
                });
                if is_store {
                    self.lsq_unissued_stores.set(slot);
                    self.lsq_last_store = slot as u32;
                }
                lsq_slot = slot as u32;
            }

            self.perf.dispatched += 1;
            if wrong_path {
                self.perf.wrong_path_dispatched += 1;
            }
            let needs_request = !completed && wait_count == 0;
            let slot = self.ruu.push_back(RuuEntry {
                h,
                seq,
                op,
                wrong_path,
                no_select,
                requests: 0,
                blocked_at: NOT_BLOCKED,
                src_wait,
                wait_count,
                issued: completed,
                completed,
                rename_checkpoint,
                lsq_slot,
            });
            debug_assert_eq!(slot, ruu_slot);
            if needs_request {
                self.ruu_request.set(slot);
            }
            dispatched += 1;
            if !exempt {
                allowance -= 1;
            }
        }
        if gated && dispatched == 0 {
            self.perf.decode_gated_cycles += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    pub(crate) fn fetch(&mut self) {
        if self.cycle < self.fetch_stall_until {
            return;
        }
        let oracle = self.oracle;
        if oracle == OracleMode::Fetch && !self.on_correct_path {
            return; // oracle fetch: never fetch down a wrong path
        }
        let width = self.config.fetch_width;
        let mut allowance = self.controller.fetch_allowance(self.cycle, width).min(width);
        if allowance == 0 {
            self.perf.fetch_gated_cycles += 1;
            return;
        }
        let free = self.config.ifq_size.saturating_sub(self.ifq.len());
        allowance = allowance.min(free as u32);

        let mut cur_line = u64::MAX;
        let mut taken_this_cycle = 0u32;
        let icache_share = self.icache_share;

        while allowance > 0 {
            let pc = self.fetch_pc;
            // I-cache line access (line id via the precomputed shift).
            let line = pc.addr() >> self.line_shift;
            if line != cur_line {
                let res = if self.on_correct_path {
                    self.mem.access_instr(pc.addr())
                } else {
                    self.mem.access_instr_wrong_path(pc.addr())
                };
                self.activity.add(Unit::ICache, 1);
                if res.l2_accessed {
                    self.activity.add(Unit::DCache2, 1);
                }
                if !res.l1_hit {
                    self.fetch_stall_until = self.cycle + u64::from(res.latency);
                    break;
                }
                cur_line = line;
            }

            let mut d = if self.on_correct_path {
                debug_assert!(
                    self.program.instr_at(pc).is_some(),
                    "correct-path fetch pc {pc} must name an instruction"
                );
                let arch = self.walker.next_instr(&self.program);
                debug_assert_eq!(arch.pc, pc, "fetch desynchronised from walker");
                self.new_dyn(
                    pc,
                    arch.instr.op,
                    arch.instr.dest,
                    arch.instr.src1,
                    arch.instr.src2,
                    false,
                    arch.taken,
                    arch.next_pc,
                    arch.branch,
                    arch.mem_addr,
                )
            } else {
                let Some((block_id, idx, instr)) = self.program.instr_at(pc) else {
                    break; // wrong path ran off the code image: idle until redirect
                };
                let instr = *instr;
                let block = self.program.block(block_id);
                let is_last = idx + 1 == block.len();
                let (truth_taken, truth_next, branch_id) = if is_last {
                    match block.terminator {
                        st_isa::Terminator::Fallthrough(next) | st_isa::Terminator::Jump(next) => {
                            (None, self.program.block(next).start_pc, None)
                        }
                        st_isa::Terminator::Branch { branch, .. } => {
                            let spec = self.walker.speculative_branch_outcome(
                                &self.program,
                                branch,
                                self.next_seq,
                            );
                            let next = block.terminator.successor(spec);
                            (Some(spec), self.program.block(next).start_pc, Some(branch))
                        }
                    }
                } else {
                    (None, pc.next(), None)
                };
                let mem_addr = instr
                    .stream
                    .map(|s| self.walker.wrong_path_mem_addr(&self.program, s, self.next_seq));
                self.new_dyn(
                    pc,
                    instr.op,
                    instr.dest,
                    instr.src1,
                    instr.src2,
                    true,
                    truth_taken,
                    truth_next,
                    branch_id,
                    mem_addr,
                )
            };

            d.ledger.charge(Unit::ICache, icache_share);

            // Control flow decides where fetch continues.
            let mut end_group = false;
            match d.op {
                OpClass::Branch => {
                    let hist = self.ghr.value();
                    let pred = self.predictor.predict(pc, hist);
                    let conf = self.estimator.estimate(pc, hist, pred);
                    self.activity.add(Unit::Bpred, 1);
                    d.ledger.charge(Unit::Bpred, self.ev[Unit::Bpred.index()]);

                    let btb_target = if pred.taken { self.btb.lookup(pc) } else { None };
                    // BTB miss on a taken prediction falls through, like
                    // SimpleScalar's front end.
                    let effective_taken = pred.taken && btb_target.is_some();
                    let pred_next =
                        if effective_taken { btb_target.expect("checked") } else { pc.next() };

                    d.pred_taken = effective_taken;
                    d.pred_next = pred_next;
                    d.confidence = Some(conf);
                    d.hist_checkpoint = Some(self.ghr);
                    d.hist_at_predict = hist;
                    self.ghr.push(effective_taken);

                    self.controller.on_branch_predicted(&BranchEvent {
                        seq: d.seq,
                        pc,
                        confidence: conf,
                        wrong_path: d.wrong_path,
                    });

                    // Divergence detection (the simulator knows the truth;
                    // the "hardware" does not).
                    if self.on_correct_path
                        && (d.pred_taken != d.true_taken || pred_next != d.true_next)
                    {
                        self.on_correct_path = false;
                        if oracle == OracleMode::Fetch {
                            end_group = true; // stop before any wrong-path instruction
                        }
                    }

                    self.fetch_pc = pred_next;
                    if effective_taken {
                        taken_this_cycle += 1;
                        if taken_this_cycle >= self.config.max_taken_per_cycle {
                            end_group = true;
                        }
                    }
                }
                OpClass::Jump => {
                    self.activity.add(Unit::Bpred, 1);
                    d.ledger.charge(Unit::Bpred, self.ev[Unit::Bpred.index()]);
                    let target = d.true_next;
                    d.pred_taken = true;
                    d.pred_next = target;
                    if self.btb.lookup(pc).is_some() {
                        taken_this_cycle += 1;
                        if taken_this_cycle >= self.config.max_taken_per_cycle {
                            end_group = true;
                        }
                    } else {
                        // BTB miss: the target is produced at decode; model
                        // the refill bubble.
                        self.fetch_stall_until =
                            self.cycle + 1 + u64::from(self.config.jump_btb_miss_bubble);
                        end_group = true;
                    }
                    self.fetch_pc = target;
                }
                _ => {
                    d.pred_next = pc.next();
                    self.fetch_pc = pc.next();
                }
            }

            self.perf.fetched += 1;
            if d.wrong_path {
                self.perf.wrong_path_fetched += 1;
            }
            // The body is written into the slab exactly once here; every
            // later stage reaches it through the 4-byte handle.
            let h = self.slab.insert(d);
            self.ifq.push_back(IfqSlot {
                h,
                ready_at: self.cycle + 1 + u64::from(self.config.front_latency),
            });
            allowance -= 1;
            if end_group {
                break;
            }
        }
    }
}
