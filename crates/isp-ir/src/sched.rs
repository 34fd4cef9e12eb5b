//! Pressure-aware instruction scheduling.
//!
//! Real compilers (`ptxas` included) list-schedule within basic blocks to
//! balance register pressure; this pass does the same with a classic greedy
//! policy: among ready instructions, prefer the one that kills the most live
//! values and spawns the fewest. [`schedule_min_pressure`] keeps the result
//! only when [`regalloc::estimate`](crate::regalloc::estimate) reports fewer
//! live data registers than the input order.
//!
//! Measured over every app, pattern and variant the DSL compiles, after the
//! optimiser: the greedy order is adopted only on small kernels (Gaussian
//! and Night ISP 11→10 live data registers, Sobel ISP 11→9, Sobel texture
//! 7→6, point operators 6→4, warp-grained ISP 14–15→9–13) and rejected on
//! every bilateral kernel, whose fused-reduce input order holds 14–19 live
//! values where the greedy order holds 200–307. Rejection is therefore the
//! expensive case, so the guarded pass carries a running lower bound on the
//! candidate's pressure and stops as soon as the bound proves the candidate
//! cannot win.
//!
//! Correctness is preserved by keeping all memory operations in their
//! original relative order (no aliasing analysis needed) and only reordering
//! pure data flow.

use crate::cfg::Cfg;
use crate::instr::Instr;
use crate::kernel::Kernel;
use crate::types::VReg;
use std::cmp::Reverse;

/// Reorder every block's instructions to reduce register pressure.
///
/// The greedy policy is a heuristic and can regress on code whose original
/// order is already pressure-optimal (tap-at-a-time fused reductions), so
/// the result is only adopted when the liveness estimate actually improves
/// — like an optimising compiler comparing schedules. The result always
/// equals that rule applied to [`schedule_greedy`]'s output; a candidate
/// proven non-improving is abandoned before it is finished.
pub fn schedule_min_pressure(kernel: &Kernel) -> Kernel {
    let before = crate::regalloc::estimate(kernel).max_live_data;
    let bound = PressureBound::new(kernel, before);
    match schedule(kernel, Some(&bound)) {
        Ok(candidate) if crate::regalloc::estimate(&candidate).max_live_data < before => candidate,
        _ => kernel.clone(),
    }
}

/// The unguarded greedy scheduler (exposed for tests and ablations).
pub fn schedule_greedy(kernel: &Kernel) -> Kernel {
    schedule(kernel, None).expect("an unbounded schedule always completes")
}

/// A proof obligation for [`schedule`]: abandon the candidate once its
/// `max_live_data` under [`regalloc::estimate`](crate::regalloc::estimate)
/// provably reaches `limit`.
///
/// While a block is scheduled, a value defined earlier in the block that
/// still has an unscheduled use in the block is live at the next program
/// point of `estimate`'s backward sweep — provided nothing redefines it in
/// between, which holds for registers with a single definition. Counting
/// those values (data registers only, in blocks `estimate` measures) gives
/// a lower bound on the candidate's pressure.
struct PressureBound {
    /// The input's `max_live_data`: a candidate is adopted only below it.
    limit: u32,
    /// Per vreg: a data register with exactly one definition in the kernel.
    tracked: Vec<bool>,
    /// Per block: reachable from the entry (the blocks `estimate` sweeps).
    reachable: Vec<bool>,
}

impl PressureBound {
    fn new(kernel: &Kernel, limit: u32) -> Self {
        let mut defs = vec![0u32; kernel.num_vregs as usize];
        for b in &kernel.blocks {
            for d in b.instrs.iter().filter_map(Instr::dst) {
                defs[d.index as usize] += 1;
            }
        }
        let tracked = crate::regalloc::data_mask(kernel)
            .into_iter()
            .zip(defs)
            .map(|(data, defs)| data && defs == 1)
            .collect();
        PressureBound {
            limit,
            tracked,
            reachable: Cfg::new(kernel).reachable,
        }
    }
}

/// Greedy list scheduling of every block. With a `bound`, returns
/// `Err(placed)` — the number of instructions placed so far — as soon as
/// the bound proves the finished candidate could not be adopted.
fn schedule(kernel: &Kernel, bound: Option<&PressureBound>) -> Result<Kernel, usize> {
    const NO_DEF: usize = usize::MAX;
    let mut k = kernel.clone();
    let num_vregs = k.num_vregs as usize;

    // Remaining-use counters for kill detection, over uses in any block or
    // terminator: a register whose remaining uses all sit in the current
    // block can die here; others are treated as immortal for scoring
    // purposes. Each block decrements them as it schedules and adds its
    // uses back afterwards, so every block starts from the global counts.
    let mut remaining = vec![0u32; num_vregs];
    for b in &k.blocks {
        for i in &b.instrs {
            for s in i.sources() {
                remaining[s.index as usize] += 1;
            }
        }
        if let Some(p) = b.terminator.pred() {
            remaining[p.index as usize] += 1;
        }
    }
    // Per-block scratch indexed by vreg, reset by each block on its way out:
    // the in-block position of the register's last definition, and (for the
    // bound) its unscheduled uses within the block.
    let mut def_of = vec![NO_DEF; num_vregs];
    let mut block_uses = vec![0u32; num_vregs];
    let mut placed = 0usize;

    for (bi, b) in k.blocks.iter_mut().enumerate() {
        let n = b.instrs.len();
        // Tiny blocks have nothing to gain; enormous blocks (fully unrolled
        // pathological windows) would make the O(steps x ready) greedy loop
        // too slow for interactive compilation — their natural fused-reduce
        // order is already near-optimal, so leave them untouched.
        if !(3..=20_000).contains(&n) {
            continue;
        }
        let srcs: Vec<Vec<VReg>> = b.instrs.iter().map(Instr::sources).collect();
        let dsts: Vec<Option<VReg>> = b.instrs.iter().map(Instr::dst).collect();

        // Dependency edges: def -> use, plus a chain over memory ops.
        // `succs` is deduplicated with per-edge multiplicities so that
        // high-fanout values (a base coordinate read by every tap) cost
        // O(consumers), not O(consumers^2).
        for (i, d) in dsts.iter().enumerate() {
            if let Some(d) = d {
                def_of[d.index as usize] = i;
            }
        }
        let mut preds_left: Vec<u32> = vec![0; n];
        let mut succs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        let add_edge = |succs: &mut Vec<Vec<(usize, u32)>>, from: usize, to: usize| {
            if let Some(e) = succs[from].iter_mut().find(|(t, _)| *t == to) {
                e.1 += 1;
            } else {
                succs[from].push((to, 1));
            }
        };
        let mut last_mem: Option<usize> = None;
        for (i, instr) in b.instrs.iter().enumerate() {
            for s in &srcs[i] {
                let d = def_of[s.index as usize];
                if d != NO_DEF && d != i {
                    add_edge(&mut succs, d, i);
                    preds_left[i] += 1;
                }
            }
            if matches!(instr, Instr::Ld { .. } | Instr::St { .. }) {
                if let Some(m) = last_mem {
                    add_edge(&mut succs, m, i);
                    preds_left[i] += 1;
                }
                last_mem = Some(i);
            }
        }

        let bound = bound.filter(|bd| bd.reachable[bi]);
        if bound.is_some() {
            for s in srcs.iter().flatten() {
                block_uses[s.index as usize] += 1;
            }
        }
        // Tracked values whose definition is placed and that still have an
        // unplaced use in this block: a lower bound on the live data
        // registers at the next program point.
        let mut live_floor = 0u32;

        let mut ready: Vec<usize> = (0..n).filter(|&i| preds_left[i] == 0).collect();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut scheduled = vec![false; n];
        while order.len() < n {
            // Score: +1 per source register this instruction kills, -1 if it
            // defines a value (which becomes newly live). First tiebreak: a
            // one-step lookahead — does scheduling this unlock a successor
            // that kills values? (This is what gets accumulator-chain heads
            // scheduled early.) Final tiebreak: original index, for
            // determinism.
            let (pos, &best) = ready
                .iter()
                .enumerate()
                .max_by_key(|&(_, &i)| {
                    let kills = srcs[i]
                        .iter()
                        .filter(|s| remaining[s.index as usize] == 1)
                        .count() as i64;
                    let dst = dsts[i];
                    let defines = i64::from(dst.is_some());
                    let mut lookahead = i64::MIN;
                    for &(s, edge_count) in &succs[i] {
                        if preds_left[s] != edge_count {
                            continue; // would not become ready
                        }
                        let sk = srcs[s]
                            .iter()
                            .filter(|r| Some(**r) == dst || remaining[r.index as usize] == 1)
                            .count() as i64;
                        let sd = i64::from(dsts[s].is_some());
                        lookahead = lookahead.max(sk - sd);
                    }
                    (kills - defines, lookahead, Reverse(i))
                })
                .expect("ready set is non-empty while instructions remain");
            ready.swap_remove(pos);
            if let Some(bd) = bound {
                // Sources first: an instruction that reads its own
                // definition has not placed that definition yet.
                for s in &srcs[best] {
                    let r = s.index as usize;
                    block_uses[r] -= 1;
                    let d = def_of[r];
                    if block_uses[r] == 0 && bd.tracked[r] && d != NO_DEF && scheduled[d] {
                        live_floor -= 1;
                    }
                }
                if let Some(d) = dsts[best] {
                    let r = d.index as usize;
                    if bd.tracked[r] && block_uses[r] > 0 {
                        live_floor += 1;
                    }
                }
                if live_floor >= bd.limit {
                    return Err(placed);
                }
            }
            scheduled[best] = true;
            order.push(best);
            placed += 1;
            for s in &srcs[best] {
                remaining[s.index as usize] -= 1;
            }
            // An instruction can depend on `best` through several registers;
            // release every edge it contributed.
            for &(succ, edge_count) in &succs[best] {
                preds_left[succ] -= edge_count;
                if preds_left[succ] == 0 && !scheduled[succ] {
                    ready.push(succ);
                }
            }
        }
        for s in srcs.iter().flatten() {
            remaining[s.index as usize] += 1;
        }
        for d in dsts.iter().flatten() {
            def_of[d.index as usize] = NO_DEF;
        }
        let mut old: Vec<Option<Instr>> = std::mem::take(&mut b.instrs)
            .into_iter()
            .map(Some)
            .collect();
        b.instrs = order
            .into_iter()
            .map(|i| old[i].take().expect("each instruction placed once"))
            .collect();
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::instr::{BinOp, Operand, SReg};
    use crate::regalloc;
    use crate::types::Ty;

    /// N independent load->scale chains, lowered breadth-first (all loads,
    /// then all scales, then the accumulation): the classic pressure
    /// pathology a list scheduler untangles by consuming each load
    /// immediately.
    #[test]
    fn interleaves_independent_chains() {
        const N: usize = 16;
        let mut b = IrBuilder::new("chains", 2);
        let loads: Vec<_> = (0..N).map(|i| b.ld(Ty::F32, 0, i as i32)).collect();
        let scaled: Vec<_> = loads
            .iter()
            .map(|&x| b.bin(BinOp::Mul, Ty::F32, x, 0.5f32))
            .collect();
        let mut acc = b.mov(Ty::F32, 0.0f32);
        for &s in &scaled {
            acc = b.bin(BinOp::Add, Ty::F32, acc, s);
        }
        b.st(1, 0i32, acc);
        b.ret();
        let k = b.finish();
        let before = regalloc::estimate(&k);
        let after = regalloc::estimate(&schedule_min_pressure(&k));
        assert!(
            after.max_live_data < before.max_live_data,
            "scheduling must reduce pressure: {} -> {}",
            before.max_live_data,
            after.max_live_data
        );
        assert!(
            after.max_live_data <= 5,
            "interleaved pressure stays small: {after:?}"
        );
    }

    /// A tap-at-a-time reduction whose taps square their load. The greedy
    /// score cannot see that `x * x` kills `x` (two uses remain), so it
    /// hoists every load ahead of its tap: `N` values live where the input
    /// order needs two.
    fn squared_taps(n: usize) -> Kernel {
        let mut b = IrBuilder::new("squares", 2);
        let mut acc = b.mov(Ty::F32, 0.0f32);
        for i in 0..n {
            let x = b.ld(Ty::F32, 0, i as i32);
            let sq = b.bin(BinOp::Mul, Ty::F32, x, x);
            acc = b.bin(BinOp::Add, Ty::F32, acc, sq);
        }
        b.st(1, 0i32, acc);
        b.ret();
        b.finish()
    }

    #[test]
    fn bound_abandons_a_losing_schedule_early() {
        let k = squared_taps(16);
        let limit = regalloc::estimate(&k).max_live_data;
        let greedy = regalloc::estimate(&schedule_greedy(&k)).max_live_data;
        assert!(
            greedy > limit,
            "greedy must raise pressure: {limit} -> {greedy}"
        );
        let placed = schedule(&k, Some(&PressureBound::new(&k, limit)))
            .expect_err("the bound proves the candidate loses");
        let n = k.blocks[0].instrs.len();
        assert!(placed < n / 4, "stopped after {placed} of {n} instructions");
        assert_eq!(schedule_min_pressure(&k), k);
    }

    #[test]
    fn preserves_semantics_of_dataflow() {
        // Verify by re-running the validator and checking defs still precede
        // uses in the scheduled order.
        let mut b = IrBuilder::new("k", 2);
        let x = b.sreg(SReg::TidX);
        let a = b.bin(BinOp::Add, Ty::S32, x, 1i32);
        let c = b.bin(BinOp::Mul, Ty::S32, a, 3i32);
        let d = b.bin(BinOp::Add, Ty::S32, x, 2i32);
        let e = b.bin(BinOp::Add, Ty::S32, c, d);
        b.st(1, e, Operand::ImmF(0.0));
        b.ret();
        let k = b.finish();
        let s = schedule_min_pressure(&k);
        assert!(crate::validate::validate(&s).is_empty());
        // All instructions retained.
        assert_eq!(s.blocks[0].instrs.len(), k.blocks[0].instrs.len());
    }

    #[test]
    fn memory_operations_keep_their_order() {
        let mut b = IrBuilder::new("mem", 2);
        let v0 = b.ld(Ty::F32, 0, 0i32);
        b.st(1, 0i32, v0);
        let v1 = b.ld(Ty::F32, 0, 1i32);
        b.st(1, 1i32, v1);
        b.ret();
        let k = b.finish();
        let s = schedule_min_pressure(&k);
        let mem_ops: Vec<&Instr> = s.blocks[0]
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Ld { .. } | Instr::St { .. }))
            .collect();
        // ld0, st0, ld1, st1 in original order.
        assert!(matches!(
            mem_ops[0],
            Instr::Ld {
                addr: Operand::ImmI(0),
                ..
            }
        ));
        assert!(matches!(
            mem_ops[1],
            Instr::St {
                addr: Operand::ImmI(0),
                ..
            }
        ));
        assert!(matches!(
            mem_ops[2],
            Instr::Ld {
                addr: Operand::ImmI(1),
                ..
            }
        ));
        assert!(matches!(
            mem_ops[3],
            Instr::St {
                addr: Operand::ImmI(1),
                ..
            }
        ));
    }

    #[test]
    fn idempotent_on_minimal_blocks() {
        let mut b = IrBuilder::new("tiny", 1);
        let x = b.sreg(SReg::TidX);
        b.st(0, x, Operand::ImmF(1.0));
        b.ret();
        let k = b.finish();
        let s = schedule_min_pressure(&k);
        assert_eq!(s, k);
    }
}
