//! Register-pressure estimation via liveness analysis.
//!
//! The paper's cost model (§IV-B) hinges on kernel register usage: the ISP
//! fat kernel's region-switching statements "could potentially increase
//! register usage on GPUs compared to a naive implementation", which lowers
//! theoretical occupancy. Real toolchains report this via `nvcc
//! --ptxas-options=-v`; here we estimate registers-per-thread as the maximum
//! number of simultaneously live virtual registers (a lower bound on what a
//! linear-scan allocator needs) plus a fixed reservation for system
//! registers, computed over the optimised IR.

use crate::cfg::Cfg;
use crate::kernel::Kernel;
use crate::types::Ty;
use std::collections::HashSet;

/// Registers reserved by the ABI/runtime on real hardware (kernel parameter
/// pointers, stack pointer, etc.). Added on top of the live-range estimate so
/// small kernels land in the realistic 10-30 range rather than 2-5.
pub const RESERVED_DATA_REGS: u32 = 8;

/// Cap on the ILP scheduling allowance (see [`ilp_allowance`]).
pub const ILP_ALLOWANCE_CAP: u32 = 12;

/// Estimated register usage of one kernel variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterUsage {
    /// General-purpose 32-bit registers per thread (the number occupancy
    /// calculations consume), including [`RESERVED_DATA_REGS`] and the
    /// ILP allowance.
    pub data_regs: u32,
    /// Predicate registers per thread.
    pub pred_regs: u32,
    /// Raw maximum of simultaneously live data virtual registers (without
    /// the reservation) — useful for diagnostics and tests.
    pub max_live_data: u32,
    /// ILP scheduling allowance added to `data_regs`.
    pub ilp_allowance: u32,
}

/// Extra registers `ptxas` spends to keep independent global loads in
/// flight. A strict liveness minimum is a severe underestimate for unrolled
/// stencil bodies: the scheduler batches loads for instruction-level
/// parallelism, which is exactly why a 13x13 bilateral compiles to 40+
/// registers while a 3x3 Gaussian stays near 20. Modelled as one register
/// per 8 loads in the most load-heavy basic block, capped.
pub fn ilp_allowance(kernel: &Kernel) -> u32 {
    let max_loads = kernel
        .blocks
        .iter()
        .map(|b| {
            b.instrs
                .iter()
                .filter(|i| matches!(i, crate::instr::Instr::Ld { .. }))
                .count() as u32
        })
        .max()
        .unwrap_or(0);
    (max_loads / 8).min(ILP_ALLOWANCE_CAP)
}

/// Cap on the control-flow allowance (see [`cfg_allowance`]).
pub const CFG_ALLOWANCE_CAP: u32 = 8;

/// Extra registers charged for control-flow complexity. `ptxas` allocates
/// conservatively around many-way branch joins and duplicates values across
/// specialised paths; a fat ISP kernel with its region-switch cascade and
/// nine bodies measurably exceeds the single-path naive kernel (the paper's
/// Table II observation, and the cost side of its model). One register per
/// four basic blocks beyond a simple kernel's four, capped.
pub fn cfg_allowance(kernel: &Kernel) -> u32 {
    let blocks = kernel.blocks.len() as u32;
    (blocks.saturating_sub(4) / 2).min(CFG_ALLOWANCE_CAP)
}

/// Which virtual registers [`estimate`] counts as data (non-predicate)
/// registers, indexed by vreg. Register types are attached to every VReg
/// occurrence; the last occurrence in one scan decides.
pub(crate) fn data_mask(kernel: &Kernel) -> Vec<bool> {
    let mut ty_of: Vec<Option<Ty>> = vec![None; kernel.num_vregs as usize];
    for b in &kernel.blocks {
        for instr in &b.instrs {
            if let Some(d) = instr.dst() {
                ty_of[d.index as usize] = Some(d.ty);
            }
            for s in instr.sources() {
                ty_of[s.index as usize] = Some(s.ty);
            }
        }
        if let Some(p) = b.terminator.pred() {
            ty_of[p.index as usize] = Some(p.ty);
        }
    }
    ty_of
        .into_iter()
        .map(|t| t.is_some_and(|t| t.is_data()))
        .collect()
}

/// Estimate the register usage of `kernel`.
pub fn estimate(kernel: &Kernel) -> RegisterUsage {
    let cfg = Cfg::new(kernel);
    let n = kernel.blocks.len();

    // Per-block use/def sets ("use" = read before any write in the block).
    let mut uses: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    let mut defs: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    for (i, b) in kernel.blocks.iter().enumerate() {
        for instr in &b.instrs {
            for s in instr.sources() {
                if !defs[i].contains(&s.index) {
                    uses[i].insert(s.index);
                }
            }
            if let Some(d) = instr.dst() {
                defs[i].insert(d.index);
            }
        }
        if let Some(p) = b.terminator.pred() {
            if !defs[i].contains(&p.index) {
                uses[i].insert(p.index);
            }
        }
    }

    // Backward dataflow to a fixpoint.
    let mut live_in: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out = HashSet::new();
            for s in &cfg.succs[i] {
                out.extend(live_in[s.0 as usize].iter().copied());
            }
            let mut inn: HashSet<u32> = out.difference(&defs[i]).copied().collect();
            inn.extend(uses[i].iter().copied());
            if inn != live_in[i] || out != live_out[i] {
                live_in[i] = inn;
                live_out[i] = out;
                changed = true;
            }
        }
    }

    // Sweep each block backwards tracking the live set to find the maximum
    // pressure at any program point, split by register class.
    let data = data_mask(kernel);
    let is_data = |idx: u32| data[idx as usize];

    let mut max_data = 0usize;
    let mut max_pred = 0usize;
    for (i, b) in kernel.blocks.iter().enumerate() {
        if !cfg.reachable[i] {
            continue;
        }
        let mut live = live_out[i].clone();
        let mut measure = |live: &HashSet<u32>| {
            let d = live.iter().filter(|&&r| is_data(r)).count();
            let p = live.len() - d;
            max_data = max_data.max(d);
            max_pred = max_pred.max(p);
        };
        if let Some(p) = b.terminator.pred() {
            live.insert(p.index);
        }
        measure(&live);
        for instr in b.instrs.iter().rev() {
            if let Some(d) = instr.dst() {
                live.remove(&d.index);
            }
            for s in instr.sources() {
                live.insert(s.index);
            }
            measure(&live);
        }
    }

    let ilp = ilp_allowance(kernel);
    let cfg_extra = cfg_allowance(kernel);
    RegisterUsage {
        data_regs: max_data as u32 + RESERVED_DATA_REGS + ilp + cfg_extra,
        pred_regs: max_pred as u32,
        max_live_data: max_data as u32,
        ilp_allowance: ilp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::instr::{BinOp, CmpOp, Operand, SReg};
    use crate::opt::{optimize, OptConfig};

    #[test]
    fn straightline_pressure() {
        // Chain: each value dies as the next is produced -> low pressure.
        let mut b = IrBuilder::new("chain", 1);
        let x = b.sreg(SReg::TidX);
        let a = b.bin(BinOp::Add, Ty::S32, x, 1i32);
        let c = b.bin(BinOp::Add, Ty::S32, a, 1i32);
        let d = b.bin(BinOp::Add, Ty::S32, c, 1i32);
        b.st(0, d, Operand::ImmF(0.0));
        b.ret();
        let u = estimate(&b.finish());
        assert_eq!(u.max_live_data, 1);
        assert_eq!(u.data_regs, 1 + RESERVED_DATA_REGS);
        assert_eq!(u.pred_regs, 0);
    }

    #[test]
    fn wide_pressure() {
        // Produce 6 values then consume them all: pressure 6.
        let mut b = IrBuilder::new("wide", 1);
        let vals: Vec<_> = (0..6)
            .map(|i| b.bin(BinOp::Add, Ty::S32, i, 1i32))
            .collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.bin(BinOp::Add, Ty::S32, acc, v);
        }
        b.st(0, acc, Operand::ImmF(0.0));
        b.ret();
        // Constant folding would collapse this; estimate raw.
        let u = estimate(&b.finish());
        assert_eq!(u.max_live_data, 6);
    }

    #[test]
    fn predicates_tracked_separately() {
        let mut b = IrBuilder::new("p", 1);
        let x = b.sreg(SReg::TidX);
        let p1 = b.setp(CmpOp::Lt, x, 1i32);
        let p2 = b.setp(CmpOp::Lt, x, 2i32);
        let p3 = b.setp(CmpOp::Lt, x, 3i32);
        let s1 = b.selp(Ty::S32, 1i32, 0i32, p1);
        let s2 = b.selp(Ty::S32, 2i32, 0i32, p2);
        let s3 = b.selp(Ty::S32, 3i32, 0i32, p3);
        let a = b.bin(BinOp::Add, Ty::S32, s1, s2);
        let t = b.bin(BinOp::Add, Ty::S32, a, s3);
        b.st(0, t, Operand::ImmF(0.0));
        b.ret();
        let u = estimate(&b.finish());
        assert_eq!(u.pred_regs, 3);
        assert!(u.max_live_data >= 3);
    }

    #[test]
    fn cross_block_liveness() {
        // x defined in entry, used in a later block: live across the branch.
        let mut b = IrBuilder::new("cross", 1);
        let t = b.create_block("t");
        let f = b.create_block("f");
        let x = b.sreg(SReg::TidX);
        let y = b.sreg(SReg::TidY);
        let p = b.setp(CmpOp::Lt, x, 4i32);
        b.cond_br(p, t, f);
        b.switch_to(t);
        let s = b.bin(BinOp::Add, Ty::S32, x, y);
        b.st(0, s, Operand::ImmF(0.0));
        b.ret();
        b.switch_to(f);
        b.st(0, y, Operand::ImmF(1.0));
        b.ret();
        let u = estimate(&b.finish());
        // x and y both live at the branch point.
        assert!(u.max_live_data >= 2);
    }

    #[test]
    fn fat_kernel_uses_more_registers_than_thin() {
        // A "fat" kernel with a value kept alive across a region switch
        // must report at least the pressure of the thin kernel.
        let thin = {
            let mut b = IrBuilder::new("thin", 2);
            let x = b.sreg(SReg::TidX);
            let v = b.ld(Ty::F32, 0, x);
            let w = b.bin(BinOp::Mul, Ty::F32, v, 2.0f32);
            b.st(1, x, w);
            b.ret();
            b.finish()
        };
        let fat = {
            let mut b = IrBuilder::new("fat", 2);
            let r1 = b.create_block("r1");
            let r2 = b.create_block("r2");
            let x = b.sreg(SReg::TidX);
            let y = b.sreg(SReg::TidY);
            let bx = b.sreg(SReg::CtaIdX);
            let by = b.sreg(SReg::CtaIdY);
            // Switching logic keeps bx/by/x/y live simultaneously.
            let p1 = b.setp(CmpOp::Lt, bx, 1i32);
            b.cond_br(p1, r1, r2);
            b.switch_to(r1);
            let a = b.bin(BinOp::Add, Ty::S32, x, y);
            let a2 = b.bin(BinOp::Add, Ty::S32, a, by);
            let v = b.ld(Ty::F32, 0, a2);
            b.st(1, a2, v);
            b.ret();
            b.switch_to(r2);
            let s = b.bin(BinOp::Add, Ty::S32, x, by);
            let v = b.ld(Ty::F32, 0, s);
            b.st(1, s, v);
            b.ret();
            b.finish()
        };
        let ut = estimate(&thin);
        let uf = estimate(&fat);
        assert!(
            uf.data_regs > ut.data_regs,
            "fat {:?} must exceed thin {:?}",
            uf,
            ut
        );
    }

    #[test]
    fn optimisation_does_not_increase_pressure_in_simple_kernels() {
        let mut b = IrBuilder::new("k", 2);
        let x = b.sreg(SReg::TidX);
        let c1 = b.bin(BinOp::Max, Ty::S32, x, 0i32);
        let c2 = b.bin(BinOp::Max, Ty::S32, x, 0i32);
        let v1 = b.ld(Ty::F32, 0, c1);
        let v2 = b.ld(Ty::F32, 0, c2);
        let s = b.bin(BinOp::Add, Ty::F32, v1, v2);
        b.st(1, c1, s);
        b.ret();
        let k = b.finish();
        let raw = estimate(&k);
        let opt = estimate(&optimize(&k, OptConfig::full()));
        assert!(opt.max_live_data <= raw.max_live_data);
    }
}
