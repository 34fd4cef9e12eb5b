//! IR optimisation: a fixed-point pass pipeline over SSA-form kernels.
//!
//! These passes model the NVCC behaviour the paper leans on in §IV-A: "the
//! naive version may have many conditional statements in the source code, but
//! many of them share common sub-expressions that can be optimized by the
//! NVCC compiler". Running the same passes over naive and ISP variants keeps
//! the instruction-count comparison honest — and the `ablation_cse` bench
//! flips passes off to show how large the *un*-optimised gap would look.
//!
//! The pipeline (driven by [`optimize`] / [`optimize_with_stats`]) runs each
//! enabled pass as `fn(&mut Kernel) -> bool` and, in [`OptConfig::pipeline`]
//! mode, iterates the whole sequence until no pass reports a change (bounded
//! by [`MAX_OPT_ITERATIONS`]):
//!
//! 1. **copy propagation** — `mov` is pure renaming under SSA;
//! 2. **constant folding + algebraic simplification** — every rewrite must be
//!    bit-identical to the interpreter's op semantics (`tests/
//!    fold_equivalence.rs` checks this differentially); F32 identities that
//!    are *not* bit-exact (`x * 0.0 → 0.0`, `x + 0.0 → x`, …) are gated
//!    behind [`OptConfig::fast_math`] and off by default;
//! 3. **strength reduction** — `x * 2^k → x << k` (exact for wrapping i32);
//!    `x / 2^k → x >> k` and `x % 2^k → x & (2^k-1)` only when `x` is
//!    *provably non-negative* (arithmetic shift rounds toward −∞ while `Div`
//!    rounds toward zero), using a small dataflow proof over the SSA defs;
//! 4. **value numbering** — either the legacy local (per-block) CSE or
//!    dominator-aware **global value numbering** ([`OptConfig::gvn`]): blocks
//!    are visited in reverse post-order and value tables are consulted
//!    through the immediate-dominator chain from [`crate::cfg::Cfg::idom`].
//!    Reuse obeys the rematerialization windows below;
//! 5. **dead-code elimination** — global (cross-block) used-register
//!    worklist; never touches stores, loads, barriers, or registers feeding
//!    terminators;
//! 6. **CFG simplification** — equal-target and constant-predicate branch
//!    flattening, jump threading through empty forwarding blocks, merging
//!    `br → empty ret-block` into `ret`, and unreachable-block removal (with
//!    `BlockId` renumbering; `validate` rejects unreachable blocks).
//!
//! The builder produces SSA-form code (every virtual register has exactly
//! one definition, uses are dominated by it, and — with no phi nodes — every
//! value is loop-invariant), which is what makes the global substitution
//! maps and cross-block value reuse sound.

use crate::cfg::Cfg;
use crate::instr::{BinOp, CmpOp, Instr, Operand, SReg, Terminator, UnOp};
use crate::kernel::{BlockId, Kernel};
use crate::types::{Ty, VReg};
use std::collections::HashMap;

/// Which passes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Constant folding + algebraic identities.
    pub fold: bool,
    /// Copy propagation (`mov` elimination).
    pub copy_prop: bool,
    /// Local (per-block) common-subexpression elimination.
    pub cse: bool,
    /// Dominator-aware global value numbering (cross-block CSE). When set,
    /// supersedes `cse`.
    pub gvn: bool,
    /// Strength reduction (`mul`/`div`/`rem` by powers of two to shifts and
    /// masks; division only under a non-negativity proof).
    pub strength_reduce: bool,
    /// Dead-code elimination.
    pub dce: bool,
    /// CFG simplification (branch flattening, jump threading, unreachable
    /// block removal).
    pub cfg_simplify: bool,
    /// Iterate the pass sequence to a fixed point (bounded by
    /// [`MAX_OPT_ITERATIONS`]); otherwise run it once.
    pub fixed_point: bool,
    /// Allow F32 rewrites that are value-preserving only under fast-math
    /// assumptions (`x * 0.0 → 0.0`, `x + 0.0 → x`, `min(x,x) → x`, …).
    /// These diverge bit-wise from the interpreter for NaN payloads,
    /// signalling NaNs and `-0.0`, so they are **off** in every default
    /// configuration; `tests/fold_equivalence.rs` documents the exact set.
    pub fast_math: bool,
    /// CSE **rematerialization window**: a previously computed value is only
    /// reused when it was defined at most this many (kept) instructions ago;
    /// older values are recomputed. This mirrors production GPU compilers,
    /// which deliberately rematerialize cheap address arithmetic rather than
    /// hold dozens of resolved border coordinates in registers across a
    /// 169-tap unrolled window — unbounded CSE would understate the naive
    /// variant's instruction count AND overstate everyone's register usage.
    pub cse_window: usize,
    /// Reuse window for global loads, which compilers keep in registers far
    /// more aggressively than recomputable arithmetic (rematerializing a
    /// load is a memory access). Must be at least `cse_window` so that the
    /// load-reuse behaviour of code variants with different amounts of
    /// interleaved arithmetic stays comparable; constructors clamp it up to
    /// `cse_window` and [`optimize`] debug-asserts the invariant.
    pub cse_window_loads: usize,
}

/// Default rematerialization window (instructions).
pub const DEFAULT_CSE_WINDOW: usize = 120;

/// Default load-reuse window (instructions).
pub const DEFAULT_CSE_WINDOW_LOADS: usize = 250;

/// Upper bound on pipeline iterations in `fixed_point` mode. Every pass is
/// monotone (instructions are only removed or rewritten toward a normal
/// form), so real kernels converge in a handful of iterations; the cap is a
/// safety net, and [`OptStats::reached_fixed_point`] reports whether the
/// pipeline actually converged.
pub const MAX_OPT_ITERATIONS: u64 = 16;

impl OptConfig {
    /// Enforce `cse_window_loads >= cse_window` (see the field docs).
    fn clamped(mut self) -> Self {
        if self.cse_window_loads < self.cse_window {
            self.cse_window_loads = self.cse_window;
        }
        self
    }

    /// The full fixed-point pipeline — the default compilation mode,
    /// mirroring `nvcc -O3`: folding, copy propagation, strength reduction,
    /// dominator-aware GVN, DCE and CFG simplification iterated to a fixed
    /// point. Fast-math rewrites stay off so every rewrite is bit-identical
    /// to the interpreter.
    pub fn pipeline() -> Self {
        OptConfig {
            fold: true,
            copy_prop: true,
            cse: false,
            gvn: true,
            strength_reduce: true,
            dce: true,
            cfg_simplify: true,
            fixed_point: true,
            fast_math: false,
            cse_window: DEFAULT_CSE_WINDOW,
            cse_window_loads: DEFAULT_CSE_WINDOW_LOADS,
        }
        .clamped()
    }

    /// The legacy single-iteration mode: folding + local CSE + DCE, no
    /// cross-block passes. Kept for ablations against [`OptConfig::pipeline`].
    pub fn full() -> Self {
        OptConfig {
            fold: true,
            copy_prop: true,
            cse: true,
            gvn: false,
            strength_reduce: false,
            dce: true,
            cfg_simplify: false,
            fixed_point: false,
            fast_math: false,
            cse_window: DEFAULT_CSE_WINDOW,
            cse_window_loads: DEFAULT_CSE_WINDOW_LOADS,
        }
        .clamped()
    }

    /// No optimisation at all.
    pub fn none() -> Self {
        OptConfig {
            fold: false,
            copy_prop: false,
            cse: false,
            gvn: false,
            strength_reduce: false,
            dce: false,
            cfg_simplify: false,
            fixed_point: false,
            fast_math: false,
            cse_window: 0,
            cse_window_loads: 0,
        }
    }

    /// CSE disabled, folding/DCE on — the `ablation_cse` configuration.
    pub fn no_cse() -> Self {
        OptConfig {
            cse: false,
            gvn: false,
            cse_window: 0,
            cse_window_loads: 0,
            ..Self::full()
        }
    }

    /// Unbounded local CSE (no rematerialization) — for tests and ablations.
    pub fn unbounded_cse() -> Self {
        OptConfig {
            cse_window: usize::MAX,
            cse_window_loads: usize::MAX,
            ..Self::full()
        }
        .clamped()
    }

    /// Enable the fast-math rewrite set on top of `self`.
    pub fn with_fast_math(mut self) -> Self {
        self.fast_math = true;
        self
    }

    /// Override both rematerialization windows, clamping
    /// `cse_window_loads` up to `cse_window` to preserve the invariant.
    pub fn with_windows(mut self, cse_window: usize, cse_window_loads: usize) -> Self {
        self.cse_window = cse_window;
        self.cse_window_loads = cse_window_loads;
        self.clamped()
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        Self::pipeline()
    }
}

/// Per-pass statistics from one [`optimize_with_stats`] run. All `*_removed`
/// fields count *static* instructions (terminators included, as in
/// [`Kernel::static_len`]) removed by that pass, accumulated across
/// fixed-point iterations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Pipeline iterations executed (1 when `fixed_point` is off).
    pub iterations: u64,
    /// Whether the last iteration made no change (the output is a fixed
    /// point of the pass sequence).
    pub reached_fixed_point: bool,
    /// Static instruction count before optimisation.
    pub before_instrs: u64,
    /// Static instruction count after optimisation.
    pub after_instrs: u64,
    /// Instructions removed by copy propagation.
    pub copy_prop_removed: u64,
    /// Instructions removed by constant folding + algebraic simplification.
    pub fold_removed: u64,
    /// Instructions rewritten in place by strength reduction (count, not a
    /// removal — a `mul` becomes a `shl`).
    pub strength_rewrites: u64,
    /// Instructions removed by value numbering (local CSE or GVN).
    pub vn_removed: u64,
    /// Instructions removed by dead-code elimination.
    pub dce_removed: u64,
    /// Instructions (including terminators of deleted blocks) removed by CFG
    /// simplification.
    pub cfg_removed: u64,
}

impl OptStats {
    /// Net static instructions removed over the whole run.
    pub fn removed_total(&self) -> u64 {
        self.before_instrs.saturating_sub(self.after_instrs)
    }
}

/// Run the configured passes over `kernel`, returning the optimised kernel.
pub fn optimize(kernel: &Kernel, config: OptConfig) -> Kernel {
    optimize_with_stats(kernel, config).0
}

/// Like [`optimize`], also returning per-pass statistics.
pub fn optimize_with_stats(kernel: &Kernel, config: OptConfig) -> (Kernel, OptStats) {
    debug_assert!(
        config.cse_window_loads >= config.cse_window,
        "OptConfig invariant violated: cse_window_loads ({}) < cse_window ({}); \
         use the constructors or with_windows(), which clamp",
        config.cse_window_loads,
        config.cse_window
    );
    // Belt-and-braces for release builds handed a hand-rolled config: the
    // effective load window is never below the arithmetic window.
    let window = config.cse_window;
    let window_loads = config.cse_window_loads.max(config.cse_window);

    let mut k = kernel.clone();
    let mut stats = OptStats {
        before_instrs: k.static_len() as u64,
        ..OptStats::default()
    };
    loop {
        let mut changed = false;
        if config.copy_prop {
            let before = k.static_len() as u64;
            changed |= pass_copy_prop(&mut k);
            stats.copy_prop_removed += before.saturating_sub(k.static_len() as u64);
        }
        if config.fold {
            let before = k.static_len() as u64;
            changed |= pass_fold(&mut k, config.fast_math);
            stats.fold_removed += before.saturating_sub(k.static_len() as u64);
        }
        if config.strength_reduce {
            let n = pass_strength_reduce(&mut k);
            stats.strength_rewrites += n;
            changed |= n > 0;
        }
        if config.gvn || config.cse {
            let before = k.static_len() as u64;
            changed |= pass_value_number(&mut k, config.gvn, window, window_loads);
            stats.vn_removed += before.saturating_sub(k.static_len() as u64);
        }
        if config.dce {
            let before = k.static_len() as u64;
            changed |= pass_dce(&mut k);
            stats.dce_removed += before.saturating_sub(k.static_len() as u64);
        }
        if config.cfg_simplify {
            let before = k.static_len() as u64;
            changed |= pass_cfg_simplify(&mut k);
            stats.cfg_removed += before.saturating_sub(k.static_len() as u64);
        }
        stats.iterations += 1;
        if !changed {
            stats.reached_fixed_point = true;
            break;
        }
        if !config.fixed_point || stats.iterations >= MAX_OPT_ITERATIONS {
            break;
        }
    }
    stats.after_instrs = k.static_len() as u64;
    (k, stats)
}

/// Hashable operand key for value numbering (f32 via bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum OpKey {
    Reg(u32),
    ImmI(i32),
    ImmF(u32),
}

impl OpKey {
    fn of(op: &Operand) -> OpKey {
        match op {
            Operand::Reg(r) => OpKey::Reg(r.index),
            Operand::ImmI(v) => OpKey::ImmI(*v),
            Operand::ImmF(v) => OpKey::ImmF(v.to_bits()),
        }
    }
}

/// Value-numbering key of a pure instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum VnKey {
    Bin(BinOp, Ty, OpKey, OpKey),
    Mad(Ty, OpKey, OpKey, OpKey),
    Un(UnOp, Ty, OpKey),
    Cvt(Ty, OpKey),
    SetP(CmpOp, OpKey, OpKey),
    SelP(Ty, OpKey, OpKey, u32),
    Sreg(SReg),
    LdParam(u32),
    /// Global loads are value-numbered too: generated kernels never store
    /// to a buffer they read (single output store at the end), matching the
    /// `__restrict__` qualifiers Hipacc emits — so identical loads within
    /// the window collapse, as `nvcc` does for restrict-qualified inputs.
    Ld(u32, OpKey),
    /// Texture fetches are read-only by construction: same reuse rule.
    Tex(u32, OpKey, OpKey),
}

/// Resolve an operand through the substitution map (with chaining).
fn resolve(subst: &HashMap<u32, Operand>, op: Operand) -> Operand {
    let mut cur = op;
    let mut hops = 0;
    while let Operand::Reg(r) = cur {
        match subst.get(&r.index) {
            Some(&next) => {
                cur = next;
                hops += 1;
                assert!(hops < 10_000, "substitution cycle");
            }
            None => break,
        }
    }
    cur
}

/// Canonicalise an arithmetic float result exactly like the simulator's
/// `canon_f32`: any NaN becomes the canonical quiet NaN `0x7fffffff` (PTX
/// float-instruction semantics). Folding must produce the same bits the
/// interpreter would at runtime — `tests/fold_equivalence.rs` asserts the
/// two stay in lockstep differentially.
#[inline]
fn canon_f32(v: f32) -> f32 {
    if v.is_nan() {
        f32::from_bits(0x7fff_ffff)
    } else {
        v
    }
}

/// Fold a binary op over two immediates. Every arm performs the *same
/// computation* as the interpreter (`isp-sim`'s `eval_bin_i`/`eval_bin_f`),
/// so the fold is bit-identical for every input — NaN results canonicalise
/// to `0x7fffffff` on both sides, and bit-preserving ops keep payloads —
/// `tests/fold_equivalence.rs` asserts this differentially.
pub fn fold_bin(op: BinOp, ty: Ty, a: &Operand, b: &Operand) -> Option<Operand> {
    match (ty, a, b) {
        (Ty::S32, Operand::ImmI(x), Operand::ImmI(y)) => {
            let (x, y) = (*x, *y);
            let v = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                // Division semantics chosen deliberately: defined as 0 on
                // divide-by-zero so folding matches the interpreter.
                BinOp::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                BinOp::Rem => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_rem(y)
                    }
                }
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y as u32 & 31),
                BinOp::Shr => x.wrapping_shr(y as u32 & 31),
            };
            Some(Operand::ImmI(v))
        }
        (Ty::F32, Operand::ImmF(x), Operand::ImmF(y)) => {
            let (x, y) = (*x, *y);
            let v = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => return None,
            };
            Some(Operand::ImmF(canon_f32(v)))
        }
        _ => None,
    }
}

/// Algebraic identities that replace the instruction with one of its
/// operands (or a constant) *without performing the computation*.
///
/// Integer identities are exact under the wrapping two's-complement
/// semantics the interpreter uses, so they always apply. F32 identities skip
/// a float operation whose rounding/NaN behaviour is observable bit-wise
/// (`-0.0 + 0.0 == +0.0`, `NaN * 0.0 == NaN`, signalling NaNs quiet on any
/// arithmetic op), so they require `fast_math`.
pub fn simplify_bin(
    op: BinOp,
    ty: Ty,
    a: &Operand,
    b: &Operand,
    fast_math: bool,
) -> Option<Operand> {
    let is_zero_i = |o: &Operand| matches!(o, Operand::ImmI(0));
    let is_one_i = |o: &Operand| matches!(o, Operand::ImmI(1));
    // `*f == 0.0` matches both +0.0 and -0.0; that is fine *given fast_math*
    // (x + -0.0 → x is wrong only for signalling NaNs, x * -0.0 → 0.0 is
    // wrong for sign as well — all behind the same gate).
    let is_zero_f = |o: &Operand| matches!(o, Operand::ImmF(f) if *f == 0.0);
    let is_one_f = |o: &Operand| matches!(o, Operand::ImmF(f) if *f == 1.0);
    match ty {
        Ty::S32 => match op {
            BinOp::Add => {
                if is_zero_i(a) {
                    return Some(*b);
                }
                if is_zero_i(b) {
                    return Some(*a);
                }
            }
            BinOp::Sub if is_zero_i(b) => {
                return Some(*a);
            }
            BinOp::Mul => {
                if is_one_i(a) {
                    return Some(*b);
                }
                if is_one_i(b) {
                    return Some(*a);
                }
                if is_zero_i(a) || is_zero_i(b) {
                    return Some(Operand::ImmI(0));
                }
            }
            BinOp::Div if is_one_i(b) => {
                return Some(*a);
            }
            // x % 1 == 0 for every x (wrapping_rem sign follows the
            // dividend; |x % 1| < 1).
            BinOp::Rem if is_one_i(b) => {
                return Some(Operand::ImmI(0));
            }
            BinOp::Min | BinOp::Max if OpKey::of(a) == OpKey::of(b) => {
                return Some(*a);
            }
            BinOp::And | BinOp::Or if OpKey::of(a) == OpKey::of(b) => {
                return Some(*a);
            }
            BinOp::Xor if OpKey::of(a) == OpKey::of(b) => {
                return Some(Operand::ImmI(0));
            }
            BinOp::And if is_zero_i(a) || is_zero_i(b) => {
                return Some(Operand::ImmI(0));
            }
            BinOp::Or | BinOp::Xor if is_zero_i(a) => {
                return Some(*b);
            }
            BinOp::Or | BinOp::Xor if is_zero_i(b) => {
                return Some(*a);
            }
            // Shift amounts are masked to 5 bits by both the interpreter and
            // the fold, so any immediate amount ≡ 0 (mod 32) is an identity.
            BinOp::Shl | BinOp::Shr if matches!(b, Operand::ImmI(v) if v & 31 == 0) => {
                return Some(*a);
            }
            _ => {}
        },
        Ty::F32 if fast_math => match op {
            BinOp::Add => {
                if is_zero_f(a) {
                    return Some(*b);
                }
                if is_zero_f(b) {
                    return Some(*a);
                }
            }
            BinOp::Sub if is_zero_f(b) => {
                return Some(*a);
            }
            BinOp::Mul => {
                if is_one_f(a) {
                    return Some(*b);
                }
                if is_one_f(b) {
                    return Some(*a);
                }
                if is_zero_f(a) || is_zero_f(b) {
                    return Some(Operand::ImmF(0.0));
                }
            }
            BinOp::Div if is_one_f(b) => {
                return Some(*a);
            }
            BinOp::Min | BinOp::Max if OpKey::of(a) == OpKey::of(b) => {
                return Some(*a);
            }
            _ => {}
        },
        // Predicate-typed and/or of a register with itself is exact.
        Ty::Pred => match op {
            BinOp::And | BinOp::Or if OpKey::of(a) == OpKey::of(b) => {
                return Some(*a);
            }
            _ => {}
        },
        _ => {}
    }
    None
}

/// Fold a comparison over two immediates. Bails out (`None`) when either
/// float operand is NaN — the interpreter's unordered-comparison results
/// (`Ne` true, everything else false) are then preserved by keeping the
/// instruction, not by folding it.
pub fn fold_cmp(cmp: CmpOp, a: &Operand, b: &Operand) -> Option<bool> {
    let ord = match (a, b) {
        (Operand::ImmI(x), Operand::ImmI(y)) => x.partial_cmp(y),
        (Operand::ImmF(x), Operand::ImmF(y)) => x.partial_cmp(y),
        _ => return None,
    }?;
    Some(match cmp {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    })
}

/// Fold a unary op over an immediate. Same-computation folds only (see
/// [`fold_bin`]); `Mov` is handled by copy propagation, not here.
pub fn fold_un(op: UnOp, ty: Ty, a: &Operand) -> Option<Operand> {
    match (ty, a) {
        (Ty::S32, Operand::ImmI(v)) => {
            let v = *v;
            let r = match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Abs => v.wrapping_abs(),
                UnOp::Not => !v,
                _ => return None,
            };
            Some(Operand::ImmI(r))
        }
        (Ty::F32, Operand::ImmF(v)) => {
            let v = *v;
            let r = match op {
                // Bit-preserving sign ops keep NaN payloads, like hardware.
                UnOp::Neg => -v,
                UnOp::Abs => v.abs(),
                // Arithmetic ops canonicalise, like every float instruction.
                UnOp::Exp => canon_f32(v.exp()),
                UnOp::Log => canon_f32(v.ln()),
                UnOp::Sqrt => canon_f32(v.sqrt()),
                UnOp::Rsqrt => canon_f32(1.0 / v.sqrt()),
                UnOp::Floor => canon_f32(v.floor()),
                _ => return None,
            };
            Some(Operand::ImmF(r))
        }
        _ => None,
    }
}

/// Copy propagation: `mov dst, a` with matching types is pure renaming under
/// SSA, so every use of `dst` can read `a` directly and the `mov` dies.
fn pass_copy_prop(k: &mut Kernel) -> bool {
    let mut subst: HashMap<u32, Operand> = HashMap::new();
    for b in &k.blocks {
        for i in &b.instrs {
            if let Instr::Un {
                op: UnOp::Mov,
                dst,
                a,
            } = i
            {
                if a.ty() == dst.ty {
                    subst.insert(dst.index, *a);
                }
            }
        }
    }
    if subst.is_empty() {
        return false;
    }
    for b in &mut k.blocks {
        b.instrs.retain(|i| {
            !matches!(i, Instr::Un { op: UnOp::Mov, dst, a } if a.ty() == dst.ty && subst.contains_key(&dst.index))
        });
        for i in &mut b.instrs {
            *i = rewrite_operands(i.clone(), &subst);
        }
        rewrite_terminator_pred(&mut b.terminator, &subst);
    }
    true
}

/// Look up the constant value of a predicate operand, if known.
fn pred_const(const_preds: &HashMap<u32, bool>, op: &Operand) -> Option<bool> {
    match op {
        Operand::Reg(r) => const_preds.get(&r.index).copied(),
        _ => None,
    }
}

/// Constant folding + algebraic simplification, with a global (SSA-sound)
/// substitution map. Constant predicates are *recorded* (collapsing their
/// `SelP`/`CondBr`/boolean-`Bin` consumers) but their defining instructions
/// are kept — DCE removes them once unused, so the kernel stays valid even
/// mid-pipeline.
fn pass_fold(k: &mut Kernel, fast_math: bool) -> bool {
    let mut changed = false;
    let mut subst: HashMap<u32, Operand> = HashMap::new();
    // Predicates that folded to a constant (used to simplify CondBr/SelP).
    let mut const_preds: HashMap<u32, bool> = HashMap::new();

    for b in &mut k.blocks {
        let mut kept: Vec<Instr> = Vec::with_capacity(b.instrs.len());
        for instr in b.instrs.drain(..) {
            let instr = rewrite_operands(instr, &subst);
            match &instr {
                Instr::Bin { op, dst, a, b: rhs } if dst.ty == Ty::Pred => {
                    let (ca, cb) = (pred_const(&const_preds, a), pred_const(&const_preds, rhs));
                    match (op, ca, cb) {
                        (_, Some(x), Some(y)) => {
                            let v = match op {
                                BinOp::And => x && y,
                                BinOp::Or => x || y,
                                BinOp::Xor => x ^ y,
                                _ => unreachable!("validated IR: pred ops are and/or/xor"),
                            };
                            const_preds.insert(dst.index, v);
                        }
                        // One side is the identity element: forward the other.
                        (BinOp::And, Some(true), _)
                        | (BinOp::Or, Some(false), _)
                        | (BinOp::Xor, Some(false), _) => {
                            subst.insert(dst.index, *rhs);
                            changed = true;
                            continue;
                        }
                        (BinOp::And, _, Some(true))
                        | (BinOp::Or, _, Some(false))
                        | (BinOp::Xor, _, Some(false)) => {
                            subst.insert(dst.index, *a);
                            changed = true;
                            continue;
                        }
                        // One side is absorbing: the result is constant.
                        (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => {
                            const_preds.insert(dst.index, false);
                        }
                        (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => {
                            const_preds.insert(dst.index, true);
                        }
                        _ => {
                            if let Some(v) = simplify_bin(*op, dst.ty, a, rhs, fast_math) {
                                subst.insert(dst.index, v);
                                changed = true;
                                continue;
                            }
                        }
                    }
                }
                Instr::Bin { op, dst, a, b: rhs } => {
                    if let Some(v) = fold_bin(*op, dst.ty, a, rhs)
                        .or_else(|| simplify_bin(*op, dst.ty, a, rhs, fast_math))
                    {
                        subst.insert(dst.index, v);
                        changed = true;
                        continue;
                    }
                }
                Instr::Un {
                    op: UnOp::Not,
                    dst,
                    a,
                } if dst.ty == Ty::Pred => {
                    if let Some(v) = pred_const(&const_preds, a) {
                        const_preds.insert(dst.index, !v);
                    }
                }
                Instr::Un { op, dst, a } => {
                    if let Some(v) = fold_un(*op, dst.ty, a) {
                        subst.insert(dst.index, v);
                        changed = true;
                        continue;
                    }
                }
                Instr::Cvt { dst, a } => match (dst.ty, a) {
                    (Ty::F32, Operand::ImmI(v)) => {
                        subst.insert(dst.index, Operand::ImmF(*v as f32));
                        changed = true;
                        continue;
                    }
                    (Ty::S32, Operand::ImmF(v)) => {
                        subst.insert(dst.index, Operand::ImmI(v.round() as i32));
                        changed = true;
                        continue;
                    }
                    _ => {}
                },
                Instr::SetP {
                    cmp,
                    dst,
                    a,
                    b: rhs,
                } => {
                    if let Some(v) = fold_cmp(*cmp, a, rhs) {
                        // Keep the instruction (DCE sweeps it once every
                        // consumer has collapsed) so no register is ever
                        // left dangling.
                        const_preds.insert(dst.index, v);
                    }
                }
                Instr::SelP {
                    dst,
                    a,
                    b: rhs,
                    pred,
                } => {
                    if let Some(&v) = const_preds.get(&pred.index) {
                        subst.insert(dst.index, if v { *a } else { *rhs });
                        changed = true;
                        continue;
                    }
                    if OpKey::of(a) == OpKey::of(rhs) {
                        subst.insert(dst.index, *a);
                        changed = true;
                        continue;
                    }
                }
                _ => {}
            }
            kept.push(instr);
        }
        b.instrs = kept;
        // Rewrite / simplify the terminator.
        let new_t = match b.terminator.clone() {
            Terminator::CondBr {
                pred,
                if_true,
                if_false,
            } => {
                let pred = match resolve(&subst, Operand::Reg(pred)) {
                    Operand::Reg(r) => r,
                    _ => pred,
                };
                if let Some(&v) = const_preds.get(&pred.index) {
                    Terminator::Br {
                        target: if v { if_true } else { if_false },
                    }
                } else if if_true == if_false {
                    Terminator::Br { target: if_true }
                } else {
                    Terminator::CondBr {
                        pred,
                        if_true,
                        if_false,
                    }
                }
            }
            t => t,
        };
        if new_t != b.terminator {
            b.terminator = new_t;
            changed = true;
        }
    }
    changed
}

/// Registers provably non-negative in every execution, via a fixed-point
/// dataflow over the SSA defs. Deliberately conservative: `Add`/`Mul` can
/// wrap, `Abs` of `i32::MIN` is negative, loads/params are unknown.
fn nonneg_regs(k: &Kernel) -> Vec<bool> {
    let mut nn = vec![false; k.num_vregs as usize];
    loop {
        let mut changed = false;
        for b in &k.blocks {
            for i in &b.instrs {
                let op_nn = |o: &Operand| match o {
                    Operand::Reg(r) => nn[r.index as usize],
                    Operand::ImmI(v) => *v >= 0,
                    Operand::ImmF(_) => false,
                };
                let (dst, v) = match i {
                    // Hardware coordinates are non-negative by definition.
                    Instr::Sreg { dst, .. } => (dst, true),
                    Instr::Bin { op, dst, a, b } if dst.ty == Ty::S32 => {
                        let v = match op {
                            // Sign bit clears if either operand's does.
                            BinOp::And => op_nn(a) || op_nn(b),
                            BinOp::Max => op_nn(a) || op_nn(b),
                            BinOp::Or | BinOp::Xor | BinOp::Min => op_nn(a) && op_nn(b),
                            // Arithmetic shift right preserves a clear sign.
                            BinOp::Shr => op_nn(a),
                            // x/y ≥ 0 when both ≥ 0 (0 on divide-by-zero);
                            // x%y follows the dividend's sign (0 on y == 0).
                            BinOp::Div => op_nn(a) && op_nn(b),
                            BinOp::Rem => op_nn(a),
                            // Add/Sub/Mul/Shl can wrap into the sign bit.
                            _ => false,
                        };
                        (dst, v)
                    }
                    Instr::SelP { dst, a, b, .. } if dst.ty == Ty::S32 => {
                        (dst, op_nn(a) && op_nn(b))
                    }
                    Instr::Un {
                        op: UnOp::Mov,
                        dst,
                        a,
                    } if dst.ty == Ty::S32 => (dst, op_nn(a)),
                    _ => continue,
                };
                if v && !nn[dst.index as usize] {
                    nn[dst.index as usize] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    nn
}

/// Strength reduction: rewrite power-of-two multiplies to shifts (exact for
/// wrapping i32), and power-of-two divides/remainders to arithmetic shifts /
/// masks **only** when the dividend is provably non-negative — `>>` rounds
/// toward −∞ while `Div` rounds toward zero, so they disagree on negative
/// inputs. Returns the number of instructions rewritten.
fn pass_strength_reduce(k: &mut Kernel) -> u64 {
    let nn = nonneg_regs(k);
    let reg_nn = |o: &Operand| match o {
        Operand::Reg(r) => nn[r.index as usize],
        Operand::ImmI(v) => *v >= 0,
        Operand::ImmF(_) => false,
    };
    // Powers of two ≥ 2 (1 is an identity handled by simplify_bin).
    let pow2 = |v: i32| -> Option<i32> {
        (v >= 2 && (v & (v - 1)) == 0).then(|| v.trailing_zeros() as i32)
    };
    let mut rewritten = 0u64;
    for blk in &mut k.blocks {
        for i in &mut blk.instrs {
            let Instr::Bin { op, dst, a, b } = i else {
                continue;
            };
            if dst.ty != Ty::S32 {
                continue;
            }
            match op {
                BinOp::Mul => {
                    // x * 2^k → x << k (either operand may be the constant).
                    let (x, k2) = match (&*a, &*b) {
                        (_, Operand::ImmI(v)) if pow2(*v).is_some() => (*a, pow2(*v).unwrap()),
                        (Operand::ImmI(v), _) if pow2(*v).is_some() => (*b, pow2(*v).unwrap()),
                        _ => continue,
                    };
                    *op = BinOp::Shl;
                    *a = x;
                    *b = Operand::ImmI(k2);
                    rewritten += 1;
                }
                BinOp::Div => {
                    if let Operand::ImmI(v) = *b {
                        if let Some(k2) = pow2(v) {
                            if reg_nn(a) {
                                *op = BinOp::Shr;
                                *b = Operand::ImmI(k2);
                                rewritten += 1;
                            }
                        }
                    }
                }
                BinOp::Rem => {
                    if let Operand::ImmI(v) = *b {
                        if pow2(v).is_some() && reg_nn(a) {
                            *op = BinOp::And;
                            *b = Operand::ImmI(v - 1);
                            rewritten += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    rewritten
}

/// Value-numbering key of `instr` plus whether it is a load (loads use the
/// wider reuse window).
fn vn_key(instr: &Instr) -> Option<(VnKey, bool)> {
    match instr {
        Instr::Bin { op, dst, a, b } => {
            let (ka, kb) = canonical_pair(*op, a, b);
            Some((VnKey::Bin(*op, dst.ty, ka, kb), false))
        }
        Instr::Mad { dst, a, b, c } => {
            let mut ab = [OpKey::of(a), OpKey::of(b)];
            ab.sort();
            Some((VnKey::Mad(dst.ty, ab[0], ab[1], OpKey::of(c)), false))
        }
        Instr::Un { op, dst, a } => Some((VnKey::Un(*op, dst.ty, OpKey::of(a)), false)),
        Instr::Cvt { dst, a } => Some((VnKey::Cvt(dst.ty, OpKey::of(a)), false)),
        Instr::SetP { cmp, a, b, .. } => {
            // Canonicalise using the swapped comparison.
            let (ka, kb) = (OpKey::of(a), OpKey::of(b));
            let key = if kb < ka {
                VnKey::SetP(cmp.swapped(), kb, ka)
            } else {
                VnKey::SetP(*cmp, ka, kb)
            };
            Some((key, false))
        }
        Instr::SelP { dst, a, b, pred } => Some((
            VnKey::SelP(dst.ty, OpKey::of(a), OpKey::of(b), pred.index),
            false,
        )),
        Instr::Sreg { sreg, .. } => Some((VnKey::Sreg(*sreg), false)),
        Instr::LdParam { index, .. } => Some((VnKey::LdParam(*index), false)),
        Instr::Ld { buf, addr, .. } => Some((VnKey::Ld(*buf, OpKey::of(addr)), true)),
        Instr::Tex { buf, x, y, .. } => Some((VnKey::Tex(*buf, OpKey::of(x), OpKey::of(y)), true)),
        Instr::St { .. } | Instr::Lds { .. } | Instr::Sts { .. } | Instr::Bar => None,
    }
}

/// Value numbering with the global (SSA-sound) substitution map.
///
/// `global == false` is the legacy local CSE: one value table per block,
/// positions counted within the block. `global == true` is dominator-aware
/// GVN: blocks are visited in reverse post-order (so every dominator is
/// visited before the blocks it dominates), lookups walk the
/// immediate-dominator chain, and positions are counted globally so the
/// rematerialization windows span block boundaries. With no phi nodes every
/// SSA value is loop-invariant, so reusing a dominating definition is always
/// sound.
fn pass_value_number(k: &mut Kernel, global: bool, window: usize, window_loads: usize) -> bool {
    let mut changed = false;
    let mut subst: HashMap<u32, Operand> = HashMap::new();
    let n = k.blocks.len();
    let (order, idom) = if global {
        let cfg = Cfg::new(k);
        (cfg.rpo(), cfg.idom())
    } else {
        ((0..n).map(|i| BlockId(i as u32)).collect(), vec![None; n])
    };
    // Value tables: key -> (register, kept-position of its definition).
    let mut tables: Vec<HashMap<VnKey, (VReg, usize)>> = vec![HashMap::new(); n];
    let mut pos: usize = 0;
    for bid in order {
        let bi = bid.0 as usize;
        if !global {
            pos = 0; // local windows are measured within the block
        }
        let block = &mut k.blocks[bi];
        let mut kept: Vec<Instr> = Vec::with_capacity(block.instrs.len());
        for instr in block.instrs.drain(..) {
            let instr = rewrite_operands(instr, &subst);
            if let Some((key, is_load)) = vn_key(&instr) {
                let dst = instr
                    .dst()
                    .expect("numbered instructions define a register");
                let w = if is_load { window_loads } else { window };
                // Find the nearest dominating definition of this value; a
                // stale (out-of-window) one shadows farther ones, forcing
                // rematerialization exactly as the local pass does.
                let mut found = None;
                let mut cur = Some(bid);
                while let Some(c) = cur {
                    if let Some(&(prev, def_pos)) = tables[c.0 as usize].get(&key) {
                        if pos.saturating_sub(def_pos) <= w {
                            found = Some(prev);
                        }
                        break;
                    }
                    cur = if global { idom[c.0 as usize] } else { None };
                }
                if let Some(prev) = found {
                    subst.insert(dst.index, Operand::Reg(prev));
                    changed = true;
                    continue;
                }
                tables[bi].insert(key, (dst, pos));
            }
            kept.push(instr);
            pos += 1;
        }
        block.instrs = kept;
    }
    if !subst.is_empty() {
        for b in &mut k.blocks {
            rewrite_terminator_pred(&mut b.terminator, &subst);
        }
    }
    changed
}

fn canonical_pair(op: BinOp, a: &Operand, b: &Operand) -> (OpKey, OpKey) {
    let (ka, kb) = (OpKey::of(a), OpKey::of(b));
    if op.commutative() && kb < ka {
        (kb, ka)
    } else {
        (ka, kb)
    }
}

/// Point a `CondBr` predicate at its substituted register, if any.
fn rewrite_terminator_pred(t: &mut Terminator, subst: &HashMap<u32, Operand>) {
    if let Terminator::CondBr { pred, .. } = t {
        if let Operand::Reg(r) = resolve(subst, Operand::Reg(*pred)) {
            *pred = r;
        }
    }
}

fn rewrite_operands(instr: Instr, subst: &HashMap<u32, Operand>) -> Instr {
    let f = |op: Operand| resolve(subst, op);
    let fr = |r: VReg| match resolve(subst, Operand::Reg(r)) {
        Operand::Reg(nr) => nr,
        _ => r, // predicate folded to constant; handled by caller
    };
    match instr {
        Instr::Bin { op, dst, a, b } => Instr::Bin {
            op,
            dst,
            a: f(a),
            b: f(b),
        },
        Instr::Mad { dst, a, b, c } => Instr::Mad {
            dst,
            a: f(a),
            b: f(b),
            c: f(c),
        },
        Instr::Un { op, dst, a } => Instr::Un { op, dst, a: f(a) },
        Instr::Cvt { dst, a } => Instr::Cvt { dst, a: f(a) },
        Instr::SetP { cmp, dst, a, b } => Instr::SetP {
            cmp,
            dst,
            a: f(a),
            b: f(b),
        },
        Instr::SelP { dst, a, b, pred } => Instr::SelP {
            dst,
            a: f(a),
            b: f(b),
            pred: fr(pred),
        },
        Instr::Sreg { .. } | Instr::LdParam { .. } => instr,
        Instr::Ld { dst, buf, addr } => Instr::Ld {
            dst,
            buf,
            addr: f(addr),
        },
        Instr::Tex { dst, buf, x, y } => Instr::Tex {
            dst,
            buf,
            x: f(x),
            y: f(y),
        },
        Instr::St { buf, addr, val } => Instr::St {
            buf,
            addr: f(addr),
            val: f(val),
        },
        Instr::Lds { dst, addr } => Instr::Lds { dst, addr: f(addr) },
        Instr::Sts { addr, val } => Instr::Sts {
            addr: f(addr),
            val: f(val),
        },
        Instr::Bar => Instr::Bar,
    }
}

/// Remove pure instructions whose destination is never read (worklist to a
/// fixpoint so chains of dead computations all disappear). The used-register
/// map is global, so this is cross-block by construction; side-effecting
/// instructions (`st`/`ld`/`tex`/`lds`/`sts`/`bar`) and registers feeding
/// any block's terminator always survive.
fn pass_dce(k: &mut Kernel) -> bool {
    let mut any = false;
    loop {
        let mut used = vec![false; k.num_vregs as usize];
        for b in &k.blocks {
            for i in &b.instrs {
                for s in i.sources() {
                    used[s.index as usize] = true;
                }
            }
            if let Some(p) = b.terminator.pred() {
                used[p.index as usize] = true;
            }
        }
        let mut removed = false;
        for b in &mut k.blocks {
            let before = b.instrs.len();
            b.instrs.retain(|i| {
                if !i.is_pure() {
                    return true;
                }
                match i.dst() {
                    Some(d) => used[d.index as usize],
                    None => true,
                }
            });
            removed |= b.instrs.len() != before;
        }
        any |= removed;
        if !removed {
            break;
        }
    }
    any
}

/// CFG simplification:
/// 1. collapse `cond_br p, T, T` to `br T`;
/// 2. thread jumps through empty forwarding blocks (`X: br Y` with no
///    instructions — every edge into `X` is redirected to `Y`);
/// 3. merge `br X` into `ret` when `X` is an empty `ret` block;
/// 4. remove blocks left unreachable (renumbering `BlockId`s, since
///    `validate` treats unreachable blocks as errors).
///
/// Execution semantics are preserved exactly — only branch hops disappear —
/// but block ids shift, so anything holding pre-optimisation `BlockId`s
/// (e.g. region paths) must re-resolve them by label afterwards.
fn pass_cfg_simplify(k: &mut Kernel) -> bool {
    let mut changed = false;
    let n = k.blocks.len();

    // (1) Equal-target conditional branches never diverge.
    for b in &mut k.blocks {
        if let Terminator::CondBr {
            if_true, if_false, ..
        } = b.terminator
        {
            if if_true == if_false {
                b.terminator = Terminator::Br { target: if_true };
                changed = true;
            }
        }
    }

    // (2) Jump threading. `fwd[x] = Some(y)` when block x is an empty
    // `br y` (x != y). Chains are resolved with a hop cap so that a cycle of
    // empty blocks (an intentional infinite loop) is left alone.
    let fwd: Vec<Option<BlockId>> = k
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| match (&b.instrs[..], &b.terminator) {
            ([], Terminator::Br { target }) if target.0 as usize != i => Some(*target),
            _ => None,
        })
        .collect();
    let resolve_fwd = |mut t: BlockId| -> BlockId {
        let mut hops = 0;
        while let Some(next) = fwd[t.0 as usize] {
            if hops >= n {
                break;
            }
            t = next;
            hops += 1;
        }
        t
    };
    for b in &mut k.blocks {
        match &mut b.terminator {
            Terminator::Br { target } => {
                let r = resolve_fwd(*target);
                if r != *target {
                    *target = r;
                    changed = true;
                }
            }
            Terminator::CondBr {
                if_true, if_false, ..
            } => {
                let (rt, rf) = (resolve_fwd(*if_true), resolve_fwd(*if_false));
                if rt != *if_true || rf != *if_false {
                    *if_true = rt;
                    *if_false = rf;
                    changed = true;
                }
                if rt == rf {
                    b.terminator = Terminator::Br { target: rt };
                }
            }
            Terminator::Ret => {}
        }
    }

    // (3) A branch to an empty `ret` block is itself a `ret` — but only when
    // that block has no other predecessors, so the rewrite leaves it
    // unreachable and step (4) removes it. Merging one edge into a *shared*
    // ret block would leave the block alive in the stream (and in region
    // paths) while the rewritten warp no longer executes its `Ret`,
    // breaking the exactness of the static per-region model.
    let empty_ret: Vec<bool> = k
        .blocks
        .iter()
        .map(|b| b.instrs.is_empty() && matches!(b.terminator, Terminator::Ret))
        .collect();
    let mut pred_count = vec![0u32; n];
    for b in &k.blocks {
        match b.terminator {
            Terminator::Br { target } => pred_count[target.0 as usize] += 1,
            Terminator::CondBr {
                if_true, if_false, ..
            } => {
                pred_count[if_true.0 as usize] += 1;
                pred_count[if_false.0 as usize] += 1;
            }
            Terminator::Ret => {}
        }
    }
    for b in &mut k.blocks {
        if let Terminator::Br { target } = b.terminator {
            let t = target.0 as usize;
            if empty_ret[t] && t != 0 && pred_count[t] == 1 {
                b.terminator = Terminator::Ret;
                changed = true;
            }
        }
    }

    // (4) Drop unreachable blocks and renumber.
    let cfg = Cfg::new(k);
    if cfg.reachable.iter().any(|&r| !r) {
        let mut remap: Vec<Option<BlockId>> = vec![None; n];
        let mut next = 0u32;
        for (slot, &reachable) in remap.iter_mut().zip(&cfg.reachable) {
            if reachable {
                *slot = Some(BlockId(next));
                next += 1;
            }
        }
        let mut old = std::mem::take(&mut k.blocks);
        for (i, mut b) in old.drain(..).enumerate() {
            if remap[i].is_none() {
                continue;
            }
            let m = |t: BlockId| remap[t.0 as usize].expect("successor of reachable block");
            b.terminator = match b.terminator {
                Terminator::Br { target } => Terminator::Br { target: m(target) },
                Terminator::CondBr {
                    pred,
                    if_true,
                    if_false,
                } => Terminator::CondBr {
                    pred,
                    if_true: m(if_true),
                    if_false: m(if_false),
                },
                Terminator::Ret => Terminator::Ret,
            };
            k.blocks.push(b);
        }
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::cost::{InstrCategory, InstrHistogram};
    use crate::instr::SReg;

    #[test]
    fn cse_removes_duplicate_address_checks() {
        // Mimic two pixel accesses both clamping the same x coordinate.
        let mut b = IrBuilder::new("k", 2);
        let x = b.sreg(SReg::TidX);
        let c1 = b.bin(BinOp::Max, Ty::S32, x, 0i32);
        let c2 = b.bin(BinOp::Max, Ty::S32, x, 0i32); // duplicate
        let a1 = b.bin(BinOp::Add, Ty::S32, c1, 1i32);
        let a2 = b.bin(BinOp::Add, Ty::S32, c2, 1i32); // becomes duplicate after CSE
        let v1 = b.ld(Ty::F32, 0, a1);
        let v2 = b.ld(Ty::F32, 0, a2);
        let s = b.bin(BinOp::Add, Ty::F32, v1, v2);
        b.st(1, a1, s);
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        let h = InstrHistogram::of_kernel(&opt);
        assert_eq!(h.get(InstrCategory::Max), 1, "duplicate max must be CSE'd");
        assert_eq!(h.get(InstrCategory::Add), 2, "one address add + float add");
        assert_eq!(
            h.get(InstrCategory::Ld),
            1,
            "identical restrict-loads collapse"
        );
    }

    #[test]
    fn no_cse_config_keeps_duplicates() {
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
        let opt = optimize(&k, OptConfig::no_cse());
        assert_eq!(InstrHistogram::of_kernel(&opt).get(InstrCategory::Max), 2);
    }

    #[test]
    fn constant_folding_collapses_immediates() {
        let mut b = IrBuilder::new("k", 1);
        let a = b.bin(BinOp::Add, Ty::S32, 3i32, 4i32); // 7
        let m = b.bin(BinOp::Mul, Ty::S32, a, 2i32); // 14
        b.st(0, m, Operand::ImmF(1.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        assert_eq!(opt.blocks[0].instrs.len(), 1);
        match &opt.blocks[0].instrs[0] {
            Instr::St { addr, .. } => assert_eq!(*addr, Operand::ImmI(14)),
            other => panic!("expected st, got {other:?}"),
        }
    }

    #[test]
    fn algebraic_identities() {
        let mut b = IrBuilder::new("k", 1);
        let x = b.sreg(SReg::TidX);
        let a = b.bin(BinOp::Add, Ty::S32, x, 0i32); // = x
        let m = b.bin(BinOp::Mul, Ty::S32, a, 1i32); // = x
        b.st(0, m, Operand::ImmF(0.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        // Only the sreg read and the store survive.
        assert_eq!(opt.blocks[0].instrs.len(), 2);
    }

    #[test]
    fn float_identities_require_fast_math() {
        // x + 0.0 and x * 1.0 must NOT fold by default: they diverge
        // bit-wise from the interpreter for -0.0 / signalling NaNs.
        let build = || {
            let mut b = IrBuilder::new("k", 2);
            let v = b.ld(Ty::F32, 0, 0i32);
            let a = b.bin(BinOp::Add, Ty::F32, v, 0.0f32);
            let m = b.bin(BinOp::Mul, Ty::F32, a, 1.0f32);
            b.st(1, 0i32, m);
            b.ret();
            b.finish()
        };
        let default = optimize(&build(), OptConfig::pipeline());
        let h = InstrHistogram::of_kernel(&default);
        assert_eq!(h.get(InstrCategory::Add), 1, "x+0.0 kept by default");
        assert_eq!(h.get(InstrCategory::Mul), 1, "x*1.0 kept by default");
        let fast = optimize(&build(), OptConfig::pipeline().with_fast_math());
        let h = InstrHistogram::of_kernel(&fast);
        assert_eq!(h.get(InstrCategory::Add), 0, "fast-math folds x+0.0");
        assert_eq!(h.get(InstrCategory::Mul), 0, "fast-math folds x*1.0");
    }

    #[test]
    fn dce_removes_unused_chains() {
        let mut b = IrBuilder::new("k", 1);
        let x = b.sreg(SReg::TidX);
        let dead1 = b.bin(BinOp::Mul, Ty::S32, x, 5i32);
        let _dead2 = b.bin(BinOp::Add, Ty::S32, dead1, 7i32);
        b.st(0, x, Operand::ImmF(2.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        assert_eq!(opt.blocks[0].instrs.len(), 2); // sreg + st
    }

    #[test]
    fn loads_and_stores_survive_dce() {
        let mut b = IrBuilder::new("k", 2);
        // Load whose result is unused: must NOT be eliminated (may fault /
        // has observable memory behaviour in the performance model).
        let _v = b.ld(Ty::F32, 0, 3i32);
        b.st(1, 0i32, Operand::ImmF(1.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        let h = InstrHistogram::of_kernel(&opt);
        assert_eq!(h.get(InstrCategory::Ld), 1);
        assert_eq!(h.get(InstrCategory::St), 1);
    }

    #[test]
    fn loads_and_stores_survive_pipeline_across_blocks() {
        // Multi-block version: unused loads, stores on both arms of a
        // diamond, and the predicate chain feeding the branch must all
        // survive the full cross-block pipeline (GVN + DCE + CFG simplify).
        let mut b = IrBuilder::new("k", 2);
        let t = b.create_block("t");
        let f = b.create_block("f");
        let done = b.create_block("done");
        let x = b.sreg(SReg::TidX);
        let _unused = b.ld(Ty::F32, 0, x); // dead value, live memory op
        let p = b.setp(CmpOp::Lt, x, 16i32);
        b.cond_br(p, t, f);
        b.switch_to(t);
        b.st(1, x, Operand::ImmF(1.0));
        b.br(done);
        b.switch_to(f);
        b.st(1, x, Operand::ImmF(2.0));
        b.br(done);
        b.switch_to(done);
        let _unused2 = b.ld(Ty::F32, 0, 7i32);
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        let h = InstrHistogram::of_kernel(&opt);
        assert_eq!(h.get(InstrCategory::Ld), 2, "unused loads survive");
        assert_eq!(h.get(InstrCategory::St), 2, "both arms' stores survive");
        assert_eq!(h.get(InstrCategory::Setp), 1, "branch predicate survives");
    }

    #[test]
    fn constant_predicate_flattens_branch() {
        let mut b = IrBuilder::new("k", 1);
        let t = b.create_block("t");
        let f = b.create_block("f");
        let p = b.setp(CmpOp::Lt, 1i32, 2i32); // always true
        b.cond_br(p, t, f);
        b.switch_to(t);
        b.st(0, 0i32, Operand::ImmF(1.0));
        b.ret();
        b.switch_to(f);
        b.st(0, 0i32, Operand::ImmF(2.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        assert!(matches!(
            opt.blocks[0].terminator,
            Terminator::Br { target } if target == crate::kernel::BlockId(1)
        ));
        // The pipeline also removes the unreachable false arm and validates.
        let opt = optimize(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        assert_eq!(opt.blocks.len(), 2, "false arm removed");
        let h = InstrHistogram::of_kernel(&opt);
        assert_eq!(h.get(InstrCategory::St), 1);
        assert_eq!(h.get(InstrCategory::Setp), 0, "folded predicate swept");
    }

    #[test]
    fn commutative_canonicalisation() {
        let mut b = IrBuilder::new("k", 1);
        let x = b.sreg(SReg::TidX);
        let y = b.sreg(SReg::TidY);
        let a = b.bin(BinOp::Add, Ty::S32, x, y);
        let c = b.bin(BinOp::Add, Ty::S32, y, x); // same value, swapped
        let s = b.bin(BinOp::Mul, Ty::S32, a, c);
        b.st(0, s, Operand::ImmF(0.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        let h = InstrHistogram::of_kernel(&opt);
        assert_eq!(h.get(InstrCategory::Add), 1);
        // mul x*x simplification is not applied (not an identity), so 1 mul.
        assert_eq!(h.get(InstrCategory::Mul), 1);
    }

    #[test]
    fn setp_swapped_operands_cse() {
        let mut b = IrBuilder::new("k", 1);
        let x = b.sreg(SReg::TidX);
        let p1 = b.setp(CmpOp::Lt, x, 5i32);
        let p2 = b.setp(CmpOp::Gt, 5i32, x); // same predicate
        let s1 = b.selp(Ty::S32, 1i32, 0i32, p1);
        let s2 = b.selp(Ty::S32, 1i32, 0i32, p2);
        let s = b.bin(BinOp::Add, Ty::S32, s1, s2);
        b.st(0, s, Operand::ImmF(0.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        let h = InstrHistogram::of_kernel(&opt);
        assert_eq!(h.get(InstrCategory::Setp), 1);
        assert_eq!(
            h.get(InstrCategory::Selp),
            1,
            "identical selects collapse too"
        );
    }

    #[test]
    fn mov_copy_propagation() {
        let mut b = IrBuilder::new("k", 1);
        let x = b.sreg(SReg::TidX);
        let m = b.mov(Ty::S32, x);
        let m2 = b.mov(Ty::S32, m);
        b.st(0, m2, Operand::ImmF(0.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::full());
        assert_eq!(opt.blocks[0].instrs.len(), 2); // sreg + st
    }

    #[test]
    fn strength_reduction_mul_to_shift() {
        let mut b = IrBuilder::new("k", 1);
        let x = b.sreg(SReg::TidX);
        let m = b.bin(BinOp::Mul, Ty::S32, x, 8i32); // -> x << 3
        let m2 = b.bin(BinOp::Mul, Ty::S32, 4i32, x); // -> x << 2 (commuted)
        let s = b.bin(BinOp::Add, Ty::S32, m, m2);
        b.st(0, s, Operand::ImmF(0.0));
        b.ret();
        let k = b.finish();
        let (opt, stats) = optimize_with_stats(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        let h = InstrHistogram::of_kernel(&opt);
        assert_eq!(h.get(InstrCategory::Mul), 0);
        assert_eq!(h.get(InstrCategory::Shift), 2);
        assert_eq!(stats.strength_rewrites, 2);
    }

    #[test]
    fn strength_reduction_div_needs_nonneg_proof() {
        // tid.x is non-negative (sreg) -> div/rem reduce to shift/mask.
        // A loaded parameter has unknown sign -> div must stay a div,
        // because >> rounds toward -inf while / rounds toward zero.
        let mut b = IrBuilder::new("k", 1);
        let pw = b.param("w", Ty::S32);
        let x = b.sreg(SReg::TidX);
        let w = b.ld_param(pw);
        let d1 = b.bin(BinOp::Div, Ty::S32, x, 4i32); // provable -> shr
        let r1 = b.bin(BinOp::Rem, Ty::S32, x, 32i32); // provable -> and
        let d2 = b.bin(BinOp::Div, Ty::S32, w, 4i32); // unknown sign -> keep
        let s1 = b.bin(BinOp::Add, Ty::S32, d1, r1);
        let s2 = b.bin(BinOp::Add, Ty::S32, s1, d2);
        b.st(0, s2, Operand::ImmF(0.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        let h = InstrHistogram::of_kernel(&opt);
        assert_eq!(h.get(InstrCategory::Div), 1, "unproven div survives");
        assert_eq!(h.get(InstrCategory::Shift), 1, "x/4 -> x>>2");
        assert_eq!(h.get(InstrCategory::Logic), 1, "x%32 -> x&31");
    }

    #[test]
    fn strength_reduced_forms_agree_with_division() {
        // The proof obligation, checked exhaustively over a sign boundary:
        // for non-negative x, x/2^k == x>>k and x%2^k == x&(2^k-1) — and for
        // negative x they genuinely disagree, which is why the proof exists.
        for x in -64i32..=64 {
            for k in [1u32, 2, 3] {
                let p = 1i32 << k;
                if x >= 0 {
                    assert_eq!(x / p, x >> k);
                    assert_eq!(x % p, x & (p - 1));
                } else if x % p != 0 {
                    assert_ne!(x / p, x >> k, "negative non-multiples must disagree");
                    assert_ne!(x % p, x & (p - 1));
                } else {
                    assert_eq!(x / p, x >> k, "negative exact multiples agree");
                }
            }
        }
        // Concrete counterexample documenting the rounding mismatch.
        assert_ne!(-3i32 / 2, -3i32 >> 1, "div rounds to zero, shr to -inf");
    }

    #[test]
    fn gvn_reuses_values_across_blocks() {
        // The same clamp is computed in both arms of a diamond; GVN hoists
        // nothing but lets the second arm reuse... no — arms don't dominate
        // each other. The reuse happens when the entry computes it and both
        // arms recompute: entry dominates both arms, so both collapse.
        let mut b = IrBuilder::new("k", 2);
        let t = b.create_block("t");
        let f = b.create_block("f");
        let done = b.create_block("done");
        let x = b.sreg(SReg::TidX);
        let c0 = b.bin(BinOp::Max, Ty::S32, x, 0i32);
        let p = b.setp(CmpOp::Lt, x, 8i32);
        b.cond_br(p, t, f);
        b.switch_to(t);
        let c1 = b.bin(BinOp::Max, Ty::S32, x, 0i32); // dup of c0
        b.st(1, c1, Operand::ImmF(1.0));
        b.br(done);
        b.switch_to(f);
        let c2 = b.bin(BinOp::Max, Ty::S32, x, 0i32); // dup of c0
        b.st(1, c2, Operand::ImmF(2.0));
        b.br(done);
        b.switch_to(done);
        b.st(1, c0, Operand::ImmF(3.0));
        b.ret();
        let k = b.finish();
        // Local CSE can't see across blocks; GVN collapses both duplicates.
        let local = optimize(&k, OptConfig::full());
        assert_eq!(InstrHistogram::of_kernel(&local).get(InstrCategory::Max), 3);
        let opt = optimize(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        assert_eq!(InstrHistogram::of_kernel(&opt).get(InstrCategory::Max), 1);
    }

    #[test]
    fn gvn_does_not_merge_across_sibling_branches() {
        // Values computed in one arm must NOT be reused in the sibling arm
        // (neither dominates the other).
        let mut b = IrBuilder::new("k", 2);
        let t = b.create_block("t");
        let f = b.create_block("f");
        let done = b.create_block("done");
        let x = b.sreg(SReg::TidX);
        let p = b.setp(CmpOp::Lt, x, 8i32);
        b.cond_br(p, t, f);
        b.switch_to(t);
        let a1 = b.bin(BinOp::Add, Ty::S32, x, 7i32);
        b.st(1, a1, Operand::ImmF(1.0));
        b.br(done);
        b.switch_to(f);
        let a2 = b.bin(BinOp::Add, Ty::S32, x, 7i32); // same value, sibling arm
        b.st(1, a2, Operand::ImmF(2.0));
        b.br(done);
        b.switch_to(done);
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        assert_eq!(
            InstrHistogram::of_kernel(&opt).get(InstrCategory::Add),
            2,
            "sibling arms keep their own copies"
        );
    }

    #[test]
    fn cfg_simplify_threads_empty_blocks() {
        // diamond whose arms are empty forwarding blocks: after threading,
        // the branch targets the merge directly on both edges, collapses to
        // an unconditional branch, and the arms are removed.
        let mut b = IrBuilder::new("k", 1);
        let t = b.create_block("t");
        let f = b.create_block("f");
        let done = b.create_block("done");
        let x = b.sreg(SReg::TidX);
        let p = b.setp(CmpOp::Lt, x, 8i32);
        b.cond_br(p, t, f);
        b.switch_to(t);
        b.br(done);
        b.switch_to(f);
        b.br(done);
        b.switch_to(done);
        b.st(0, x, Operand::ImmF(1.0));
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        assert_eq!(opt.blocks.len(), 2, "empty arms threaded away");
        assert!(matches!(
            opt.blocks[0].terminator,
            Terminator::Br { .. } | Terminator::Ret
        ));
    }

    #[test]
    fn cfg_simplify_merges_branch_to_empty_ret() {
        let mut b = IrBuilder::new("k", 1);
        let exit = b.create_block("exit");
        let x = b.sreg(SReg::TidX);
        b.st(0, x, Operand::ImmF(1.0));
        b.br(exit);
        b.switch_to(exit);
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        assert_eq!(opt.blocks.len(), 1, "empty exit merged into ret");
        assert!(matches!(opt.blocks[0].terminator, Terminator::Ret));
    }

    #[test]
    fn cfg_simplify_keeps_shared_empty_ret_block() {
        // Two arms funnel into one empty `ret` block. Rewriting either `br`
        // into a direct `ret` would leave the shared block alive while some
        // warps stop executing its `Ret` — the static per-region instruction
        // model would then overcount by one per warp (the regression behind
        // the per-region profiling exactness test). The merge must refuse.
        let mut b = IrBuilder::new("k", 1);
        let t = b.create_block("t");
        let f = b.create_block("f");
        let exit = b.create_block("exit");
        let x = b.sreg(SReg::TidX);
        let p = b.setp(CmpOp::Lt, x, 8i32);
        b.cond_br(p, t, f);
        b.switch_to(t);
        b.st(0, x, Operand::ImmF(1.0));
        b.br(exit);
        b.switch_to(f);
        b.st(0, x, Operand::ImmF(2.0));
        b.br(exit);
        b.switch_to(exit);
        b.ret();
        let k = b.finish();
        let opt = optimize(&k, OptConfig::pipeline());
        crate::validate::assert_valid(&opt);
        assert_eq!(opt.blocks.len(), 4, "shared exit block must survive");
        let rets = opt
            .blocks
            .iter()
            .filter(|b| matches!(b.terminator, Terminator::Ret))
            .count();
        assert_eq!(rets, 1, "exactly the shared exit returns");
    }

    #[test]
    fn pipeline_is_idempotent_and_reaches_fixed_point() {
        // A kernel exercising every pass: folds, movs, strength-reducible
        // ops, cross-block duplicates, a constant branch, dead code.
        let mut b = IrBuilder::new("k", 2);
        let t = b.create_block("t");
        let f = b.create_block("f");
        let done = b.create_block("done");
        let x = b.sreg(SReg::TidX);
        let xm = b.mov(Ty::S32, x);
        let base = b.bin(BinOp::Mul, Ty::S32, xm, 4i32);
        let _dead = b.bin(BinOp::Add, Ty::S32, base, 9i32);
        let p = b.setp(CmpOp::Lt, 3i32, 5i32); // constant: always true
        b.cond_br(p, t, f);
        b.switch_to(t);
        let b2 = b.bin(BinOp::Mul, Ty::S32, x, 4i32); // dup of base
        let v = b.ld(Ty::F32, 0, b2);
        b.st(1, b2, v);
        b.br(done);
        b.switch_to(f);
        b.st(1, 0i32, Operand::ImmF(9.0));
        b.br(done);
        b.switch_to(done);
        b.ret();
        let k = b.finish();
        let (once, stats) = optimize_with_stats(&k, OptConfig::pipeline());
        assert!(stats.reached_fixed_point, "{stats:?}");
        assert!(stats.iterations <= MAX_OPT_ITERATIONS);
        crate::validate::assert_valid(&once);
        let (twice, stats2) = optimize_with_stats(&once, OptConfig::pipeline());
        assert_eq!(once, twice, "pipeline output is a fixed point");
        assert_eq!(stats2.iterations, 1, "second run converges immediately");
        assert!(stats2.reached_fixed_point);
        assert_eq!(stats2.removed_total(), 0);
    }

    #[test]
    fn window_invariant_clamped_by_constructors() {
        let c = OptConfig::pipeline().with_windows(100, 10);
        assert_eq!(c.cse_window, 100);
        assert_eq!(c.cse_window_loads, 100, "loads window clamped up");
        let c = OptConfig::pipeline().with_windows(10, 100);
        assert_eq!(c.cse_window_loads, 100, "valid windows untouched");
        for c in [
            OptConfig::pipeline(),
            OptConfig::full(),
            OptConfig::none(),
            OptConfig::no_cse(),
            OptConfig::unbounded_cse(),
        ] {
            assert!(c.cse_window_loads >= c.cse_window, "{c:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "OptConfig invariant violated")]
    fn window_invariant_debug_asserted_in_optimize() {
        // A hand-rolled config violating the documented invariant trips the
        // debug assertion in optimize().
        let bad = OptConfig {
            cse_window: 50,
            cse_window_loads: 10,
            ..OptConfig::full()
        };
        let mut b = IrBuilder::new("k", 1);
        let x = b.sreg(SReg::TidX);
        b.st(0, x, Operand::ImmF(0.0));
        b.ret();
        let _ = optimize(&b.finish(), bad);
    }

    #[test]
    fn optimization_is_idempotent() {
        let mut b = IrBuilder::new("k", 2);
        let x = b.sreg(SReg::TidX);
        let c1 = b.bin(BinOp::Max, Ty::S32, x, 0i32);
        let c2 = b.bin(BinOp::Min, Ty::S32, c1, 63i32);
        let v = b.ld(Ty::F32, 0, c2);
        let w = b.bin(BinOp::Mul, Ty::F32, v, 0.5f32);
        b.st(1, c2, w);
        b.ret();
        let k = b.finish();
        let once = optimize(&k, OptConfig::full());
        let twice = optimize(&once, OptConfig::full());
        assert_eq!(once, twice);
    }

    #[test]
    fn stats_account_for_removals() {
        let mut b = IrBuilder::new("k", 1);
        let a = b.bin(BinOp::Add, Ty::S32, 3i32, 4i32);
        let m = b.mov(Ty::S32, a);
        let dead = b.bin(BinOp::Mul, Ty::S32, m, 8i32);
        let _dead2 = b.bin(BinOp::Add, Ty::S32, dead, 1i32);
        b.st(0, m, Operand::ImmF(1.0));
        b.ret();
        let k = b.finish();
        let (opt, stats) = optimize_with_stats(&k, OptConfig::pipeline());
        assert_eq!(stats.before_instrs, k.static_len() as u64);
        assert_eq!(stats.after_instrs, opt.static_len() as u64);
        assert_eq!(
            stats.removed_total(),
            stats.before_instrs - stats.after_instrs
        );
        assert!(stats.fold_removed + stats.copy_prop_removed + stats.dce_removed >= 3);
        assert!(stats.reached_fixed_point);
    }
}
