#![allow(clippy::needless_range_loop)] // lane loops index several arrays at once

//! Guarded trace replay: record one block's warp schedule on the decoded
//! interpreter, then execute every sibling block of the same class as a
//! straight line of data ops — no branch evaluation, no reconvergence
//! stacks, no per-access coalescing re-validation, and (the part that makes
//! replay materially faster than decoded execution) no re-execution of the
//! address arithmetic at all.
//!
//! The paper's iteration-space partitioning argument (and the repo's own
//! `RegionSampled` mode) rests on control flow being coordinate-uniform
//! within each of the nine ISP regions. Exhaustive simulation previously
//! ignored that uniformity: every Body block of a 4096² launch re-resolved
//! the same branches to the same outcomes and re-computed the same
//! `y*width+x` chains shifted by a block-uniform offset. The trace engine
//! exploits it *speculatively but safely*:
//!
//! - **Record**: the first block of a class runs on [`run_decoded_traced`]
//!   with a [`Recorder`], capturing the flat event stream — warp phase
//!   starts, executed ops with resolved active masks, branch outcomes, and
//!   per-access address patterns + transaction counts — in exact execution
//!   order, plus the block's final counters and cycles. Alongside, a
//!   flow-sensitive **class-affine analysis** runs over the executed ops:
//!   each register row is classified as `base(lane) + cbx·B.x + cby·B.y`
//!   (exact, in wrap-free i32 arithmetic proven over the *whole grid*) or
//!   as opaque data. `ctaid` seeds the coefficients; add/sub/neg,
//!   mul/mad by grid-uniform scalars, and `min`/`max` with a lane-uniform
//!   winning side propagate them; everything else (floats, loads,
//!   partial-mask writes) demotes to data.
//! - **Compile**: a backward liveness pass over the recorded stream deletes
//!   every op a replayed block does not need: an access whose address row is
//!   class-affine is *rebased* — its addresses are the recorded pattern plus
//!   a per-block delta `cbx·Δbx + cby·Δby` — so the whole address chain
//!   feeding it becomes dead code and is dropped from the replay program.
//! - **Guard**: every recorded conditional branch becomes a [`RIns::Guard`]
//!   that re-evaluates the predicate lanes and demands the recorded outcome.
//!   A data-dependent (non-affine) load/store re-derives its addresses and
//!   demands the recorded *relative* pattern (exact `i64` equality against
//!   the rebased anchor — a wrapping 32-bit check could alias across 2³²).
//!   A speculatively-classified `min`/`max` whose result the rebasing
//!   depends on becomes an O(1) [`RIns::RangeGuard`] proving the recorded
//!   winning side still wins at the replayed block offset. Every rebased
//!   access proves its translated extrema in bounds before any unchecked
//!   gather.
//! - **Replay**: with all guards green, the block is a linear loop over the
//!   compiled [`RIns`] program. Surviving arithmetic re-executes through the
//!   same `exec_pure_op!` code as the decoded engine; rebased loads gather
//!   check-free at `recorded + delta`; counters come from the recording with
//!   only the transaction-dependent parts (`mem_transactions`, memory
//!   cycles) recomputed. When the compiled program provably defines every
//!   register lane before reading it, replay also skips the per-block
//!   register-file memset.
//! - **Deopt**: any guard miss aborts replay with no observable effect (the
//!   caller truncates the write journal) and the block re-runs on the
//!   decoded engine — so data-dependent kernels stay bit-exact by
//!   construction, they just don't get the speedup.
//!
//! Replay never errors: a block that *would* error (OOB, missing param,
//! runaway budget) necessarily diverges from its class's recorded schedule
//! first, fails a guard (rebased accesses fail their bounds proof), and
//! deopts to the engine that reproduces the exact reference error.

use crate::decode::{
    exec_pure_op, lanes, run_decoded_traced, warp_map1, warp_map2, warp_map3, DOpKind,
    DecodedBlockCtx, DecodedKernel, DecodedScratch, FlatCounters, Tracer,
};
use crate::error::SimError;
use crate::interp::WARP;
use crate::launch::ParamValue;
use crate::memory::{segment_count_full, transactions_for_warp_fixed, DeviceBuffer};
use isp_ir::{BinOp, CmpOp, SReg};

/// One recorded load/store: the resolved address pattern and everything
/// needed to prove a replayed access safe and re-derive its transaction
/// count without sorting.
#[derive(Debug, Clone)]
struct MemRec {
    /// Recorded element addresses (inactive lanes hold 0).
    addrs: [i32; WARP],
    /// First active lane — the rebasing anchor.
    base_lane: u32,
    /// Min/max address relative to the anchor over active lanes. With the
    /// address row proven (by pattern guard or affine class), `anchor +
    /// min_rel >= 0 && anchor + max_rel < len` bounds every active lane.
    min_rel: i64,
    max_rel: i64,
    /// `anchor mod 32` (one 128-byte segment = 32 elements): when the
    /// replayed anchor has the same alignment, the whole warp's segment
    /// pattern is a pure translation and `tx` transfers unchanged.
    align: i64,
    /// Recorded transaction count.
    tx: u64,
    /// `Some((cbx, cby))` when the address row was class-affine at record
    /// time: the replayed addresses are `addrs + cbx*dx + cby*dy` by proof,
    /// with no per-lane re-derivation. `None` → pattern-guard mode.
    rebase: Option<(i64, i64)>,
    /// Full-mask unit-stride pattern (`addrs[l] = addrs[0] + l`): once the
    /// access is proven (pattern guard or rebase bounds), a replayed load is
    /// one contiguous 32-element copy instead of a gather. Decided once at
    /// record time — replay never re-scans the pattern.
    contig: bool,
}

/// Affine guard for a speculatively-classified `min`/`max` result used by
/// rebasing: the recorded winning side keeps winning at block offset
/// `(dx, dy)` iff `m0 + cbx*dx + cby*dy <= 0`.
#[derive(Debug, Clone, Copy)]
struct RangeGuard {
    m0: i64,
    cbx: i64,
    cby: i64,
}

/// The batched-guard precomputation: the exact rectangle of block offsets
/// `(dx, dy)` (relative to the recorded block) where every *separable*
/// range guard of a trace holds. A guard `m0 + cbx*dx + cby*dy <= 0` with
/// `cbx == 0` or `cby == 0` is an axis-aligned half-plane, so the
/// conjunction of all of them is this rectangle, resolved once per trace.
/// Sibling blocks inside the rectangle skip those guards entirely (they
/// run the trace's `fast_prog`); blocks outside deopt without evaluating
/// anything. Mixed-coefficient guards (both nonzero — a tilted half-plane)
/// have no axis-aligned closed form and stay inline in both programs.
#[derive(Debug, Clone, Copy)]
struct GuardRect {
    dx_min: i64,
    dx_max: i64,
    dy_min: i64,
    dy_max: i64,
}

impl GuardRect {
    /// The whole plane (no separable guards yet).
    const ALL: GuardRect = GuardRect {
        dx_min: i64::MIN,
        dx_max: i64::MAX,
        dy_min: i64::MIN,
        dy_max: i64::MAX,
    };

    fn contains(&self, dx: i64, dy: i64) -> bool {
        dx >= self.dx_min && dx <= self.dx_max && dy >= self.dy_min && dy <= self.dy_max
    }

    /// Intersect with the half-plane `m0 + cbx*dx + cby*dy <= 0`, which
    /// must be separable. Exact integer bounds via euclidean division in
    /// i128 (deserialized guards may carry extreme coefficients; the clip
    /// must not overflow).
    fn clip(&mut self, m0: i64, cbx: i64, cby: i64) {
        let clamp = |v: i128| v.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        if cbx == 0 && cby == 0 {
            if m0 > 0 {
                // Unsatisfiable anywhere (cannot occur for a recorded
                // trace — the recorded block passes its own guards — but
                // a deserialized one must still be handled soundly).
                self.dx_min = 1;
                self.dx_max = 0;
            }
        } else if cby == 0 {
            if cbx > 0 {
                // dx <= floor(-m0 / cbx)
                self.dx_max = self
                    .dx_max
                    .min(clamp((-(m0 as i128)).div_euclid(cbx as i128)));
            } else {
                // dx >= ceil(m0 / -cbx)
                let p = -(cbx as i128);
                let a = m0 as i128;
                let lo = a.div_euclid(p) + (a.rem_euclid(p) != 0) as i128;
                self.dx_min = self.dx_min.max(clamp(lo));
            }
        } else if cby > 0 {
            self.dy_max = self
                .dy_max
                .min(clamp((-(m0 as i128)).div_euclid(cby as i128)));
        } else {
            let p = -(cby as i128);
            let a = m0 as i128;
            let lo = a.div_euclid(p) + (a.rem_euclid(p) != 0) as i128;
            self.dy_min = self.dy_min.max(clamp(lo));
        }
    }
}

/// Which replay guard missed when a block deopted to the decoded engine.
///
/// Each variant names a *guard site* in the replay program, so the
/// breakdown tells you which part of the record-time speculation failed to
/// transfer to a sibling block. (Journal divergence and runaway budgets
/// cannot deopt directly: the journal is truncated by the caller after any
/// of these fire, and a runaway block diverges control flow first, which
/// surfaces here as `Branch` or `OpFault`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeoptReason {
    /// An affine range guard for a speculative `min`/`max`/`selp` failed:
    /// the recorded winning side stopped winning at this block offset.
    AffineRange,
    /// A pinned-branch range guard failed: the recorded branch outcome is
    /// not proven at this block offset.
    PinnedBranch,
    /// An unpinned conditional branch's predicate lanes did not reproduce
    /// the recorded outcome.
    Branch,
    /// A pattern-guarded (data-dependent) access did not reproduce the
    /// recorded address pattern at the shifted anchor.
    MemPattern,
    /// A translated access's proven extrema fell outside its buffer
    /// (global or shared) — the decoded re-run reproduces the exact error.
    Bounds,
    /// A replayed op hit its failure path (missing parameter, buffer, or
    /// texture binding) — the decoded re-run reproduces the exact error.
    OpFault,
}

impl DeoptReason {
    /// Number of reasons (array dimension for per-reason counters).
    pub const COUNT: usize = 6;

    /// Every reason, in stable reporting order.
    pub const ALL: [DeoptReason; DeoptReason::COUNT] = [
        DeoptReason::AffineRange,
        DeoptReason::PinnedBranch,
        DeoptReason::Branch,
        DeoptReason::MemPattern,
        DeoptReason::Bounds,
        DeoptReason::OpFault,
    ];

    /// Dense index into per-reason counter arrays (matches [`Self::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable kebab-case name (used by `==PROF==`, JSON, and the timeline).
    pub fn name(self) -> &'static str {
        match self {
            DeoptReason::AffineRange => "affine-range",
            DeoptReason::PinnedBranch => "pinned-branch",
            DeoptReason::Branch => "branch",
            DeoptReason::MemPattern => "mem-pattern",
            DeoptReason::Bounds => "bounds",
            DeoptReason::OpFault => "op-fault",
        }
    }
}

/// Register-row class under the block-affine value analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cls {
    /// Unknown / data-dependent.
    Data,
    /// `value(lane, B) = base(lane) + cbx*B.x + cby*B.y` exactly for every
    /// block `B` of the grid, with the whole-grid value range proven inside
    /// i32 (so the engine's wrapping arithmetic is plain arithmetic).
    /// `lo..=hi` bounds `base(lane)` over the 32 lanes.
    Aff {
        cbx: i64,
        cby: i64,
        lo: i64,
        hi: i64,
    },
}

fn aff(c: Cls) -> Option<(i64, i64, i64, i64)> {
    match c {
        Cls::Aff { cbx, cby, lo, hi } => Some((cbx, cby, lo, hi)),
        Cls::Data => None,
    }
}

/// Candidate result of combining affine classes: coefficients plus the
/// conservatively-derived whole-grid value interval, in i128 so no check
/// can itself wrap.
type Cand = (i128, i128, (i128, i128));

fn span(c: i128, n: u32) -> (i128, i128) {
    let e = c * (n as i128 - 1);
    if e >= 0 {
        (0, e)
    } else {
        (e, 0)
    }
}

/// Whole-grid value interval of a valid affine class.
fn total(cbx: i64, cby: i64, lo: i64, hi: i64, grid: (u32, u32)) -> (i128, i128) {
    let sx = span(cbx as i128, grid.0);
    let sy = span(cby as i128, grid.1);
    (lo as i128 + sx.0 + sy.0, hi as i128 + sx.1 + sy.1)
}

fn cand(c: Cls, grid: (u32, u32)) -> Option<Cand> {
    let (cbx, cby, lo, hi) = aff(c)?;
    Some((cbx as i128, cby as i128, total(cbx, cby, lo, hi, grid)))
}

fn add_cand(a: Cand, b: Cand) -> Cand {
    (a.0 + b.0, a.1 + b.1, (a.2 .0 + b.2 .0, a.2 .1 + b.2 .1))
}

fn sub_cand(a: Cand, b: Cand) -> Cand {
    (a.0 - b.0, a.1 - b.1, (a.2 .0 - b.2 .1, a.2 .1 - b.2 .0))
}

fn neg_cand(a: Cand) -> Cand {
    (-a.0, -a.1, (-a.2 .1, -a.2 .0))
}

/// Multiply: one side must be a grid-wide uniform scalar (coefficients zero
/// and a degenerate value interval).
fn mul_cand(a: Cand, b: Cand) -> Option<Cand> {
    let (u, v) = if a.0 == 0 && a.1 == 0 && a.2 .0 == a.2 .1 {
        (a.2 .0, b)
    } else if b.0 == 0 && b.1 == 0 && b.2 .0 == b.2 .1 {
        (b.2 .0, a)
    } else {
        return None;
    };
    let (t0, t1) = (u * v.2 .0, u * v.2 .1);
    Some((u * v.0, u * v.1, (t0.min(t1), t0.max(t1))))
}

/// Defined row base of an op, if any (global `Ld`/`St` never appear as op
/// events; `Sts`/`Bar` define nothing).
fn op_dst(kind: &DOpKind) -> Option<u32> {
    match *kind {
        DOpKind::BinI { dst, .. }
        | DOpKind::BinF { dst, .. }
        | DOpKind::BinP { dst, .. }
        | DOpKind::MadI { dst, .. }
        | DOpKind::MadF { dst, .. }
        | DOpKind::Mov { dst, .. }
        | DOpKind::NotP { dst, .. }
        | DOpKind::NotB { dst, .. }
        | DOpKind::NegI { dst, .. }
        | DOpKind::AbsI { dst, .. }
        | DOpKind::UnF { dst, .. }
        | DOpKind::CvtIF { dst, .. }
        | DOpKind::CvtFI { dst, .. }
        | DOpKind::SetPI { dst, .. }
        | DOpKind::SetPF { dst, .. }
        | DOpKind::SelP { dst, .. }
        | DOpKind::Sreg { dst, .. }
        | DOpKind::LdParam { dst, .. }
        | DOpKind::Ld { dst, .. }
        | DOpKind::Tex { dst, .. }
        | DOpKind::Lds { dst, .. } => Some(dst),
        DOpKind::St { .. } | DOpKind::Sts { .. } | DOpKind::Bar => None,
    }
}

/// Visit the row bases an op event reads.
fn for_each_src(kind: &DOpKind, mut f: impl FnMut(u32)) {
    match *kind {
        DOpKind::BinI { a, b, .. }
        | DOpKind::BinF { a, b, .. }
        | DOpKind::BinP { a, b, .. }
        | DOpKind::SetPI { a, b, .. }
        | DOpKind::SetPF { a, b, .. } => {
            f(a);
            f(b);
        }
        DOpKind::MadI { a, b, c, .. } | DOpKind::MadF { a, b, c, .. } => {
            f(a);
            f(b);
            f(c);
        }
        DOpKind::SelP { a, b, pred, .. } => {
            f(a);
            f(b);
            f(pred);
        }
        DOpKind::Mov { a, .. }
        | DOpKind::NotP { a, .. }
        | DOpKind::NotB { a, .. }
        | DOpKind::NegI { a, .. }
        | DOpKind::AbsI { a, .. }
        | DOpKind::UnF { a, .. }
        | DOpKind::CvtIF { a, .. }
        | DOpKind::CvtFI { a, .. } => f(a),
        DOpKind::Tex { x, y, .. } => {
            f(x);
            f(y);
        }
        DOpKind::Lds { addr, .. } => f(addr),
        DOpKind::Sts { addr, val } => {
            f(addr);
            f(val);
        }
        DOpKind::Ld { addr, .. } => f(addr),
        DOpKind::St { addr, val, .. } => {
            f(addr);
            f(val);
        }
        DOpKind::Sreg { .. } | DOpKind::LdParam { .. } | DOpKind::Bar => {}
    }
}

/// Guards pinning a predicate row to its recorded lane bitmask: all of them
/// passing proves every lane's comparison outcome is unchanged at the
/// replayed block offset. Composes through predicate logic — any boolean
/// combination of pinned rows is pinned by the union of their guards.
type PredPin = Vec<RangeGuard>;

/// One record-time event, before dead-code elimination.
#[derive(Debug, Clone)]
enum RecEv {
    Warp(u32),
    Op {
        kind: DOpKind,
        mask: u32,
        guards: Vec<RangeGuard>,
    },
    Branch {
        pred: u32,
        mask: u32,
        m_true: u32,
        /// When the predicate row is pinned, the branch outcome is proven by
        /// these O(1) guards and the predicate chain need not stay live.
        pin: Option<PredPin>,
    },
    Mem {
        is_ld: bool,
        dst: u32,
        buf: u32,
        addr: u32,
        val: u32,
        mask: u32,
        rec: u32,
    },
}

/// One compiled replay instruction, in exact execution order (which is what
/// makes the replayed write journal byte-identical across warps and barrier
/// phases).
#[derive(Debug, Clone)]
enum RIns {
    /// Switch to warp `w`'s register bank (phase start).
    Warp(u32),
    /// Re-execute a surviving non-global-memory op under the recorded mask.
    Op { kind: DOpKind, mask: u32 },
    /// Fused pair of surviving ops under one recorded mask — one dispatch,
    /// same effects in the same order (see `fuse_prog`).
    Op2 { a: DOpKind, b: DOpKind, mask: u32 },
    /// Fused triple.
    Op3 {
        a: DOpKind,
        b: DOpKind,
        c: DOpKind,
        mask: u32,
    },
    /// Conditional-branch guard: predicate lanes must reproduce `m_true`.
    Guard { pred: u32, mask: u32, m_true: u32 },
    /// O(1) affine guard for a dropped speculative `min`/`max` or a pinned
    /// branch; `why` records which provenance for deopt accounting.
    RangeGuard {
        m0: i64,
        cbx: i64,
        cby: i64,
        why: DeoptReason,
    },
    /// Pattern-guarded global load (data-dependent address).
    Ld {
        dst: u32,
        buf: u32,
        addr: u32,
        mask: u32,
        rec: u32,
    },
    /// Pattern-guarded global store.
    St {
        buf: u32,
        addr: u32,
        val: u32,
        mask: u32,
        rec: u32,
    },
    /// Rebased global load: addresses are `rec.addrs + cbx*dx + cby*dy`.
    LdR {
        dst: u32,
        buf: u32,
        mask: u32,
        rec: u32,
    },
    /// Rebased global store.
    StR {
        buf: u32,
        val: u32,
        mask: u32,
        rec: u32,
    },
    /// Batch-proven rebased load: like `LdR`, but its bounds and alignment
    /// were hoisted into the trace's batch precondition (every block inside
    /// `rect` ∩ grid is in bounds, and the anchor shift is a multiple of the
    /// segment width, so `rec.tx` is exact). Derived — only ever appears in
    /// `fast_prog`, never in `prog` and never on disk.
    LdF {
        dst: u32,
        buf: u32,
        mask: u32,
        rec: u32,
    },
    /// Batch-proven rebased store (see `LdF`).
    StF {
        buf: u32,
        val: u32,
        mask: u32,
        rec: u32,
    },
}

/// A recorded block schedule for one (kernel, class, block shape), compiled
/// to a minimal replay program and shared read-only across workers.
#[derive(Debug)]
pub struct Trace {
    prog: Vec<RIns>,
    mems: Vec<MemRec>,
    /// The recorded block's full counters (replay rewrites
    /// `mem_transactions`).
    counters: FlatCounters,
    /// Recorded cycles minus the memory-transaction share — the part of the
    /// cycle count that guards prove identical across the class.
    issue_cycles: u64,
    /// The recorded block's coordinates (rebasing origin).
    b0: (u32, u32),
    /// Whether replay must zero the register file per block. False when the
    /// compiled program provably writes every register lane before reading
    /// it, which is the common case for straight-line SSA kernels.
    needs_reset: bool,
    /// Separable range guards extracted from `prog`, in program order, each
    /// with its deopt attribution. Batched replay proves them all at once
    /// via `rect`; the list is consulted only to attribute a deopt when a
    /// block falls outside the rectangle.
    sep_guards: Vec<(RangeGuard, DeoptReason)>,
    /// Intersection of the separable guards' half-planes (whole plane when
    /// `sep_guards` is empty).
    rect: GuardRect,
    /// `prog` minus the separable range guards, re-fused (guard sites break
    /// fusion runs, so removing them also merges more ops per dispatch), and
    /// with rebased accesses whose bounds/alignment hold across the whole
    /// `rect` ∩ grid box rewritten to guard-free `LdF`/`StF` units. Empty
    /// when there are no separable guards — replay then uses `prog`.
    fast_prog: Vec<RIns>,
    /// Batch precondition for the `LdF`/`StF` units: per buffer, the largest
    /// address any such unit can touch from any block inside `rect` ∩ grid.
    /// Checked once per block against the launch's actual buffer lengths;
    /// on failure replay falls back to the fully guarded `prog`, which
    /// checks every guard inline (including `Bounds` deopts).
    fast_pre: Vec<(u32, i64)>,
    /// Warp segment table for `fast_prog`: `(warp, start, end)` half-open
    /// unit ranges, precomputed at finalize so batched replay dispatches
    /// straight into each warp's units instead of re-discovering the
    /// `Warp` markers with a per-block scan. Derived — rebuilt on every
    /// finalize, never serialized.
    fast_segs: Vec<(u32, u32, u32)>,
}

impl Trace {
    /// Number of compiled replay instructions (diagnostics).
    pub fn num_events(&self) -> usize {
        self.prog.len()
    }

    /// Number of separable range guards hoisted into the rectangle check
    /// (diagnostics: how much per-block work guard batching removes).
    pub fn num_batched_guards(&self) -> usize {
        self.sep_guards.len()
    }

    /// The summed counters of `n` successful replays of this trace whose
    /// memory transactions totalled `tx_sum`. Replay guards prove every
    /// counter except `mem_transactions` identical to the recording, so
    /// the sum is the recording scaled by `n` — bit-identical to merging
    /// the per-block sets one at a time (u64 adds commute).
    pub(crate) fn replayed_counters(&self, n: u64, tx_sum: u64) -> FlatCounters {
        let mut c = self.counters.scaled(n);
        c.mem_transactions = tx_sum;
        c
    }

    /// Number of rebased memory accesses whose bounds and alignment checks
    /// were hoisted into the batch precondition (diagnostics: guard-free
    /// `LdF`/`StF` units in the fast program).
    pub fn num_batched_mem(&self) -> usize {
        self.fast_prog
            .iter()
            .filter(|i| matches!(i, RIns::LdF { .. } | RIns::StF { .. }))
            .count()
    }
}

/// [`Tracer`] that captures the event stream during a decoded run and runs
/// the class-affine analysis alongside.
struct Recorder<'a> {
    dk: &'a DecodedKernel,
    grid: (u32, u32),
    b0: (u32, u32),
    ns: usize,
    events: Vec<RecEv>,
    mems: Vec<MemRec>,
    /// Per-warp, per-slot classes (`warp * ns + slot`).
    classes: Vec<Cls>,
    /// Per-warp, per-slot predicate pins (`warp * ns + slot`): guards that
    /// hold the slot's 0/1 lane bitmask fixed across the class.
    preds: Vec<Option<PredPin>>,
    cur_warp: usize,
}

impl Recorder<'_> {
    #[inline]
    fn cls(&self, wb: usize, base: u32) -> Cls {
        self.classes[wb + base as usize / WARP]
    }

    /// Build the class of a freshly-written affine row: normalise
    /// coefficients (a 1-block axis contributes nothing), prove the
    /// operand-derived whole-grid value range fits i32, and take the
    /// per-lane base interval from the concrete result row.
    fn mk(&self, cbx: i128, cby: i128, t: (i128, i128), regs: &[u32], dst: u32) -> Cls {
        if t.0 < i32::MIN as i128 || t.1 > i32::MAX as i128 {
            return Cls::Data;
        }
        let cbx = if self.grid.0 <= 1 { 0 } else { cbx };
        let cby = if self.grid.1 <= 1 { 0 } else { cby };
        let (Some(cbx), Some(cby)) = (i64::try_from(cbx).ok(), i64::try_from(cby).ok()) else {
            return Cls::Data;
        };
        self.mk_plain(cbx, cby, regs, dst)
    }

    /// Class from known-sound coefficients (result provably inside an
    /// already-proven range): base interval from the concrete result row.
    fn mk_plain(&self, cbx: i64, cby: i64, regs: &[u32], dst: u32) -> Cls {
        let off = cbx * self.b0.0 as i64 + cby * self.b0.1 as i64;
        let d = dst as usize;
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for l in 0..WARP {
            let v = regs[d + l] as i32 as i64 - off;
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Cls::Aff { cbx, cby, lo, hi }
    }

    fn mk_cand(&self, c: Option<Cand>, regs: &[u32], dst: u32) -> Cls {
        match c {
            Some((cbx, cby, t)) => self.mk(cbx, cby, t, regs, dst),
            None => Cls::Data,
        }
    }

    /// `min`/`max` of two affine rows. Identical coefficients translate
    /// exactly (no guard, per-lane winners may differ). Different
    /// coefficients need a lane-uniform winning side, and the result class
    /// carries a [`RangeGuard`] proving that side keeps winning at the
    /// replayed offset.
    fn min_max(
        &self,
        is_min: bool,
        ca: Cls,
        cb: Cls,
        (a, b, dst): (u32, u32, u32),
        regs: &[u32],
    ) -> (Cls, Option<RangeGuard>) {
        if dst == a || dst == b {
            return (Cls::Data, None); // result overwrote an operand row
        }
        let (Some((ax, ay, _, _)), Some((bx, by, _, _))) = (aff(ca), aff(cb)) else {
            return (Cls::Data, None);
        };
        let (ab, bb) = (a as usize, b as usize);
        let (mut a_wins, mut b_wins) = (true, true);
        let mut max_amb = i64::MIN; // max over lanes of (a - b)
        let mut max_bma = i64::MIN; // max over lanes of (b - a)
        for l in 0..WARP {
            let va = regs[ab + l] as i32 as i64;
            let vb = regs[bb + l] as i32 as i64;
            let d = va - vb;
            max_amb = max_amb.max(d);
            max_bma = max_bma.max(-d);
            if is_min {
                a_wins &= va <= vb;
                b_wins &= vb <= va;
            } else {
                a_wins &= va >= vb;
                b_wins &= vb >= va;
            }
        }
        if ax == bx && ay == by {
            return (self.mk_plain(ax, ay, regs, dst), None);
        }
        // Winner must stay <= (min) / >= (max) the loser for every lane at
        // the replayed offset: max(winner-loser diff) + coeff-diff·Δ <= 0.
        let g = if a_wins {
            if is_min {
                RangeGuard {
                    m0: max_amb,
                    cbx: ax - bx,
                    cby: ay - by,
                }
            } else {
                RangeGuard {
                    m0: max_bma,
                    cbx: bx - ax,
                    cby: by - ay,
                }
            }
        } else if b_wins {
            if is_min {
                RangeGuard {
                    m0: max_bma,
                    cbx: bx - ax,
                    cby: by - ay,
                }
            } else {
                RangeGuard {
                    m0: max_amb,
                    cbx: ax - bx,
                    cby: ay - by,
                }
            }
        } else {
            return (Cls::Data, None);
        };
        let (wx, wy) = if a_wins { (ax, ay) } else { (bx, by) };
        (self.mk_plain(wx, wy, regs, dst), Some(g))
    }

    /// Pin an integer comparison of two affine rows: intersect, over all
    /// lanes, the (conservative) interval of block-offset deltas that keeps
    /// `cmp(diff_lane + delta, 0)` at its recorded outcome, where
    /// `diff = a - b` translates by `delta = cbx*dx + cby*dy`. The record
    /// block sits at `delta = 0`, so the intersection is never empty.
    fn pred_pin(
        &self,
        cmp: CmpOp,
        ca: Cls,
        cb: Cls,
        (a, b, dst): (u32, u32, u32),
        regs: &[u32],
    ) -> Option<PredPin> {
        if dst == a || dst == b {
            return None; // result overwrote an operand row
        }
        let (Some((ax, ay, _, _)), Some((bx, by, _, _))) = (aff(ca), aff(cb)) else {
            return None;
        };
        let (cbx, cby) = (ax - bx, ay - by);
        if cbx == 0 && cby == 0 {
            // The difference row is block-invariant: the outcome can never
            // change, no guards needed.
            return Some(PredPin::new());
        }
        let (ab, bb, db) = (a as usize, b as usize, dst as usize);
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        for l in 0..WARP {
            let diff = regs[ab + l] as i32 as i64 - regs[bb + l] as i32 as i64;
            let t = regs[db + l] != 0;
            let (l_lo, l_hi) = match (cmp, t) {
                (CmpOp::Lt, true) | (CmpOp::Ge, false) => (i64::MIN, -diff - 1),
                (CmpOp::Lt, false) | (CmpOp::Ge, true) => (-diff, i64::MAX),
                (CmpOp::Le, true) | (CmpOp::Gt, false) => (i64::MIN, -diff),
                (CmpOp::Le, false) | (CmpOp::Gt, true) => (1 - diff, i64::MAX),
                (CmpOp::Eq, true) | (CmpOp::Ne, false) => (-diff, -diff),
                // `!= 0` is not an interval; conservatively stay on the
                // recorded side of zero.
                (CmpOp::Eq, false) | (CmpOp::Ne, true) => {
                    if diff > 0 {
                        (1 - diff, i64::MAX)
                    } else {
                        (i64::MIN, -diff - 1)
                    }
                }
            };
            lo = lo.max(l_lo);
            hi = hi.min(l_hi);
        }
        let mut guards = PredPin::new();
        if hi < i64::MAX {
            guards.push(RangeGuard { m0: -hi, cbx, cby }); // delta <= hi
        }
        if lo > i64::MIN {
            guards.push(RangeGuard {
                m0: lo,
                cbx: -cbx,
                cby: -cby,
            }); // delta >= lo
        }
        Some(guards)
    }
}

impl Tracer for Recorder<'_> {
    const ACTIVE: bool = true;

    fn warp_start(&mut self, warp: u32) {
        self.cur_warp = warp as usize;
        self.events.push(RecEv::Warp(warp));
    }

    fn op(&mut self, i: u32, mask: u32, regs: &[u32]) {
        let kind = self.dk.ops[i as usize].kind;
        let full = mask == u32::MAX;
        let wb = self.cur_warp * self.ns;
        let g = self.grid;
        let mut guards: Vec<RangeGuard> = Vec::new();
        let mut pin: Option<PredPin> = None;
        let set: Option<(u32, Cls)> = match kind {
            DOpKind::BinI { op, dst, a, b } if full => {
                let (ca, cb) = (self.cls(wb, a), self.cls(wb, b));
                let c = match op {
                    BinOp::Add => self.mk_cand(
                        cand(ca, g).zip(cand(cb, g)).map(|(x, y)| add_cand(x, y)),
                        regs,
                        dst,
                    ),
                    BinOp::Sub => self.mk_cand(
                        cand(ca, g).zip(cand(cb, g)).map(|(x, y)| sub_cand(x, y)),
                        regs,
                        dst,
                    ),
                    BinOp::Mul => self.mk_cand(
                        cand(ca, g)
                            .zip(cand(cb, g))
                            .and_then(|(x, y)| mul_cand(x, y)),
                        regs,
                        dst,
                    ),
                    BinOp::Min | BinOp::Max => {
                        let (c, gu) = self.min_max(op == BinOp::Min, ca, cb, (a, b, dst), regs);
                        guards.extend(gu);
                        c
                    }
                    _ => Cls::Data,
                };
                Some((dst, c))
            }
            DOpKind::MadI { dst, a, b, c } if full => {
                let m = cand(self.cls(wb, a), g)
                    .zip(cand(self.cls(wb, b), g))
                    .and_then(|(x, y)| mul_cand(x, y));
                let s = m.zip(cand(self.cls(wb, c), g)).map(|(x, y)| add_cand(x, y));
                Some((dst, self.mk_cand(s, regs, dst)))
            }
            DOpKind::NegI { dst, a } if full => {
                let c = cand(self.cls(wb, a), g).map(neg_cand);
                Some((dst, self.mk_cand(c, regs, dst)))
            }
            DOpKind::Mov { dst, a } if full => {
                pin = self.preds[wb + a as usize / WARP].clone();
                Some((dst, self.cls(wb, a)))
            }
            DOpKind::SetPI { cmp, dst, a, b } if full => {
                pin = self.pred_pin(cmp, self.cls(wb, a), self.cls(wb, b), (a, b, dst), regs);
                Some((dst, Cls::Data))
            }
            DOpKind::NotP { dst, a } if full => {
                // Complementing a pinned bitmask leaves it pinned.
                pin = self.preds[wb + a as usize / WARP].clone();
                Some((dst, Cls::Data))
            }
            DOpKind::BinP { dst, a, b, .. } if full => {
                pin = match (
                    self.preds[wb + a as usize / WARP].as_ref(),
                    self.preds[wb + b as usize / WARP].as_ref(),
                ) {
                    (Some(x), Some(y)) => {
                        let mut v = x.clone();
                        v.extend(y.iter().copied());
                        Some(v)
                    }
                    _ => None,
                };
                Some((dst, Cls::Data))
            }
            DOpKind::SelP { dst, a, b, pred } if full => {
                let c = 'selp: {
                    if dst == a || dst == b || dst == pred {
                        break 'selp Cls::Data; // result overwrote a source row
                    }
                    let Some(pg) = self.preds[wb + pred as usize / WARP].as_ref() else {
                        break 'selp Cls::Data;
                    };
                    let (pa, pb) = (aff(self.cls(wb, a)), aff(self.cls(wb, b)));
                    let pd = pred as usize;
                    let nt = (0..WARP).filter(|&l| regs[pd + l] != 0).count();
                    // A lane-uniform choice takes the chosen side's class; a
                    // pinned mixed choice still translates when both sides
                    // share coefficients.
                    let chosen = if nt == WARP {
                        pa
                    } else if nt == 0 {
                        pb
                    } else {
                        match (pa, pb) {
                            (Some((axc, ayc, _, _)), Some((bxc, byc, _, _)))
                                if axc == bxc && ayc == byc =>
                            {
                                pa
                            }
                            _ => None,
                        }
                    };
                    let Some((cx, cy, _, _)) = chosen else {
                        break 'selp Cls::Data;
                    };
                    guards.extend(pg.iter().copied());
                    self.mk_plain(cx, cy, regs, dst)
                };
                Some((dst, c))
            }
            DOpKind::Sreg { dst, sreg } if full => {
                let c = match sreg {
                    SReg::CtaIdX => self.mk(1, 0, (0, g.0 as i128 - 1), regs, dst),
                    SReg::CtaIdY => self.mk(0, 1, (0, g.1 as i128 - 1), regs, dst),
                    // tid/ntid/lane/warp rows are block-invariant.
                    _ => self.mk_plain(0, 0, regs, dst),
                };
                Some((dst, c))
            }
            DOpKind::LdParam { dst, .. } if full => Some((dst, self.mk_plain(0, 0, regs, dst))),
            _ => op_dst(&kind).map(|d| (d, Cls::Data)),
        };
        if let Some((d, c)) = set {
            self.classes[wb + d as usize / WARP] = c;
            self.preds[wb + d as usize / WARP] = pin;
        }
        self.events.push(RecEv::Op { kind, mask, guards });
    }

    fn branch(&mut self, pred: u32, mask: u32, m_true: u32) {
        let pin = self.preds[self.cur_warp * self.ns + pred as usize / WARP].clone();
        self.events.push(RecEv::Branch {
            pred,
            mask,
            m_true,
            pin,
        });
    }

    fn mem(&mut self, i: u32, mask: u32, addrs: &[Option<i64>; WARP], tx: u64) {
        let mut rec_addrs = [0i32; WARP];
        let mut base_lane = 0u32;
        let mut anchor = 0i64;
        let mut first = true;
        let (mut min_rel, mut max_rel) = (0i64, 0i64);
        for l in 0..WARP {
            if let Some(a) = addrs[l] {
                if first {
                    base_lane = l as u32;
                    anchor = a;
                    first = false;
                }
                rec_addrs[l] = a as i32;
                min_rel = min_rel.min(a - anchor);
                max_rel = max_rel.max(a - anchor);
            }
        }
        let wb = self.cur_warp * self.ns;
        let (is_ld, dst, buf, addr, val) = match self.dk.ops[i as usize].kind {
            DOpKind::Ld { dst, buf, addr } => (true, dst, buf, addr, 0),
            DOpKind::St { buf, addr, val } => (false, 0, buf, addr, val),
            _ => unreachable!("mem hook fires only for global loads/stores"),
        };
        let rebase = match self.cls(wb, addr) {
            Cls::Aff { cbx, cby, .. } => Some((cbx, cby)),
            Cls::Data => None,
        };
        let contig = mask == u32::MAX
            && (0..WARP).all(|l| rec_addrs[l] as i64 == rec_addrs[0] as i64 + l as i64);
        let rec = self.mems.len() as u32;
        self.mems.push(MemRec {
            addrs: rec_addrs,
            base_lane,
            min_rel,
            max_rel,
            align: anchor.rem_euclid(32),
            tx,
            rebase,
            contig,
        });
        if is_ld {
            self.classes[wb + dst as usize / WARP] = Cls::Data;
            self.preds[wb + dst as usize / WARP] = None;
        }
        self.events.push(RecEv::Mem {
            is_ld,
            dst,
            buf,
            addr,
            val,
            mask,
            rec,
        });
    }
}

/// Compile the recorded stream into the replay program: backward liveness
/// deletes ops only needed to re-derive rebased addresses (keeping their
/// range guards), then a forward pass checks whether every surviving read
/// is preceded by a covering write (deciding `needs_reset`).
#[allow(clippy::too_many_arguments)]
fn build_trace(
    dk: &DecodedKernel,
    nw: usize,
    b0: (u32, u32),
    grid: (u32, u32),
    events: Vec<RecEv>,
    mems: Vec<MemRec>,
    counters: FlatCounters,
    cycles: u64,
) -> Trace {
    let ns = dk.num_slots as usize;
    let slot = |base: u32| base as usize / WARP;

    // Event -> warp map (events between Warp markers belong to that warp).
    let mut warp_of = vec![0usize; events.len()];
    let mut cw = 0usize;
    for (i, ev) in events.iter().enumerate() {
        if let RecEv::Warp(w) = ev {
            cw = *w as usize;
        }
        warp_of[i] = cw;
    }

    // Backward pass: `live` = concrete value needed (op must re-execute);
    // `alive` = affine class feeds a rebased access (range guards must
    // hold). Kills are full-mask only — a partial write leaves the other
    // lanes' earlier definition observable.
    let mut live = vec![false; nw * ns];
    let mut alive = vec![false; nw * ns];
    let mut keep = vec![true; events.len()];
    let mut keep_guard = vec![false; events.len()];
    for i in (0..events.len()).rev() {
        let wb = warp_of[i] * ns;
        match &events[i] {
            RecEv::Warp(_) => {}
            RecEv::Branch { pred, pin, .. } => {
                // A pinned branch is proven by its O(1) guards; only an
                // unpinned one needs the predicate chain re-executed. The
                // pin's intervals assume the predicate's operand classes
                // translate, so the chain stays `alive`: any op whose
                // affine result is itself conditional (min/max winner,
                // pinned select) keeps its range guards.
                if pin.is_none() {
                    live[wb + slot(*pred)] = true;
                } else {
                    alive[wb + slot(*pred)] = true;
                }
            }
            RecEv::Mem {
                is_ld,
                dst,
                addr,
                val,
                mask,
                rec,
                ..
            } => {
                let rebased = mems[*rec as usize].rebase.is_some();
                if *is_ld {
                    if *mask == u32::MAX {
                        live[wb + slot(*dst)] = false;
                    }
                } else {
                    live[wb + slot(*val)] = true;
                }
                if rebased {
                    alive[wb + slot(*addr)] = true;
                } else {
                    live[wb + slot(*addr)] = true;
                }
            }
            RecEv::Op { kind, mask, guards } => {
                let dst = op_dst(kind);
                // Shared memory and texture ops have effects beyond their
                // destination row (barrier data flow, transaction counts).
                let side = matches!(
                    kind,
                    DOpKind::Tex { .. } | DOpKind::Lds { .. } | DOpKind::Sts { .. }
                );
                let needed = side || dst.is_none_or(|d| live[wb + slot(d)]);
                keep[i] = needed;
                if let Some(d) = dst {
                    if alive[wb + slot(d)] {
                        if !guards.is_empty() {
                            keep_guard[i] = true;
                        }
                        if *mask == u32::MAX {
                            alive[wb + slot(d)] = false;
                        }
                        for_each_src(kind, |s| alive[wb + slot(s)] = true);
                    }
                }
                if needed {
                    if let Some(d) = dst {
                        if *mask == u32::MAX {
                            live[wb + slot(d)] = false;
                        }
                    }
                    for_each_src(kind, |s| live[wb + slot(s)] = true);
                }
            }
        }
    }

    // Forward pass over the kept program: does every read see lanes already
    // written (or an immediate row)? If so, replay can skip the per-block
    // register memset.
    let mut defined = vec![0u32; nw * ns];
    for w in 0..nw {
        for s in dk.num_vregs as usize..ns {
            defined[w * ns + s] = u32::MAX;
        }
    }
    let mut covered = true;
    let mut cw = 0usize;
    for (i, ev) in events.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        match ev {
            RecEv::Warp(w) => cw = *w as usize,
            RecEv::Branch {
                pred, mask, pin, ..
            } => {
                if pin.is_none() {
                    covered &= *mask & !defined[cw * ns + slot(*pred)] == 0;
                }
            }
            RecEv::Mem {
                is_ld,
                dst,
                addr,
                val,
                mask,
                rec,
                ..
            } => {
                let wb = cw * ns;
                let rebased = mems[*rec as usize].rebase.is_some();
                if !rebased {
                    covered &= *mask & !defined[wb + slot(*addr)] == 0;
                }
                if *is_ld {
                    defined[wb + slot(*dst)] |= *mask;
                } else {
                    covered &= *mask & !defined[wb + slot(*val)] == 0;
                }
            }
            RecEv::Op { kind, mask, .. } => {
                let wb = cw * ns;
                for_each_src(kind, |s| covered &= *mask & !defined[wb + slot(s)] == 0);
                if let Some(d) = op_dst(kind) {
                    defined[wb + slot(d)] |= *mask;
                }
            }
        }
    }

    let mut prog = Vec::with_capacity(events.len());
    for (i, ev) in events.into_iter().enumerate() {
        match ev {
            RecEv::Warp(w) => prog.push(RIns::Warp(w)),
            RecEv::Branch {
                pred,
                mask,
                m_true,
                pin,
            } => match pin {
                Some(gs) => {
                    for g in gs {
                        prog.push(RIns::RangeGuard {
                            m0: g.m0,
                            cbx: g.cbx,
                            cby: g.cby,
                            why: DeoptReason::PinnedBranch,
                        });
                    }
                }
                None => prog.push(RIns::Guard { pred, mask, m_true }),
            },
            RecEv::Op { kind, mask, guards } => {
                if keep_guard[i] {
                    for g in guards {
                        prog.push(RIns::RangeGuard {
                            m0: g.m0,
                            cbx: g.cbx,
                            cby: g.cby,
                            why: DeoptReason::AffineRange,
                        });
                    }
                }
                if keep[i] {
                    prog.push(RIns::Op { kind, mask });
                }
            }
            RecEv::Mem {
                is_ld,
                dst,
                buf,
                addr,
                val,
                mask,
                rec,
            } => {
                let rebased = mems[rec as usize].rebase.is_some();
                prog.push(match (is_ld, rebased) {
                    (true, true) => RIns::LdR {
                        dst,
                        buf,
                        mask,
                        rec,
                    },
                    (true, false) => RIns::Ld {
                        dst,
                        buf,
                        addr,
                        mask,
                        rec,
                    },
                    (false, true) => RIns::StR {
                        buf,
                        val,
                        mask,
                        rec,
                    },
                    (false, false) => RIns::St {
                        buf,
                        addr,
                        val,
                        mask,
                        rec,
                    },
                });
            }
        }
    }

    let issue_cycles = cycles - counters.mem_transactions * dk.mem_cycles;
    finalize_trace(
        prog,
        mems,
        counters,
        issue_cycles,
        b0,
        grid,
        !covered,
        dk.fuse,
    )
}

/// Final trace assembly, shared by recording and deserialization: derive
/// the batched-guard structures from the (unfused) program, then fuse.
/// `prog` must be free of `Op2`/`Op3` on entry.
#[allow(clippy::too_many_arguments)]
fn finalize_trace(
    prog: Vec<RIns>,
    mems: Vec<MemRec>,
    counters: FlatCounters,
    issue_cycles: u64,
    b0: (u32, u32),
    grid: (u32, u32),
    needs_reset: bool,
    fuse: bool,
) -> Trace {
    let mut sep_guards = Vec::new();
    let mut rect = GuardRect::ALL;
    let mut fast_prog = Vec::with_capacity(prog.len());
    for ins in &prog {
        if let RIns::RangeGuard { m0, cbx, cby, why } = *ins {
            if cbx == 0 || cby == 0 {
                rect.clip(m0, cbx, cby);
                sep_guards.push((RangeGuard { m0, cbx, cby }, why));
                continue;
            }
        }
        fast_prog.push(ins.clone());
    }
    let mut fast_pre = Vec::new();
    if !sep_guards.is_empty() {
        hoist_mem_guards(&mut fast_prog, &mems, &rect, b0, grid, &mut fast_pre);
    }
    let mut prog = prog;
    if fuse {
        prog = fuse_prog(prog);
        fast_prog = fuse_prog(fast_prog);
    }
    let mut fast_segs = Vec::new();
    if sep_guards.is_empty() {
        // No separable guards: replay always walks `prog`, so don't keep a
        // duplicate copy around.
        fast_prog = Vec::new();
        fast_pre.clear();
    } else {
        match warp_segments(&fast_prog) {
            Some(segs) => fast_segs = segs,
            None => {
                // Malformed unit stream (only reachable through adversarial
                // disk data): the guarded walk OpFaults on its first unit
                // before any guard can fire, so disable batching entirely —
                // every block then walks `prog` and faults identically with
                // batching on or off.
                sep_guards = Vec::new();
                rect = GuardRect::ALL;
                fast_prog = Vec::new();
                fast_pre.clear();
            }
        }
    }
    Trace {
        prog,
        mems,
        counters,
        issue_cycles,
        b0,
        needs_reset,
        sep_guards,
        rect,
        fast_prog,
        fast_pre,
        fast_segs,
    }
}

/// Split a replay program into its warp segments: each `Warp(w)` marker
/// opens a half-open range of units executed on warp `w`. Returns `None`
/// when the stream does not start with a `Warp` marker (a malformed
/// program — impossible for recorded traces, representable on disk).
fn warp_segments(prog: &[RIns]) -> Option<Vec<(u32, u32, u32)>> {
    let mut segs = Vec::new();
    let mut i = 0;
    while i < prog.len() {
        let RIns::Warp(w) = prog[i] else {
            return None;
        };
        let start = i + 1;
        let mut end = start;
        while end < prog.len() && !matches!(prog[end], RIns::Warp(_)) {
            end += 1;
        }
        segs.push((w, start as u32, end as u32));
        i = end;
    }
    Some(segs)
}

/// Extend the batch proof to the rebased memory accesses: a `LdR`/`StR`
/// whose per-block checks (`rebase_mem`) are invariant over every block the
/// fast path can reach is rewritten to a guard-free `LdF`/`StF`.
///
/// The fast path only runs for blocks inside `rect`, and a launch's blocks
/// lie inside the grid, so the reachable offsets form the finite box
/// `rect` ∩ `[-b0, grid-1-b0]`. Over that box an access qualifies when:
///
/// - its anchor shift `cbx*dx + cby*dy` is always a multiple of the
///   transaction segment width (`cbx % 32 == 0 && cby % 32 == 0`), which
///   pins `anchor % 32` — the recorded `rec.tx` is then exact for every
///   block, with no per-block recount. The stored `align` must also agree
///   with the stored addresses (they travel separately through the disk
///   format, and the fast path must reproduce the guarded path bit-exactly
///   even for adversarial inputs);
/// - its translated extrema stay non-negative at every box corner (the
///   anchor is affine in `(dx, dy)`, so corner extrema bound the box), and
///   the largest address it can touch is recorded in `fast_pre` for a
///   per-launch `< len` check — buffer lengths are not knowable here.
///
/// Anything that fails stays a guarded `LdR`/`StR`: blocks that would
/// legitimately `Bounds`-deopt inside the rectangle keep doing so.
fn hoist_mem_guards(
    fast_prog: &mut [RIns],
    mems: &[MemRec],
    rect: &GuardRect,
    b0: (u32, u32),
    grid: (u32, u32),
    fast_pre: &mut Vec<(u32, i64)>,
) {
    let dx_lo = rect.dx_min.max(-(b0.0 as i64));
    let dx_hi = rect.dx_max.min(grid.0 as i64 - 1 - b0.0 as i64);
    let dy_lo = rect.dy_min.max(-(b0.1 as i64));
    let dy_hi = rect.dy_max.min(grid.1 as i64 - 1 - b0.1 as i64);
    if dx_lo > dx_hi || dy_lo > dy_hi {
        return;
    }
    // Extrema of `cbx*dx + cby*dy` over the box, exact in i128 (deserialized
    // coefficients may be extreme; overflow must disqualify, not wrap).
    let span = |c: i64, lo: i64, hi: i64| -> (i128, i128) {
        let (a, b) = (c as i128 * lo as i128, c as i128 * hi as i128);
        (a.min(b), a.max(b))
    };
    for ins in fast_prog.iter_mut() {
        let rec = match *ins {
            RIns::LdR { rec, .. } | RIns::StR { rec, .. } => &mems[rec as usize],
            _ => continue,
        };
        let Some((cbx, cby)) = rec.rebase else {
            continue;
        };
        let anchor = rec.addrs[rec.base_lane as usize] as i64;
        if cbx % 32 != 0 || cby % 32 != 0 || rec.align != anchor.rem_euclid(32) {
            continue;
        }
        let (xmin, xmax) = span(cbx, dx_lo, dx_hi);
        let (ymin, ymax) = span(cby, dy_lo, dy_hi);
        let lo = anchor as i128 + xmin + ymin + rec.min_rel as i128;
        let hi = anchor as i128 + xmax + ymax + rec.max_rel as i128;
        let Ok(hi) = i64::try_from(hi) else { continue };
        if lo < 0 {
            continue;
        }
        let buf = match *ins {
            RIns::LdR {
                dst,
                buf,
                mask,
                rec,
            } => {
                *ins = RIns::LdF {
                    dst,
                    buf,
                    mask,
                    rec,
                };
                buf
            }
            RIns::StR {
                buf,
                val,
                mask,
                rec,
            } => {
                *ins = RIns::StF {
                    buf,
                    val,
                    mask,
                    rec,
                };
                buf
            }
            _ => unreachable!(),
        };
        match fast_pre.iter_mut().find(|(b, _)| *b == buf) {
            Some((_, h)) => *h = (*h).max(hi),
            None => fast_pre.push((buf, hi)),
        }
    }
}

/// Peephole over the compiled replay program: merge runs of adjacent
/// re-executed ops with identical masks into `Op2`/`Op3` dispatch units.
/// Effects execute in the original order, and replay counters come from the
/// recording, so this changes dispatch count only — nothing observable.
fn fuse_prog(prog: Vec<RIns>) -> Vec<RIns> {
    let mut out: Vec<RIns> = Vec::with_capacity(prog.len());
    for ins in prog {
        let RIns::Op { kind, mask } = ins else {
            out.push(ins);
            continue;
        };
        match out.last().cloned() {
            Some(RIns::Op { kind: a, mask: m }) if m == mask => {
                *out.last_mut().unwrap() = RIns::Op2 { a, b: kind, mask };
            }
            Some(RIns::Op2 { a, b, mask: m }) if m == mask => {
                *out.last_mut().unwrap() = RIns::Op3 {
                    a,
                    b,
                    c: kind,
                    mask,
                };
            }
            _ => out.push(RIns::Op { kind, mask }),
        }
    }
    out
}

/// Run one block on the decoded interpreter while recording its trace.
/// Returns the block result plus the trace for sibling blocks to replay.
pub(crate) fn record_block(
    dk: &DecodedKernel,
    ctx: &DecodedBlockCtx<'_>,
    scratch: &mut DecodedScratch,
    writes: &mut Vec<(u32, usize, u32)>,
) -> Result<(FlatCounters, u64, Trace), SimError> {
    let threads = ctx.block_dim.0 as u64 * ctx.block_dim.1 as u64;
    let nw = threads.div_ceil(WARP as u64) as usize;
    let ns = dk.num_slots as usize;
    let mut rec = Recorder {
        dk,
        grid: ctx.grid,
        b0: ctx.block_idx,
        ns,
        events: Vec::new(),
        mems: Vec::new(),
        classes: vec![Cls::Data; nw * ns],
        preds: vec![None; nw * ns],
        cur_warp: 0,
    };
    // Immediate rows are grid-wide uniform constants.
    for w in 0..nw {
        for (j, &bits) in dk.imms.iter().enumerate() {
            let v = bits as i32 as i64;
            rec.classes[w * ns + dk.num_vregs as usize + j] = Cls::Aff {
                cbx: 0,
                cby: 0,
                lo: v,
                hi: v,
            };
        }
    }
    let (counters, cycles) = run_decoded_traced(dk, ctx, scratch, writes, &mut rec)?;
    let trace = build_trace(
        dk,
        nw,
        ctx.block_idx,
        ctx.grid,
        rec.events,
        rec.mems,
        counters.clone(),
        cycles,
    );
    Ok((counters, cycles, trace))
}

/// Replay a compiled trace for another block of the same class. Returns
/// `Err(reason)` on any guard miss (deopt — the caller truncates the write
/// journal and re-runs the block on the decoded engine) and never errors.
/// Success is `(mem_transactions, cycles, batched)`: a replayed block's
/// counters are the trace's with only `mem_transactions` substituted (see
/// [`Trace::replayed_counters`]), and `batched` reports whether the
/// batched-guard fast path ran (for the `guard_batched_replays` counter).
///
/// The trace's separable guards are proven (or refuted) in O(1) against
/// [`GuardRect`] before anything executes: inside the rectangle the block
/// runs `fast_prog` (those guards removed), outside it the block deopts
/// immediately, attributed to the first violated guard in program order.
/// Deopt *totals* equal those of evaluating every guard inline — a block
/// outside the rectangle would have failed that same guard — only the
/// attribution can shift when a non-separable guard would have fired
/// earlier in program order.
pub(crate) fn replay_block(
    dk: &DecodedKernel,
    trace: &Trace,
    ctx: &DecodedBlockCtx<'_>,
    scratch: &mut DecodedScratch,
    writes: &mut Vec<(u32, usize, u32)>,
) -> Result<(u64, u64, bool), DeoptReason> {
    let dx = ctx.block_idx.0 as i64 - trace.b0.0 as i64;
    let dy = ctx.block_idx.1 as i64 - trace.b0.1 as i64;
    let mut batched = !trace.sep_guards.is_empty();
    if batched && !trace.rect.contains(dx, dy) {
        let why = trace
            .sep_guards
            .iter()
            .find(|(g, _)| g.m0 + g.cbx * dx + g.cby * dy > 0)
            .map(|&(_, why)| why)
            .unwrap_or(DeoptReason::AffineRange);
        return Err(why);
    }
    // The `LdF`/`StF` bounds proofs assumed buffer lengths at least as
    // large as the per-buffer maxima recorded at finalize; a launch bound
    // to shorter buffers falls back to the fully guarded program, which
    // checks every guard inline.
    if batched
        && !trace.fast_pre.iter().all(|&(b, hi)| {
            ctx.buffers
                .get(b as usize)
                .is_some_and(|buf| hi < buf.len() as i64)
        })
    {
        batched = false;
    }
    scratch.prepare(dk, ctx.block_dim);
    if trace.needs_reset {
        scratch.reset(dk);
    } else if !scratch.shared.is_empty() {
        scratch.shared.fill(0);
    }
    let stride = dk.num_slots as usize * WARP;
    let regs = &mut scratch.regs[..];
    let shared = &mut scratch.shared[..];
    let (tidx, tidy) = (&scratch.tidx[..], &scratch.tidy[..]);
    let mut tx_total = 0u64;
    if batched {
        // Segment table precomputed at finalize: dispatch straight into each
        // warp's unit range, no per-block `Warp` marker scan.
        for &(w, s, e) in &trace.fast_segs {
            let w = w as usize;
            let mut ex = RExec {
                dk,
                ctx,
                trace,
                warp_id: w as u32,
                dx,
                dy,
                regs: &mut regs[w * stride..(w + 1) * stride],
                shared: &mut *shared,
                tidx,
                tidy,
                writes: &mut *writes,
                tx: &mut tx_total,
            };
            for ins in &trace.fast_prog[s as usize..e as usize] {
                ex.exec_ins(ins)?;
            }
        }
    } else {
        let prog: &[RIns] = &trace.prog[..];
        let mut i = 0usize;
        while i < prog.len() {
            let RIns::Warp(w) = prog[i] else {
                debug_assert!(false, "trace must start each segment with a Warp event");
                return Err(DeoptReason::OpFault);
            };
            i += 1;
            let mut end = i;
            while end < prog.len() && !matches!(prog[end], RIns::Warp(_)) {
                end += 1;
            }
            let w = w as usize;
            let mut ex = RExec {
                dk,
                ctx,
                trace,
                warp_id: w as u32,
                dx,
                dy,
                regs: &mut regs[w * stride..(w + 1) * stride],
                shared: &mut *shared,
                tidx,
                tidy,
                writes: &mut *writes,
                tx: &mut tx_total,
            };
            for ins in &prog[i..end] {
                ex.exec_ins(ins)?;
            }
            i = end;
        }
    }
    let cycles = trace.issue_cycles + tx_total * dk.mem_cycles;
    Ok((tx_total, cycles, batched))
}

/// Replay execution view of one warp (mirrors the decoded `DExec` field
/// names so `exec_pure_op!` and the lane macros apply unchanged).
struct RExec<'a> {
    dk: &'a DecodedKernel,
    ctx: &'a DecodedBlockCtx<'a>,
    trace: &'a Trace,
    warp_id: u32,
    /// Block offset from the recorded block (rebasing delta inputs).
    dx: i64,
    dy: i64,
    regs: &'a mut [u32],
    shared: &'a mut [u32],
    tidx: &'a [u32],
    tidy: &'a [u32],
    writes: &'a mut Vec<(u32, usize, u32)>,
    tx: &'a mut u64,
}

impl<'a> RExec<'a> {
    #[inline(always)]
    fn row(&self, base: usize) -> [u32; WARP] {
        let mut out = [0u32; WARP];
        out.copy_from_slice(&self.regs[base..base + WARP]);
        out
    }

    #[inline(always)]
    fn row_mut(&mut self, base: usize) -> &mut [u32; WARP] {
        (&mut self.regs[base..base + WARP]).try_into().unwrap()
    }

    fn exec_ins(&mut self, ins: &RIns) -> Result<(), DeoptReason> {
        match *ins {
            RIns::Warp(_) => unreachable!("warp switches are handled by the caller"),
            RIns::Guard { pred, mask, m_true } => {
                let p = pred as usize;
                let mut got = 0u32;
                for l in 0..WARP {
                    if mask & (1 << l) != 0 && self.regs[p + l] != 0 {
                        got |= 1 << l;
                    }
                }
                if got != m_true {
                    return Err(DeoptReason::Branch);
                }
                Ok(())
            }
            RIns::RangeGuard { m0, cbx, cby, why } => {
                if m0 + cbx * self.dx + cby * self.dy > 0 {
                    return Err(why);
                }
                Ok(())
            }
            RIns::Ld {
                dst,
                buf,
                addr,
                mask,
                rec,
            } => {
                let tr = self.trace;
                self.replay_ld(dst, buf, addr, mask, &tr.mems[rec as usize])
            }
            RIns::St {
                buf,
                addr,
                val,
                mask,
                rec,
            } => {
                let tr = self.trace;
                self.replay_st(buf, addr, val, mask, &tr.mems[rec as usize])
            }
            RIns::LdR {
                dst,
                buf,
                mask,
                rec,
            } => {
                let tr = self.trace;
                self.replay_ld_rebased(dst, buf, mask, &tr.mems[rec as usize])
            }
            RIns::StR {
                buf,
                val,
                mask,
                rec,
            } => {
                let tr = self.trace;
                self.replay_st_rebased(buf, val, mask, &tr.mems[rec as usize])
            }
            RIns::LdF {
                dst,
                buf,
                mask,
                rec,
            } => {
                let tr = self.trace;
                self.replay_ld_fast(dst, buf, mask, &tr.mems[rec as usize])
            }
            RIns::StF {
                buf,
                val,
                mask,
                rec,
            } => {
                let tr = self.trace;
                self.replay_st_fast(buf, val, mask, &tr.mems[rec as usize])
            }
            RIns::Op { kind, mask } => self.replay_op(kind, mask),
            RIns::Op2 { a, b, mask } => {
                self.replay_op(a, mask)?;
                self.replay_op(b, mask)
            }
            RIns::Op3 { a, b, c, mask } => {
                self.replay_op(a, mask)?;
                self.replay_op(b, mask)?;
                self.replay_op(c, mask)
            }
        }
    }

    /// Guard a pattern-mode (data-dependent) access: all active lanes must
    /// reproduce the recorded address pattern shifted by the anchor delta
    /// (exact `i64` equality — a wrapping 32-bit check could alias across
    /// 2³² and unsoundly admit an out-of-bounds unchecked access), and the
    /// translated extrema must stay inside the buffer. Returns the
    /// transaction count: the recorded one when the anchor keeps its segment
    /// alignment, else an exact recount.
    #[inline]
    fn guard_mem(
        &self,
        ab: usize,
        mask: u32,
        rec: &MemRec,
        len: usize,
    ) -> Result<(u64, [u32; WARP]), DeoptReason> {
        let anchor_lane = rec.base_lane as usize;
        let cur_anchor = self.regs[ab + anchor_lane] as i32 as i64;
        let rec_anchor = rec.addrs[anchor_lane] as i64;
        let delta = cur_anchor - rec_anchor;
        let cur = self.row(ab);
        if mask == u32::MAX {
            let mut same = true;
            for l in 0..WARP {
                same &= (cur[l] as i32 as i64) == rec.addrs[l] as i64 + delta;
            }
            if !same {
                return Err(DeoptReason::MemPattern);
            }
            if cur_anchor + rec.min_rel < 0 || cur_anchor + rec.max_rel >= len as i64 {
                return Err(DeoptReason::Bounds);
            }
            let tx = if cur_anchor.rem_euclid(32) == rec.align {
                rec.tx
            } else {
                let mut addrs = [0i64; WARP];
                for l in 0..WARP {
                    addrs[l] = cur[l] as i32 as i64;
                }
                segment_count_full(&addrs)
            };
            Ok((tx, cur))
        } else {
            let mut same = true;
            for l in 0..WARP {
                if mask & (1 << l) != 0 {
                    same &= (cur[l] as i32 as i64) == rec.addrs[l] as i64 + delta;
                }
            }
            if !same {
                return Err(DeoptReason::MemPattern);
            }
            if cur_anchor + rec.min_rel < 0 || cur_anchor + rec.max_rel >= len as i64 {
                return Err(DeoptReason::Bounds);
            }
            let tx = if cur_anchor.rem_euclid(32) == rec.align {
                rec.tx
            } else {
                let mut addrs: [Option<i64>; WARP] = [None; WARP];
                for l in 0..WARP {
                    if mask & (1 << l) != 0 {
                        addrs[l] = Some(cur[l] as i32 as i64);
                    }
                }
                transactions_for_warp_fixed(&addrs)
            };
            Ok((tx, cur))
        }
    }

    /// Prove a rebased access in bounds and derive its transaction count
    /// without touching the (dead, never re-derived) address row. The class
    /// proof gives every active lane's address as `recorded + delta`
    /// exactly; a bounds failure means the decoded engine would have
    /// errored, so the caller deopts and reproduces the exact error.
    #[inline]
    fn rebase_mem(&self, mask: u32, rec: &MemRec, len: usize) -> Result<(i64, u64), DeoptReason> {
        let (cbx, cby) = rec.rebase.ok_or(DeoptReason::OpFault)?;
        let delta = cbx * self.dx + cby * self.dy;
        let anchor = rec.addrs[rec.base_lane as usize] as i64 + delta;
        if anchor + rec.min_rel < 0 || anchor + rec.max_rel >= len as i64 {
            return Err(DeoptReason::Bounds);
        }
        let tx = if anchor.rem_euclid(32) == rec.align {
            rec.tx
        } else if mask == u32::MAX {
            segment_count_full(&crate::rows::add_delta(&rec.addrs, delta))
        } else {
            let mut addrs: [Option<i64>; WARP] = [None; WARP];
            lanes!(mask, l, {
                addrs[l] = Some(rec.addrs[l] as i64 + delta);
            });
            transactions_for_warp_fixed(&addrs)
        };
        Ok((delta, tx))
    }

    fn replay_ld(
        &mut self,
        dst: u32,
        buf: u32,
        addr: u32,
        mask: u32,
        rec: &MemRec,
    ) -> Result<(), DeoptReason> {
        let buffer = self
            .ctx
            .buffers
            .get(buf as usize)
            .ok_or(DeoptReason::OpFault)?;
        let (d, ab) = (dst as usize, addr as usize);
        let (tx, cur) = self.guard_mem(ab, mask, rec, buffer.len())?;
        if mask == u32::MAX {
            let out = self.row_mut(d);
            if rec.contig {
                // SAFETY: the verified pattern is unit-stride, so the guard's
                // extrema bound the whole `cur[0]..cur[0]+WARP` span.
                unsafe { buffer.load_span_unchecked(cur[0] as i32 as usize, out) };
                *self.tx += tx;
                return Ok(());
            }
            for l in 0..WARP {
                // SAFETY: `guard_mem` proved every lane reproduces the
                // recorded pattern at the rebased anchor and that the
                // pattern's extrema are inside the buffer.
                out[l] = unsafe { buffer.load_bits_unchecked(cur[l] as i32 as usize) };
            }
        } else {
            lanes!(mask, l, {
                // SAFETY: as above, for the active lanes.
                self.regs[d + l] = unsafe { buffer.load_bits_unchecked(cur[l] as i32 as usize) };
            });
        }
        *self.tx += tx;
        Ok(())
    }

    fn replay_st(
        &mut self,
        buf: u32,
        addr: u32,
        val: u32,
        mask: u32,
        rec: &MemRec,
    ) -> Result<(), DeoptReason> {
        let len = self
            .ctx
            .buffers
            .get(buf as usize)
            .ok_or(DeoptReason::OpFault)?
            .len();
        let (ab, vb) = (addr as usize, val as usize);
        let (tx, cur) = self.guard_mem(ab, mask, rec, len)?;
        if mask == u32::MAX {
            let vals = self.row(vb);
            self.writes
                .extend((0..WARP).map(|l| (buf, cur[l] as i32 as usize, vals[l])));
        } else {
            lanes!(mask, l, {
                self.writes
                    .push((buf, cur[l] as i32 as usize, self.regs[vb + l]));
            });
        }
        *self.tx += tx;
        Ok(())
    }

    fn replay_ld_rebased(
        &mut self,
        dst: u32,
        buf: u32,
        mask: u32,
        rec: &MemRec,
    ) -> Result<(), DeoptReason> {
        let buffer = self
            .ctx
            .buffers
            .get(buf as usize)
            .ok_or(DeoptReason::OpFault)?;
        let (delta, tx) = self.rebase_mem(mask, rec, buffer.len())?;
        self.ld_rebased_body(dst, buf, mask, rec, delta, tx)
    }

    /// Batch-proven rebased load: `replay_block`'s precondition already
    /// proved the bounds and that the anchor shift preserves segment
    /// alignment, so there is no per-block check and the recorded
    /// transaction count is exact.
    fn replay_ld_fast(
        &mut self,
        dst: u32,
        buf: u32,
        mask: u32,
        rec: &MemRec,
    ) -> Result<(), DeoptReason> {
        let (cbx, cby) = rec.rebase.ok_or(DeoptReason::OpFault)?;
        let delta = cbx * self.dx + cby * self.dy;
        self.ld_rebased_body(dst, buf, mask, rec, delta, rec.tx)
    }

    #[inline(always)]
    fn ld_rebased_body(
        &mut self,
        dst: u32,
        buf: u32,
        mask: u32,
        rec: &MemRec,
        delta: i64,
        tx: u64,
    ) -> Result<(), DeoptReason> {
        let buffer = self
            .ctx
            .buffers
            .get(buf as usize)
            .ok_or(DeoptReason::OpFault)?;
        let d = dst as usize;
        if mask == u32::MAX {
            let out = self.row_mut(d);
            if rec.contig {
                // SAFETY: unit-stride pattern — `rebase_mem`'s extrema bound
                // the whole rebased `addrs[0]..addrs[0]+WARP` span.
                unsafe { buffer.load_span_unchecked((rec.addrs[0] as i64 + delta) as usize, out) };
                *self.tx += tx;
                return Ok(());
            }
            let addrs = crate::rows::add_delta(&rec.addrs, delta);
            for l in 0..WARP {
                // SAFETY: `rebase_mem` bounds the translated extrema, and
                // the affine class proof puts every lane between them.
                out[l] = unsafe { buffer.load_bits_unchecked(addrs[l] as usize) };
            }
        } else {
            lanes!(mask, l, {
                // SAFETY: as above, for the active lanes.
                self.regs[d + l] =
                    unsafe { buffer.load_bits_unchecked((rec.addrs[l] as i64 + delta) as usize) };
            });
        }
        *self.tx += tx;
        Ok(())
    }

    fn replay_st_rebased(
        &mut self,
        buf: u32,
        val: u32,
        mask: u32,
        rec: &MemRec,
    ) -> Result<(), DeoptReason> {
        let len = self
            .ctx
            .buffers
            .get(buf as usize)
            .ok_or(DeoptReason::OpFault)?
            .len();
        let (delta, tx) = self.rebase_mem(mask, rec, len)?;
        self.st_rebased_body(buf, val, mask, rec, delta, tx);
        Ok(())
    }

    /// Batch-proven rebased store (see [`Self::replay_ld_fast`]).
    fn replay_st_fast(
        &mut self,
        buf: u32,
        val: u32,
        mask: u32,
        rec: &MemRec,
    ) -> Result<(), DeoptReason> {
        let (cbx, cby) = rec.rebase.ok_or(DeoptReason::OpFault)?;
        let delta = cbx * self.dx + cby * self.dy;
        self.st_rebased_body(buf, val, mask, rec, delta, rec.tx);
        Ok(())
    }

    #[inline(always)]
    fn st_rebased_body(
        &mut self,
        buf: u32,
        val: u32,
        mask: u32,
        rec: &MemRec,
        delta: i64,
        tx: u64,
    ) {
        let vb = val as usize;
        if mask == u32::MAX {
            let vals = self.row(vb);
            let addrs = crate::rows::add_delta(&rec.addrs, delta);
            self.writes
                .extend((0..WARP).map(|l| (buf, addrs[l] as usize, vals[l])));
        } else {
            lanes!(mask, l, {
                self.writes.push((
                    buf,
                    (rec.addrs[l] as i64 + delta) as usize,
                    self.regs[vb + l],
                ));
            });
        }
        *self.tx += tx;
    }

    /// Re-execute a surviving non-global-memory op. Arithmetic runs the
    /// decoded engine's own `exec_pure_op!` arms; parameter loads, texture
    /// fetches and shared memory re-execute with their failure paths mapped
    /// to deopt (the decoded re-run then reproduces the exact reference
    /// error).
    fn replay_op(&mut self, kind: DOpKind, mask: u32) -> Result<(), DeoptReason> {
        match kind {
            DOpKind::LdParam { dst, index } => {
                let bits = match self.ctx.params.get(index as usize) {
                    Some(ParamValue::I32(v)) => *v as u32,
                    Some(ParamValue::F32(v)) => v.to_bits(),
                    None => return Err(DeoptReason::OpFault),
                };
                let d = dst as usize;
                lanes!(mask, l, {
                    self.regs[d + l] = bits;
                });
            }
            DOpKind::Tex { dst, buf, x, y } => {
                let buffer: &DeviceBuffer = self
                    .ctx
                    .buffers
                    .get(buf as usize)
                    .ok_or(DeoptReason::OpFault)?;
                let desc = *buffer.texture().ok_or(DeoptReason::OpFault)?;
                let (d, xb, yb) = (dst as usize, x as usize, y as usize);
                let mut addrs: [Option<i64>; WARP] = [None; WARP];
                let mut values: [u32; WARP] = [0; WARP];
                lanes!(mask, l, {
                    let cx = self.regs[xb + l] as i32 as i64;
                    let cy = self.regs[yb + l] as i32 as i64;
                    let rx = desc.mode.resolve(cx, desc.width);
                    let ry = desc.mode.resolve(cy, desc.height);
                    match (rx, ry) {
                        (Some(rx), Some(ry)) => {
                            let a = (ry * desc.width + rx) as i64;
                            addrs[l] = Some(a);
                            values[l] = buffer.load_bits(a as usize);
                        }
                        _ => {
                            values[l] = desc.mode.border_value().to_bits();
                        }
                    }
                });
                *self.tx += transactions_for_warp_fixed(&addrs);
                lanes!(mask, l, {
                    self.regs[d + l] = values[l];
                });
            }
            DOpKind::Lds { dst, addr } => {
                let len = self.shared.len();
                let (d, ab) = (dst as usize, addr as usize);
                lanes!(mask, l, {
                    let a = self.regs[ab + l] as i32 as i64;
                    if a < 0 || a as usize >= len {
                        return Err(DeoptReason::Bounds);
                    }
                    self.regs[d + l] = self.shared[a as usize];
                });
            }
            DOpKind::Sts { addr, val } => {
                let len = self.shared.len();
                let (ab, vb) = (addr as usize, val as usize);
                lanes!(mask, l, {
                    let a = self.regs[ab + l] as i32 as i64;
                    if a < 0 || a as usize >= len {
                        return Err(DeoptReason::Bounds);
                    }
                    self.shared[a as usize] = self.regs[vb + l];
                });
            }
            kind => exec_pure_op!(self, kind, mask),
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Artifact serialization: `Trace` <-> `isp_json::Json` for the persistent
// on-disk cache (`crate::artifact`). The program is written *defused*
// (`Op2`/`Op3` expanded back to `Op` runs) and with every range guard
// inline; `finalize_trace` re-derives fusion and the batched-guard
// structures at load, so those stay implementation details that never
// invalidate cached files. Deserialization is defensive: replay executes
// with unchecked register/buffer indexing justified by record-time proofs,
// so every row base, warp id, record index, and memory-record extremum is
// re-validated here before a loaded trace is allowed to replay. Any
// structural problem returns `None` (counted as corrupt, recompiled).
// ---------------------------------------------------------------------------

use crate::decode::{counters_from_json, counters_to_json, dopkind_from_json, dopkind_to_json};
use isp_json::Json;

fn rins_to_json(ins: &RIns, out: &mut Vec<Json>) {
    let u = Json::U64;
    let i = Json::I64;
    match *ins {
        RIns::Warp(w) => out.push(Json::Arr(vec![u(0), u(w as u64)])),
        RIns::Op { kind, mask } => out.push(Json::Arr(vec![
            u(1),
            u(mask as u64),
            dopkind_to_json(&kind),
        ])),
        // Fused units expand back to their source ops: fusion is re-derived
        // at load.
        // Derived fast units lower back to their guarded source forms (they
        // only ever live in `fast_prog`, which is not serialized, but a
        // round trip must not lose the guards if one ever reaches here).
        RIns::LdF {
            dst,
            buf,
            mask,
            rec,
        } => {
            rins_to_json(
                &RIns::LdR {
                    dst,
                    buf,
                    mask,
                    rec,
                },
                out,
            );
        }
        RIns::StF {
            buf,
            val,
            mask,
            rec,
        } => {
            rins_to_json(
                &RIns::StR {
                    buf,
                    val,
                    mask,
                    rec,
                },
                out,
            );
        }
        RIns::Op2 { a, b, mask } => {
            rins_to_json(&RIns::Op { kind: a, mask }, out);
            rins_to_json(&RIns::Op { kind: b, mask }, out);
        }
        RIns::Op3 { a, b, c, mask } => {
            rins_to_json(&RIns::Op { kind: a, mask }, out);
            rins_to_json(&RIns::Op { kind: b, mask }, out);
            rins_to_json(&RIns::Op { kind: c, mask }, out);
        }
        RIns::Guard { pred, mask, m_true } => out.push(Json::Arr(vec![
            u(2),
            u(pred as u64),
            u(mask as u64),
            u(m_true as u64),
        ])),
        RIns::RangeGuard { m0, cbx, cby, why } => out.push(Json::Arr(vec![
            u(3),
            u(why.index() as u64),
            i(m0),
            i(cbx),
            i(cby),
        ])),
        RIns::Ld {
            dst,
            buf,
            addr,
            mask,
            rec,
        } => out.push(Json::Arr(vec![
            u(4),
            u(dst as u64),
            u(buf as u64),
            u(addr as u64),
            u(mask as u64),
            u(rec as u64),
        ])),
        RIns::St {
            buf,
            addr,
            val,
            mask,
            rec,
        } => out.push(Json::Arr(vec![
            u(5),
            u(buf as u64),
            u(addr as u64),
            u(val as u64),
            u(mask as u64),
            u(rec as u64),
        ])),
        RIns::LdR {
            dst,
            buf,
            mask,
            rec,
        } => out.push(Json::Arr(vec![
            u(6),
            u(dst as u64),
            u(buf as u64),
            u(mask as u64),
            u(rec as u64),
        ])),
        RIns::StR {
            buf,
            val,
            mask,
            rec,
        } => out.push(Json::Arr(vec![
            u(7),
            u(buf as u64),
            u(val as u64),
            u(mask as u64),
            u(rec as u64),
        ])),
    }
}

fn memrec_to_json(rec: &MemRec) -> Json {
    Json::obj()
        .set(
            "addrs",
            Json::Arr(rec.addrs.iter().map(|&a| Json::I64(a as i64)).collect()),
        )
        .set("base_lane", rec.base_lane)
        .set("min_rel", rec.min_rel)
        .set("max_rel", rec.max_rel)
        .set("align", rec.align)
        .set("tx", rec.tx)
        .set(
            "rebase",
            match rec.rebase {
                Some((cbx, cby)) => Json::Arr(vec![Json::I64(cbx), Json::I64(cby)]),
                None => Json::Null,
            },
        )
        .set("contig", rec.contig)
}

fn memrec_from_json(j: &Json) -> Option<MemRec> {
    let addrs_j = j.get("addrs")?.as_arr()?;
    if addrs_j.len() != WARP {
        return None;
    }
    let mut addrs = [0i32; WARP];
    for (slot, item) in addrs.iter_mut().zip(addrs_j) {
        *slot = i32::try_from(item.as_i64()?).ok()?;
    }
    let base_lane = u32::try_from(j.get("base_lane")?.as_u64()?).ok()?;
    if base_lane as usize >= WARP {
        return None;
    }
    let rebase = match j.get("rebase")? {
        Json::Null => None,
        Json::Arr(v) if v.len() == 2 => Some((v[0].as_i64()?, v[1].as_i64()?)),
        _ => return None,
    };
    Some(MemRec {
        addrs,
        base_lane,
        min_rel: j.get("min_rel")?.as_i64()?,
        max_rel: j.get("max_rel")?.as_i64()?,
        align: j.get("align")?.as_i64()?,
        tx: j.get("tx")?.as_u64()?,
        rebase,
        contig: j.get("contig")?.as_bool()?,
    })
}

/// Serialize a compiled trace.
pub(crate) fn trace_to_json(trace: &Trace) -> Json {
    let mut prog = Vec::with_capacity(trace.prog.len());
    for ins in &trace.prog {
        rins_to_json(ins, &mut prog);
    }
    Json::obj()
        .set(
            "b0",
            Json::Arr(vec![
                Json::U64(trace.b0.0 as u64),
                Json::U64(trace.b0.1 as u64),
            ]),
        )
        .set("needs_reset", trace.needs_reset)
        .set("issue_cycles", trace.issue_cycles)
        .set("counters", counters_to_json(&trace.counters))
        .set(
            "mems",
            Json::Arr(trace.mems.iter().map(memrec_to_json).collect()),
        )
        .set("prog", Json::Arr(prog))
}

/// Prove a memory record's extrema really bound every lane an access with
/// `mask` can touch — this is what makes replay's unchecked buffer indexing
/// sound for a trace of disk origin.
fn memrec_use_valid(rec: &MemRec, mask: u32, contig_path: bool) -> bool {
    let anchor = rec.addrs[rec.base_lane as usize] as i64;
    if rec.min_rel > 0 || rec.max_rel < 0 {
        // The anchor itself (rel 0) must be inside the extrema.
        return false;
    }
    for l in 0..WARP {
        if mask & (1 << l) != 0 {
            let rel = rec.addrs[l] as i64 - anchor;
            if rel < rec.min_rel || rel > rec.max_rel {
                return false;
            }
        }
    }
    if contig_path && mask == u32::MAX {
        // The contiguous fast copy spans `addrs[0] .. addrs[0] + WARP`.
        for l in 0..WARP {
            if rec.addrs[l] as i64 != rec.addrs[0] as i64 + l as i64 {
                return false;
            }
        }
    }
    true
}

/// Reconstruct a [`Trace`] from its serialized form, re-deriving fusion and
/// the batched-guard structures for the loading kernel. `max_warps` is the
/// warp count of the launch geometry the trace is keyed under.
pub(crate) fn trace_from_json(
    j: &Json,
    dk: &DecodedKernel,
    max_warps: u32,
    grid: (u32, u32),
) -> Option<Trace> {
    let b0_j = j.get("b0")?.as_arr()?;
    if b0_j.len() != 2 {
        return None;
    }
    let b0 = (
        u32::try_from(b0_j[0].as_u64()?).ok()?,
        u32::try_from(b0_j[1].as_u64()?).ok()?,
    );
    let needs_reset = j.get("needs_reset")?.as_bool()?;
    let issue_cycles = j.get("issue_cycles")?.as_u64()?;
    let counters = counters_from_json(j.get("counters")?)?;
    let mems = j
        .get("mems")?
        .as_arr()?
        .iter()
        .map(memrec_from_json)
        .collect::<Option<Vec<MemRec>>>()?;

    let ns = dk.num_slots;
    let row_ok = |base: u32| base.is_multiple_of(WARP as u32) && base / (WARP as u32) < ns;
    let rec_ok = |r: u32| (r as usize) < mems.len();
    let mut prog = Vec::new();
    for item in j.get("prog")?.as_arr()? {
        let v = item.as_arr()?;
        let n = |i: usize| -> Option<u64> { v.get(i)?.as_u64() };
        let u = |i: usize| -> Option<u32> { u32::try_from(n(i)?).ok() };
        let ins = match n(0)? {
            0 => {
                let w = u(1)?;
                if w >= max_warps {
                    return None;
                }
                RIns::Warp(w)
            }
            1 => {
                let mask = u(1)?;
                let kind = dopkind_from_json(v.get(2)?)?;
                if !crate::decode::dopkind_rows_valid(&kind, ns) {
                    return None;
                }
                // Global loads/stores are Mem events in a trace, never ops;
                // `Bar` never executes. A program claiming otherwise is
                // corrupt.
                if matches!(kind, DOpKind::Ld { .. } | DOpKind::St { .. } | DOpKind::Bar) {
                    return None;
                }
                RIns::Op { kind, mask }
            }
            2 => {
                let pred = u(1)?;
                if !row_ok(pred) {
                    return None;
                }
                RIns::Guard {
                    pred,
                    mask: u(2)?,
                    m_true: u(3)?,
                }
            }
            3 => {
                let why = DeoptReason::ALL
                    .get(usize::try_from(n(1)?).ok()?)
                    .copied()?;
                RIns::RangeGuard {
                    m0: v.get(2)?.as_i64()?,
                    cbx: v.get(3)?.as_i64()?,
                    cby: v.get(4)?.as_i64()?,
                    why,
                }
            }
            4 => {
                let (dst, buf, addr, mask, rec) = (u(1)?, u(2)?, u(3)?, u(4)?, u(5)?);
                if !row_ok(dst) || !row_ok(addr) || !rec_ok(rec) {
                    return None;
                }
                if !memrec_use_valid(&mems[rec as usize], mask, mems[rec as usize].contig) {
                    return None;
                }
                RIns::Ld {
                    dst,
                    buf,
                    addr,
                    mask,
                    rec,
                }
            }
            5 => {
                let (buf, addr, val, mask, rec) = (u(1)?, u(2)?, u(3)?, u(4)?, u(5)?);
                if !row_ok(addr) || !row_ok(val) || !rec_ok(rec) {
                    return None;
                }
                if !memrec_use_valid(&mems[rec as usize], mask, false) {
                    return None;
                }
                RIns::St {
                    buf,
                    addr,
                    val,
                    mask,
                    rec,
                }
            }
            6 => {
                let (dst, buf, mask, rec) = (u(1)?, u(2)?, u(3)?, u(4)?);
                if !row_ok(dst) || !rec_ok(rec) {
                    return None;
                }
                if !memrec_use_valid(&mems[rec as usize], mask, mems[rec as usize].contig) {
                    return None;
                }
                RIns::LdR {
                    dst,
                    buf,
                    mask,
                    rec,
                }
            }
            7 => {
                let (buf, val, mask, rec) = (u(1)?, u(2)?, u(3)?, u(4)?);
                if !row_ok(val) || !rec_ok(rec) {
                    return None;
                }
                if !memrec_use_valid(&mems[rec as usize], mask, false) {
                    return None;
                }
                RIns::StR {
                    buf,
                    val,
                    mask,
                    rec,
                }
            }
            _ => return None,
        };
        prog.push(ins);
    }
    // Replay walks the program in `Warp`-delimited segments; anything
    // before the first marker would be silently skipped, so reject it.
    if !prog.is_empty() && !matches!(prog[0], RIns::Warp(_)) {
        return None;
    }
    Some(finalize_trace(
        prog,
        mems,
        counters,
        issue_cycles,
        b0,
        grid,
        needs_reset,
        dk.fuse,
    ))
}
