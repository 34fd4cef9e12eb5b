//! Full-warp row kernels: the innermost `[u32; 32]` lane loops of the
//! decoded and replay engines, factored into named functions so a SIMD
//! backend can replace the scalar loops without touching dispatch.
//!
//! Bit-exactness contract: every function here must produce results
//! bit-identical to the scalar reference loops (which replicate
//! [`crate::interp`]'s eval functions lane by lane) for *all* operand bit
//! patterns — NaN payloads, signalling NaNs, denormals, signed zeros, shift
//! counts ≥ 32, `i32::MIN / -1`. The `simd` feature enables an AVX2 backend
//! on x86-64; operations whose packed x86 semantics can differ from Rust
//! scalar semantics in any reachable case (integer division/remainder,
//! float remainder, `f32 → s32` rounding, transcendentals) stay scalar.
//! Float min/max is vectorised only for strictly-ordered lanes; unordered
//! or equal lanes (NaNs, `±0.0` pairs, exact ties) take a scalar fixup, so
//! the platform-dependent lowering of those cases never leaks in.
//!
//! All functions take the register file slice plus row *bases* (`slot *
//! 32`), read their input rows into locals first, and only then write the
//! destination row — so a destination aliasing a source keeps element-wise
//! semantics, exactly like the executor's `warp_map` macros.

use crate::interp::{eval_bin_f, eval_bin_i, eval_cmp_f, eval_cmp_i, WARP};
use isp_ir::{BinOp, CmpOp};
use std::sync::atomic::{AtomicU8, Ordering};

/// SIMD backend state: 0 = not yet detected, 1 = off, 2 = on.
static SIMD_MODE: AtomicU8 = AtomicU8::new(0);

/// Whether this build + host can run the SIMD backend at all.
fn simd_supported() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Force the SIMD backend on or off for the whole process — the
/// differential tests compare both paths in one binary. Enabling is a no-op when the `simd` feature is off or the host
/// lacks AVX2; the scalar path is always available.
pub fn set_simd_enabled(enabled: bool) {
    let mode = if enabled && simd_supported() { 2 } else { 1 };
    SIMD_MODE.store(mode, Ordering::Relaxed);
}

/// Whether row kernels currently take the SIMD path. Defaults to host
/// detection on first use (always `false` without the `simd` feature).
#[inline]
pub fn simd_enabled() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        match SIMD_MODE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let on = simd_supported();
                SIMD_MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
                on
            }
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Copy of the register row at `base`: one bounds check, then the returned
/// array indexes check-free.
#[inline(always)]
fn row(regs: &[u32], base: usize) -> [u32; WARP] {
    let mut out = [0u32; WARP];
    out.copy_from_slice(&regs[base..base + WARP]);
    out
}

/// Register row at `base` as a fixed-size array for check-free writes.
#[inline(always)]
fn row_mut(regs: &mut [u32], base: usize) -> &mut [u32; WARP] {
    (&mut regs[base..base + WARP]).try_into().unwrap()
}

/// Full-warp integer binary op: `regs[d..] = op(regs[a..], regs[b..])`.
#[inline]
pub fn bin_i(op: BinOp, regs: &mut [u32], d: usize, a: usize, b: usize) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() && avx2::bin_i(op, regs, d, a, b) {
        return;
    }
    let xs = row(regs, a);
    let ys = row(regs, b);
    let out = row_mut(regs, d);
    for l in 0..WARP {
        out[l] = eval_bin_i(op, xs[l] as i32, ys[l] as i32) as u32;
    }
}

/// Full-warp float binary op (operands and result as raw bits).
#[inline]
pub fn bin_f(op: BinOp, regs: &mut [u32], d: usize, a: usize, b: usize) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() && avx2::bin_f(op, regs, d, a, b) {
        return;
    }
    let xs = row(regs, a);
    let ys = row(regs, b);
    let out = row_mut(regs, d);
    for l in 0..WARP {
        out[l] = eval_bin_f(op, f32::from_bits(xs[l]), f32::from_bits(ys[l])).to_bits();
    }
}

/// Full-warp integer multiply-add: `d = a * b + c` (wrapping).
#[inline]
pub fn mad_i(regs: &mut [u32], d: usize, a: usize, b: usize, c: usize) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::mad_i(regs, d, a, b, c) };
        return;
    }
    let xs = row(regs, a);
    let ys = row(regs, b);
    let zs = row(regs, c);
    let out = row_mut(regs, d);
    for l in 0..WARP {
        out[l] = (xs[l] as i32)
            .wrapping_mul(ys[l] as i32)
            .wrapping_add(zs[l] as i32) as u32;
    }
}

/// Full-warp float multiply-add: separate multiply then add, both rounded —
/// NOT a fused mad, matching the scalar interpreter exactly.
#[inline]
pub fn mad_f(regs: &mut [u32], d: usize, a: usize, b: usize, c: usize) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::mad_f(regs, d, a, b, c) };
        return;
    }
    let xs = row(regs, a);
    let ys = row(regs, b);
    let zs = row(regs, c);
    let out = row_mut(regs, d);
    for l in 0..WARP {
        let v = f32::from_bits(xs[l]) * f32::from_bits(ys[l]) + f32::from_bits(zs[l]);
        out[l] = crate::interp::canon_f32(v).to_bits();
    }
}

/// Full-warp `s32 → f32` convert (round-to-nearest-even, the default FP
/// environment for both the scalar cast and `vcvtdq2ps`).
#[inline]
pub fn cvt_if(regs: &mut [u32], d: usize, a: usize) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::cvt_if(regs, d, a) };
        return;
    }
    let xs = row(regs, a);
    let out = row_mut(regs, d);
    for l in 0..WARP {
        out[l] = (xs[l] as i32 as f32).to_bits();
    }
}

/// Full-warp integer compare, producing 0/1 predicate rows.
#[inline]
pub fn set_p_i(cmp: CmpOp, regs: &mut [u32], d: usize, a: usize, b: usize) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::set_p_i(cmp, regs, d, a, b) };
        return;
    }
    let xs = row(regs, a);
    let ys = row(regs, b);
    let out = row_mut(regs, d);
    for l in 0..WARP {
        out[l] = eval_cmp_i(cmp, xs[l] as i32, ys[l] as i32) as u32;
    }
}

/// Full-warp float compare (IEEE: any NaN operand compares false except for
/// `Ne`, which compares true — the ordered/unordered predicate split).
#[inline]
pub fn set_p_f(cmp: CmpOp, regs: &mut [u32], d: usize, a: usize, b: usize) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::set_p_f(cmp, regs, d, a, b) };
        return;
    }
    let xs = row(regs, a);
    let ys = row(regs, b);
    let out = row_mut(regs, d);
    for l in 0..WARP {
        out[l] = eval_cmp_f(cmp, f32::from_bits(xs[l]), f32::from_bits(ys[l])) as u32;
    }
}

/// Translate a recorded address row by a constant delta — the replay
/// engine's rebased copy/translate step (`addrs[l] + delta` in `i64`, so no
/// wrapping at the `i32` boundary).
#[inline]
pub fn add_delta(addrs: &[i32; WARP], delta: i64) -> [i64; WARP] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        return unsafe { avx2::add_delta(addrs, delta) };
    }
    std::array::from_fn(|l| addrs[l] as i64 + delta)
}

/// Fused pair of integer mads — one SIMD dispatch covers the whole
/// superinstruction group; the scalar path is the two constituent row ops
/// in sequence (bit-identical by construction).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn mad2_i(
    regs: &mut [u32],
    d1: usize,
    a1: usize,
    b1: usize,
    c1: usize,
    d2: usize,
    a2: usize,
    b2: usize,
    c2: usize,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::mad2_i(regs, d1, a1, b1, c1, d2, a2, b2, c2) };
        return;
    }
    mad_i(regs, d1, a1, b1, c1);
    mad_i(regs, d2, a2, b2, c2);
}

/// Fused pair of float mads (each still a separate rounded multiply + add).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn mad2_f(
    regs: &mut [u32],
    d1: usize,
    a1: usize,
    b1: usize,
    c1: usize,
    d2: usize,
    a2: usize,
    b2: usize,
    c2: usize,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::mad2_f(regs, d1, a1, b1, c1, d2, a2, b2, c2) };
        return;
    }
    mad_f(regs, d1, a1, b1, c1);
    mad_f(regs, d2, a2, b2, c2);
}

/// Fused float multiply + accumulate as two separately-rounded ops — the
/// stencil weight-apply pair (`mul.f32 ; add.f32`).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn mul_add_f(
    regs: &mut [u32],
    d1: usize,
    a1: usize,
    b1: usize,
    d2: usize,
    a2: usize,
    b2: usize,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::mul_add_f(regs, d1, a1, b1, d2, a2, b2) };
        return;
    }
    bin_f(BinOp::Mul, regs, d1, a1, b1);
    bin_f(BinOp::Add, regs, d2, a2, b2);
}

/// Fused mad + mad + integer min — the stencil coordinate-clamp triple.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn mad2_i_min(
    regs: &mut [u32],
    d1: usize,
    a1: usize,
    b1: usize,
    c1: usize,
    d2: usize,
    a2: usize,
    b2: usize,
    c2: usize,
    d3: usize,
    a3: usize,
    b3: usize,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        unsafe { avx2::mad2_i_min(regs, d1, a1, b1, c1, d2, a2, b2, c2, d3, a3, b3) };
        return;
    }
    mad_i(regs, d1, a1, b1, c1);
    mad_i(regs, d2, a2, b2, c2);
    bin_i(BinOp::Min, regs, d3, a3, b3);
}

/// Full-warp global-memory fast path: bounds-check a row of element
/// addresses (register bits interpreted as `i32`) against `len` and count
/// distinct 32-element segments, in one vectorised pass. `None` means
/// "take the exact scalar path": SIMD is off, a lane is out of bounds (the
/// scalar re-walk attributes the faulting lane), or the segment row is not
/// monotonically non-decreasing (the scalar counter sorts).
#[inline]
pub fn full_warp_tx_fast(addrs: &[u32; WARP], len: usize) -> Option<u64> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is true only after AVX2 detection.
        return unsafe { avx2::full_warp_tx(addrs, len) };
    }
    let _ = (addrs, len);
    None
}

/// Full-warp gather: `out[l] = buf[addrs[l] as i32 as usize]`.
///
/// # Safety
/// Every `addrs[l] as i32` must be non-negative and less than `buf.len()`
/// — the caller has already validated the row ([`full_warp_tx_fast`] or
/// the scalar bounds walk).
#[inline]
pub unsafe fn gather_row(out: &mut [u32; WARP], addrs: &[u32; WARP], buf: &[u32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_enabled() {
        return avx2::gather(out, addrs, buf);
    }
    for l in 0..WARP {
        out[l] = *buf.get_unchecked(addrs[l] as i32 as usize);
    }
}

/// The AVX2 backend. Every function is `#[target_feature(enable = "avx2")]`
/// and only reachable behind [`simd_enabled`]'s runtime detection. 32 lanes
/// = four 256-bit chunks; loads/stores are unaligned (register rows have no
/// alignment guarantee inside the scratch arena).
///
/// Unlike the scalar loops, these kernels read and write the register file
/// *directly* — no copy-the-rows-first step. That is exact because row
/// bases are always `slot * 32`: two rows are either identical or fully
/// disjoint, and each chunk is loaded before the same chunk is stored, so
/// a destination aliasing a source still sees element-wise semantics.
/// Fused multi-op kernels interleave per chunk; an op reading a row the
/// previous op wrote picks up the just-stored chunk, which is exactly the
/// sequential result.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2 {
    use super::{row, row_mut, WARP};
    use core::arch::x86_64::*;
    use isp_ir::{BinOp, CmpOp};

    const CHUNKS: usize = WARP / 8;

    #[inline(always)]
    unsafe fn load(p: &[u32; WARP], c: usize) -> __m256i {
        _mm256_loadu_si256(p.as_ptr().add(c * 8) as *const __m256i)
    }

    #[inline(always)]
    unsafe fn store(p: &mut [u32; WARP], c: usize, v: __m256i) {
        _mm256_storeu_si256(p.as_mut_ptr().add(c * 8) as *mut __m256i, v)
    }

    #[inline(always)]
    unsafe fn loadf(p: &[u32; WARP], c: usize) -> __m256 {
        _mm256_loadu_ps(p.as_ptr().add(c * 8) as *const f32)
    }

    #[inline(always)]
    unsafe fn storef(p: &mut [u32; WARP], c: usize, v: __m256) {
        _mm256_storeu_ps(p.as_mut_ptr().add(c * 8) as *mut f32, v)
    }

    /// One bounds check per register row, so the pointer loads below stay
    /// inside the file; elided from the hot path by branch prediction.
    #[inline(always)]
    fn check(regs: &[u32], bases: &[usize]) {
        for &b in bases {
            assert!(b + WARP <= regs.len(), "register row out of range");
        }
    }

    #[inline(always)]
    unsafe fn vl(p: *const u32, base: usize, c: usize) -> __m256i {
        _mm256_loadu_si256(p.add(base + c * 8) as *const __m256i)
    }

    #[inline(always)]
    unsafe fn vs(p: *mut u32, base: usize, c: usize, v: __m256i) {
        _mm256_storeu_si256(p.add(base + c * 8) as *mut __m256i, v)
    }

    #[inline(always)]
    unsafe fn vlf(p: *const u32, base: usize, c: usize) -> __m256 {
        _mm256_loadu_ps(p.add(base + c * 8) as *const f32)
    }

    #[inline(always)]
    unsafe fn vsf(p: *mut u32, base: usize, c: usize, v: __m256) {
        _mm256_storeu_ps(p.add(base + c * 8) as *mut f32, v)
    }

    /// Vectorise an integer binary op; `false` defers division/remainder
    /// (quotient edge cases stay on the one true scalar path) to the caller.
    #[inline]
    pub(crate) fn bin_i(op: BinOp, regs: &mut [u32], d: usize, a: usize, b: usize) -> bool {
        if matches!(op, BinOp::Div | BinOp::Rem) {
            return false;
        }
        // SAFETY: caller checked `simd_enabled` (AVX2 detected).
        unsafe { bin_i_avx2(op, regs, d, a, b) };
        true
    }

    #[target_feature(enable = "avx2")]
    unsafe fn bin_i_avx2(op: BinOp, regs: &mut [u32], d: usize, a: usize, b: usize) {
        check(regs, &[d, a, b]);
        let p = regs.as_mut_ptr();
        let k31 = _mm256_set1_epi32(31);
        for c in 0..CHUNKS {
            let x = vl(p, a, c);
            let y = vl(p, b, c);
            let r = match op {
                BinOp::Add => _mm256_add_epi32(x, y),
                BinOp::Sub => _mm256_sub_epi32(x, y),
                BinOp::Mul => _mm256_mullo_epi32(x, y),
                BinOp::Min => _mm256_min_epi32(x, y),
                BinOp::Max => _mm256_max_epi32(x, y),
                BinOp::And => _mm256_and_si256(x, y),
                BinOp::Or => _mm256_or_si256(x, y),
                BinOp::Xor => _mm256_xor_si256(x, y),
                // Shift counts masked to `& 31`, exactly like `wrapping_shl`
                // — variable shifts then never hit the ≥ 32 zeroing case.
                BinOp::Shl => _mm256_sllv_epi32(x, _mm256_and_si256(y, k31)),
                BinOp::Shr => _mm256_srav_epi32(x, _mm256_and_si256(y, k31)),
                BinOp::Div | BinOp::Rem => unreachable!("kept scalar"),
            };
            vs(p, d, c, r);
        }
    }

    /// Vectorise a float binary op; `false` defers `Rem` (libm `fmodf`
    /// stays scalar).
    #[inline]
    pub(crate) fn bin_f(op: BinOp, regs: &mut [u32], d: usize, a: usize, b: usize) -> bool {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                // SAFETY: caller checked `simd_enabled` (AVX2 detected).
                unsafe { bin_f_arith(op, regs, d, a, b) };
                true
            }
            BinOp::Min | BinOp::Max => {
                // SAFETY: as above.
                unsafe { bin_f_minmax(op == BinOp::Max, regs, d, a, b) };
                true
            }
            _ => false,
        }
    }

    /// Canonicalise a chunk of arithmetic results: NaN lanes become the
    /// canonical `0x7fffffff`, matching [`crate::interp::canon_f32`]. This
    /// is what keeps the vector kernels bit-identical to the scalar
    /// evaluator when *both* operands of an op are NaN — x86 propagates
    /// `src1`'s payload, but which operand the compiler put in `src1`
    /// differs between the scalar and packed instruction selections.
    #[inline(always)]
    unsafe fn canon_chunk(r: __m256) -> __m256 {
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(r, r);
        let canon = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        _mm256_blendv_ps(r, canon, nan)
    }

    /// Packed add/sub/mul/div round exactly like Rust scalar ops under the
    /// default FP environment; NaN results are canonicalised on both paths.
    #[target_feature(enable = "avx2")]
    unsafe fn bin_f_arith(op: BinOp, regs: &mut [u32], d: usize, a: usize, b: usize) {
        check(regs, &[d, a, b]);
        let p = regs.as_mut_ptr();
        for c in 0..CHUNKS {
            let x = vlf(p, a, c);
            let y = vlf(p, b, c);
            let r = match op {
                BinOp::Add => _mm256_add_ps(x, y),
                BinOp::Sub => _mm256_sub_ps(x, y),
                BinOp::Mul => _mm256_mul_ps(x, y),
                BinOp::Div => _mm256_div_ps(x, y),
                _ => unreachable!("dispatched above"),
            };
            vsf(p, d, c, canon_chunk(r));
        }
    }

    /// Float min/max: strictly-ordered lanes pick the smaller/larger operand
    /// by blend — a unique value, so necessarily the scalar result. Lanes
    /// that are *not* strictly ordered (a NaN operand, or equal values —
    /// which includes `±0.0` pairs) fall back to scalar `f32::min`/`max`,
    /// sidestepping the platform-defined both-NaN payload and signed-zero
    /// choices entirely. The fixup mask is 0 on ordinary data.
    #[target_feature(enable = "avx2")]
    unsafe fn bin_f_minmax(is_max: bool, regs: &mut [u32], d: usize, a: usize, b: usize) {
        let xs = row(regs, a);
        let ys = row(regs, b);
        let out = row_mut(regs, d);
        let mut fix = 0u32;
        for c in 0..CHUNKS {
            let x = loadf(&xs, c);
            let y = loadf(&ys, c);
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(x, y);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(x, y);
            let pick_x = if is_max { gt } else { lt };
            storef(out, c, _mm256_blendv_ps(y, x, pick_x));
            let ordered = _mm256_movemask_ps(_mm256_or_ps(lt, gt)) as u32;
            fix |= (!ordered & 0xff) << (c * 8);
        }
        while fix != 0 {
            let l = fix.trailing_zeros() as usize;
            fix &= fix - 1;
            let (x, y) = (f32::from_bits(xs[l]), f32::from_bits(ys[l]));
            let v = if is_max { x.max(y) } else { x.min(y) };
            out[l] = crate::interp::canon_f32(v).to_bits();
        }
    }

    /// One integer mad chunk: `a * b + c`, wrapping.
    #[inline(always)]
    unsafe fn mad_i_chunk(p: *mut u32, a: usize, b: usize, c: usize, ch: usize) -> __m256i {
        _mm256_add_epi32(_mm256_mullo_epi32(vl(p, a, ch), vl(p, b, ch)), vl(p, c, ch))
    }

    /// One float mad chunk: separate `vmulps` + `vaddps` — NOT `vfmadd`,
    /// which would skip the intermediate rounding the scalar interpreter
    /// performs.
    #[inline(always)]
    unsafe fn mad_f_chunk(p: *mut u32, a: usize, b: usize, c: usize, ch: usize) -> __m256 {
        canon_chunk(_mm256_add_ps(
            _mm256_mul_ps(vlf(p, a, ch), vlf(p, b, ch)),
            vlf(p, c, ch),
        ))
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mad_i(regs: &mut [u32], d: usize, a: usize, b: usize, c: usize) {
        check(regs, &[d, a, b, c]);
        let p = regs.as_mut_ptr();
        for ch in 0..CHUNKS {
            let r = mad_i_chunk(p, a, b, c, ch);
            vs(p, d, ch, r);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mad_f(regs: &mut [u32], d: usize, a: usize, b: usize, c: usize) {
        check(regs, &[d, a, b, c]);
        let p = regs.as_mut_ptr();
        for ch in 0..CHUNKS {
            let r = mad_f_chunk(p, a, b, c, ch);
            vsf(p, d, ch, r);
        }
    }

    /// Fused mad + mad, chunk-interleaved: the second op's loads see the
    /// first op's just-stored chunk, which is exactly the sequential
    /// result (rows are identical or disjoint).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mad2_i(
        regs: &mut [u32],
        d1: usize,
        a1: usize,
        b1: usize,
        c1: usize,
        d2: usize,
        a2: usize,
        b2: usize,
        c2: usize,
    ) {
        check(regs, &[d1, a1, b1, c1, d2, a2, b2, c2]);
        let p = regs.as_mut_ptr();
        for ch in 0..CHUNKS {
            let r1 = mad_i_chunk(p, a1, b1, c1, ch);
            vs(p, d1, ch, r1);
            let r2 = mad_i_chunk(p, a2, b2, c2, ch);
            vs(p, d2, ch, r2);
        }
    }

    /// Fused float mad + mad (each still separately rounded).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mad2_f(
        regs: &mut [u32],
        d1: usize,
        a1: usize,
        b1: usize,
        c1: usize,
        d2: usize,
        a2: usize,
        b2: usize,
        c2: usize,
    ) {
        check(regs, &[d1, a1, b1, c1, d2, a2, b2, c2]);
        let p = regs.as_mut_ptr();
        for ch in 0..CHUNKS {
            let r1 = mad_f_chunk(p, a1, b1, c1, ch);
            vsf(p, d1, ch, r1);
            let r2 = mad_f_chunk(p, a2, b2, c2, ch);
            vsf(p, d2, ch, r2);
        }
    }

    /// Predicate row to lane mask: bit `l` set iff lane `l` of the row at
    /// `base` is non-zero — the vector form of the branch-resolution loop.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn pred_row_mask(regs: &[u32], base: usize) -> u32 {
        assert!(base + WARP <= regs.len(), "row base out of range");
        let p = regs.as_ptr();
        let zero = _mm256_setzero_si256();
        let mut m = 0u32;
        for c in 0..CHUNKS {
            let v = _mm256_loadu_si256(p.add(base + c * 8) as *const __m256i);
            let eq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero))) as u32;
            m |= (!eq & 0xff) << (c * 8);
        }
        m
    }

    /// Fused float multiply + add, chunk-interleaved (each op separately
    /// rounded, same as the sequential pair).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mul_add_f(
        regs: &mut [u32],
        d1: usize,
        a1: usize,
        b1: usize,
        d2: usize,
        a2: usize,
        b2: usize,
    ) {
        check(regs, &[d1, a1, b1, d2, a2, b2]);
        let p = regs.as_mut_ptr();
        for ch in 0..CHUNKS {
            let r1 = canon_chunk(_mm256_mul_ps(vlf(p, a1, ch), vlf(p, b1, ch)));
            vsf(p, d1, ch, r1);
            let r2 = canon_chunk(_mm256_add_ps(vlf(p, a2, ch), vlf(p, b2, ch)));
            vsf(p, d2, ch, r2);
        }
    }

    /// Fused mad + mad + integer min — the coordinate-clamp triple.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mad2_i_min(
        regs: &mut [u32],
        d1: usize,
        a1: usize,
        b1: usize,
        c1: usize,
        d2: usize,
        a2: usize,
        b2: usize,
        c2: usize,
        d3: usize,
        a3: usize,
        b3: usize,
    ) {
        check(regs, &[d1, a1, b1, c1, d2, a2, b2, c2, d3, a3, b3]);
        let p = regs.as_mut_ptr();
        for ch in 0..CHUNKS {
            let r1 = mad_i_chunk(p, a1, b1, c1, ch);
            vs(p, d1, ch, r1);
            let r2 = mad_i_chunk(p, a2, b2, c2, ch);
            vs(p, d2, ch, r2);
            let r3 = _mm256_min_epi32(vl(p, a3, ch), vl(p, b3, ch));
            vs(p, d3, ch, r3);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn cvt_if(regs: &mut [u32], d: usize, a: usize) {
        check(regs, &[d, a]);
        let p = regs.as_mut_ptr();
        for c in 0..CHUNKS {
            let r = _mm256_cvtepi32_ps(vl(p, a, c));
            vsf(p, d, c, r);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn set_p_i(cmp: CmpOp, regs: &mut [u32], d: usize, a: usize, b: usize) {
        check(regs, &[d, a, b]);
        let p = regs.as_mut_ptr();
        let one = _mm256_set1_epi32(1);
        for c in 0..CHUNKS {
            let x = vl(p, a, c);
            let y = vl(p, b, c);
            // Express all six predicates through eq/gt with an optional
            // negation folded into the 0/1 extraction.
            let (m, neg) = match cmp {
                CmpOp::Eq => (_mm256_cmpeq_epi32(x, y), false),
                CmpOp::Ne => (_mm256_cmpeq_epi32(x, y), true),
                CmpOp::Lt => (_mm256_cmpgt_epi32(y, x), false),
                CmpOp::Le => (_mm256_cmpgt_epi32(x, y), true),
                CmpOp::Gt => (_mm256_cmpgt_epi32(x, y), false),
                CmpOp::Ge => (_mm256_cmpgt_epi32(y, x), true),
            };
            let r = if neg {
                _mm256_andnot_si256(m, one)
            } else {
                _mm256_and_si256(m, one)
            };
            vs(p, d, c, r);
        }
    }

    /// `vcmpps` with ordered predicates (unordered for `Ne`) reproduces
    /// Rust's scalar float comparisons exactly, NaNs included.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn set_p_f(cmp: CmpOp, regs: &mut [u32], d: usize, a: usize, b: usize) {
        check(regs, &[d, a, b]);
        let p = regs.as_mut_ptr();
        let one = _mm256_set1_epi32(1);
        for c in 0..CHUNKS {
            let x = vlf(p, a, c);
            let y = vlf(p, b, c);
            let m = match cmp {
                CmpOp::Eq => _mm256_cmp_ps::<_CMP_EQ_OQ>(x, y),
                CmpOp::Ne => _mm256_cmp_ps::<_CMP_NEQ_UQ>(x, y),
                CmpOp::Lt => _mm256_cmp_ps::<_CMP_LT_OQ>(x, y),
                CmpOp::Le => _mm256_cmp_ps::<_CMP_LE_OQ>(x, y),
                CmpOp::Gt => _mm256_cmp_ps::<_CMP_GT_OQ>(x, y),
                CmpOp::Ge => _mm256_cmp_ps::<_CMP_GE_OQ>(x, y),
            };
            vs(p, d, c, _mm256_and_si256(_mm256_castps_si256(m), one));
        }
    }

    /// Fused bounds check + segment count for a full-warp address row.
    /// Unsigned `a >= bound` (a sign-flipped signed compare) rejects both
    /// negative addresses and addresses past the buffer in one test;
    /// clamping the bound to `2^31` keeps "negative" rejected for huge
    /// buffers where every non-negative `i32` is in range.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn full_warp_tx(addrs: &[u32; WARP], len: usize) -> Option<u64> {
        let bound = len.min(1 << 31) as u32;
        let sign = _mm256_set1_epi32(i32::MIN);
        let bound_f = _mm256_xor_si256(_mm256_set1_epi32(bound as i32), sign);
        let mut segs = [0u32; WARP + 1];
        let mut ok = _mm256_set1_epi32(-1);
        for c in 0..CHUNKS {
            let a = load(addrs, c);
            ok = _mm256_and_si256(ok, _mm256_cmpgt_epi32(bound_f, _mm256_xor_si256(a, sign)));
            // Segment index = addr / 32. Valid addresses are non-negative,
            // so the logical shift matches `div_euclid`; junk lanes are
            // discarded with the whole row when validation fails.
            _mm256_storeu_si256(
                segs.as_mut_ptr().add(1 + c * 8) as *mut __m256i,
                _mm256_srli_epi32::<5>(a),
            );
        }
        if _mm256_movemask_epi8(ok) != -1 {
            return None;
        }
        // Compare each segment with its predecessor (the first against
        // itself): a monotonic row needs no sort, and the distinct count is
        // `1 + changes` — exactly `segment_count_full`'s unsorted branch.
        segs[0] = segs[1];
        let mut changes = 0u32;
        let mut nonmono = 0i32;
        for c in 0..CHUNKS {
            let cur = _mm256_loadu_si256(segs.as_ptr().add(1 + c * 8) as *const __m256i);
            let prev = _mm256_loadu_si256(segs.as_ptr().add(c * 8) as *const __m256i);
            // Segments fit in 26 bits, so signed compares are exact.
            nonmono |= _mm256_movemask_epi8(_mm256_cmpgt_epi32(prev, cur));
            let eq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(prev, cur))) as u32;
            changes += (!eq & 0xff).count_ones();
        }
        if nonmono != 0 {
            return None;
        }
        Some(1 + changes as u64)
    }

    /// Four `vpgatherdd` rounds. The caller guarantees every index (as
    /// `i32`) is in bounds.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gather(out: &mut [u32; WARP], addrs: &[u32; WARP], buf: &[u32]) {
        let base = buf.as_ptr() as *const i32;
        for c in 0..CHUNKS {
            store(out, c, _mm256_i32gather_epi32::<4>(base, load(addrs, c)));
        }
    }

    /// Sign-extend 32 recorded `i32` addresses to `i64` and add the rebase
    /// delta: eight `vpmovsxdq` + `vpaddq` rounds.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn add_delta(addrs: &[i32; WARP], delta: i64) -> [i64; WARP] {
        let mut out = [0i64; WARP];
        let dv = _mm256_set1_epi64x(delta);
        for c in 0..WARP / 4 {
            let a = _mm_loadu_si128(addrs.as_ptr().add(c * 4) as *const __m128i);
            let wide = _mm256_cvtepi32_epi64(a);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(c * 4) as *mut __m256i,
                _mm256_add_epi64(wide, dv),
            );
        }
        out
    }
}
