//! Differential tests for the SIMD warp-row kernels and the
//! superinstruction fusion pass: the AVX2 backend must be bit-identical to
//! the scalar loops over adversarial operands (NaN payloads, sNaNs,
//! denormals, shift counts >= 32, `i32::MIN * -1`, signed zeros), and the
//! fused decoded and replay engines must be observationally identical to
//! the reference interpreter, which never fuses — pixels, counters, cycles,
//! per-region attribution, and the rendered `==PROF==` report.

use isp_core::Variant;
use isp_dsl::pipeline::Policy;
use isp_exec::{Engine, Outcome, Request};
use isp_image::BorderPattern;
use isp_ir::{BinOp, CmpOp};
use isp_sim::rows;
use isp_sim::{set_simd_enabled, simd_enabled, DeviceSpec, ExecEngine, WARP};
use proptest::prelude::*;
use std::sync::Mutex;

/// Tests that flip the process-wide SIMD toggle serialise on this lock and
/// restore the prior state, so they can never race each other (or bias a
/// concurrently running engine-level test, whose results must not depend
/// on the toggle anyway — that is the invariant under test).
static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Hold the lock, force the toggle, run, restore. Restores (and releases a
/// poisoned lock) even when `f` panics, so one failing test cannot cascade
/// poison-panics or a stuck toggle into unrelated tests.
fn with_simd<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_simd_enabled(self.0);
        }
    }
    let _g = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _r = Restore(simd_enabled());
    set_simd_enabled(on);
    f()
}

/// Bit patterns chosen to break a lazy vector implementation: every IEEE
/// class (signed zeros, denormals, infinities, quiet and signalling NaNs
/// with payloads), integer edge cases (`i32::MIN`, `-1` for the
/// `MIN / -1` and `MIN % -1` traps), and shift counts at and past 32
/// (scalar semantics mask with `& 31`).
const ADVERSARIAL: [u32; 24] = [
    0x0000_0000, // +0.0 / 0
    0x8000_0000, // -0.0 / i32::MIN
    0x0000_0001, // smallest denormal / 1
    0x807f_ffff, // negative denormal
    0x0080_0000, // smallest normal
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // canonical qNaN
    0x7fc0_0001, // qNaN with payload
    0x7f80_0001, // sNaN
    0xffc0_0000, // negative qNaN
    0xff80_0001, // negative sNaN
    0xffff_ffff, // -1 / NaN
    0x3f80_0000, // 1.0
    0xbf80_0000, // -1.0
    0x4049_0fdb, // pi
    0x7f7f_ffff, // f32::MAX
    0x0000_0020, // 32 (shift-count edge)
    0x0000_0021, // 33
    0x0000_003f, // 63
    0x8000_0020, // negative shift count
    0x7fff_ffff, // i32::MAX
    0x0000_0007, // small int
    0xdead_beef, // junk
];

/// Fill three rows (a, b, c at slots 1, 2, 3) from the adversarial pool,
/// rotated differently per row so every pairing occurs across seeds.
fn fill_rows(regs: &mut [u32], seed: usize) {
    for l in 0..WARP {
        regs[WARP + l] = ADVERSARIAL[(l + seed) % ADVERSARIAL.len()];
        regs[2 * WARP + l] = ADVERSARIAL[(l * 7 + seed * 3 + 1) % ADVERSARIAL.len()];
        regs[3 * WARP + l] = ADVERSARIAL[(l * 11 + seed * 5 + 2) % ADVERSARIAL.len()];
    }
}

/// Run `kernel` once with SIMD off and once with SIMD on against identical
/// register files; the whole file must match bit-for-bit afterwards.
fn assert_rows_identical(label: &str, seed: usize, kernel: impl Fn(&mut [u32])) {
    let mut scalar = vec![0u32; 8 * WARP];
    fill_rows(&mut scalar, seed);
    let mut simd = scalar.clone();
    with_simd(false, || kernel(&mut scalar));
    with_simd(true, || kernel(&mut simd));
    assert_eq!(scalar, simd, "{label} seed {seed}: scalar vs SIMD bits");
}

#[test]
fn bin_ops_scalar_simd_bit_identical() {
    use BinOp::*;
    for seed in 0..ADVERSARIAL.len() {
        for op in [Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr] {
            assert_rows_identical(&format!("bin_i {op:?}"), seed, |r| {
                rows::bin_i(op, r, 0, WARP, 2 * WARP)
            });
            // Destination aliasing a source (rows are slot-aligned, so
            // aliases are exact overlaps — the hardest case for an
            // interleaved vector kernel).
            assert_rows_identical(&format!("bin_i {op:?} aliased"), seed, |r| {
                rows::bin_i(op, r, WARP, WARP, 2 * WARP)
            });
        }
        for op in [Add, Sub, Mul, Div, Rem, Min, Max] {
            assert_rows_identical(&format!("bin_f {op:?}"), seed, |r| {
                rows::bin_f(op, r, 0, WARP, 2 * WARP)
            });
            assert_rows_identical(&format!("bin_f {op:?} aliased"), seed, |r| {
                rows::bin_f(op, r, 2 * WARP, WARP, 2 * WARP)
            });
        }
    }
}

#[test]
fn mad_cvt_setp_scalar_simd_bit_identical() {
    for seed in 0..ADVERSARIAL.len() {
        assert_rows_identical("mad_i", seed, |r| {
            rows::mad_i(r, 0, WARP, 2 * WARP, 3 * WARP)
        });
        assert_rows_identical("mad_f", seed, |r| {
            rows::mad_f(r, 0, WARP, 2 * WARP, 3 * WARP)
        });
        assert_rows_identical("mad_i acc-alias", seed, |r| {
            rows::mad_i(r, 3 * WARP, WARP, 2 * WARP, 3 * WARP)
        });
        assert_rows_identical("cvt_if", seed, |r| rows::cvt_if(r, 0, WARP));
        for cmp in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_rows_identical(&format!("set_p_i {cmp:?}"), seed, |r| {
                rows::set_p_i(cmp, r, 0, WARP, 2 * WARP)
            });
            // Float compares must treat every NaN (any payload) unordered.
            assert_rows_identical(&format!("set_p_f {cmp:?}"), seed, |r| {
                rows::set_p_f(cmp, r, 0, WARP, 2 * WARP)
            });
        }
    }
}

#[test]
fn fused_kernels_scalar_simd_bit_identical() {
    for seed in 0..ADVERSARIAL.len() {
        // Chained: op2 consumes op1's destination, op3 consumes op2's —
        // exactly how the superinstructions are matched.
        assert_rows_identical("mad2_i", seed, |r| {
            rows::mad2_i(
                r,
                4 * WARP,
                WARP,
                2 * WARP,
                3 * WARP,
                5 * WARP,
                4 * WARP,
                WARP,
                2 * WARP,
            )
        });
        assert_rows_identical("mad2_f", seed, |r| {
            rows::mad2_f(
                r,
                4 * WARP,
                WARP,
                2 * WARP,
                3 * WARP,
                5 * WARP,
                4 * WARP,
                WARP,
                2 * WARP,
            )
        });
        assert_rows_identical("mul_add_f", seed, |r| {
            rows::mul_add_f(r, 4 * WARP, WARP, 2 * WARP, 5 * WARP, 4 * WARP, 3 * WARP)
        });
        assert_rows_identical("mad2_i_min", seed, |r| {
            rows::mad2_i_min(
                r,
                4 * WARP,
                WARP,
                2 * WARP,
                3 * WARP,
                5 * WARP,
                4 * WARP,
                WARP,
                2 * WARP,
                6 * WARP,
                4 * WARP,
                5 * WARP,
            )
        });
    }
}

#[test]
fn gather_and_tx_count_scalar_simd_identical() {
    let buf: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let cases: [[u32; WARP]; 5] = [
        std::array::from_fn(|l| l as u32),               // unit stride
        std::array::from_fn(|l| (l * 97) as u32 % 4096), // scattered
        std::array::from_fn(|_| 17),                     // fully convergent
        std::array::from_fn(|l| 4095 - (l as u32 % 2)),  // top edge
        std::array::from_fn(|l| (l as u32 / 8) * 1024),  // segment steps
    ];
    for addrs in &cases {
        let mut s = [0u32; WARP];
        let mut v = [0u32; WARP];
        // SAFETY: every address above is within `buf`.
        with_simd(false, || unsafe { rows::gather_row(&mut s, addrs, &buf) });
        with_simd(true, || unsafe { rows::gather_row(&mut v, addrs, &buf) });
        assert_eq!(s, v, "gather {addrs:?}");

        // The vector transaction counter must agree with a naive segment
        // count on monotonic in-bounds rows.
        let mut sorted = *addrs;
        sorted.sort_unstable();
        let naive = {
            let mut segs = 0u64;
            let mut last = u32::MAX;
            for &a in &sorted {
                let seg = a / WARP as u32;
                if segs == 0 || seg != last {
                    segs += 1;
                    last = seg;
                }
            }
            segs
        };
        // Without the `simd` feature the fast path is compiled out and
        // must decline every row.
        let want = if cfg!(feature = "simd") {
            Some(naive)
        } else {
            None
        };
        let fast = with_simd(true, || rows::full_warp_tx_fast(&sorted, buf.len()));
        assert_eq!(fast, want, "tx count {sorted:?}");
    }
    // Out-of-bounds and non-monotonic rows must decline (scalar path owns
    // fault attribution and sorting), never miscount.
    let oob: [u32; WARP] = std::array::from_fn(|l| if l == 31 { 4096 } else { l as u32 });
    let neg: [u32; WARP] = std::array::from_fn(|l| if l == 7 { -3i32 as u32 } else { l as u32 });
    let desc_segs: [u32; WARP] = std::array::from_fn(|l| ((WARP - 1 - l) * 64) as u32);
    // Addresses descending *within one segment* still form a monotonic
    // segment row — one transaction, no sort needed.
    let desc_addrs: [u32; WARP] = std::array::from_fn(|l| (WARP - 1 - l) as u32);
    with_simd(true, || {
        assert_eq!(rows::full_warp_tx_fast(&oob, buf.len()), None, "oob lane");
        assert_eq!(
            rows::full_warp_tx_fast(&neg, buf.len()),
            None,
            "negative lane"
        );
        assert_eq!(
            rows::full_warp_tx_fast(&desc_segs, buf.len()),
            None,
            "descending segment row"
        );
        assert_eq!(
            rows::full_warp_tx_fast(&desc_addrs, buf.len()),
            if cfg!(feature = "simd") {
                Some(1)
            } else {
                None
            },
            "descending addresses, constant segment"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomised rows (raw bits, so every float class appears) through
    /// every row kernel: scalar and SIMD must agree bit-for-bit.
    #[test]
    fn random_rows_scalar_simd_bit_identical(
        bits in proptest::collection::vec(0u32..=u32::MAX, 4 * WARP),
        opcode in 0u8..21,
    ) {
        use BinOp::*;
        let mut scalar = vec![0u32; 8 * WARP];
        scalar[WARP..5 * WARP].copy_from_slice(&bits);
        let mut simd = scalar.clone();
        let run = |r: &mut [u32]| match opcode {
            0 => rows::bin_i(Add, r, 0, WARP, 2 * WARP),
            1 => rows::bin_i(Sub, r, 0, WARP, 2 * WARP),
            2 => rows::bin_i(Mul, r, 0, WARP, 2 * WARP),
            3 => rows::bin_i(Div, r, 0, WARP, 2 * WARP),
            4 => rows::bin_i(Rem, r, 0, WARP, 2 * WARP),
            5 => rows::bin_i(Min, r, 0, WARP, 2 * WARP),
            6 => rows::bin_i(Shl, r, 0, WARP, 2 * WARP),
            7 => rows::bin_i(Shr, r, 0, WARP, 2 * WARP),
            8 => rows::bin_f(Add, r, 0, WARP, 2 * WARP),
            9 => rows::bin_f(Sub, r, 0, WARP, 2 * WARP),
            10 => rows::bin_f(Mul, r, 0, WARP, 2 * WARP),
            11 => rows::bin_f(Div, r, 0, WARP, 2 * WARP),
            12 => rows::bin_f(Min, r, 0, WARP, 2 * WARP),
            13 => rows::bin_f(Max, r, 0, WARP, 2 * WARP),
            14 => rows::mad_i(r, 0, WARP, 2 * WARP, 3 * WARP),
            15 => rows::mad_f(r, 0, WARP, 2 * WARP, 3 * WARP),
            16 => rows::cvt_if(r, 0, WARP),
            17 => rows::set_p_f(CmpOp::Lt, r, 0, WARP, 2 * WARP),
            18 => rows::mad2_i(r, 0, WARP, 2 * WARP, 3 * WARP, 5 * WARP, 0, WARP, 4 * WARP),
            19 => rows::mul_add_f(r, 0, WARP, 2 * WARP, 5 * WARP, 0, 3 * WARP),
            _ => rows::mad2_i_min(
                r, 0, WARP, 2 * WARP, 3 * WARP, 5 * WARP, 0, WARP, 2 * WARP, 6 * WARP, 0,
                5 * WARP,
            ),
        };
        with_simd(false, || run(&mut scalar));
        with_simd(true, || run(&mut simd));
        prop_assert_eq!(scalar, simd);
    }
}

/// Run one filter exhaustively on an engine.
fn run_filter(engine: ExecEngine, app: &isp_filters::App, pattern: BorderPattern) -> Outcome {
    let e = Engine::with_exec_engine(DeviceSpec::gtx680(), engine);
    let source = isp_exec::bench_image(64);
    e.run_on(
        &Request::paper(
            app.clone(),
            pattern,
            64,
            Policy::AlwaysIsp(Variant::IspBlock),
        )
        .exhaustive(),
        &source,
    )
    .unwrap_or_else(|e| panic!("{} {pattern}: {e}", app.name))
}

/// Assert two outcomes are observationally identical.
fn assert_outcomes_equal(a: &Outcome, b: &Outcome, label: &str) {
    assert_eq!(a.counters, b.counters, "{label}: counters");
    assert_eq!(a.total_cycles, b.total_cycles, "{label}: cycles");
    assert_eq!(a.stage_variants, b.stage_variants, "{label}: variants");
    assert_eq!(a.per_region, b.per_region, "{label}: per-region");
    let (pa, pb) = (a.image.as_ref().unwrap(), b.image.as_ref().unwrap());
    assert_eq!(pa.raw(), pb.raw(), "{label}: pixels");
}

/// Fusion is a pure dispatch optimisation: for every filter and pattern,
/// the fused decoded and replay engines must be observationally identical
/// to the reference interpreter, with SIMD forced both off and on (which
/// also exercises the warp-batched block path end-to-end: divergent
/// borders bail to the sequential interpreter, interiors batch).
#[test]
fn fusion_and_simd_observationally_neutral_all_filters() {
    for &simd in &[false, true] {
        with_simd(simd, || {
            for app in &isp_filters::apps::all_apps() {
                for pattern in BorderPattern::ALL {
                    let base = run_filter(ExecEngine::Reference, app, pattern);
                    for engine in [ExecEngine::Decoded, ExecEngine::Replay] {
                        let got = run_filter(engine, app, pattern);
                        assert_outcomes_equal(
                            &base,
                            &got,
                            &format!("{} {pattern} {engine:?} simd={simd}", app.name),
                        );
                    }
                }
            }
        });
    }
}

/// The rendered `==PROF==` report (counters, cycles, occupancy, derived
/// rates) must be the same for the reference interpreter and the fused
/// decoded engine, with SIMD off and on. Uses a divergent kernel so the
/// batched path both succeeds (interior warps) and bails (divergent warps)
/// within one launch.
#[test]
fn prof_report_neutral_under_fusion_and_simd() {
    use isp_ir::{IrBuilder, SReg, Ty, UnOp};
    use isp_sim::{DeviceBuffer, ExecStrategy, Gpu, LaunchConfig, ParamValue, SimMode};

    let mut b = IrBuilder::new("prof_neutral", 2);
    let pw = b.param("width", Ty::S32);
    let body = b.create_block("body");
    let odd = b.create_block("odd");
    let exit = b.create_block("exit");
    let tx = b.sreg(SReg::TidX);
    let ty = b.sreg(SReg::TidY);
    let bx = b.sreg(SReg::CtaIdX);
    let ntx = b.sreg(SReg::NTidX);
    let gx = b.mad(Ty::S32, bx, ntx, tx);
    let w = b.ld_param(pw);
    let addr = b.mad(Ty::S32, ty, w, gx);
    let v = b.ld(Ty::F32, 0, addr);
    let v2 = b.bin(BinOp::Mul, Ty::F32, v, 0.5f32);
    let v3 = b.bin(BinOp::Add, Ty::F32, v2, 1.25f32);
    let bit = b.bin(BinOp::And, Ty::S32, gx, 1);
    let c = b.setp(CmpOp::Eq, bit, 0);
    b.cond_br(c, body, odd);
    b.switch_to(body);
    b.st(1, addr, v3);
    b.br(exit);
    b.switch_to(odd);
    let neg = b.un(UnOp::Neg, Ty::F32, v3);
    b.st(1, addr, neg);
    b.br(exit);
    b.switch_to(exit);
    b.ret();
    let kernel = b.finish();

    let cfg = LaunchConfig {
        grid: (2, 2),
        block: (32, 4),
    };
    let n = 2 * 32 * 2 * 4;
    let input: Vec<f32> = (0..n).map(|i| (i % 19) as f32 * 0.25 - 2.0).collect();
    let params = [ParamValue::I32(64)];
    let render = |engine: ExecEngine| {
        let device = DeviceSpec::gtx680();
        let gpu = Gpu::new(device.clone());
        let mut bufs = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(n)];
        let report = gpu
            .launch_engine(
                &kernel,
                cfg,
                &params,
                &mut bufs,
                SimMode::Exhaustive,
                ExecStrategy::Parallel,
                engine,
            )
            .unwrap();
        let prof = isp_sim::profile::format_report(&device, "prof_neutral", &report);
        assert!(prof.starts_with("==PROF=="), "report header");
        (
            prof,
            bufs[1]
                .to_f32()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>(),
        )
    };
    let base = with_simd(false, || render(ExecEngine::Reference));
    for simd in [false, true] {
        let got = with_simd(simd, || render(ExecEngine::Decoded));
        assert_eq!(base.0, got.0, "==PROF== text, simd={simd}");
        assert_eq!(base.1, got.1, "pixels, simd={simd}");
    }
}
