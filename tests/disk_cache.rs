//! Persistent artifact-cache tests: a fresh `Gpu` sharing a cache directory
//! with an earlier one must decode each kernel once, load its recorded
//! replay traces from disk and replay from block 0 of its first launch —
//! bit-identically to a never-serialized run under every engine — while
//! corrupt, truncated, or version-mismatched cache files must fall back to
//! a clean re-record (never panic, never wrong pixels) and be counted as
//! such.

use isp_ir::{BinOp, BlockId, CmpOp, IrBuilder, Kernel, SReg, Ty, UnOp, VReg};
use isp_sim::{
    DeviceBuffer, DeviceSpec, ExecEngine, ExecStrategy, Gpu, LaunchConfig, LaunchReport,
    ParamValue, SimMode,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, empty cache root for one test (or one proptest case).
fn temp_cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "isp-disk-cache-test-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Common prologue: global coordinates guarded against the image bounds
/// (same shape as the replay_diff generator).
struct Prologue {
    b: IrBuilder,
    exit: BlockId,
    gx: VReg,
    gy: VReg,
    w: VReg,
}

fn prologue(name: &str) -> Prologue {
    let mut b = IrBuilder::new(name, 2);
    let pw = b.param("width", Ty::S32);
    let ph = b.param("height", Ty::S32);
    let body = b.create_block("body");
    let exit = b.create_block("exit");
    let tx = b.sreg(SReg::TidX);
    let ty = b.sreg(SReg::TidY);
    let bx = b.sreg(SReg::CtaIdX);
    let by = b.sreg(SReg::CtaIdY);
    let ntx = b.sreg(SReg::NTidX);
    let nty = b.sreg(SReg::NTidY);
    let gx = b.mad(Ty::S32, bx, ntx, tx);
    let gy = b.mad(Ty::S32, by, nty, ty);
    let w = b.ld_param(pw);
    let h = b.ld_param(ph);
    let px = b.setp(CmpOp::Lt, gx, w);
    let py = b.setp(CmpOp::Lt, gy, h);
    let p = b.bin(BinOp::And, Ty::Pred, px, py);
    b.cond_br(p, body, exit);
    b.switch_to(body);
    Prologue { b, exit, gx, gy, w }
}

/// A stencil-flavoured kernel: clamped-neighbour loads (separable range
/// guards on both axes), arithmetic, and a store — the replay engine's
/// bread and butter.
fn stencil_kernel() -> Kernel {
    let Prologue {
        mut b,
        exit,
        gx,
        gy,
        w,
    } = prologue("stencil");
    let xm = b.bin(BinOp::Sub, Ty::S32, gx, 1);
    let xm = b.bin(BinOp::Max, Ty::S32, xm, 0);
    let addr = b.mad(Ty::S32, gy, w, gx);
    let addr_l = b.mad(Ty::S32, gy, w, xm);
    let c = b.ld(Ty::F32, 0, addr);
    let l = b.ld(Ty::F32, 0, addr_l);
    let sum = b.bin(BinOp::Add, Ty::F32, c, l);
    let v = b.bin(BinOp::Mul, Ty::F32, sum, 0.5f32);
    b.st(1, addr, v);
    b.br(exit);
    b.switch_to(exit);
    b.ret();
    b.finish()
}

/// Every block stores into the same small address window, so the final
/// pixels depend on cross-block write-journal order.
fn conflicting_writes_kernel() -> Kernel {
    let Prologue {
        mut b,
        exit,
        gx,
        gy,
        w,
    } = prologue("conflict");
    let addr = b.mad(Ty::S32, gy, w, gx);
    let v = b.ld(Ty::F32, 0, addr);
    let slot = b.bin(BinOp::And, Ty::S32, addr, 63);
    b.st(1, slot, v);
    b.br(exit);
    b.switch_to(exit);
    b.ret();
    b.finish()
}

/// Loop-free random kernel from an op tape (mirrors replay_diff's
/// generator).
fn prop_kernel(ops: &[(u8, i32)], divergent: bool) -> Kernel {
    let Prologue {
        mut b,
        exit,
        gx,
        gy,
        w,
    } = prologue("prop");
    let addr = b.mad(Ty::S32, gy, w, gx);
    let mut v = b.ld(Ty::F32, 0, addr);
    let mut iv = addr;
    for &(code, raw) in ops {
        let fi = (raw % 17) as f32 * 0.25 - 2.0;
        let ii = raw % 13;
        match code % 8 {
            0 => v = b.bin(BinOp::Add, Ty::F32, v, fi),
            1 => v = b.bin(BinOp::Sub, Ty::F32, fi, v),
            2 => v = b.bin(BinOp::Mul, Ty::F32, v, fi),
            3 => v = b.bin(BinOp::Min, Ty::F32, v, fi),
            4 => v = b.un(UnOp::Abs, Ty::F32, v),
            5 => {
                let c = b.setp(CmpOp::Gt, v, fi);
                v = b.selp(Ty::F32, v, fi, c);
            }
            6 => {
                iv = b.bin(BinOp::Xor, Ty::S32, iv, ii);
                let f = b.cvt(Ty::F32, iv);
                v = b.bin(BinOp::Add, Ty::F32, v, f);
            }
            _ => {
                iv = b.bin(BinOp::And, Ty::S32, iv, 0x3fff);
                let f = b.cvt(Ty::F32, iv);
                v = b.bin(BinOp::Max, Ty::F32, v, f);
            }
        }
    }
    if divergent {
        let even_blk = b.create_block("even");
        let odd_blk = b.create_block("odd");
        let bit = b.bin(BinOp::And, Ty::S32, gx, 1);
        let c = b.setp(CmpOp::Eq, bit, 0);
        b.cond_br(c, even_blk, odd_blk);
        b.switch_to(even_blk);
        b.st(1, addr, v);
        b.br(exit);
        b.switch_to(odd_blk);
        let neg = b.un(UnOp::Neg, Ty::F32, v);
        b.st(1, addr, neg);
        b.br(exit);
    } else {
        b.st(1, addr, v);
        b.br(exit);
    }
    b.switch_to(exit);
    b.ret();
    b.finish()
}

/// Run one classified exhaustive launch and return the report plus output
/// pixels as raw bits.
fn launch(
    gpu: &Gpu,
    engine: ExecEngine,
    kernel: &Kernel,
    cfg: LaunchConfig,
    params: &[ParamValue],
    input: &[f32],
    classes: u32,
) -> (LaunchReport, Vec<u32>) {
    let classifier = move |bx: u32, by: u32| (bx + 2 * by) % classes;
    let mut bufs = vec![
        DeviceBuffer::from_f32(input),
        DeviceBuffer::zeroed(input.len()),
    ];
    let report = gpu
        .launch_engine(
            kernel,
            cfg,
            params,
            &mut bufs,
            SimMode::ExhaustiveClassified {
                classifier: &classifier,
            },
            ExecStrategy::Serial,
            engine,
        )
        .expect("launch");
    (
        report,
        bufs[1].to_f32().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Assert two launches are observationally identical: counters, cycles,
/// per-class attribution, and pixels (bitwise). Identical pixels on the
/// conflict kernel also prove write-journal order.
fn assert_identical(a: &(LaunchReport, Vec<u32>), b: &(LaunchReport, Vec<u32>), label: &str) {
    assert_eq!(a.0.counters, b.0.counters, "{label}: counters");
    assert_eq!(a.0.timing.cycles, b.0.timing.cycles, "{label}: cycles");
    assert_eq!(a.0.per_class, b.0.per_class, "{label}: per-class");
    assert_eq!(a.1, b.1, "{label}: pixels (bit compare)");
}

/// Cold process → warm process over a shared cache dir, against a no-disk
/// baseline: the warm `Gpu` must decode the kernel once, record nothing,
/// replay everything from disk-loaded traces, and match the baseline bit
/// for bit under every engine.
#[test]
fn warm_gpu_replays_from_disk_bit_identically() {
    let dir = temp_cache_dir("warm");
    let kernel = stencil_kernel();
    let (w, h) = (64usize, 16usize);
    let cfg = LaunchConfig::for_image(w, h, (32, 4));
    let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
    let input: Vec<f32> = (0..w * h).map(|i| (i % 23) as f32 * 0.5 - 5.0).collect();

    // Never-serialized baselines, one per engine.
    let plain = Gpu::new(DeviceSpec::gtx680());
    let base_ref = launch(
        &plain,
        ExecEngine::Reference,
        &kernel,
        cfg,
        &params,
        &input,
        2,
    );
    let base_dec = launch(
        &plain,
        ExecEngine::Decoded,
        &kernel,
        cfg,
        &params,
        &input,
        2,
    );
    let base_rep = launch(&plain, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
    assert_identical(&base_ref, &base_dec, "baseline decoded vs reference");
    assert_identical(&base_ref, &base_rep, "baseline replay vs reference");

    // Cold process: populates the cache (one trace file).
    let cold = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    let cold_run = launch(&cold, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
    assert_identical(&base_ref, &cold_run, "cold disk-cache run vs reference");
    let cold_disk = cold.disk_cache_stats();
    assert_eq!(cold_disk.misses, 1, "trace lookup misses: {cold_disk:?}");
    assert_eq!(cold_disk.stores, 1, "trace file stored: {cold_disk:?}");
    assert_eq!(cold_disk.hits, 0, "{cold_disk:?}");
    assert!(cold.trace_stats().recorded >= 2, "{:?}", cold.trace_stats());

    // A kernel file in the format older builds wrote must be ignored.
    let versioned = dir.join(format!("v{}", isp_sim::CACHE_FORMAT_VERSION));
    std::fs::write(
        versioned.join("k-0000000000000000-0000000000000000-1.json"),
        "not json {{{[",
    )
    .unwrap();

    // Warm process: a brand-new Gpu sharing only the directory.
    let warm = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    let warm_run = launch(&warm, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
    assert_identical(&base_ref, &warm_run, "warm disk-cache run vs reference");
    // Zero record/classify/compile work: the kernel decodes once, every
    // class trace came off disk (no recording), and every block replayed a
    // disk trace (all cross-launch hits, from block 0 of the first launch).
    let decode = warm.decode_stats();
    assert_eq!(decode.misses, 1, "warm run decodes once: {decode:?}");
    let trace = warm.trace_stats();
    assert_eq!(trace.recorded, 0, "warm run must not record: {trace:?}");
    assert_eq!(trace.deopted, 0, "{trace:?}");
    assert_eq!(trace.replayed, cfg.total_blocks(), "{trace:?}");
    assert_eq!(
        warm.trace_cross_launch_hits(),
        cfg.total_blocks(),
        "every warm replay is a cross-launch (disk) hit"
    );
    let disk = warm.disk_cache_stats();
    assert_eq!(disk.hits, 1, "traces load from disk: {disk:?}");
    assert_eq!(disk.corrupt, 0, "{disk:?}");
    assert_eq!(disk.stale, 0, "{disk:?}");
    // Guard batching engaged on the warm replays of this separable-guard
    // stencil.
    assert!(warm.guard_batched_replays() > 0, "batched guard fast path");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Write-journal order survives serialization: the conflict kernel's final
/// pixels (which depend on cross-block store order) are identical between
/// a warm disk-cache run and the reference engine.
#[test]
fn warm_replay_preserves_write_journal_order() {
    let dir = temp_cache_dir("journal");
    let kernel = conflicting_writes_kernel();
    let (w, h) = (64usize, 16usize);
    let cfg = LaunchConfig::for_image(w, h, (32, 4));
    let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
    let input: Vec<f32> = (0..w * h).map(|i| i as f32).collect();

    let plain = Gpu::new(DeviceSpec::gtx680());
    let base = launch(
        &plain,
        ExecEngine::Reference,
        &kernel,
        cfg,
        &params,
        &input,
        2,
    );
    let cold = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    let cold_run = launch(&cold, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
    assert_identical(&base, &cold_run, "conflict cold");
    let warm = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    let warm_run = launch(&warm, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
    assert_identical(&base, &warm_run, "conflict warm");
    assert_eq!(warm.trace_stats().recorded, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Mangle every cache file in turn — truncation, garbage bytes, valid JSON
/// with missing structure, and a version bump — and require a clean
/// fallback: correct pixels, fresh re-record, and the right stale/corrupt
/// counter.
#[test]
fn corrupt_cache_files_fall_back_cleanly() {
    let dir = temp_cache_dir("corrupt");
    let kernel = stencil_kernel();
    let (w, h) = (64usize, 8usize);
    let cfg = LaunchConfig::for_image(w, h, (32, 4));
    let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
    let input: Vec<f32> = (0..w * h).map(|i| (i % 11) as f32 - 3.0).collect();

    let plain = Gpu::new(DeviceSpec::gtx680());
    let base = launch(
        &plain,
        ExecEngine::Reference,
        &kernel,
        cfg,
        &params,
        &input,
        2,
    );

    // Seed the cache once, remembering the pristine file contents.
    let seed = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    let seed_run = launch(&seed, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
    assert_identical(&base, &seed_run, "seed run");
    let versioned = dir.join(format!("v{}", isp_sim::CACHE_FORMAT_VERSION));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&versioned)
        .expect("cache dir populated")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "one trace file: {files:?}");
    let pristine: Vec<(PathBuf, String)> = files
        .iter()
        .map(|p| (p.clone(), std::fs::read_to_string(p).unwrap()))
        .collect();
    let restore = |targets: &[(PathBuf, String)]| {
        for (path, text) in targets {
            std::fs::write(path, text).unwrap();
        }
    };

    // (label, mangler, expect-corrupt?) — version bumps count as stale,
    // everything else as corrupt.
    type Mangler = Box<dyn Fn(&str) -> String>;
    let manglings: Vec<(&str, Mangler, bool)> = vec![
        (
            "truncated",
            Box::new(|t: &str| t[..t.len() / 2].to_string()),
            true,
        ),
        (
            "garbage",
            Box::new(|_: &str| "not json {{{[".to_string()),
            true,
        ),
        (
            "hollow",
            Box::new(|_: &str| {
                // Parseable, right version and kind, missing everything else.
                format!(
                    "{{\"version\": {}, \"kind\": \"trace\"}}",
                    isp_sim::CACHE_FORMAT_VERSION
                )
            }),
            true,
        ),
        (
            "version-bump",
            Box::new(|t: &str| {
                t.replacen(
                    &format!("\"version\": {}", isp_sim::CACHE_FORMAT_VERSION),
                    &format!("\"version\": {}", isp_sim::CACHE_FORMAT_VERSION + 1),
                    1,
                )
            }),
            false,
        ),
    ];

    for (label, mangle, expect_corrupt) in &manglings {
        restore(&pristine);
        for (path, text) in &pristine {
            std::fs::write(path, mangle(text)).unwrap();
        }
        let gpu = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
        let run = launch(&gpu, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
        assert_identical(&base, &run, label);
        let disk = gpu.disk_cache_stats();
        assert_eq!(disk.hits, 0, "{label}: no mangled file may load: {disk:?}");
        if *expect_corrupt {
            assert!(disk.corrupt >= 1, "{label}: {disk:?}");
        } else {
            assert!(disk.stale >= 1, "{label}: {disk:?}");
        }
        // The fallback re-records and re-persists.
        assert!(gpu.trace_stats().recorded >= 1, "{label}");
        assert!(disk.stores >= 1, "{label}: {disk:?}");
    }

    // After the last fallback re-stored clean artifacts, a fresh Gpu warms
    // again.
    let healed = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    let healed_run = launch(
        &healed,
        ExecEngine::Replay,
        &kernel,
        cfg,
        &params,
        &input,
        2,
    );
    assert_identical(&base, &healed_run, "healed");
    assert_eq!(healed.trace_stats().recorded, 0, "healed cache warms again");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A different device spec must not read this device's artifacts (the
/// device fingerprint is part of every key).
#[test]
fn device_mismatch_is_never_served() {
    let dir = temp_cache_dir("device");
    let kernel = stencil_kernel();
    let (w, h) = (64usize, 8usize);
    let cfg = LaunchConfig::for_image(w, h, (32, 4));
    let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
    let input: Vec<f32> = (0..w * h).map(|i| (i % 13) as f32).collect();

    let kepler = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    launch(
        &kepler,
        ExecEngine::Replay,
        &kernel,
        cfg,
        &params,
        &input,
        2,
    );
    assert!(kepler.disk_cache_stats().stores >= 1);

    let turing = Gpu::new(DeviceSpec::rtx2080()).with_disk_cache(&dir);
    let run = launch(
        &turing,
        ExecEngine::Replay,
        &kernel,
        cfg,
        &params,
        &input,
        2,
    );
    let base = launch(
        &Gpu::new(DeviceSpec::rtx2080()),
        ExecEngine::Reference,
        &kernel,
        cfg,
        &params,
        &input,
        2,
    );
    assert_identical(&base, &run, "turing on kepler-seeded cache");
    let disk = turing.disk_cache_stats();
    assert_eq!(disk.hits, 0, "different device fp never hits: {disk:?}");
    assert!(turing.trace_stats().recorded >= 1, "turing records its own");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: bilateral13's ISP variant is the largest real kernel in the
/// suite (sparse SSA numbering puts its register file near 177k slots —
/// far past op count) and once tripped a deserializer's allocation sanity
/// cap, misclassifying every valid cache file as corrupt. A warm run must
/// load its traces from disk cleanly.
#[test]
fn bilateral_kernel_round_trips_through_disk_cache() {
    use isp_core::Variant;
    use isp_dsl::pipeline::Policy;
    use isp_dsl::runner::ExecMode;
    use isp_dsl::Compiler;
    use isp_image::{BorderPattern, BorderSpec, ImageGenerator};

    let dir = temp_cache_dir("bilateral");
    let run = |gpu: &Gpu| {
        let border = BorderSpec::from_pattern(BorderPattern::Mirror);
        let source = ImageGenerator::new(11).natural::<f32>(48, 48);
        let app = isp_filters::by_name("bilateral").unwrap();
        let compiled = app
            .pipeline
            .compile(&Compiler::new(), border, Variant::IspBlock);
        let run = app
            .pipeline
            .run(
                gpu,
                &compiled,
                &source,
                border,
                (32, 4),
                Policy::AlwaysIsp(Variant::IspBlock),
                ExecMode::Exhaustive,
            )
            .unwrap();
        (
            run.counters.warp_instructions,
            run.counters.mem_transactions,
            run.total_cycles,
        )
    };

    let cold = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    let cold_out = run(&cold);
    assert!(cold.disk_cache_stats().stores > 0);
    let cold_decodes = cold.decode_stats().misses;

    let warm = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    assert_eq!(run(&warm), cold_out, "warm bilateral run");
    let disk = warm.disk_cache_stats();
    assert_eq!(
        disk.corrupt, 0,
        "bilateral kernel must deserialize: {disk:?}"
    );
    assert_eq!(disk.stale, 0, "{disk:?}");
    assert!(disk.hits > 0, "{disk:?}");
    assert_eq!(
        warm.decode_stats().misses,
        cold_decodes,
        "each kernel decodes once"
    );
    assert_eq!(warm.trace_stats().recorded, 0, "traces came off disk");

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Round-trip differential: record→serialize→deserialize→replay is
    /// bit-identical (pixels, counters, cycles, write journals) to the
    /// never-serialized path, and the warm `Gpu` stays identical across all
    /// three engines. Runs under the default build and `--features simd`
    /// alike.
    #[test]
    fn serialized_artifacts_execute_bit_identically(
        tape in proptest::collection::vec((0u8..8, -1000i32..1000), 8),
        len in 0usize..8,
        divergent in 0u8..2,
        w_off in 0i32..12,
        h_off in 0i32..4,
    ) {
        let dir = temp_cache_dir("prop");
        let kernel = prop_kernel(&tape[..len], divergent == 1);
        let cfg = LaunchConfig { grid: (2, 2), block: (32, 4) };
        let (w, h) = (64 - w_off, 8 - h_off);
        let params = [ParamValue::I32(w), ParamValue::I32(h)];
        let n = 2 * 32 * 2 * 4;
        let input: Vec<f32> = (0..n).map(|i| (i % 23) as f32 * 0.5 - 5.0).collect();

        let plain = Gpu::new(DeviceSpec::gtx680());
        let baselines = [
            launch(&plain, ExecEngine::Reference, &kernel, cfg, &params, &input, 2),
            launch(&plain, ExecEngine::Decoded, &kernel, cfg, &params, &input, 2),
            launch(&plain, ExecEngine::Replay, &kernel, cfg, &params, &input, 2),
        ];
        assert_identical(&baselines[0], &baselines[1], "prop decoded vs reference");
        assert_identical(&baselines[0], &baselines[2], "prop replay vs reference");

        let cold = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
        let cold_run = launch(&cold, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
        assert_identical(&baselines[0], &cold_run, "prop cold");

        // The warm Gpu replays the deserialized traces, then runs the same
        // launch under the other two engines.
        let warm = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
        let warm_rep = launch(&warm, ExecEngine::Replay, &kernel, cfg, &params, &input, 2);
        assert_identical(&baselines[0], &warm_rep, "prop warm replay");
        prop_assert_eq!(warm.trace_stats().recorded, 0, "warm records nothing");
        prop_assert!(warm.disk_cache_stats().hits >= 1);
        let warm_dec = launch(&warm, ExecEngine::Decoded, &kernel, cfg, &params, &input, 2);
        assert_identical(&baselines[0], &warm_dec, "prop warm decoded");
        let warm_ref = launch(&warm, ExecEngine::Reference, &kernel, cfg, &params, &input, 2);
        assert_identical(&baselines[0], &warm_ref, "prop warm reference");
        prop_assert_eq!(warm.decode_stats().misses, 1, "kernel decodes once");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
