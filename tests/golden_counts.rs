//! Golden instruction-count guard: the exact simulated counters for a
//! small gaussian configuration, pinned. The simulator is deterministic,
//! so any change to decode, interpretation, or cost charging that shifts
//! these numbers is a behavioural change and must be deliberate — update
//! the constants only when the simulator semantics are meant to move.

use isp_core::Variant;
use isp_dsl::pipeline::Policy;
use isp_dsl::runner::ExecMode;
use isp_dsl::Compiler;
use isp_image::{BorderPattern, BorderSpec, ImageGenerator};
use isp_ir::opt::{optimize_with_stats, OptConfig};
use isp_sim::{decode, decode_with_fusion, DeviceSpec, ExecEngine, Gpu};

/// One golden record: (policy label, warp_instructions, mem_transactions,
/// total_cycles). Baseline under the `OptConfig::pipeline()` default.
const GOLDEN: [(&str, u64, u64, u64); 2] =
    [("naive", 9344, 1664, 10941), ("isp", 11412, 1664, 11380)];

fn run(engine: ExecEngine, policy: Policy) -> (u64, u64, u64) {
    let gpu = Gpu::new(DeviceSpec::gtx680()).with_engine(engine);
    let border = BorderSpec::from_pattern(BorderPattern::Clamp);
    let source = ImageGenerator::new(7).natural::<f32>(64, 64);
    let app = isp_filters::by_name("gaussian").unwrap();
    let compiled = app
        .pipeline
        .compile(&Compiler::new(), border, Variant::IspBlock);
    let run = app
        .pipeline
        .run(
            &gpu,
            &compiled,
            &source,
            border,
            (32, 4),
            policy,
            ExecMode::Exhaustive,
        )
        .unwrap();
    (
        run.counters.warp_instructions,
        run.counters.mem_transactions,
        run.total_cycles,
    )
}

/// Disk-warm golden: a fresh `Gpu` pre-warmed from a populated artifact
/// cache must reproduce the exact golden ISP counters while performing
/// zero record/classify work — each kernel decodes once, as on the cold
/// run, and every block replays a disk trace.
#[test]
fn gaussian_disk_warm_run_is_golden_with_zero_cold_work() {
    let dir = std::env::temp_dir().join(format!("isp-golden-disk-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, isp_golden) = (GOLDEN[0], GOLDEN[1]);
    let run_disk = |gpu: &Gpu| {
        let border = BorderSpec::from_pattern(BorderPattern::Clamp);
        let source = ImageGenerator::new(7).natural::<f32>(64, 64);
        let app = isp_filters::by_name("gaussian").unwrap();
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
    let golden = (isp_golden.1, isp_golden.2, isp_golden.3);

    let cold = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    assert_eq!(run_disk(&cold), golden, "cold disk-cache run");
    assert!(cold.decode_stats().misses > 0, "cold run decodes");
    assert!(cold.trace_stats().recorded > 0, "cold run records");
    assert!(cold.disk_cache_stats().stores > 0, "cold run persists");

    let warm = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(&dir);
    assert_eq!(run_disk(&warm), golden, "disk-warm run");
    let decode = warm.decode_stats();
    assert_eq!(
        decode.misses,
        cold.decode_stats().misses,
        "warm run decodes each kernel once: {decode:?}"
    );
    let trace = warm.trace_stats();
    assert_eq!(trace.recorded, 0, "warm run records nothing: {trace:?}");
    assert_eq!(trace.deopted, 0, "{trace:?}");
    assert!(trace.replayed > 0, "{trace:?}");
    assert_eq!(
        warm.trace_cross_launch_hits(),
        trace.replayed,
        "every warm block replays a disk trace"
    );
    let disk = warm.disk_cache_stats();
    assert!(disk.hits > 0, "{disk:?}");
    assert_eq!(disk.stale + disk.corrupt, 0, "{disk:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gaussian_64_clamp_counts_are_golden() {
    for (label, warp_instructions, mem_transactions, total_cycles) in GOLDEN {
        let policy = match label {
            "naive" => Policy::Naive,
            _ => Policy::AlwaysIsp(Variant::IspBlock),
        };
        for engine in [
            ExecEngine::Reference,
            ExecEngine::Decoded,
            ExecEngine::Replay,
        ] {
            let got = run(engine, policy);
            assert_eq!(
                got,
                (warp_instructions, mem_transactions, total_cycles),
                "{label} under {engine:?}: (warp_instructions, mem_transactions, total_cycles)"
            );
        }
    }
}

/// Per-pass optimiser breakdown for the same gaussian compile, pinned.
/// Golden rows: (variant label, iterations, before, after, copy_prop,
/// fold, strength rewrites, vn, dce, cfg). Any pass-behaviour change moves
/// these and must be deliberate.
type OptGoldenRow = (&'static str, u64, u64, u64, u64, u64, u64, u64, u64, u64);
const GOLDEN_OPT: [OptGoldenRow; 2] = [
    ("naive", 2, 121, 73, 0, 0, 0, 48, 0, 0),
    ("isp", 2, 673, 471, 0, 0, 0, 201, 0, 1),
];

/// Static fusion goldens for the same gaussian compile: (variant label,
/// decoded ops, fused dispatch units, groups, ops absorbed, dispatches
/// saved). Pins the superinstruction matcher's coverage — a peephole
/// change that fuses more or fewer sequences moves these and must be
/// deliberate. Runtime observables are pinned separately above (and must
/// NOT move with fusion at all).
const GOLDEN_FUSE: [(&str, usize, usize, u64, u64, u64); 2] = [
    ("naive", 70, 28, 28, 70, 42),
    ("isp", 452, 184, 182, 450, 268),
];

#[test]
fn gaussian_fused_dispatch_counts_are_golden() {
    let device = DeviceSpec::gtx680();
    let border = BorderSpec::from_pattern(BorderPattern::Clamp);
    let app = isp_filters::by_name("gaussian").unwrap();
    let compiled = app
        .pipeline
        .compile(&Compiler::new(), border, Variant::IspBlock);
    let ck = &compiled[0];
    for (label, ops, dispatches, groups, fused_ops, saved) in GOLDEN_FUSE {
        let cv = match label {
            "naive" => &ck.naive,
            _ => ck.isp.as_ref().unwrap(),
        };
        let plain = decode_with_fusion(&cv.kernel, &device, false);
        // `decode` itself defaults to fusion on — the engines' hot path.
        let fused = decode(&cv.kernel, &device);
        // Fusion never alters the decoded instruction stream itself — only
        // the dispatch grouping over it.
        assert_eq!(plain.num_ops(), fused.num_ops(), "{label}: op stream");
        assert_eq!(
            plain.num_dispatches(),
            plain.num_ops(),
            "{label}: unfused 1:1"
        );
        assert_eq!(
            plain.fusion_stats(),
            Default::default(),
            "{label}: unfused stats"
        );
        let s = fused.fusion_stats();
        assert_eq!(
            (
                fused.num_ops(),
                fused.num_dispatches(),
                s.groups,
                s.fused_ops,
                s.dispatches_saved
            ),
            (ops, dispatches, groups, fused_ops, saved),
            "{label}: (ops, dispatches, groups, fused_ops, saved)"
        );
        // Bookkeeping identity: every op is dispatched exactly once.
        assert_eq!(
            fused.num_dispatches() as u64 + s.dispatches_saved,
            fused.num_ops() as u64,
            "{label}: dispatch conservation"
        );
    }
}

#[test]
fn gaussian_opt_pass_breakdown_is_golden_and_idempotent() {
    let border = BorderSpec::from_pattern(BorderPattern::Clamp);
    let app = isp_filters::by_name("gaussian").unwrap();
    let compiled = app
        .pipeline
        .compile(&Compiler::new(), border, Variant::IspBlock);
    let ck = &compiled[0];
    for (label, iters, before, after, cp, fold, sr, vn, dce, cfg) in GOLDEN_OPT {
        let cv = match label {
            "naive" => &ck.naive,
            _ => ck.isp.as_ref().unwrap(),
        };
        let s = cv.opt_stats;
        assert!(s.reached_fixed_point, "{label}: {s:?}");
        assert_eq!(
            (
                s.iterations,
                s.before_instrs,
                s.after_instrs,
                s.copy_prop_removed,
                s.fold_removed,
                s.strength_rewrites,
                s.vn_removed,
                s.dce_removed,
                s.cfg_removed,
            ),
            (iters, before, after, cp, fold, sr, vn, dce, cfg),
            "{label} per-pass breakdown: {s:?}"
        );
        // Idempotence: the shipped kernel is a fixed point of the pipeline.
        let (again, s2) = optimize_with_stats(&cv.kernel, OptConfig::pipeline());
        assert_eq!(again, cv.kernel, "{label}: pipeline output must be stable");
        assert_eq!(s2.iterations, 1, "{label}: re-run converges immediately");
        assert!(s2.reached_fixed_point);
        assert_eq!(s2.removed_total(), 0);
    }
}
