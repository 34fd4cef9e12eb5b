//! Cold-start benchmark for the persistent artifact cache. Writes
//! `target/results/BENCH_PR9.json` (schema `isp-coldstart-v1`) for CI
//! artifact upload.
//!
//! The cold/warm comparison is measured across **separate processes**: the
//! parent re-invokes its own executable twice with `--phase cold|warm`
//! pointing both children at one shared cache directory. The cold child
//! starts from an empty directory (every kernel decodes, every class
//! records); the warm child finds the cold child's replay traces, decodes
//! each kernel once, and replays from block 0 of its first launch. Both
//! children report per-cell fingerprints (counters, cycles, pixel hash) so
//! the parent can verify the warm sweep is bit-identical, not just faster.
//!
//! Usage: `cargo run -p isp-bench --bin cold_start --release`

use isp_bench::report::write_json_doc;
use isp_core::Variant;
use isp_dsl::pipeline::{PipelineRun, Policy};
use isp_dsl::runner::ExecMode;
use isp_dsl::Compiler;
use isp_image::{BorderPattern, BorderSpec};
use isp_json::Json;
use isp_sim::{DeviceSpec, Gpu};
use std::time::Instant;

/// Marker line a child prints before its JSON report.
const MARKER: &str = "==COLDSTART==";

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// One sweep cell's identity: everything that must be bit-identical
/// between the cold and warm processes.
struct Cell {
    app: &'static str,
    pattern: &'static str,
    size: usize,
    warp_instructions: u64,
    mem_transactions: u64,
    cycles: u64,
    pixels: u64,
}

impl Cell {
    fn of(app: &'static str, pattern: BorderPattern, size: usize, run: &PipelineRun) -> Cell {
        let mut hash = Fnv::new();
        if let Some(img) = &run.image {
            for v in img.raw() {
                hash.word(v.to_bits() as u64);
            }
        }
        Cell {
            app,
            pattern: pattern.name(),
            size,
            warp_instructions: run.counters.warp_instructions,
            mem_transactions: run.counters.mem_transactions,
            cycles: run.total_cycles,
            pixels: hash.0,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("app", self.app)
            .set("pattern", self.pattern)
            .set("size", self.size)
            .set("warp_instructions", self.warp_instructions)
            .set("mem_transactions", self.mem_transactions)
            .set("cycles", self.cycles)
            .set("pixels_fnv", self.pixels)
    }
}

/// The cold/warm sweep: every paper app at every border pattern, small
/// images, exhaustive ISP execution — decode + record dominated, which is
/// exactly the work the disk cache amortises.
fn sweep(gpu: &Gpu, sizes: &[usize]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in isp_filters::apps::all_apps() {
        for pattern in BorderPattern::ALL {
            let border = BorderSpec::from_pattern(pattern);
            let compiled = app
                .pipeline
                .compile(&Compiler::new(), border, Variant::IspBlock);
            for &size in sizes {
                let source = isp_exec::bench_image(size);
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
                    .expect("sweep run");
                cells.push(Cell::of(app.name, pattern, size, &run));
            }
        }
    }
    cells
}

/// Child phase: run the sweep against the shared cache dir and report
/// timing, cache traffic, and per-cell fingerprints on stdout.
fn child(phase: &str, dir: &str) {
    let gpu = Gpu::new(DeviceSpec::gtx680()).with_disk_cache(dir);
    let t0 = Instant::now();
    let cells = sweep(&gpu, &[48, 64]);
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let disk = gpu.disk_cache_stats();
    let trace = gpu.trace_stats();
    let doc = Json::obj()
        .set("phase", phase)
        .set("elapsed_ms", elapsed_ms)
        .set("decode_misses", gpu.decode_stats().misses)
        .set("trace_recorded", trace.recorded)
        .set("trace_replayed", trace.replayed)
        .set("trace_deopted", trace.deopted)
        .set("cross_launch_hits", gpu.trace_cross_launch_hits())
        .set("guard_batched_replays", gpu.guard_batched_replays())
        .set(
            "disk",
            Json::obj()
                .set("hits", disk.hits)
                .set("misses", disk.misses)
                .set("stale", disk.stale)
                .set("corrupt", disk.corrupt)
                .set("stores", disk.stores),
        )
        .set(
            "cells",
            Json::Arr(cells.iter().map(Cell::to_json).collect()),
        );
    println!("{MARKER}{}", doc.render());
}

/// Run one child phase in a separate process and parse its report.
fn run_child(phase: &str, dir: &str) -> Json {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args(["--phase", phase, dir])
        .output()
        .expect("spawn child");
    assert!(
        out.status.success(),
        "{phase} child failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(MARKER))
        .unwrap_or_else(|| panic!("{phase} child printed no report:\n{stdout}"));
    Json::parse(line).expect("child report parses")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 3 && args[0] == "--phase" {
        child(&args[1], &args[2]);
        return;
    }

    let dir = std::env::temp_dir().join(format!("isp-coldstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().to_string();

    println!("cold-start: spawning cold child (empty cache at {dir_s})");
    let cold = run_child("cold", &dir_s);
    println!(
        "cold-start: cold sweep {:.1} ms, spawning warm child",
        cold.get("elapsed_ms").unwrap().as_f64().unwrap()
    );
    let warm = run_child("warm", &dir_s);
    let _ = std::fs::remove_dir_all(&dir);

    let ms = |j: &Json| j.get("elapsed_ms").unwrap().as_f64().unwrap();
    let u = |j: &Json, k: &str| j.get(k).unwrap().as_u64().unwrap();
    let (cold_ms, warm_ms) = (ms(&cold), ms(&warm));
    let warm_speedup = cold_ms / warm_ms;

    // The warm process must have loaded every trace from disk: it decodes
    // each kernel once, as the cold one did, records nothing, and every
    // block it replays is a cross-launch hit.
    let warm_disk = warm.get("disk").unwrap();
    assert!(u(warm_disk, "hits") > 0, "warm child had no disk hits");
    assert_eq!(u(warm_disk, "corrupt"), 0, "warm child saw corrupt files");
    assert_eq!(u(warm_disk, "stale"), 0, "warm child saw stale files");
    assert_eq!(
        u(&warm, "decode_misses"),
        u(&cold, "decode_misses"),
        "warm child decodes each kernel once"
    );
    assert_eq!(u(&warm, "trace_recorded"), 0, "warm child recorded");
    assert_eq!(
        u(&warm, "cross_launch_hits"),
        u(&warm, "trace_replayed"),
        "every warm block replays a disk trace"
    );
    assert!(u(&cold, "trace_recorded") > 0, "cold child never recorded");

    // Every cell bit-identical: counters, cycles, pixels.
    let cold_cells = cold.get("cells").unwrap().as_arr().unwrap();
    let warm_cells = warm.get("cells").unwrap().as_arr().unwrap();
    assert_eq!(cold_cells.len(), warm_cells.len(), "cell count");
    for (c, w) in cold_cells.iter().zip(warm_cells) {
        assert_eq!(c.render(), w.render(), "cold/warm cell mismatch");
    }
    println!(
        "cold-start: warm sweep {warm_ms:.1} ms ({warm_speedup:.2}x), all {} cells bit-identical",
        cold_cells.len()
    );

    let doc = Json::obj()
        .set("schema", "isp-coldstart-v1")
        .set("device", "GTX680")
        .set("cold", cold)
        .set("warm", warm)
        .set("warm_speedup", warm_speedup);
    write_json_doc("BENCH_PR9", &doc).expect("write BENCH_PR9.json");
    println!("cold-start: wrote target/results/BENCH_PR9.json");

    assert!(
        warm_speedup >= 1.3,
        "disk-warm sweep must be >= 1.3x faster than cold, got {warm_speedup:.2}x"
    );
}
