//! Kernel launches: grid validation, block enumeration, exhaustive vs
//! region-sampled execution, and report assembly.
//!
//! Two execution engines back every launch (see [`ExecEngine`]): the
//! tree-walking reference interpreter and the decoded-microcode fast path.
//! They are observationally identical — same pixels, counters, cycles, and
//! errors — so the engine choice is purely a speed knob. Each [`Gpu`] caches
//! decoded kernels by structural fingerprint, so a sweep decodes each kernel
//! exactly once no matter how many launches it performs.

use crate::artifact::{DiskCache, DiskCacheStats, DiskLoad, TraceFileKey};
use crate::counters::PerfCounters;
use crate::decode::{
    decode_with_fusion, kernel_fingerprint, run_block_decoded, run_decoded, run_decoded_traced,
    DecodedBlockCtx, DecodedKernel, DecodedScratch, FlatCounters, FusionStats, Tracer,
};
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::interp::{run_block, BlockContext, BlockRun};
use crate::memory::DeviceBuffer;
use crate::occupancy::{occupancy_with_shared, OccupancyResult};
use crate::scheduler::{schedule, schedule_with, BlockCost, Timing};
use crate::trace::{record_block, replay_block, DeoptReason, Trace};
use isp_ir::kernel::Kernel;
use isp_ir::regalloc;
use isp_probe::{BlockSlice, DeoptInstant, ProbeHandle, SimTimeline};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A boxed per-block worker: runs one block by index under whichever
/// execution engine the launch selected.
type BlockWorker<'a> = Box<dyn Fn((u32, u32)) -> Result<BlockRun, SimError> + Sync + 'a>;

/// Cross-launch trace cache map: `(launch key, class) -> (epoch, trace)`.
type TraceCacheMap = HashMap<(u64, u32), (u64, Arc<Trace>)>;

/// Sentinel epoch stamped on trace-cache entries pre-warmed from the disk
/// cache: no live launch ever claims it (`launch_seq` counts up from 0), so
/// replays off a disk-loaded trace always register as cross-launch hits.
const DISK_EPOCH: u64 = u64::MAX;

/// Hardware limit on threads per block (both simulated devices).
pub const MAX_THREADS_PER_BLOCK: u32 = 1024;

/// A scalar kernel argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// 32-bit signed integer argument.
    I32(i32),
    /// 32-bit float argument.
    F32(f32),
}

/// Grid and block dimensions for a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Grid size in blocks `(x, y)`.
    pub grid: (u32, u32),
    /// Block size in threads `(x, y)`.
    pub block: (u32, u32),
}

impl LaunchConfig {
    /// Grid covering a `width x height` iteration space with `block`-sized
    /// blocks (rounding up, as `dim3((sx+tx-1)/tx, ...)` does).
    pub fn for_image(width: usize, height: usize, block: (u32, u32)) -> Self {
        LaunchConfig {
            grid: (
                (width as u32).div_ceil(block.0),
                (height as u32).div_ceil(block.1),
            ),
            block,
        }
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.0 * self.block.1
    }

    /// Total blocks in the grid.
    pub fn total_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64
    }
}

/// Per-class code-path information for fat (multi-region) kernels, indexed
/// by class id. Distinguishes the *sampling* class (which blocks behave
/// identically) from the *code path* (which instruction footprint an SM must
/// fetch): a naive kernel has nine sampling classes (divergence differs at
/// borders) but a single code path, while an ISP fat kernel has nine of
/// each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTable {
    /// Code-path id per class (same id = no i-cache switch between them).
    pub path_of_class: Vec<u32>,
    /// Static instruction footprint of each class's code path.
    pub footprint_of_class: Vec<u32>,
}

/// How exhaustive interpretation schedules its per-block workers.
///
/// Both strategies produce **bit-identical** results — pixels, counters,
/// and cycle counts — because block interpretation is pure (each worker
/// sees the pre-launch buffer contents) and reduction happens in fixed
/// block-dispatch order. `Serial` exists as the reference for the
/// determinism tests and for debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// Fan block workers out across CPU threads (default).
    #[default]
    Parallel,
    /// Interpret blocks one at a time in dispatch order.
    Serial,
}

/// Which interpreter executes the blocks of a launch.
///
/// All engines are observationally identical — same pixels, counters,
/// cycles, write order, and error values (the differential tests in
/// [`crate::decode`], `tests/decoded_diff.rs` and `tests/replay_diff.rs`
/// pin this). `Reference` walks the IR tree directly and serves as the
/// semantic oracle; `Decoded` lowers the kernel once to flat microcode and
/// executes that with a reused scratch arena; `Replay` additionally records
/// one block's warp schedule per block class and replays it for every
/// sibling block behind exactness guards, deopting to `Decoded` on any
/// mismatch (see [`crate::trace`]) — the fastest path, and the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Decoded microcode plus guarded per-class trace replay (fast path,
    /// default).
    #[default]
    Replay,
    /// Execute pre-decoded flat microcode for every block.
    Decoded,
    /// Walk the `isp_ir` tree directly (reference oracle).
    Reference,
}

/// Decode-cache hit/miss counts for a [`Gpu`] (shared across clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Launches that found their kernel already decoded.
    pub hits: u64,
    /// Kernels decoded (first sighting of a fingerprint).
    pub misses: u64,
}

/// Trace-replay reuse counts: how blocks were executed under
/// [`ExecEngine::Replay`] — recorded (first block of a class, runs on the
/// decoded engine while capturing its trace), replayed (straight-line trace
/// execution, all guards green), or deopted (a guard missed; the block
/// re-ran on the decoded engine). `recorded + replayed + deopted` equals the
/// number of blocks executed under the replay engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Blocks that recorded a fresh trace for their class.
    pub recorded: u64,
    /// Blocks replayed from a recorded trace.
    pub replayed: u64,
    /// Blocks that failed a replay guard and re-ran decoded.
    pub deopted: u64,
    /// Deopts broken down by which guard missed, indexed by
    /// [`DeoptReason::index`]; sums to `deopted`.
    pub deopt_reasons: [u64; DeoptReason::COUNT],
}

impl TraceStats {
    /// Accumulate another set of counts into this one.
    pub fn merge(&mut self, other: &TraceStats) {
        self.recorded += other.recorded;
        self.replayed += other.replayed;
        self.deopted += other.deopted;
        for (mine, theirs) in self.deopt_reasons.iter_mut().zip(other.deopt_reasons) {
            *mine += theirs;
        }
    }
}

/// How to execute the launch.
pub enum SimMode<'a> {
    /// Interpret every block: exact pixels + exact counters. Writes are
    /// applied to the buffers.
    Exhaustive,
    /// [`SimMode::Exhaustive`] plus per-class counter attribution: every
    /// block is interpreted and written exactly as in `Exhaustive`, and in
    /// addition each block's counters are merged into its class's entry of
    /// [`LaunchReport::per_class`] (classes as labelled by the classifier —
    /// for ISP kernels, the nine regions). The aggregate counters are the
    /// bit-identical sum of the per-class sets.
    ExhaustiveClassified {
        /// Maps block coordinates to a class id.
        classifier: &'a (dyn Fn(u32, u32) -> u32 + Sync),
    },
    /// Interpret one representative block per class (as labelled by the
    /// classifier) and extrapolate counters/timing by class population.
    /// Buffers are NOT written — this mode estimates performance only.
    /// Counters are exact when every block of a class executes identical
    /// control flow, which holds for the ISP region decomposition.
    RegionSampled {
        /// Maps block coordinates to a class id.
        classifier: &'a (dyn Fn(u32, u32) -> u32 + Sync),
        /// Code-path identity/footprint per class; `None` = one shared code
        /// path covering the whole kernel.
        paths: Option<&'a PathTable>,
    },
}

/// Everything a launch reports (the simulator's NVProf output).
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Aggregated performance counters.
    pub counters: PerfCounters,
    /// Wall-clock model output.
    pub timing: Timing,
    /// Theoretical occupancy achieved.
    pub occupancy: OccupancyResult,
    /// Registers per thread charged against the register file.
    pub regs_per_thread: u32,
    /// The launch geometry.
    pub config: LaunchConfig,
    /// Per-class `(class, blocks, cycles_per_block)` rows from sampled runs
    /// (empty for exhaustive runs). Lets downstream analyses re-schedule the
    /// same work under alternative execution strategies (e.g. the
    /// multi-kernel ablation).
    pub class_costs: Vec<(u32, u64, u64)>,
    /// Per-class performance counters, sorted by class id. Populated by
    /// [`SimMode::ExhaustiveClassified`] (exact per-block attribution) and
    /// [`SimMode::RegionSampled`] (representative counters scaled by class
    /// population); empty for plain [`SimMode::Exhaustive`]. The entries
    /// merge exactly — bit-identically — to [`LaunchReport::counters`].
    pub per_class: Vec<(u32, PerfCounters)>,
    /// Per-class trace-replay reuse, sorted by class id. Populated only by
    /// [`SimMode::ExhaustiveClassified`] launches under
    /// [`ExecEngine::Replay`]; empty otherwise. The lowest-dispatch-index
    /// block of a class records (unless an earlier launch left its trace),
    /// so these stats, like every other field, do not depend on the worker
    /// count.
    pub per_class_trace: Vec<(u32, TraceStats)>,
}

/// A simulated GPU: a device spec, an execution engine, and launch
/// machinery. Cloning a `Gpu` shares its decode cache (and stats), so a
/// pipeline may hand clones to workers without re-decoding kernels.
///
/// The replay engine's trace cache is also shared across the clone family
/// and **persists across launches**: a launch with the same (kernel
/// fingerprint, grid, block, scalar params) tuple as an earlier one replays
/// from block 0 instead of re-recording. Scalar params are part of the key
/// because a recorded trace pins grid-uniform parameter values into its
/// affine classes and range guards; buffer *contents* are not, because the
/// replay guards re-validate every access against the live buffers and
/// deopt on any divergence — reuse is always bit-exact.
/// Decoded-kernel cache shared across a `Gpu` clone family, keyed by
/// (kernel fingerprint, fusion flag).
type DecodeCache = Arc<Mutex<HashMap<(u64, bool), Arc<DecodedKernel>>>>;

#[derive(Debug, Clone)]
pub struct Gpu {
    device: DeviceSpec,
    engine: ExecEngine,
    probe: ProbeHandle,
    /// Whether kernels decode with the superinstruction fusion pass
    /// (default on; ablation binaries and neutrality tests turn it off).
    fusion: bool,
    /// Keyed by (fingerprint, fusion) so a clone family mixing fused and
    /// unfused launches never serves the wrong decoding.
    decode_cache: DecodeCache,
    decode_hits: Arc<AtomicU64>,
    decode_misses: Arc<AtomicU64>,
    /// Decode-time fusion totals over all cold decodes (groups, fused ops,
    /// dispatches saved).
    fused_groups: Arc<AtomicU64>,
    fused_ops: Arc<AtomicU64>,
    fused_saved: Arc<AtomicU64>,
    /// Cross-launch trace cache: `(launch key, class) -> (epoch, trace)`.
    /// The epoch is the sequence number of the launch that recorded the
    /// trace, so later launches can tell a warm hit from their own fresh
    /// recording.
    trace_cache: Arc<Mutex<TraceCacheMap>>,
    /// Monotonic launch sequence number (one per replay-engine exhaustive
    /// launch), used to stamp trace-cache entries with their recording
    /// epoch.
    launch_seq: Arc<AtomicU64>,
    trace_recorded: Arc<AtomicU64>,
    trace_replayed: Arc<AtomicU64>,
    trace_deopted: Arc<AtomicU64>,
    /// Blocks replayed from a trace recorded by an *earlier* launch.
    trace_xlaunch: Arc<AtomicU64>,
    trace_deopt_reasons: Arc<[AtomicU64; DeoptReason::COUNT]>,
    /// Whether replay uses the batched sibling-block guard fast path
    /// (default on; the `cold_start` ablation turns it off).
    guard_batching: bool,
    /// Blocks replayed through the guard-free `fast_prog` because they fell
    /// inside their trace's proven guard rectangle. A subset of
    /// [`TraceStats::replayed`].
    guard_fast: Arc<AtomicU64>,
    /// Optional persistent artifact cache (opt-in via
    /// [`Gpu::with_disk_cache`]): decoded kernels and recorded traces are
    /// stored to / pre-warmed from disk.
    disk: Option<DiskCache>,
    /// Launch-trace keys whose disk pre-warm has already been attempted, so
    /// each key hits the filesystem at most once per clone family.
    disk_warmed: Arc<Mutex<HashSet<u64>>>,
}

impl Gpu {
    /// Create a GPU from a device spec (replay engine by default, probe
    /// disabled).
    pub fn new(device: DeviceSpec) -> Self {
        Gpu {
            device,
            engine: ExecEngine::default(),
            probe: ProbeHandle::none(),
            fusion: true,
            decode_cache: Arc::new(Mutex::new(HashMap::new())),
            decode_hits: Arc::new(AtomicU64::new(0)),
            decode_misses: Arc::new(AtomicU64::new(0)),
            fused_groups: Arc::new(AtomicU64::new(0)),
            fused_ops: Arc::new(AtomicU64::new(0)),
            fused_saved: Arc::new(AtomicU64::new(0)),
            trace_cache: Arc::new(Mutex::new(HashMap::new())),
            launch_seq: Arc::new(AtomicU64::new(0)),
            trace_recorded: Arc::new(AtomicU64::new(0)),
            trace_replayed: Arc::new(AtomicU64::new(0)),
            trace_deopted: Arc::new(AtomicU64::new(0)),
            trace_xlaunch: Arc::new(AtomicU64::new(0)),
            trace_deopt_reasons: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            guard_batching: true,
            guard_fast: Arc::new(AtomicU64::new(0)),
            disk: None,
            disk_warmed: Arc::new(Mutex::new(HashSet::new())),
        }
    }

    /// Builder: select the execution engine for subsequent launches.
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Builder: enable or disable the superinstruction fusion pass for
    /// subsequent decodes (on by default). Fusion is observationally
    /// neutral — counters, cycles, pixels and journals are identical either
    /// way — so this is only interesting to ablation and neutrality tests.
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Whether decodes run the fusion pass.
    pub fn fusion_enabled(&self) -> bool {
        self.fusion
    }

    /// Builder: enable or disable batched sibling-block guard evaluation
    /// for replayed blocks (on by default). Batching is observationally
    /// neutral — a block inside the proven guard rectangle would have
    /// passed every hoisted guard inline, and a block outside it deopts
    /// exactly as the inline check would — so this switch exists for the
    /// `cold_start` ablation and neutrality tests.
    pub fn with_guard_batching(mut self, on: bool) -> Self {
        self.guard_batching = on;
        self
    }

    /// Whether replay uses the batched guard fast path.
    pub fn guard_batching_enabled(&self) -> bool {
        self.guard_batching
    }

    /// Blocks replayed through the guard-free fast program because their
    /// offset fell inside the trace's proven guard rectangle.
    pub fn guard_batched_replays(&self) -> u64 {
        self.guard_fast.load(Ordering::Relaxed)
    }

    /// Builder: persist decoded kernels and recorded traces to an on-disk
    /// artifact cache rooted at `path`, and pre-warm from it — a fresh
    /// process sharing the directory replays from block 0 of its first
    /// launch. Off by default; see [`crate::artifact`] for the format.
    pub fn with_disk_cache(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.disk = Some(DiskCache::at(path));
        self
    }

    /// Builder: drop any configured disk cache (the default state). Exists
    /// so tests and `loadgen` can pin persistence off explicitly.
    pub fn without_disk_cache(mut self) -> Self {
        self.disk = None;
        self
    }

    /// Whether an on-disk artifact cache is configured.
    pub fn disk_cache_enabled(&self) -> bool {
        self.disk.is_some()
    }

    /// Disk-cache traffic counters (all zero when no cache is configured).
    pub fn disk_cache_stats(&self) -> DiskCacheStats {
        self.disk.as_ref().map(DiskCache::stats).unwrap_or_default()
    }

    /// Render a launch report as the NVProf-style `==PROF==` block,
    /// including this GPU's disk-cache traffic — the convenience form of
    /// [`crate::profile::format_report_with_cache`].
    pub fn format_report(&self, name: &str, report: &LaunchReport) -> String {
        crate::profile::format_report_with_cache(
            &self.device,
            name,
            report,
            &self.disk_cache_stats(),
        )
    }

    /// Builder: attach a probe; subsequent launches report spans, cache
    /// events, and per-SM timelines to it. The default handle is disabled
    /// and costs nothing.
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = probe;
        self
    }

    /// Replace the probe in place (used by owners that embed a `Gpu`).
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// The probe handle launches report to.
    pub fn probe(&self) -> &ProbeHandle {
        &self.probe
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The engine used by [`Gpu::launch`] / [`Gpu::launch_with`].
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Decoded microcode for `kernel`, from the cache when the kernel's
    /// structural fingerprint has been seen before. A miss decodes outside
    /// the cache lock (two racing misses decode twice, cache once).
    pub fn decode(&self, kernel: &Kernel) -> Arc<DecodedKernel> {
        let fp = (kernel_fingerprint(kernel), self.fusion);
        if let Some(dk) = self.decode_cache.lock().unwrap().get(&fp) {
            self.decode_hits.fetch_add(1, Ordering::Relaxed);
            if self.probe.is_enabled() {
                self.probe.count("gpu.decode_hits", 1);
                self.probe
                    .instant("decode-cache-hit", "gpu", Some(kernel.name.to_string()));
            }
            return Arc::clone(dk);
        }
        if let Some(disk) = &self.disk {
            let outcome = disk.load_kernel(fp.0, fp.1, &self.device);
            if self.probe.is_enabled() {
                self.probe
                    .count(&format!("gpu.disk_cache_{}", outcome.name()), 1);
            }
            if let DiskLoad::Hit(dk) = outcome {
                // A disk hit skips the decode entirely: no decode miss, no
                // fusion-stat accrual (the stored kernel was fused at store
                // time; its stats describe that cold decode, not this load).
                if self.probe.is_enabled() {
                    self.probe
                        .instant("disk-cache-hit", "gpu", Some(kernel.name.to_string()));
                }
                let dk = Arc::new(dk);
                let mut cache = self.decode_cache.lock().unwrap();
                return Arc::clone(cache.entry(fp).or_insert(dk));
            }
        }
        let t0 = self.probe.begin();
        let dk = Arc::new(decode_with_fusion(kernel, &self.device, self.fusion));
        self.probe
            .span("decode", "gpu", t0, || Some(kernel.name.to_string()));
        if let Some(disk) = &self.disk {
            disk.store_kernel(&dk, &self.device);
        }
        self.decode_misses.fetch_add(1, Ordering::Relaxed);
        let fs = dk.fusion_stats();
        self.fused_groups.fetch_add(fs.groups, Ordering::Relaxed);
        self.fused_ops.fetch_add(fs.fused_ops, Ordering::Relaxed);
        self.fused_saved
            .fetch_add(fs.dispatches_saved, Ordering::Relaxed);
        if self.probe.is_enabled() {
            self.probe.count("gpu.decode_misses", 1);
            self.probe
                .instant("decode-cache-miss", "gpu", Some(kernel.name.to_string()));
        }
        let mut cache = self.decode_cache.lock().unwrap();
        Arc::clone(cache.entry(fp).or_insert(dk))
    }

    /// Pre-warm the cross-launch trace cache from disk for one launch key.
    /// Runs at most once per key per clone family; loaded traces are
    /// stamped with [`DISK_EPOCH`] so every replay off them registers as a
    /// cross-launch hit. Traces already recorded in-process win ties (disk
    /// entries insert with `or_insert`).
    fn disk_prewarm_traces(
        &self,
        dk: &DecodedKernel,
        key: u64,
        cfg: LaunchConfig,
        params: &[ParamValue],
    ) {
        let Some(disk) = &self.disk else { return };
        if !self.disk_warmed.lock().unwrap().insert(key) {
            return;
        }
        let tkey = TraceFileKey::new(dk.fingerprint, &self.device, self.fusion, cfg, params);
        let outcome = disk.load_traces(&tkey, dk);
        if self.probe.is_enabled() {
            self.probe
                .count(&format!("gpu.disk_cache_{}", outcome.name()), 1);
        }
        if let DiskLoad::Hit(list) = outcome {
            if self.probe.is_enabled() {
                self.probe.instant(
                    "disk-trace-warm",
                    "gpu",
                    Some(format!("{} classes", list.len())),
                );
            }
            let mut cache = self.trace_cache.lock().unwrap();
            for (class, trace) in list {
                cache
                    .entry((key, class))
                    .or_insert((DISK_EPOCH, Arc::new(trace)));
            }
        }
    }

    /// Decode-cache hit/miss counts since this `Gpu` (or the clone family it
    /// belongs to) was created.
    pub fn decode_stats(&self) -> DecodeStats {
        DecodeStats {
            hits: self.decode_hits.load(Ordering::Relaxed),
            misses: self.decode_misses.load(Ordering::Relaxed),
        }
    }

    /// Decode-time fusion totals summed over every cold decode performed by
    /// this `Gpu` (or its clone family).
    pub fn fusion_stats(&self) -> FusionStats {
        FusionStats {
            groups: self.fused_groups.load(Ordering::Relaxed),
            fused_ops: self.fused_ops.load(Ordering::Relaxed),
            dispatches_saved: self.fused_saved.load(Ordering::Relaxed),
        }
    }

    /// Aggregate trace-replay reuse counts across every
    /// [`ExecEngine::Replay`] launch since this `Gpu` (or its clone family)
    /// was created.
    pub fn trace_stats(&self) -> TraceStats {
        TraceStats {
            recorded: self.trace_recorded.load(Ordering::Relaxed),
            replayed: self.trace_replayed.load(Ordering::Relaxed),
            deopted: self.trace_deopted.load(Ordering::Relaxed),
            deopt_reasons: std::array::from_fn(|i| {
                self.trace_deopt_reasons[i].load(Ordering::Relaxed)
            }),
        }
    }

    /// Blocks replayed from a trace recorded by an *earlier* launch on this
    /// `Gpu` (or its clone family) — the cross-launch reuse that lets the
    /// second image of a batch replay from block 0. A subset of
    /// [`TraceStats::replayed`].
    pub fn trace_cross_launch_hits(&self) -> u64 {
        self.trace_xlaunch.load(Ordering::Relaxed)
    }

    /// Launch `kernel` over `cfg`. See [`SimMode`] for the modes.
    /// Exhaustive interpretation fans out in parallel; use
    /// [`Gpu::launch_with`] to force the serial reference strategy.
    pub fn launch(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[ParamValue],
        buffers: &mut [DeviceBuffer],
        mode: SimMode<'_>,
    ) -> Result<LaunchReport, SimError> {
        self.launch_with(kernel, cfg, params, buffers, mode, ExecStrategy::Parallel)
    }

    /// [`Gpu::launch`] with an explicit block-worker [`ExecStrategy`].
    pub fn launch_with(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[ParamValue],
        buffers: &mut [DeviceBuffer],
        mode: SimMode<'_>,
        strategy: ExecStrategy,
    ) -> Result<LaunchReport, SimError> {
        self.launch_engine(kernel, cfg, params, buffers, mode, strategy, self.engine)
    }

    /// [`Gpu::launch_with`] with an explicit [`ExecEngine`], overriding the
    /// GPU's default. This is what differential tests and the before/after
    /// speed benchmark use to run both engines side by side.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_engine(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[ParamValue],
        buffers: &mut [DeviceBuffer],
        mode: SimMode<'_>,
        strategy: ExecStrategy,
        engine: ExecEngine,
    ) -> Result<LaunchReport, SimError> {
        let t0 = self.probe.begin();
        let result = self.launch_engine_inner(kernel, cfg, params, buffers, mode, strategy, engine);
        self.probe.span("launch", "gpu", t0, || {
            Some(format!(
                "{} grid {}x{} block {}x{} ({engine:?})",
                kernel.name, cfg.grid.0, cfg.grid.1, cfg.block.0, cfg.block.1
            ))
        });
        if self.probe.is_enabled() && result.is_err() {
            self.probe.count("gpu.launch_errors", 1);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn launch_engine_inner(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[ParamValue],
        buffers: &mut [DeviceBuffer],
        mode: SimMode<'_>,
        strategy: ExecStrategy,
        engine: ExecEngine,
    ) -> Result<LaunchReport, SimError> {
        self.validate(kernel, cfg, params, buffers)?;
        let regs = regalloc::estimate(kernel).data_regs;
        let occ = occupancy_with_shared(
            &self.device,
            cfg.threads_per_block(),
            regs,
            kernel.shared_elems * 4,
        );
        let ipdom = isp_ir::cfg::Cfg::new(kernel).ipostdom();

        match mode {
            SimMode::Exhaustive => self.launch_exhaustive(
                kernel, cfg, params, buffers, &ipdom, regs, occ, strategy, None, engine,
            ),
            SimMode::ExhaustiveClassified { classifier } => self.launch_exhaustive(
                kernel,
                cfg,
                params,
                buffers,
                &ipdom,
                regs,
                occ,
                strategy,
                Some(classifier),
                engine,
            ),
            SimMode::RegionSampled { classifier, paths } => self.launch_sampled(
                kernel, cfg, params, buffers, &ipdom, regs, occ, classifier, paths, engine,
            ),
        }
    }

    fn validate(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[ParamValue],
        buffers: &[DeviceBuffer],
    ) -> Result<(), SimError> {
        if cfg.grid.0 == 0 || cfg.grid.1 == 0 || cfg.block.0 == 0 || cfg.block.1 == 0 {
            return Err(SimError::BadLaunch(format!(
                "degenerate geometry grid={:?} block={:?}",
                cfg.grid, cfg.block
            )));
        }
        if cfg.threads_per_block() > MAX_THREADS_PER_BLOCK {
            return Err(SimError::BadLaunch(format!(
                "block of {} threads exceeds the {MAX_THREADS_PER_BLOCK}-thread limit",
                cfg.threads_per_block()
            )));
        }
        if buffers.len() != kernel.num_buffers as usize {
            return Err(SimError::BadLaunch(format!(
                "kernel '{}' expects {} buffers, got {}",
                kernel.name,
                kernel.num_buffers,
                buffers.len()
            )));
        }
        if params.len() != kernel.params.len() {
            return Err(SimError::BadLaunch(format!(
                "kernel '{}' expects {} scalar params, got {}",
                kernel.name,
                kernel.params.len(),
                params.len()
            )));
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn launch_exhaustive(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[ParamValue],
        buffers: &mut [DeviceBuffer],
        ipdom: &[Option<isp_ir::kernel::BlockId>],
        regs: u32,
        occ: OccupancyResult,
        strategy: ExecStrategy,
        classifier: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>,
        engine: ExecEngine,
    ) -> Result<LaunchReport, SimError> {
        // Workers are driven from the block *index* range and derive their
        // coordinates on the fly — the grid's coordinate list is never
        // materialised. Dispatch order is row-major: idx = by * gx + bx.
        let total = cfg.total_blocks();
        let gx = cfg.grid.0 as u64;
        let footprint = kernel.static_len() as u32;
        // Per-block outcomes feed the probe timeline only; nothing is
        // collected when the probe is disabled.
        let want_outcomes = self.probe.is_enabled();

        let mut per_class_trace: Vec<(u32, TraceStats)> = Vec::new();
        let (counters, per_class, costs, writes, outcomes) = match engine {
            ExecEngine::Reference => {
                let shared: &[DeviceBuffer] = buffers;
                let worker = |idx: u64| {
                    run_block(&BlockContext {
                        kernel,
                        ipdom,
                        device: &self.device,
                        grid: cfg.grid,
                        block_dim: cfg.block,
                        block_idx: ((idx % gx) as u32, (idx / gx) as u32),
                        params,
                        buffers: shared,
                    })
                };
                // The worker is pure (reads the pre-launch buffer snapshot,
                // returns a write journal), so the only ordering requirement
                // is that `runs` comes back in dispatch order — which both
                // strategies guarantee.
                let runs: Vec<Result<BlockRun, SimError>> = match strategy {
                    ExecStrategy::Parallel => (0..total).into_par_iter().map(worker).collect(),
                    ExecStrategy::Serial => (0..total).map(worker).collect(),
                };
                let classes = classifier.map(|f| {
                    (0..total)
                        .map(|idx| f((idx % gx) as u32, (idx / gx) as u32))
                        .collect::<Vec<u32>>()
                });
                reduce_block_runs(footprint, runs, classes.as_deref())?
            }
            ExecEngine::Decoded | ExecEngine::Replay => {
                let dk = self.decode(kernel);
                let shared: &[DeviceBuffer] = buffers;
                // Opcode-sequence histograms: probed decoded-engine launches
                // run traced (op-at-a-time) so the profiler sees the raw
                // unfused stream.
                let profile_seq = want_outcomes && engine == ExecEngine::Decoded;
                let block_start = profile_seq.then(|| dk.block_start_flags());
                let arenas = ScratchPool::default();
                // The replay engine reads the Gpu's persistent trace cache,
                // scoped to this launch's (kernel, geometry, params) key and
                // further keyed by block class (class 0 when no classifier
                // labels the grid): the record pass runs the first block of
                // each class — unless an earlier launch with the identical
                // key already did, in which case every block of the class
                // replays warm.
                let traces: Option<LaunchTraces> = (engine == ExecEngine::Replay).then(|| {
                    let key = launch_trace_key(kernel_fingerprint(kernel), cfg, params);
                    // With a disk cache configured, the first sight of a
                    // launch key pre-warms the trace cache from disk:
                    // loaded traces carry the DISK_EPOCH sentinel so
                    // their replays count as cross-launch hits.
                    if self.disk.is_some() {
                        self.disk_prewarm_traces(&dk, key, cfg, params);
                    }
                    self.record_pass(&dk, key, cfg, params, shared, classifier, strategy, &arenas)
                });
                // Chunked fold: each worker folds a contiguous run of block
                // indices through one ChunkAcc, and each block borrows a
                // scratch arena from the launch's pool. Chunk accumulators
                // come back in input order, so concatenating them
                // reproduces dispatch order exactly.
                let fold_op = |mut acc: ChunkAcc, idx: u64| {
                    if acc.err.is_some() {
                        return acc;
                    }
                    let block_idx = ((idx % gx) as u32, (idx / gx) as u32);
                    let class = classifier.map_or(0, |f| f(block_idx.0, block_idx.1));
                    let ctx = DecodedBlockCtx {
                        grid: cfg.grid,
                        block_dim: cfg.block,
                        block_idx,
                        params,
                        buffers: shared,
                    };
                    let journal_mark = acc.writes.len();
                    let run = arenas.with(|scratch| match &traces {
                        Some(traces) => run_block_replay(
                            &dk,
                            &ctx,
                            idx,
                            class,
                            traces,
                            &mut acc.classes,
                            &mut acc.trace_xlaunch,
                            scratch,
                            &mut acc.writes,
                            self.guard_batching,
                            &mut acc.guard_fast,
                        ),
                        None => match &block_start {
                            Some(flags) => {
                                let mut prof = SeqProfiler {
                                    dk: &dk,
                                    block_start: flags,
                                    prev: 0,
                                    prev2: 0,
                                    seq: &mut acc.opseq,
                                };
                                run_decoded_traced(&dk, &ctx, scratch, &mut acc.writes, &mut prof)
                            }
                            None => run_decoded(&dk, &ctx, scratch, &mut acc.writes),
                        }
                        .map(|(c, cycles)| (Some(c), cycles, OUT_RUN)),
                    });
                    match run {
                        Ok((c, cycles, outcome)) => {
                            // Replayed blocks return no counter set — their
                            // contribution is the per-class (count, tx)
                            // accumulator expanded by the reducer.
                            if let Some(c) = c {
                                acc.counters.merge(&c);
                                if classifier.is_some() {
                                    acc.per_class.entry(class).or_default().merge(&c);
                                }
                            }
                            acc.cycles.push(cycles);
                            if want_outcomes {
                                acc.outcomes.push(outcome);
                            }
                        }
                        Err(e) => {
                            // Drop the failed block's partial journal so an
                            // erroring launch applies no writes at all, like
                            // the reference path.
                            acc.writes.truncate(journal_mark);
                            acc.err = Some(e);
                        }
                    }
                    acc
                };
                let accs: Vec<ChunkAcc> = match strategy {
                    ExecStrategy::Parallel => (0..total)
                        .into_par_iter()
                        .fold(ChunkAcc::default, fold_op)
                        .collect(),
                    ExecStrategy::Serial => vec![(0..total).fold(ChunkAcc::default(), fold_op)],
                };
                if let Some(tr) = &traces {
                    let mut by_class: HashMap<u32, TraceStats> = HashMap::new();
                    let mut xlaunch = 0u64;
                    let mut guard_fast = 0u64;
                    for acc in &accs {
                        for (&c, slot) in &acc.classes {
                            by_class.entry(c).or_default().merge(&slot.stats);
                        }
                        xlaunch += acc.trace_xlaunch;
                        guard_fast += acc.guard_fast;
                    }
                    self.guard_fast.fetch_add(guard_fast, Ordering::Relaxed);
                    let mut total = TraceStats::default();
                    for s in by_class.values() {
                        total.merge(s);
                    }
                    self.trace_recorded
                        .fetch_add(total.recorded, Ordering::Relaxed);
                    self.trace_replayed
                        .fetch_add(total.replayed, Ordering::Relaxed);
                    self.trace_deopted
                        .fetch_add(total.deopted, Ordering::Relaxed);
                    self.trace_xlaunch.fetch_add(xlaunch, Ordering::Relaxed);
                    for (slot, n) in self.trace_deopt_reasons.iter().zip(total.deopt_reasons) {
                        slot.fetch_add(n, Ordering::Relaxed);
                    }
                    if classifier.is_some() {
                        per_class_trace = by_class.into_iter().collect();
                        per_class_trace.sort_unstable_by_key(|&(c, _)| c);
                    }
                    // Persist anything this launch recorded so the next
                    // process replays it from disk. Rewriting the whole
                    // class set per recording launch keeps the file
                    // self-consistent (one atomic rename covers all
                    // classes).
                    if total.recorded > 0 {
                        if let Some(disk) = &self.disk {
                            let entries: Vec<(u32, Arc<Trace>)> = {
                                let cache = self.trace_cache.lock().unwrap();
                                let mut v: Vec<_> = cache
                                    .iter()
                                    .filter(|((k, _), _)| *k == tr.key)
                                    .map(|((_, c), (_, t))| (*c, Arc::clone(t)))
                                    .collect();
                                v.sort_unstable_by_key(|&(c, _)| c);
                                v
                            };
                            let tkey = TraceFileKey::new(
                                dk.fingerprint,
                                &self.device,
                                self.fusion,
                                cfg,
                                params,
                            );
                            disk.store_traces(&tkey, &entries);
                        }
                    }
                }
                if profile_seq {
                    let mut seq = OpSeq::default();
                    for acc in &accs {
                        seq.merge(&acc.opseq);
                    }
                    seq.report(&self.probe);
                }
                reduce_chunk_accs(footprint, classifier.is_some(), traces.as_ref(), accs)?
            }
        };

        for (buf, addr, bits) in writes {
            buffers[buf as usize].store_bits(addr, bits);
        }
        let timing = if want_outcomes {
            self.schedule_probed(kernel, cfg, &occ, costs, &outcomes, classifier, false)
        } else {
            schedule(&self.device, &occ, costs)
        };
        Ok(LaunchReport {
            counters,
            timing,
            occupancy: occ,
            regs_per_thread: regs,
            config: cfg,
            class_costs: Vec::new(),
            per_class,
            per_class_trace,
        })
    }

    /// The replay engine's record pass, run before the fan-out: resolve
    /// every block class of the grid against the shared trace cache, then
    /// record the lowest-dispatch-index block of each class that has no
    /// trace — the classes in parallel, each block exactly once. The
    /// fan-out then only reads the result, so which blocks record never
    /// depends on how workers are scheduled.
    #[allow(clippy::too_many_arguments)]
    fn record_pass(
        &self,
        dk: &DecodedKernel,
        key: u64,
        cfg: LaunchConfig,
        params: &[ParamValue],
        buffers: &[DeviceBuffer],
        classifier: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>,
        strategy: ExecStrategy,
        arenas: &ScratchPool,
    ) -> LaunchTraces {
        let epoch = self.launch_seq.fetch_add(1, Ordering::Relaxed);
        let gx = cfg.grid.0 as u64;
        let block_idx = |idx: u64| ((idx % gx) as u32, (idx / gx) as u32);
        let firsts: Vec<(u32, u64)> = match classifier {
            None => vec![(0, 0)],
            Some(f) => {
                let mut seen = HashSet::new();
                (0..cfg.total_blocks())
                    .filter_map(|idx| {
                        let (bx, by) = block_idx(idx);
                        let class = f(bx, by);
                        seen.insert(class).then_some((class, idx))
                    })
                    .collect()
            }
        };
        let mut classes = HashMap::with_capacity(firsts.len());
        let mut missing = Vec::new();
        {
            let cache = self.trace_cache.lock().expect("trace cache lock poisoned");
            for &(class, idx) in &firsts {
                match cache.get(&(key, class)) {
                    Some((e, t)) => {
                        classes.insert(
                            class,
                            ClassTrace {
                                trace: Some(Arc::clone(t)),
                                prior: *e != epoch,
                                recorded: None,
                            },
                        );
                    }
                    None => missing.push((class, idx)),
                }
            }
        }
        let record = |&(class, idx): &(u32, u64)| {
            let ctx = DecodedBlockCtx {
                grid: cfg.grid,
                block_dim: cfg.block,
                block_idx: block_idx(idx),
                params,
                buffers,
            };
            let mut writes = Vec::new();
            let started = self.probe.begin();
            let run = arenas.with(|scratch| record_block(dk, &ctx, scratch, &mut writes));
            self.probe.span("trace-record", "sim", started, || {
                Some(format!("class {class}"))
            });
            (
                class,
                idx,
                run.map(|(c, cycles, trace)| (c, cycles, trace, writes)),
            )
        };
        let recorded: Vec<_> = match strategy {
            ExecStrategy::Parallel => missing.par_iter().map(record).collect(),
            ExecStrategy::Serial => missing.iter().map(record).collect(),
        };
        let mut cache = self.trace_cache.lock().expect("trace cache lock poisoned");
        for (class, idx, run) in recorded {
            let (trace, run) = match run {
                Ok((counters, cycles, trace, writes)) => {
                    let trace = Arc::new(trace);
                    cache
                        .entry((key, class))
                        .or_insert((epoch, Arc::clone(&trace)));
                    (Some(trace), Ok((counters, cycles, writes)))
                }
                Err(e) => (None, Err(e)),
            };
            classes.insert(
                class,
                ClassTrace {
                    trace,
                    prior: false,
                    recorded: Some((idx, run)),
                },
            );
        }
        LaunchTraces { key, classes }
    }

    /// [`schedule`] plus timeline capture: record every block's `(sm, start,
    /// end)` placement, label it with its class and outcome, pin deopt
    /// instants to their block's retirement, and hand the assembled
    /// [`SimTimeline`] to the probe. Only called when the probe is enabled.
    #[allow(clippy::too_many_arguments)]
    fn schedule_probed(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        occ: &OccupancyResult,
        costs: Vec<BlockCost>,
        outcomes: &[u8],
        classifier: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>,
        modeled: bool,
    ) -> Timing {
        let gx = cfg.grid.0 as u64;
        let mut slices: Vec<BlockSlice> = Vec::with_capacity(costs.len());
        let mut deopts: Vec<DeoptInstant> = Vec::new();
        let timing = schedule_with(&self.device, occ, costs, |i, sm, start, end| {
            let idx = i as u64;
            let block = ((idx % gx) as u32, (idx / gx) as u32);
            let class = classifier.map_or(0, |f| f(block.0, block.1));
            let code = outcomes.get(i).copied().unwrap_or(OUT_RUN);
            slices.push(BlockSlice {
                sm,
                start,
                end,
                class,
                block,
                outcome: if modeled {
                    "modeled"
                } else {
                    outcome_name(code)
                },
            });
            if code >= OUT_DEOPT {
                deopts.push(DeoptInstant {
                    sm,
                    at: end,
                    class,
                    reason: DeoptReason::ALL[(code - OUT_DEOPT) as usize].name(),
                });
            }
        });
        self.probe.timeline(SimTimeline {
            name: kernel.name.to_string(),
            num_sms: self.device.num_sms,
            launch_overhead: self.device.launch_overhead_cycles,
            cycles: timing.cycles,
            slices,
            deopts,
        });
        timing
    }

    #[allow(clippy::too_many_arguments)]
    fn launch_sampled(
        &self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        params: &[ParamValue],
        buffers: &[DeviceBuffer],
        ipdom: &[Option<isp_ir::kernel::BlockId>],
        regs: u32,
        occ: OccupancyResult,
        classifier: &(dyn Fn(u32, u32) -> u32 + Sync),
        paths: Option<&PathTable>,
        engine: ExecEngine,
    ) -> Result<LaunchReport, SimError> {
        // Walk the grid once: count classes and remember a representative.
        let mut class_count: HashMap<u32, u64> = HashMap::new();
        let mut class_rep: HashMap<u32, (u32, u32)> = HashMap::new();
        for by in 0..cfg.grid.1 {
            for bx in 0..cfg.grid.0 {
                let c = classifier(bx, by);
                *class_count.entry(c).or_insert(0) += 1;
                class_rep.entry(c).or_insert((bx, by));
            }
        }

        // Interpret each representative once (in parallel), through
        // whichever engine the launch selected. Representatives are
        // independent, so each decoded rep gets a fresh scratch arena.
        let run_rep: BlockWorker<'_> = match engine {
            ExecEngine::Reference => Box::new(move |block_idx| {
                run_block(&BlockContext {
                    kernel,
                    ipdom,
                    device: &self.device,
                    grid: cfg.grid,
                    block_dim: cfg.block,
                    block_idx,
                    params,
                    buffers,
                })
            }),
            // Sampled mode runs one representative per class — there are no
            // sibling blocks to replay, so `Replay` degenerates to `Decoded`.
            ExecEngine::Decoded | ExecEngine::Replay => {
                let dk = self.decode(kernel);
                Box::new(move |block_idx| {
                    let mut scratch = DecodedScratch::new();
                    run_block_decoded(
                        &dk,
                        &DecodedBlockCtx {
                            grid: cfg.grid,
                            block_dim: cfg.block,
                            block_idx,
                            params,
                            buffers,
                        },
                        &mut scratch,
                    )
                })
            }
        };

        let mut reps: Vec<(u32, (u32, u32))> = class_rep.into_iter().collect();
        reps.sort_unstable();
        let runs: Vec<(u32, Result<BlockRun, SimError>)> = reps
            .par_iter()
            .map(|&(c, coord)| (c, run_rep(coord)))
            .collect();

        let mut class_cycles: HashMap<u32, u64> = HashMap::new();
        let mut counters = PerfCounters::new();
        let mut per_class: Vec<(u32, PerfCounters)> = Vec::new();
        let footprint = kernel.static_len() as u32;
        // `runs` is sorted by class id (reps was), so per_class comes out
        // sorted without a second pass.
        for (c, run) in runs {
            let run = run?;
            let n = class_count[&c];
            let scaled = run.counters.scaled(n);
            counters.merge(&scaled);
            per_class.push((c, scaled));
            class_cycles.insert(c, run.cycles);
        }

        // Schedule the full grid in dispatch order with per-class costs.
        let costs = (0..cfg.grid.1)
            .flat_map(|by| (0..cfg.grid.0).map(move |bx| (bx, by)))
            .map(|(bx, by)| {
                let c = classifier(bx, by);
                let (path, fp) = match paths {
                    Some(t) => (
                        t.path_of_class.get(c as usize).copied().unwrap_or(0),
                        t.footprint_of_class
                            .get(c as usize)
                            .copied()
                            .unwrap_or(footprint),
                    ),
                    None => (0, footprint),
                };
                BlockCost {
                    class: path,
                    cycles: class_cycles[&c],
                    static_footprint: fp,
                }
            });
        let timing = if self.probe.is_enabled() {
            // Sampled blocks never executed individually — every slice is an
            // extrapolation from its class representative, hence "modeled".
            self.schedule_probed(
                kernel,
                cfg,
                &occ,
                costs.collect(),
                &[],
                Some(classifier),
                true,
            )
        } else {
            schedule(&self.device, &occ, costs)
        };
        let mut class_costs: Vec<(u32, u64, u64)> = class_cycles
            .iter()
            .map(|(&c, &cyc)| (c, class_count[&c], cyc))
            .collect();
        class_costs.sort_unstable();
        Ok(LaunchReport {
            counters,
            timing,
            occupancy: occ,
            regs_per_thread: regs,
            config: cfg,
            class_costs,
            per_class,
            per_class_trace: Vec::new(),
        })
    }
}

/// Per-block outcome codes, collected only when a probe is attached. Codes
/// `OUT_DEOPT + r` encode a deopt with reason index `r` (see
/// [`DeoptReason::index`]), so one `u8` carries both the outcome and the
/// guard that missed.
const OUT_RUN: u8 = 0;
const OUT_RECORDED: u8 = 1;
const OUT_REPLAYED: u8 = 2;
const OUT_DEOPT: u8 = 3;

/// Timeline label for an outcome code.
fn outcome_name(code: u8) -> &'static str {
    match code {
        OUT_RUN => "run",
        OUT_RECORDED => "recorded",
        OUT_REPLAYED => "replayed",
        _ => "deopted",
    }
}

/// The replay engine's read-only view of one launch's traces, built by
/// [`Gpu::record_pass`]: `key` identifies the (kernel fingerprint, grid,
/// block, scalar params) tuple the traces are valid for, and `classes`
/// holds every block class of the grid.
struct LaunchTraces {
    key: u64,
    classes: HashMap<u32, ClassTrace>,
}

/// One class's trace for a launch. `prior` marks a trace recorded by an
/// earlier launch (replaying it is a cross-launch hit). `recorded` holds the
/// block the record pass ran, by dispatch index, with its counters, cycles
/// and write journal for the fan-out to emit in dispatch order; `trace` is
/// `None` only when that recording failed.
struct ClassTrace {
    trace: Option<Arc<Trace>>,
    prior: bool,
    recorded: Option<(u64, RecordedRun)>,
}

type RecordedRun = Result<(FlatCounters, u64, Vec<(u32, usize, u32)>), SimError>;

/// The cross-launch trace-cache key: a hash of everything a recorded trace
/// pins — the kernel's structural fingerprint, the launch geometry, and the
/// scalar parameter values (bitwise, so `-0.0` and `0.0` are distinct and
/// NaNs hash stably). Buffer lengths and contents are deliberately absent:
/// replay guards re-validate those per access and deopt on divergence.
fn launch_trace_key(kernel_fp: u64, cfg: LaunchConfig, params: &[ParamValue]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    kernel_fp.hash(&mut h);
    cfg.grid.hash(&mut h);
    cfg.block.hash(&mut h);
    for p in params {
        match p {
            ParamValue::I32(v) => (0u8, *v as u32).hash(&mut h),
            ParamValue::F32(v) => (1u8, v.to_bits()).hash(&mut h),
        }
    }
    h.finish()
}

/// The scratch arenas of one decoded exhaustive launch. A block borrows an
/// arena for its run and returns it, so no more arenas exist than blocks
/// run at once, and each is prepared (sized, immediates filled) once and
/// then reused — memset, not malloc. Preparing costs more than recording a
/// block when the register file is large: a fat bilateral ISP kernel's
/// arena is about 48 MB.
#[derive(Default)]
struct ScratchPool(Mutex<Vec<DecodedScratch>>);

impl ScratchPool {
    fn with<R>(&self, run: impl FnOnce(&mut DecodedScratch) -> R) -> R {
        let pooled = self.0.lock().expect("scratch pool lock poisoned").pop();
        let mut scratch = pooled.unwrap_or_default();
        let result = run(&mut scratch);
        self.0
            .lock()
            .expect("scratch pool lock poisoned")
            .push(scratch);
        result
    }
}

/// Per-worker accumulator of the decoded exhaustive path: one of these folds
/// a contiguous chunk of block indices.
#[derive(Default)]
struct ChunkAcc {
    counters: FlatCounters,
    per_class: HashMap<u32, FlatCounters>,
    cycles: Vec<u64>,
    writes: Vec<(u32, usize, u32)>,
    err: Option<SimError>,
    /// Per-class replay stats of this chunk.
    classes: HashMap<u32, ClassSlot>,
    /// Blocks replayed from a trace recorded by an earlier launch.
    trace_xlaunch: u64,
    /// Blocks replayed through the batched-guard fast path.
    guard_fast: u64,
    /// Per-block outcome codes in chunk dispatch order; populated only when
    /// the launch's probe is enabled (index-aligned with `cycles`).
    outcomes: Vec<u8>,
    /// Opcode-sequence histograms gathered by [`SeqProfiler`]; populated
    /// only on probed decoded-engine launches.
    opseq: OpSeq,
}

/// One chunk worker's replay stats for a block class.
#[derive(Default)]
struct ClassSlot {
    stats: TraceStats,
    /// Successful replays accumulated as a (count, transaction sum) pair:
    /// a replayed block's counters are the trace's with only
    /// `mem_transactions` varying, so the chunk reducer expands them as
    /// `trace.counters * n` once per class instead of merging a full
    /// counter set per block (integer adds, so the expansion is
    /// bit-identical to per-block merging).
    replay_n: u64,
    replay_tx: u64,
}

/// Dynamic opcode-pair/-triple histograms over the executed (unfused) op
/// stream — the evidence base for the superinstruction set (DESIGN.md §7c).
#[derive(Debug, Default)]
struct OpSeq {
    pairs: HashMap<(&'static str, &'static str), u64>,
    triples: HashMap<(&'static str, &'static str, &'static str), u64>,
}

impl OpSeq {
    fn merge(&mut self, o: &OpSeq) {
        for (&k, &n) in &o.pairs {
            *self.pairs.entry(k).or_default() += n;
        }
        for (&k, &n) in &o.triples {
            *self.triples.entry(k).or_default() += n;
        }
    }

    /// Export to the probe as `sim.opseq2.{a}+{b}` / `sim.opseq3.{a}+{b}+{c}`
    /// counters; they flow into the probe's metrics JSON unchanged.
    fn report(&self, probe: &ProbeHandle) {
        for (&(a, b), &n) in &self.pairs {
            probe.count(&format!("sim.opseq2.{a}+{b}"), n);
        }
        for (&(a, b, c), &n) in &self.triples {
            probe.count(&format!("sim.opseq3.{a}+{b}+{c}"), n);
        }
    }
}

/// [`Tracer`] that counts adjacent same-block op pairs and triples in the
/// dynamic (unfused) instruction stream. Tracing forces the executor onto
/// its op-at-a-time path, so the histogram observes the raw opcode sequence
/// whatever the kernel's fusion setting — and only probed launches pay for
/// it.
struct SeqProfiler<'a> {
    dk: &'a DecodedKernel,
    /// Per-op block-start flags: a pair never straddles a block boundary.
    block_start: &'a [bool],
    /// Last executed op index + 1 (0 = none); `prev2` is the one before.
    prev: u32,
    prev2: u32,
    seq: &'a mut OpSeq,
}

impl SeqProfiler<'_> {
    #[inline]
    fn note(&mut self, i: u32) {
        let iu = i as usize;
        if self.prev == i && i > 0 && !self.block_start[iu] {
            let a = self.dk.ops[iu - 1].kind.mnemonic();
            let b = self.dk.ops[iu].kind.mnemonic();
            *self.seq.pairs.entry((a, b)).or_default() += 1;
            if self.prev2 == i - 1 && i > 1 && !self.block_start[iu - 1] {
                let z = self.dk.ops[iu - 2].kind.mnemonic();
                *self.seq.triples.entry((z, a, b)).or_default() += 1;
            }
        }
        self.prev2 = self.prev;
        self.prev = i + 1;
    }
}

impl Tracer for SeqProfiler<'_> {
    const ACTIVE: bool = true;

    fn warp_start(&mut self, _warp: u32) {
        self.prev = 0;
        self.prev2 = 0;
    }

    fn op(&mut self, i: u32, _mask: u32, _regs: &[u32]) {
        self.note(i);
    }

    fn branch(&mut self, _pred: u32, _mask: u32, _m_true: u32) {
        self.prev = 0;
        self.prev2 = 0;
    }

    fn mem(&mut self, i: u32, _mask: u32, _addrs: &[Option<i64>; crate::interp::WARP], _tx: u64) {
        self.note(i);
    }
}

/// Execute one block under the replay engine: emit the record pass's result
/// when this is the block it recorded, otherwise replay the class's trace
/// (deopting to the decoded interpreter on a guard miss). Results are
/// bit-identical to [`run_decoded`] either way. A trace left behind by an
/// earlier launch with the same key replays immediately — no block of this
/// launch records — and each such replay is counted in `xlaunch`.
#[allow(clippy::too_many_arguments)]
fn run_block_replay(
    dk: &DecodedKernel,
    ctx: &DecodedBlockCtx<'_>,
    idx: u64,
    class: u32,
    traces: &LaunchTraces,
    classes: &mut HashMap<u32, ClassSlot>,
    xlaunch: &mut u64,
    scratch: &mut DecodedScratch,
    writes: &mut Vec<(u32, usize, u32)>,
    batch_guards: bool,
    guard_fast: &mut u64,
) -> Result<(Option<FlatCounters>, u64, u8), SimError> {
    let class_trace = &traces.classes[&class];
    let ClassSlot {
        stats,
        replay_n,
        replay_tx,
    } = classes.entry(class).or_default();
    if let Some((recorded_idx, run)) = &class_trace.recorded {
        if *recorded_idx == idx {
            let (counters, cycles, journal) = run.as_ref().map_err(Clone::clone)?;
            writes.extend_from_slice(journal);
            stats.recorded += 1;
            return Ok((Some(counters.clone()), *cycles, OUT_RECORDED));
        }
    }
    let Some(trace) = &class_trace.trace else {
        // The class's recording failed, so the launch reports that error;
        // the class's other blocks run plain decoded meanwhile.
        return run_decoded(dk, ctx, scratch, writes).map(|(c, cycles)| (Some(c), cycles, OUT_RUN));
    };
    let journal_mark = writes.len();
    match replay_block(dk, trace, ctx, scratch, writes, batch_guards) {
        Ok((tx, cycles, batched)) => {
            stats.replayed += 1;
            *replay_n += 1;
            *replay_tx += tx;
            if batched {
                *guard_fast += 1;
            }
            if class_trace.prior {
                *xlaunch += 1;
            }
            Ok((None, cycles, OUT_REPLAYED))
        }
        Err(reason) => {
            // Guard miss: discard the partial replay and re-run the block on
            // the decoded engine (which also reproduces the exact error, if
            // any).
            writes.truncate(journal_mark);
            stats.deopted += 1;
            stats.deopt_reasons[reason.index()] += 1;
            run_decoded(dk, ctx, scratch, writes)
                .map(|(c, cycles)| (Some(c), cycles, OUT_DEOPT + reason.index() as u8))
        }
    }
}

/// The deterministic reducer of a decoded exhaustive launch: concatenate the
/// per-chunk accumulators **in chunk order** (chunks are contiguous
/// ascending index ranges, so chunk order is dispatch order). The first
/// error in chunk order is the first error in dispatch order — exactly what
/// [`reduce_block_runs`] reports — and an erroring launch applies no writes.
#[allow(clippy::type_complexity)]
fn reduce_chunk_accs(
    static_footprint: u32,
    classified: bool,
    traces: Option<&LaunchTraces>,
    accs: Vec<ChunkAcc>,
) -> Result<
    (
        PerfCounters,
        Vec<(u32, PerfCounters)>,
        Vec<BlockCost>,
        Vec<(u32, usize, u32)>,
        Vec<u8>,
    ),
    SimError,
> {
    for acc in &accs {
        if let Some(e) = &acc.err {
            return Err(e.clone());
        }
    }
    let mut flat = FlatCounters::default();
    let mut by_class: HashMap<u32, FlatCounters> = HashMap::new();
    let mut costs = Vec::new();
    let mut writes: Vec<(u32, usize, u32)> = Vec::new();
    let mut outcomes: Vec<u8> = Vec::new();
    for acc in accs {
        flat.merge(&acc.counters);
        for (c, fc) in acc.per_class {
            by_class.entry(c).or_default().merge(&fc);
        }
        for (&c, slot) in &acc.classes {
            if slot.replay_n == 0 {
                continue;
            }
            let trace = traces
                .and_then(|t| t.classes[&c].trace.as_ref())
                .expect("replayed without a trace");
            let expanded = trace.replayed_counters(slot.replay_n, slot.replay_tx);
            flat.merge(&expanded);
            if classified {
                by_class.entry(c).or_default().merge(&expanded);
            }
        }
        costs.extend(acc.cycles.into_iter().map(|cycles| BlockCost {
            class: 0,
            cycles,
            static_footprint,
        }));
        // A serial launch has exactly one chunk: move its journal out
        // instead of copying it (journals dominate reducer traffic).
        if writes.is_empty() {
            writes = acc.writes;
        } else {
            writes.extend(acc.writes);
        }
        outcomes.extend(acc.outcomes);
    }
    let mut per_class: Vec<(u32, PerfCounters)> = by_class
        .into_iter()
        .map(|(c, fc)| (c, fc.to_perf()))
        .collect();
    per_class.sort_unstable_by_key(|&(c, _)| c);
    Ok((flat.to_perf(), per_class, costs, writes, outcomes))
}

/// The deterministic reducer of a reference exhaustive launch: fold
/// per-block results **in dispatch order** into merged counters, the
/// scheduler's cost list, and a concatenated write journal. Because the fold
/// order is fixed, the reduction is bitwise independent of how the workers
/// were scheduled. When `classes` labels each run (same order), every
/// block's counters are also merged into its class's entry, so the per-class
/// sets sum bit-identically to the aggregate.
#[allow(clippy::type_complexity)]
fn reduce_block_runs(
    static_footprint: u32,
    runs: Vec<Result<BlockRun, SimError>>,
    classes: Option<&[u32]>,
) -> Result<
    (
        PerfCounters,
        Vec<(u32, PerfCounters)>,
        Vec<BlockCost>,
        Vec<(u32, usize, u32)>,
        Vec<u8>,
    ),
    SimError,
> {
    let mut counters = PerfCounters::new();
    let mut by_class: HashMap<u32, PerfCounters> = HashMap::new();
    let mut costs = Vec::with_capacity(runs.len());
    let mut writes: Vec<(u32, usize, u32)> = Vec::new();
    for (i, run) in runs.into_iter().enumerate() {
        let run = run?;
        counters.merge(&run.counters);
        if let Some(classes) = classes {
            by_class.entry(classes[i]).or_default().merge(&run.counters);
        }
        costs.push(BlockCost {
            class: 0,
            cycles: run.cycles,
            static_footprint,
        });
        writes.extend(run.writes);
    }
    let mut per_class: Vec<(u32, PerfCounters)> = by_class.into_iter().collect();
    per_class.sort_unstable_by_key(|&(c, _)| c);
    // Reference blocks have no replay machinery: every block is a plain
    // run, so the timeline derives outcomes as `OUT_RUN` without a vector.
    Ok((counters, per_class, costs, writes, Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isp_ir::{BinOp, CmpOp, IrBuilder, SReg, Ty};

    /// out[gid] = in[gid] + blockIdx.x, over a (gx, gy) grid of 32x4 blocks,
    /// guarded against the right/bottom image edge.
    fn grid_kernel() -> Kernel {
        let mut b = IrBuilder::new("grid", 2);
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
        let addr = b.mad(Ty::S32, gy, w, gx);
        let v = b.ld(Ty::F32, 0, addr);
        let bxf = b.cvt(Ty::F32, bx);
        let r = b.bin(BinOp::Add, Ty::F32, v, bxf);
        b.st(1, addr, r);
        b.br(exit);
        b.switch_to(exit);
        b.ret();
        b.finish()
    }

    #[test]
    fn exhaustive_launch_full_grid() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        let (w, h) = (64usize, 8usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4));
        assert_eq!(cfg.grid, (2, 2));
        let input: Vec<f32> = (0..w * h).map(|i| i as f32).collect();
        let mut buffers = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(w * h)];
        let report = gpu
            .launch(
                &k,
                cfg,
                &[ParamValue::I32(w as i32), ParamValue::I32(h as i32)],
                &mut buffers,
                SimMode::Exhaustive,
            )
            .unwrap();
        let out = buffers[1].to_f32();
        for y in 0..h {
            for x in 0..w {
                let expect = (y * w + x) as f32 + (x / 32) as f32;
                assert_eq!(out[y * w + x], expect, "({x},{y})");
            }
        }
        assert_eq!(report.counters.blocks, 4);
        assert_eq!(report.counters.threads_retired, (w * h) as u64);
        assert!(report.timing.cycles > 0);
        assert!(report.occupancy.occupancy > 0.0);
    }

    #[test]
    fn ragged_edge_is_masked() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        // 48x6 image with 32x4 blocks: right column and bottom row ragged.
        let (w, h) = (48usize, 6usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4));
        assert_eq!(cfg.grid, (2, 2));
        let mut buffers = vec![
            DeviceBuffer::from_f32(&vec![1.0; w * h]),
            DeviceBuffer::zeroed(w * h),
        ];
        let report = gpu
            .launch(
                &k,
                cfg,
                &[ParamValue::I32(w as i32), ParamValue::I32(h as i32)],
                &mut buffers,
                SimMode::Exhaustive,
            )
            .unwrap();
        // Only w*h threads may store.
        assert!(report.counters.stores > 0);
        let out = buffers[1].to_f32();
        assert!(out.iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn sampled_counters_match_exhaustive_for_uniform_classes() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        let (w, h) = (128usize, 16usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4)); // 4x4 grid
        let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
        let input: Vec<f32> = vec![2.0; w * h];
        let mut b1 = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(w * h)];
        let ex = gpu
            .launch(&k, cfg, &params, &mut b1, SimMode::Exhaustive)
            .unwrap();
        let mut b2 = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(w * h)];
        // All blocks behave identically here: a single class is exact.
        let sa = gpu
            .launch(
                &k,
                cfg,
                &params,
                &mut b2,
                SimMode::RegionSampled {
                    classifier: &|_, _| 0,
                    paths: None,
                },
            )
            .unwrap();
        assert_eq!(ex.counters.warp_instructions, sa.counters.warp_instructions);
        assert_eq!(ex.counters.mem_transactions, sa.counters.mem_transactions);
        assert_eq!(ex.counters.histogram, sa.counters.histogram);
        assert_eq!(ex.timing.cycles, sa.timing.cycles);
        // Sampled mode must not write pixels.
        assert!(b2[1].to_f32().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn classified_counters_merge_bit_identically_to_aggregate() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        // Ragged geometry so classes genuinely differ (edge blocks mask).
        let (w, h) = (100usize, 14usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4)); // 4x4 grid
        let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
        let input: Vec<f32> = (0..w * h).map(|i| (i % 7) as f32).collect();

        let mut b1 = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(w * h)];
        let ex = gpu
            .launch(&k, cfg, &params, &mut b1, SimMode::Exhaustive)
            .unwrap();
        assert!(
            ex.per_class.is_empty(),
            "plain exhaustive reports no classes"
        );

        // Classify by interior vs right-edge vs bottom-edge vs corner.
        let edge_x = cfg.grid.0 - 1;
        let edge_y = cfg.grid.1 - 1;
        let classifier = move |bx: u32, by: u32| (bx == edge_x) as u32 + 2 * (by == edge_y) as u32;
        let mut b2 = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(w * h)];
        let cl = gpu
            .launch(
                &k,
                cfg,
                &params,
                &mut b2,
                SimMode::ExhaustiveClassified {
                    classifier: &classifier,
                },
            )
            .unwrap();

        // Identical pixels and aggregate counters to the plain mode.
        assert_eq!(b1[1].to_f32(), b2[1].to_f32());
        assert_eq!(ex.counters, cl.counters);

        // Per-class attribution: sorted, all four classes present, and the
        // merge reproduces the aggregate bit-for-bit.
        let ids: Vec<u32> = cl.per_class.iter().map(|&(c, _)| c).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let mut merged = PerfCounters::new();
        for (_, c) in &cl.per_class {
            merged.merge(c);
        }
        assert_eq!(merged, cl.counters);
    }

    #[test]
    fn launch_validation_errors() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        let params = [ParamValue::I32(32), ParamValue::I32(4)];
        let mut buffers = vec![DeviceBuffer::zeroed(128), DeviceBuffer::zeroed(128)];
        // Too many threads.
        let bad = LaunchConfig {
            grid: (1, 1),
            block: (64, 32),
        };
        assert!(matches!(
            gpu.launch(&k, bad, &params, &mut buffers, SimMode::Exhaustive),
            Err(SimError::BadLaunch(_))
        ));
        // Missing buffer.
        let cfg = LaunchConfig {
            grid: (1, 1),
            block: (32, 4),
        };
        let mut one = vec![DeviceBuffer::zeroed(128)];
        assert!(matches!(
            gpu.launch(&k, cfg, &params, &mut one, SimMode::Exhaustive),
            Err(SimError::BadLaunch(_))
        ));
        // Missing param.
        assert!(matches!(
            gpu.launch(
                &k,
                cfg,
                &[ParamValue::I32(32)],
                &mut buffers,
                SimMode::Exhaustive
            ),
            Err(SimError::BadLaunch(_))
        ));
        // Degenerate grid.
        let zero = LaunchConfig {
            grid: (0, 1),
            block: (32, 4),
        };
        assert!(matches!(
            gpu.launch(&k, zero, &params, &mut buffers, SimMode::Exhaustive),
            Err(SimError::BadLaunch(_))
        ));
    }

    #[test]
    fn for_image_rounds_up() {
        let cfg = LaunchConfig::for_image(100, 50, (32, 4));
        assert_eq!(cfg.grid, (4, 13));
        assert_eq!(cfg.threads_per_block(), 128);
        assert_eq!(cfg.total_blocks(), 52);
    }

    /// Run `mode_of()` under all three engines and return each engine's
    /// report plus output image, in [Reference, Decoded, Replay] order.
    fn run_all_engines<'m>(
        cfg: LaunchConfig,
        input: &[f32],
        mode_of: impl Fn() -> SimMode<'m>,
    ) -> Vec<(LaunchReport, Vec<f32>)> {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        let w = (cfg.grid.0 * cfg.block.0) as i32;
        let params = [ParamValue::I32(w - 12), ParamValue::I32(13)];
        let mut out = Vec::new();
        for engine in [
            ExecEngine::Reference,
            ExecEngine::Decoded,
            ExecEngine::Replay,
        ] {
            let mut bufs = vec![
                DeviceBuffer::from_f32(input),
                DeviceBuffer::zeroed(input.len()),
            ];
            let report = gpu
                .launch_engine(
                    &k,
                    cfg,
                    &params,
                    &mut bufs,
                    mode_of(),
                    ExecStrategy::Parallel,
                    engine,
                )
                .unwrap();
            out.push((report, bufs[1].to_f32()));
        }
        out
    }

    #[test]
    fn fast_engines_match_reference_in_every_mode() {
        let cfg = LaunchConfig {
            grid: (4, 4),
            block: (32, 4),
        };
        let n = (cfg.grid.0 * cfg.block.0 * cfg.grid.1 * cfg.block.1) as usize;
        let input: Vec<f32> = (0..n).map(|i| (i % 11) as f32 - 3.0).collect();
        let classifier = |bx: u32, by: u32| (bx % 2) + 2 * (by % 2);

        let runs = run_all_engines(cfg, &input, || SimMode::Exhaustive);
        let (r, rp) = &runs[0];
        for (e, ep) in &runs[1..] {
            assert_eq!(r.counters, e.counters);
            assert_eq!(r.timing.cycles, e.timing.cycles);
            assert_eq!(rp, ep, "exhaustive pixels must be bit-identical");
        }

        let runs = run_all_engines(cfg, &input, || SimMode::ExhaustiveClassified {
            classifier: &classifier,
        });
        let (r, rp) = &runs[0];
        for (e, ep) in &runs[1..] {
            assert_eq!(r.counters, e.counters);
            assert_eq!(r.per_class, e.per_class);
            assert!(!e.per_class.is_empty());
            assert_eq!(rp, ep);
        }

        let runs = run_all_engines(cfg, &input, || SimMode::RegionSampled {
            classifier: &classifier,
            paths: None,
        });
        let (r, rp) = &runs[0];
        for (e, ep) in &runs[1..] {
            assert_eq!(r.counters, e.counters);
            assert_eq!(r.per_class, e.per_class);
            assert_eq!(r.class_costs, e.class_costs);
            assert_eq!(r.timing.cycles, e.timing.cycles);
            assert_eq!(rp, ep, "sampled mode writes nothing under any engine");
        }
    }

    #[test]
    fn replay_engine_reports_trace_reuse() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        assert_eq!(gpu.engine(), ExecEngine::Replay, "replay is the default");
        assert_eq!(gpu.trace_stats(), TraceStats::default());
        // Exact geometry (no ragged edge) with a uniform input: all four
        // blocks of a class run the identical schedule.
        let (w, h) = (128usize, 16usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4)); // 4x4 grid
        let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
        let classifier = |bx: u32, _by: u32| bx % 2;
        let mut bufs = vec![
            DeviceBuffer::from_f32(&vec![1.0; w * h]),
            DeviceBuffer::zeroed(w * h),
        ];
        let report = gpu
            .launch_with(
                &k,
                cfg,
                &params,
                &mut bufs,
                SimMode::ExhaustiveClassified {
                    classifier: &classifier,
                },
                ExecStrategy::Serial,
            )
            .unwrap();
        // Serial strategy: exactly the first block of each class records.
        let ids: Vec<u32> = report.per_class_trace.iter().map(|&(c, _)| c).collect();
        assert_eq!(ids, vec![0, 1]);
        let mut total = TraceStats::default();
        for (_, s) in &report.per_class_trace {
            assert_eq!(s.recorded, 1);
            assert_eq!(s.deopted, 0);
            total.merge(s);
        }
        assert_eq!(
            total.recorded + total.replayed + total.deopted,
            cfg.total_blocks()
        );
        assert_eq!(gpu.trace_stats(), total, "Gpu aggregates launch stats");
        // Plain Exhaustive under the same Gpu: reuse counted, no per-class
        // breakdown (there is no classifier to attribute it to).
        let mut bufs = vec![
            DeviceBuffer::from_f32(&vec![1.0; w * h]),
            DeviceBuffer::zeroed(w * h),
        ];
        let plain = gpu
            .launch(&k, cfg, &params, &mut bufs, SimMode::Exhaustive)
            .unwrap();
        assert!(plain.per_class_trace.is_empty());
        let after = gpu.trace_stats();
        assert_eq!(
            after.recorded + after.replayed + after.deopted,
            2 * cfg.total_blocks()
        );
    }

    #[test]
    fn traces_are_reused_across_identical_launches() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        let (w, h) = (128usize, 16usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4)); // 4x4 grid, exact fit
        let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
        let run = |params: &[ParamValue], input: &[f32]| {
            let mut bufs = vec![DeviceBuffer::from_f32(input), DeviceBuffer::zeroed(w * h)];
            gpu.launch_with(
                &k,
                cfg,
                params,
                &mut bufs,
                SimMode::Exhaustive,
                ExecStrategy::Serial,
            )
            .unwrap();
            bufs[1].to_f32()
        };
        let input: Vec<f32> = (0..w * h).map(|i| (i % 5) as f32).collect();
        run(&params, &input);
        let s1 = gpu.trace_stats();
        assert_eq!(s1.recorded, 1, "cold launch records its one class");
        assert_eq!(gpu.trace_cross_launch_hits(), 0);

        // Second launch, identical key, different pixel *contents*: replays
        // from block 0 — nothing records — and every block is a
        // cross-launch hit. The output must still be bit-identical to the
        // decoded engine on the same inputs.
        let input2: Vec<f32> = (0..w * h).map(|i| (i % 9) as f32 + 1.0).collect();
        let warm = run(&params, &input2);
        let s2 = gpu.trace_stats();
        assert_eq!(s2.recorded, 1, "warm launch records nothing");
        assert_eq!(s2.replayed, 2 * cfg.total_blocks() - 1);
        assert_eq!(gpu.trace_cross_launch_hits(), cfg.total_blocks());
        let mut bufs = vec![DeviceBuffer::from_f32(&input2), DeviceBuffer::zeroed(w * h)];
        gpu.launch_engine(
            &k,
            cfg,
            &params,
            &mut bufs,
            SimMode::Exhaustive,
            ExecStrategy::Serial,
            ExecEngine::Decoded,
        )
        .unwrap();
        assert_eq!(warm, bufs[1].to_f32(), "warm replay is bit-exact");

        // Different scalar params are a different key: the trace pins
        // parameter values, so this launch records afresh.
        let shrunk = [ParamValue::I32(w as i32), ParamValue::I32(h as i32 - 1)];
        run(&shrunk, &input2);
        let s3 = gpu.trace_stats();
        assert_eq!(s3.recorded, 2, "new params record a new trace");
        assert_eq!(gpu.trace_cross_launch_hits(), cfg.total_blocks());
    }

    #[test]
    fn decoded_serial_and_parallel_strategies_are_bit_identical() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::rtx2080());
        let (w, h) = (100usize, 14usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4));
        let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
        let input: Vec<f32> = (0..w * h).map(|i| (i % 13) as f32).collect();
        let mut reports = Vec::new();
        let mut images = Vec::new();
        for strategy in [ExecStrategy::Parallel, ExecStrategy::Serial] {
            let mut bufs = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(w * h)];
            let rep = gpu
                .launch_with(&k, cfg, &params, &mut bufs, SimMode::Exhaustive, strategy)
                .unwrap();
            reports.push(rep);
            images.push(bufs[1].to_f32());
        }
        assert_eq!(reports[0].counters, reports[1].counters);
        assert_eq!(reports[0].timing.cycles, reports[1].timing.cycles);
        assert_eq!(images[0], images[1]);
    }

    #[test]
    fn decode_cache_decodes_each_kernel_once() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680());
        assert_eq!(gpu.decode_stats(), DecodeStats { hits: 0, misses: 0 });
        let (w, h) = (64usize, 8usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4));
        let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
        for _ in 0..3 {
            let mut bufs = vec![DeviceBuffer::zeroed(w * h), DeviceBuffer::zeroed(w * h)];
            gpu.launch(&k, cfg, &params, &mut bufs, SimMode::Exhaustive)
                .unwrap();
        }
        let stats = gpu.decode_stats();
        assert_eq!(stats.misses, 1, "one kernel, one decode");
        assert_eq!(stats.hits, 2);
        // Clones share the cache.
        let clone = gpu.clone();
        let mut bufs = vec![DeviceBuffer::zeroed(w * h), DeviceBuffer::zeroed(w * h)];
        clone
            .launch(&k, cfg, &params, &mut bufs, SimMode::Exhaustive)
            .unwrap();
        assert_eq!(clone.decode_stats().misses, 1);
        assert_eq!(clone.decode_stats().hits, 3);
    }

    #[test]
    fn reference_engine_is_selectable_as_default() {
        let k = grid_kernel();
        let gpu = Gpu::new(DeviceSpec::gtx680()).with_engine(ExecEngine::Reference);
        assert_eq!(gpu.engine(), ExecEngine::Reference);
        let (w, h) = (64usize, 8usize);
        let cfg = LaunchConfig::for_image(w, h, (32, 4));
        let params = [ParamValue::I32(w as i32), ParamValue::I32(h as i32)];
        let mut bufs = vec![
            DeviceBuffer::from_f32(&vec![1.0; w * h]),
            DeviceBuffer::zeroed(w * h),
        ];
        gpu.launch(&k, cfg, &params, &mut bufs, SimMode::Exhaustive)
            .unwrap();
        // The reference engine never touches the decode cache.
        assert_eq!(gpu.decode_stats(), DecodeStats { hits: 0, misses: 0 });
    }
}
