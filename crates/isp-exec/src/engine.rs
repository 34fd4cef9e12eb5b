//! The [`Engine`]: a device plus the kernel and plan caches, and the
//! compile→plan→launch methods everything else is built from.

use crate::bench_image;
use crate::cache::{
    fingerprint_device, spec_fingerprint, CacheCounters, CacheStats, KernelKey, PlanKey,
};
use crate::request::{Latency, Measurement, Outcome, Prediction, Request, Sweep};
use isp_core::bounds::Geometry;
use isp_core::{IndexBounds, Plan, Variant};
use isp_dsl::pipeline::Policy;
use isp_dsl::runner::{geometry_for, plan_for, run_filter_with, ExecMode, ExecStrategy};
use isp_dsl::FilterOutput;
use isp_dsl::{tune_block_size, CompiledKernel, Compiler, KernelSpec, Pipeline};
use isp_image::{BorderPattern, BorderSpec, Image};
use isp_probe::ProbeHandle;
use isp_sim::{DeviceSpec, ExecEngine, Gpu, SimError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The execution engine for one simulated device.
///
/// An engine owns a [`Gpu`], a [`Compiler`], and two memoisation layers:
/// compiled kernels keyed by `(spec, pattern, granularity)` and Eq. (10)
/// plans keyed by the kernel plus the partition geometry. All methods take
/// `&self`; the caches use interior locking, so one engine can serve many
/// threads (and [`Engine::global`] hands out process-wide shared engines).
#[derive(Debug)]
pub struct Engine {
    device: DeviceSpec,
    gpu: Gpu,
    compiler: Compiler,
    kernels: Mutex<HashMap<KernelKey, Arc<CompiledKernel>>>,
    plans: Mutex<HashMap<PlanKey, Plan>>,
    counters: CacheCounters,
    probe: ProbeHandle,
}

impl Engine {
    /// Create a standalone engine for a device (empty caches). Launches run
    /// on the trace-replay fast path; see [`Engine::with_exec_engine`] for
    /// the decoded or reference interpreters.
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_exec_engine(device, ExecEngine::default())
    }

    /// [`Engine::new`] with an explicit simulator [`ExecEngine`] — the
    /// differential tests build `Reference` and `Decoded` engines to check
    /// against the replay default.
    pub fn with_exec_engine(device: DeviceSpec, exec: ExecEngine) -> Self {
        Engine {
            gpu: Gpu::new(device.clone()).with_engine(exec),
            device,
            compiler: Compiler::new(),
            kernels: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            counters: CacheCounters::default(),
            probe: ProbeHandle::none(),
        }
    }

    /// Attach a probe sink to this engine and its [`Gpu`]. Compile, plan,
    /// and request spans, cache hit/miss instants, and per-launch simulated
    /// timelines flow into it; with the default [`ProbeHandle::none`] every
    /// probe call is a single branch on a cached flag. Intended for freshly
    /// built engines (the `timeline` binary), not [`Engine::global`] shares.
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.gpu.set_probe(probe.clone());
        self.probe = probe;
        self
    }

    /// The process-wide shared engine for a device, so independent callers
    /// (harness binaries, tests) reuse one set of caches. Engines are keyed
    /// by the full device spec: two specs that differ only in one
    /// architectural parameter get separate engines.
    pub fn global(device: &DeviceSpec) -> Arc<Engine> {
        static REGISTRY: OnceLock<Mutex<HashMap<u64, Arc<Engine>>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let key = fingerprint_device(device);
        let mut map = registry.lock().expect("engine registry lock");
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(Engine::new(device.clone()))),
        )
    }

    /// The device this engine simulates.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The engine's simulated GPU (for callers that need raw launches).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Compile one kernel spec, memoised on `(spec, pattern, granularity)`.
    /// Compilation does not depend on the image size, so every size in a
    /// sweep hits the cache after the first point.
    pub fn compile(
        &self,
        spec: &KernelSpec,
        pattern: BorderPattern,
        granularity: Variant,
    ) -> Arc<CompiledKernel> {
        let key = (spec_fingerprint(spec), pattern, granularity);
        if let Some(hit) = self.kernels.lock().expect("kernel cache lock").get(&key) {
            self.counters.kernel_hit();
            self.probe.count("engine.kernel_hits", 1);
            self.probe.instant(
                "kernel-cache-hit",
                "engine",
                Some(format!("{} {pattern} {granularity:?}", spec.name)),
            );
            return Arc::clone(hit);
        }
        self.probe.count("engine.kernel_misses", 1);
        let started = self.probe.begin();
        // Compile outside the lock: kernels are large and compilation is
        // the expensive step the cache exists to amortise.
        let compiled = Arc::new(self.compiler.compile(spec, pattern, granularity));
        // Warm the Gpu's decode cache for every variant now, while the
        // kernel is cold: a sweep then decodes each kernel exactly once, and
        // launches never decode on the hot path.
        if self.gpu.engine() != ExecEngine::Reference {
            for variant in [
                Some(&compiled.naive),
                compiled.isp.as_ref(),
                compiled.texture.as_ref(),
            ]
            .into_iter()
            .flatten()
            {
                self.gpu.decode(&variant.kernel);
            }
        }
        // Attribute the optimiser's work (per-variant fixed-point iterations
        // and instructions removed) to this cold compile.
        for variant in [
            Some(&compiled.naive),
            compiled.isp.as_ref(),
            compiled.texture.as_ref(),
        ]
        .into_iter()
        .flatten()
        {
            let s = variant.opt_stats;
            self.counters.opt_record(s.removed_total(), s.iterations);
            self.probe
                .count("engine.opt_ops_removed", s.removed_total());
            self.probe
                .count("engine.opt_fixpoint_iterations", s.iterations);
        }
        self.probe.span("compile", "engine", started, || {
            Some(format!("{} {pattern} {granularity:?}", spec.name))
        });
        let mut map = self.kernels.lock().expect("kernel cache lock");
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&compiled));
        self.counters.kernel_miss();
        Arc::clone(entry)
    }

    /// Compile every stage of a pipeline through the kernel cache.
    pub fn compile_pipeline(
        &self,
        pipeline: &Pipeline,
        pattern: BorderPattern,
        granularity: Variant,
    ) -> Vec<Arc<CompiledKernel>> {
        pipeline
            .stages
            .iter()
            .map(|s| self.compile(&s.spec, pattern, granularity))
            .collect()
    }

    /// The Eq. (10) decision for a compiled kernel on a geometry, memoised
    /// on `(kernel, geometry)`.
    pub fn plan(&self, ck: &CompiledKernel, geom: &Geometry) -> Plan {
        let granularity = ck.isp.as_ref().map_or(Variant::Naive, |isp| isp.variant);
        let kernel_key = (spec_fingerprint(&ck.spec), ck.pattern, granularity);
        let key = (
            kernel_key,
            (geom.sx, geom.sy, geom.m, geom.n, geom.tx, geom.ty),
        );
        if let Some(hit) = self.plans.lock().expect("plan cache lock").get(&key) {
            self.counters.plan_hit();
            self.probe.count("engine.plan_hits", 1);
            return *hit;
        }
        self.probe.count("engine.plan_misses", 1);
        let started = self.probe.begin();
        let plan = plan_for(&self.gpu, ck, geom);
        self.probe.span("plan", "engine", started, || {
            Some(format!(
                "{} {}x{} -> {:?}",
                ck.spec.name, geom.sx, geom.sy, plan.variant
            ))
        });
        self.plans
            .lock()
            .expect("plan cache lock")
            .insert(key, plan);
        self.counters.plan_miss();
        plan
    }

    /// The index-set partition (Eqs. 4–9) for a geometry — the pure
    /// analysis underneath both code generation and the planner.
    pub fn partition(&self, geom: &Geometry) -> IndexBounds {
        IndexBounds::new(geom)
    }

    /// Execute one request on the deterministic bench image of its size.
    pub fn run(&self, req: &Request) -> Result<Outcome, SimError> {
        self.run_on(req, &bench_image(req.size))
    }

    /// Execute one request on caller-supplied pixels. The source must match
    /// `req.size` in both dimensions.
    pub fn run_on(&self, req: &Request, source: &Image<f32>) -> Result<Outcome, SimError> {
        assert_eq!(
            source.dims(),
            (req.size, req.size),
            "source must match the request size"
        );
        let border = BorderSpec::from_pattern(req.pattern);
        let started = self.probe.begin();
        let plan_t0 = Instant::now();
        let compiled = self.compile_pipeline(&req.app.pipeline, req.pattern, req.granularity);
        let refs: Vec<&CompiledKernel> = compiled.iter().map(Arc::as_ref).collect();
        let plan_wall_ns = plan_t0.elapsed().as_nanos() as u64;
        let exec_t0 = Instant::now();
        let run = req.app.pipeline.run_with(
            &self.gpu,
            &refs,
            source,
            border,
            req.block,
            req.policy,
            req.mode,
            req.strategy,
            &mut |_, ck, geom| self.plan(ck, geom),
        )?;
        let exec_wall_ns = exec_t0.elapsed().as_nanos() as u64;
        self.probe.span("request", "engine", started, || {
            Some(format!(
                "{} {} {}px {:?}",
                req.app.name, req.pattern, req.size, req.policy
            ))
        });
        Ok(Outcome {
            image: run.image,
            total_cycles: run.total_cycles,
            latency: Latency {
                queue_cycles: 0,
                exec_cycles: run.total_cycles,
                plan_wall_ns,
                exec_wall_ns,
            },
            counters: run.counters,
            stage_variants: run.stage_variants,
            per_region: run.per_region,
            per_region_trace: run.per_region_trace,
        })
    }

    /// Execute a batch of requests through one shared compile/plan/launch
    /// path: every distinct (pipeline, pattern, granularity) in the batch is
    /// compiled and planned once up front, then the images run in order —
    /// the second image of a compatible pair replays the first image's
    /// recorded traces from block 0 (see
    /// [`CacheStats::trace_cross_launch_hits`]). Results are bit-identical
    /// to running the same requests sequentially via [`Engine::run_on`]:
    /// per-image pixels, counters, and journals never depend on batch-mates.
    pub fn run_batch_on(
        &self,
        items: &[(&Request, &Image<f32>)],
    ) -> Result<Vec<Outcome>, SimError> {
        let started = self.probe.begin();
        // Warm the shared plan: one compile per distinct kernel key and one
        // Eq. (10) evaluation per distinct geometry, no matter how many
        // images share them.
        for (req, _) in items {
            let compiled = self.compile_pipeline(&req.app.pipeline, req.pattern, req.granularity);
            for ck in &compiled {
                let geom = geometry_for(ck, req.size, req.size, req.block);
                self.plan(ck, &geom);
            }
        }
        let outcomes = items
            .iter()
            .map(|(req, source)| self.run_on(req, source))
            .collect::<Result<Vec<_>, _>>()?;
        self.probe.span("batch", "engine", started, || {
            Some(format!("{} requests", items.len()))
        });
        Ok(outcomes)
    }

    /// [`Engine::run_batch_on`] over the deterministic bench images of each
    /// request's size.
    pub fn run_batch(&self, reqs: &[Request]) -> Result<Vec<Outcome>, SimError> {
        let sources: Vec<Image<f32>> = reqs.iter().map(|r| bench_image(r.size)).collect();
        let items: Vec<(&Request, &Image<f32>)> = reqs.iter().zip(sources.iter()).collect();
        self.run_batch_on(&items)
    }

    /// Evaluate the Eq. 1–10 cost model for a request on this engine's
    /// device without executing it: per stage, predict the absolute cost of
    /// the variant the request's policy selects (per-region weighted
    /// instruction costs x Eq. (8) block populations / occupancy — the same
    /// ingredients as [`Engine::plan`]), and convert the total into
    /// estimated device cycles and milliseconds. This is what the serving
    /// dispatcher compares across shards to route each batch.
    pub fn predict(&self, req: &Request) -> Prediction {
        let compiled = self.compile_pipeline(&req.app.pipeline, req.pattern, req.granularity);
        let mut stage_variants = Vec::with_capacity(compiled.len());
        let mut cost = 0.0;
        let mut region_cost = [0.0f64; 9];
        let warps_per_block = (req.block.0 * req.block.1).div_ceil(32) as f64;
        for ck in &compiled {
            let points = tune_block_size(&self.gpu, ck, req.size, req.size, &[req.block]);
            let point = points.first().expect("paper block size is valid");
            // `point` carries the model's better variant plus the gain, so
            // both variants' absolute costs are recoverable; pick the one
            // the request's policy would actually run.
            let (naive_cost, isp_cost) = if point.variant.is_isp() {
                (point.predicted_cost * point.gain, point.predicted_cost)
            } else {
                (point.predicted_cost, point.predicted_cost / point.gain)
            };
            let geom = geometry_for(ck, req.size, req.size, req.block);
            let variant = match req.policy {
                Policy::Naive => Variant::Naive,
                Policy::AlwaysIsp(v) => {
                    if ck.isp.is_some() {
                        v
                    } else {
                        Variant::Naive
                    }
                }
                Policy::Model(_) => self.plan(ck, &geom).variant,
            };
            cost += if variant.is_isp() {
                isp_cost
            } else {
                naive_cost
            };
            // Per-region static prediction, in warp-instructions (the unit
            // `Outcome::per_region` measures): each region's specialised
            // per-thread path count times its Eq. (8) block population.
            // Only ISP stages contribute — naive launches are unclassified,
            // so the measured per-region counters exclude them too.
            if variant.is_isp() {
                if let Some(model) = ck.ir_stats_model() {
                    let bounds = IndexBounds::new(&geom);
                    let counts = bounds.block_counts();
                    for region in isp_core::Region::ALL {
                        region_cost[region.index()] += model.region_per_thread[region.index()]
                            * counts.get(region) as f64
                            * warps_per_block;
                    }
                }
            }
            stage_variants.push(variant);
        }
        // Spread the warp-cycle units over the device's SMs (32 lanes each)
        // and charge one launch overhead per stage: coarse, monotone within
        // a device, throughput-scaled across devices — all routing needs.
        let sm_lanes = self.device.num_sms as f64 * 32.0;
        let est_cycles = (cost / sm_lanes).ceil() as u64
            + self.device.launch_overhead_cycles * compiled.len() as u64;
        Prediction {
            stage_variants,
            cost,
            est_cycles,
            est_ms: self.device.cycles_to_ms(est_cycles),
            region_cost,
        }
    }

    /// Run one compiled kernel variant directly — the single-kernel
    /// counterpart of [`Engine::run`], subsuming `isp_dsl::runner::run_filter`
    /// for callers that manage their own inputs (ablation binaries,
    /// validation harnesses). Exhaustive launches use the parallel strategy.
    #[allow(clippy::too_many_arguments)]
    pub fn run_kernel(
        &self,
        ck: &CompiledKernel,
        variant: Variant,
        inputs: &[&Image<f32>],
        user_params: &[f32],
        border_const: f32,
        block: (u32, u32),
        mode: ExecMode,
    ) -> Result<FilterOutput, SimError> {
        run_filter_with(
            &self.gpu,
            ck,
            variant,
            inputs,
            user_params,
            border_const,
            block,
            mode,
            ExecStrategy::Parallel,
        )
    }

    /// Run the three policies for one sweep point in region-sampled mode —
    /// the paper's per-point measurement.
    pub fn measure(&self, sweep: &Sweep) -> Measurement {
        let source = bench_image(sweep.size);
        let run = |policy: Policy| {
            self.run_on(&sweep.request(policy), &source)
                .unwrap_or_else(|e| {
                    panic!("{} {} {}: {e}", sweep.app.name, sweep.pattern, sweep.size)
                })
        };
        let naive = run(Policy::Naive);
        let isp = run(Policy::AlwaysIsp(sweep.granularity));
        let ispm = run(Policy::Model(sweep.granularity));

        let compiled = self.compile_pipeline(&sweep.app.pipeline, sweep.pattern, sweep.granularity);
        let stage_gains = compiled
            .iter()
            .filter(|ck| ck.isp.is_some())
            .map(|ck| {
                let geom = geometry_for(ck, sweep.size, sweep.size, sweep.block);
                self.plan(ck, &geom).predicted_gain
            })
            .collect();

        Measurement {
            naive_cycles: naive.total_cycles,
            isp_cycles: isp.total_cycles,
            ispm_cycles: ispm.total_cycles,
            speedup_isp: naive.total_cycles as f64 / isp.total_cycles as f64,
            speedup_ispm: naive.total_cycles as f64 / ispm.total_cycles as f64,
            ispm_variants: ispm.stage_variants,
            warp_instructions: (
                naive.counters.warp_instructions,
                isp.counters.warp_instructions,
            ),
            stage_gains,
        }
    }

    /// Snapshot of the cache hit/miss counters (kernel and plan caches plus
    /// the Gpu's decode cache and trace-replay reuse).
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.counters.snapshot();
        let decode = self.gpu.decode_stats();
        stats.decode_hits = decode.hits;
        stats.decode_misses = decode.misses;
        let trace = self.gpu.trace_stats();
        stats.trace_recorded = trace.recorded;
        stats.trace_replayed = trace.replayed;
        stats.trace_cross_launch_hits = self.gpu.trace_cross_launch_hits();
        stats.trace_deopts = trace.deopted;
        stats.trace_deopt_reasons = trace.deopt_reasons;
        let fusion = self.gpu.fusion_stats();
        stats.fused_groups = fusion.groups;
        stats.fused_dispatches_saved = fusion.dispatches_saved;
        stats.guard_batched_replays = self.gpu.guard_batched_replays();
        let disk = self.gpu.disk_cache_stats();
        stats.disk_cache_hits = disk.hits;
        stats.disk_cache_misses = disk.misses;
        stats.disk_cache_stale = disk.stale;
        stats.disk_cache_corrupt = disk.corrupt;
        stats.disk_cache_stores = disk.stores;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isp_filters::by_name;

    #[test]
    fn kernel_cache_compiles_once_per_key() {
        let engine = Engine::new(DeviceSpec::gtx680());
        let app = by_name("gaussian").unwrap();
        let stages = app.pipeline.stages.len();
        for _ in 0..3 {
            engine.compile_pipeline(&app.pipeline, BorderPattern::Clamp, Variant::IspBlock);
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.kernel_misses, stages as u64, "one compile per stage");
        assert_eq!(stats.kernel_hits, 2 * stages as u64);
        // A different pattern is a different key.
        engine.compile_pipeline(&app.pipeline, BorderPattern::Mirror, Variant::IspBlock);
        assert_eq!(engine.cache_stats().kernel_misses, 2 * stages as u64);
    }

    #[test]
    fn opt_stats_attributed_to_cold_compiles_only() {
        let engine = Engine::new(DeviceSpec::gtx680());
        let app = by_name("gaussian").unwrap();
        engine.compile_pipeline(&app.pipeline, BorderPattern::Clamp, Variant::IspBlock);
        let cold = engine.cache_stats();
        assert!(
            cold.opt_ops_removed > 0,
            "pipeline must remove instructions on gaussian: {cold:?}"
        );
        assert!(
            cold.opt_fixpoint_iterations >= 3,
            "one iteration minimum per variant (naive+isp+texture)"
        );
        // Warm hits do no optimiser work.
        engine.compile_pipeline(&app.pipeline, BorderPattern::Clamp, Variant::IspBlock);
        let warm = engine.cache_stats();
        assert_eq!(warm.opt_ops_removed, cold.opt_ops_removed);
        assert_eq!(warm.opt_fixpoint_iterations, cold.opt_fixpoint_iterations);
    }

    #[test]
    fn cached_plan_matches_uncached() {
        let engine = Engine::new(DeviceSpec::gtx680());
        let spec = isp_filters::gaussian::spec(3);
        let ck = engine.compile(&spec, BorderPattern::Repeat, Variant::IspBlock);
        let geom = geometry_for(&ck, 2048, 2048, crate::PAPER_BLOCK);
        let direct = plan_for(engine.gpu(), &ck, &geom);
        let first = engine.plan(&ck, &geom);
        let second = engine.plan(&ck, &geom);
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        let stats = engine.cache_stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 1);
    }

    #[test]
    fn measure_matches_legacy_shape() {
        let engine = Engine::new(DeviceSpec::gtx680());
        let sweep = Sweep::paper(by_name("gaussian").unwrap(), BorderPattern::Repeat, 512);
        let m = engine.measure(&sweep);
        assert!(m.naive_cycles > 0 && m.isp_cycles > 0 && m.ispm_cycles > 0);
        assert!(m.speedup_isp > 0.0);
        assert_eq!(m.ispm_variants.len(), sweep.app.pipeline.stages.len());
        assert!(!m.stage_gains.is_empty());
    }

    #[test]
    fn global_registry_dedupes_by_spec() {
        let a = Engine::global(&DeviceSpec::rtx2080());
        let b = Engine::global(&DeviceSpec::rtx2080());
        assert!(Arc::ptr_eq(&a, &b));
        let mut tweaked = DeviceSpec::rtx2080();
        tweaked.num_sms += 1;
        let c = Engine::global(&tweaked);
        assert!(!Arc::ptr_eq(&a, &c), "different spec, different engine");
    }

    #[test]
    fn sweeps_decode_each_kernel_exactly_once() {
        let engine = Engine::new(DeviceSpec::gtx680());
        let app = by_name("gaussian").unwrap();
        // Two sweep points, three policies each: lots of launches, but the
        // decode-miss count must equal the number of distinct variant
        // kernels compiled, and launches only ever hit the cache.
        for size in [64, 128] {
            let sweep = Sweep {
                size,
                ..Sweep::paper(app.clone(), BorderPattern::Clamp, 64)
            };
            engine.measure(&sweep);
        }
        let stats = engine.cache_stats();
        let variants: u64 = {
            let map = engine.kernels.lock().unwrap();
            map.values()
                .map(|ck| 1 + ck.isp.is_some() as u64 + ck.texture.is_some() as u64)
                .sum()
        };
        assert_eq!(
            stats.decode_misses, variants,
            "each compiled variant decodes once"
        );
        assert!(
            stats.decode_hits > 0,
            "launches reuse the decoded microcode"
        );
    }

    #[test]
    fn reference_exec_engine_matches_decoded() {
        let decoded = Engine::new(DeviceSpec::gtx680());
        let reference = Engine::with_exec_engine(DeviceSpec::gtx680(), ExecEngine::Reference);
        let req = Request::paper(
            by_name("sobel").unwrap(),
            BorderPattern::Repeat,
            64,
            Policy::AlwaysIsp(isp_core::Variant::IspBlock),
        )
        .exhaustive();
        let a = decoded.run(&req).unwrap();
        let b = reference.run(&req).unwrap();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.counters, b.counters);
        let (ia, ib) = (a.image.unwrap(), b.image.unwrap());
        assert_eq!(ia.raw(), ib.raw());
        assert_eq!(reference.cache_stats().decode_misses, 0);
    }

    #[test]
    fn run_exhaustive_returns_pixels() {
        let engine = Engine::new(DeviceSpec::gtx680());
        let req = Request::paper(
            by_name("gaussian").unwrap(),
            BorderPattern::Mirror,
            64,
            Policy::AlwaysIsp(Variant::IspBlock),
        )
        .exhaustive();
        let out = engine.run(&req).unwrap();
        assert_eq!(out.image.unwrap().dims(), (64, 64));
        assert!(out.total_cycles > 0);
    }
}
