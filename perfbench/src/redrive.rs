//! The traced re-drive: one op executed again layer by layer through each
//! crate's public functions, with a span around every call.
//!
//! This mirrors `Engine::compile`, `Engine::run_on` and `Engine::measure`
//! (compile, decode, plan, stage, launch, read back) closely enough to
//! reproduce their pixels and cycles bit for bit. The caller checks that it
//! does, so the layer numbers are known to describe the program the
//! end-to-end run timed.

use crate::layers::Layers;
use isp_core::bounds::Geometry;
use isp_core::{region_of_block, IndexBounds, Plan, Variant};
use isp_dsl::compile::{CompiledKernel, CompiledVariant, ParamKind};
use isp_dsl::lower::{lower_isp, lower_naive, lower_texture, Lowered};
use isp_dsl::pipeline::{Policy, StageInput};
use isp_dsl::runner::{geometry_for, plan_for, ExecMode};
use isp_dsl::{Compiler, KernelSpec};
use isp_exec::{bench_image, Engine, Request, Sweep};
use isp_image::{BorderPattern, BorderSpec, Image};
use isp_ir::{regalloc, InstrHistogram};
use isp_sim::launch::{PathTable, SimMode};
use isp_sim::{DeviceBuffer, ExecEngine, LaunchConfig, ParamValue, PerfCounters, SimError};
use std::sync::Arc;
use std::time::Instant;

/// Where the re-drive gets compiled kernels and plans.
pub enum Kernels<'a> {
    /// A warm engine's kernel and plan caches (lookups are `exec.cache_ms`).
    Warm(&'a Engine),
    /// Compiled through the lowering, optimiser, scheduler and register
    /// allocator, decoded on the engine's fresh `Gpu`, and planned with
    /// `plan_for`, as a cold `Engine` does on its first request.
    Cold {
        engine: &'a Engine,
        compiled: Vec<Arc<CompiledKernel>>,
    },
}

impl Kernels<'_> {
    fn engine(&self) -> &Engine {
        match self {
            Kernels::Warm(engine) | Kernels::Cold { engine, .. } => engine,
        }
    }

    fn compile(
        &mut self,
        spec: &KernelSpec,
        pattern: BorderPattern,
        granularity: Variant,
        layers: &mut Layers,
    ) -> Arc<CompiledKernel> {
        match self {
            Kernels::Warm(engine) => layers.time("exec.cache_ms", || {
                engine.compile(spec, pattern, granularity)
            }),
            Kernels::Cold { engine, compiled } => {
                let hit = layers.time("exec.cache_ms", || {
                    compiled
                        .iter()
                        .find(|ck| ck.spec.name == spec.name && ck.pattern == pattern)
                        .cloned()
                });
                hit.unwrap_or_else(|| {
                    let ck = Arc::new(compile_cold(engine, spec, pattern, granularity, layers));
                    compiled.push(Arc::clone(&ck));
                    ck
                })
            }
        }
    }

    fn plan(&self, ck: &CompiledKernel, geom: &Geometry, layers: &mut Layers) -> Plan {
        match self {
            Kernels::Warm(engine) => layers.time("exec.cache_ms", || engine.plan(ck, geom)),
            Kernels::Cold { engine, .. } => {
                layers.time("core.plan_ms", || plan_for(engine.gpu(), ck, geom))
            }
        }
    }
}

/// `Compiler::compile` split into its layers, then the decode warm-up
/// `Engine::compile` performs for every variant.
fn compile_cold(
    engine: &Engine,
    spec: &KernelSpec,
    pattern: BorderPattern,
    granularity: Variant,
    layers: &mut Layers,
) -> CompiledKernel {
    let stencil = !spec.is_point_op();
    let naive = layers.time("dsl.lower_ms", || lower_naive(spec, pattern));
    let naive = compile_variant(Variant::Naive, naive, layers);
    let isp = stencil.then(|| {
        let lowered = layers.time("dsl.lower_ms", || lower_isp(spec, pattern, granularity));
        compile_variant(granularity, lowered, layers)
    });
    let texture = stencil.then(|| {
        let lowered = layers.time("dsl.lower_ms", || lower_texture(spec, pattern));
        compile_variant(Variant::Texture, lowered, layers)
    });
    let ck = CompiledKernel {
        spec: spec.clone(),
        pattern,
        naive,
        isp,
        texture,
    };
    if engine.gpu().engine() != ExecEngine::Reference {
        for cv in [Some(&ck.naive), ck.isp.as_ref(), ck.texture.as_ref()]
            .into_iter()
            .flatten()
        {
            layers.time("sim.decode_ms", || engine.gpu().decode(&cv.kernel));
        }
    }
    ck
}

/// One variant through optimiser, scheduler and register allocator; the
/// label remapping, validation and histograms in between are
/// `Compiler::compile`'s own share (`dsl.compile_ms`).
fn compile_variant(variant: Variant, lowered: Lowered, layers: &mut Layers) -> CompiledVariant {
    let opt = Compiler::new().opt;
    let (kernel, opt_stats) = layers.time("ir.opt_ms", || {
        isp_ir::opt::optimize_with_stats(&lowered.kernel, opt)
    });
    layers.add("ir.opt_iterations", opt_stats.iterations as f64);
    layers.add("ir.opt_removed", opt_stats.removed_total() as f64);
    let region_paths = layers.time("dsl.compile_ms", || {
        lowered.region_paths.as_ref().map(|paths| {
            paths
                .iter()
                .map(|(r, path)| {
                    let remapped: Vec<_> = path
                        .iter()
                        .filter_map(|id| kernel.block_by_label(&lowered.kernel.block(*id).label))
                        .collect();
                    (*r, remapped)
                })
                .collect::<Vec<_>>()
        })
    });
    let kernel = layers.time("ir.sched_ms", || {
        isp_ir::sched::schedule_min_pressure(&kernel)
    });
    layers.time("dsl.compile_ms", || isp_ir::validate::assert_valid(&kernel));
    let regs = layers.time("ir.regalloc_ms", || regalloc::estimate(&kernel));
    layers.time("dsl.compile_ms", || {
        let static_histogram = InstrHistogram::of_kernel(&kernel);
        let region_histograms: Option<Vec<_>> = region_paths.as_ref().map(|paths| {
            paths
                .iter()
                .map(|(r, path)| (*r, InstrHistogram::of_blocks(&kernel, path.iter().copied())))
                .collect()
        });
        let region_footprints = region_histograms.as_ref().map(|hists| {
            let mut fp = [0u32; 9];
            for (r, h) in hists {
                fp[r.index()] = h.total() as u32;
            }
            fp
        });
        CompiledVariant {
            variant,
            kernel,
            params: lowered.params,
            regs,
            static_histogram,
            region_histograms,
            region_footprints,
            opt_stats,
        }
    })
}

/// Launch parameters in the layout the lowering declared (block-grained
/// variants only).
fn params(
    cv: &CompiledVariant,
    geom: &Geometry,
    bounds: &IndexBounds,
    border_const: f32,
    user: &[f32],
) -> Vec<ParamValue> {
    cv.params
        .iter()
        .map(|kind| match kind {
            ParamKind::Width | ParamKind::Stride => ParamValue::I32(geom.sx as i32),
            ParamKind::Height => ParamValue::I32(geom.sy as i32),
            ParamKind::BhL => ParamValue::I32(bounds.bh_l as i32),
            ParamKind::BhR => ParamValue::I32(bounds.bh_r as i32),
            ParamKind::BhT => ParamValue::I32(bounds.bh_t as i32),
            ParamKind::BhB => ParamValue::I32(bounds.bh_b as i32),
            ParamKind::WL | ParamKind::WR => unreachable!("warp-grained ISP is not benchmarked"),
            ParamKind::BorderConst => ParamValue::F32(border_const),
            ParamKind::User(i) => ParamValue::F32(user[*i]),
        })
        .collect()
}

/// What a re-driven request produced: the values the untraced run's checks
/// compare.
pub struct Redriven {
    pub image: Option<Image<f32>>,
    pub cycles: u64,
    pub counters: PerfCounters,
}

/// `Engine::run_on(req, source)` layer by layer.
pub fn run_request(
    kernels: &mut Kernels,
    req: &Request,
    source: &Image<f32>,
    layers: &mut Layers,
) -> Result<Redriven, SimError> {
    assert_eq!(req.granularity, Variant::IspBlock, "block-grained ISP only");
    let border = BorderSpec::from_pattern(req.pattern);
    let compiled: Vec<Arc<CompiledKernel>> = req
        .app
        .pipeline
        .stages
        .iter()
        .map(|s| kernels.compile(&s.spec, req.pattern, req.granularity, layers))
        .collect();
    let exhaustive = req.mode == ExecMode::Exhaustive;
    let gpu = kernels.engine().gpu();
    let mut outputs: Vec<Image<f32>> = Vec::new();
    let mut cycles = 0u64;
    let mut counters = PerfCounters::new();
    for (stage, ck) in req.app.pipeline.stages.iter().zip(&compiled) {
        let inputs: Vec<&Image<f32>> = stage
            .inputs
            .iter()
            .map(|input| match input {
                StageInput::Stage(s) if exhaustive => &outputs[*s],
                _ => source,
            })
            .collect();
        let (w, h) = inputs[0].dims();
        let geom = geometry_for(ck, w, h, req.block);
        let bounds = IndexBounds::new(&geom);
        let variant = match req.policy {
            Policy::Naive => Variant::Naive,
            Policy::AlwaysIsp(g) if ck.isp.is_some() && bounds.is_valid() => g,
            Policy::AlwaysIsp(_) => Variant::Naive,
            Policy::Model(_) => kernels.plan(ck, &geom, layers).variant,
        };
        let cv = ck
            .variant(variant)
            .ok_or_else(|| SimError::BadLaunch(format!("variant {variant} was not compiled")))?;
        let params = params(cv, &geom, &bounds, border.constant, &stage.user_params);
        let mut buffers = layers.time("sim.stage_ms", || {
            let mut buffers: Vec<DeviceBuffer> = inputs
                .iter()
                .map(|img| DeviceBuffer::from_f32(&img.to_packed_vec()))
                .collect();
            buffers.push(DeviceBuffer::zeroed(w * h));
            buffers
        });
        let cfg = LaunchConfig::for_image(w, h, req.block);
        let classifier = move |bx: u32, by: u32| region_of_block(bx, by, &bounds).index() as u32;
        let path_table = cv.region_footprints.map(|fp| PathTable {
            path_of_class: (0..9).collect(),
            footprint_of_class: fp.to_vec(),
        });
        let recorded_before = gpu.trace_stats().recorded;
        let t0 = Instant::now();
        let report = match (exhaustive, bounds.is_valid()) {
            (true, true) => gpu.launch_with(
                &cv.kernel,
                cfg,
                &params,
                &mut buffers,
                SimMode::ExhaustiveClassified {
                    classifier: &classifier,
                },
                req.strategy,
            )?,
            (true, false) => gpu.launch_with(
                &cv.kernel,
                cfg,
                &params,
                &mut buffers,
                SimMode::Exhaustive,
                req.strategy,
            )?,
            (false, _) => gpu.launch(
                &cv.kernel,
                cfg,
                &params,
                &mut buffers,
                SimMode::RegionSampled {
                    classifier: &classifier,
                    paths: path_table.as_ref(),
                },
            )?,
        };
        let launch_ms = t0.elapsed().as_secs_f64() * 1e3;
        if exhaustive {
            let layer = if gpu.trace_stats().recorded > recorded_before {
                "sim.launch_record_ms"
            } else {
                "sim.launch_replay_ms"
            };
            layers.add(layer, launch_ms);
            layers.add("sim.exhaustive_launch_ms", launch_ms);
            layers.add(
                "sim.exhaustive_warp_instrs",
                report.counters.warp_instructions as f64,
            );
            let out = layers.time("sim.stage_ms", || {
                let out = buffers.pop().expect("output buffer");
                Image::from_vec(w, h, out.to_f32())
                    .expect("output buffer has width*height elements")
            });
            outputs.push(out);
        } else {
            layers.add("sim.launch_sampled_ms", launch_ms);
        }
        cycles += report.timing.cycles;
        counters.merge(&report.counters);
    }
    Ok(Redriven {
        image: outputs.pop(),
        cycles,
        counters,
    })
}

/// `Engine::measure(sweep)` layer by layer on a warm engine: the simulated
/// (naive, isp, isp+m) cycles and (naive, isp) warp instructions.
pub fn measure(engine: &Engine, sweep: &Sweep, layers: &mut Layers) -> Result<[u64; 5], SimError> {
    let source = layers.time("image.generate_ms", || bench_image(sweep.size));
    let mut kernels = Kernels::Warm(engine);
    let mut run = |policy| run_request(&mut kernels, &sweep.request(policy), &source, layers);
    let naive = run(Policy::Naive)?;
    let isp = run(Policy::AlwaysIsp(sweep.granularity))?;
    let ispm = run(Policy::Model(sweep.granularity))?;
    // The predicted stage gains `measure` reports: cache lookups only.
    layers.time("exec.cache_ms", || {
        for ck in engine.compile_pipeline(&sweep.app.pipeline, sweep.pattern, sweep.granularity) {
            if ck.isp.is_some() {
                engine.plan(&ck, &geometry_for(&ck, sweep.size, sweep.size, sweep.block));
            }
        }
    });
    Ok([
        naive.cycles,
        isp.cycles,
        ispm.cycles,
        naive.counters.warp_instructions,
        isp.counters.warp_instructions,
    ])
}
