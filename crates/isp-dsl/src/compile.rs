//! The compiler driver: lower each variant, run the optimisation pipeline
//! (the "NVCC" step), estimate registers, and collect the per-region
//! statistics the analytic model and Table I need.

use crate::lower::{lower_isp, lower_naive, lower_texture, lower_tiled, Lowered, RegionPaths};
use crate::spec::KernelSpec;
use isp_core::{IrStatsModel, Region, Variant};
use isp_image::BorderPattern;
use isp_ir::kernel::Kernel;
use isp_ir::opt::{optimize_with_stats, OptConfig, OptStats};
use isp_ir::{regalloc, InstrHistogram, RegisterUsage};

pub use crate::lower::ParamKind;

/// One compiled kernel variant with its analysis artefacts.
#[derive(Debug, Clone)]
pub struct CompiledVariant {
    /// Which variant this is.
    pub variant: Variant,
    /// The optimised kernel, ready for the simulator.
    pub kernel: Kernel,
    /// Scalar parameter layout for launches.
    pub params: Vec<ParamKind>,
    /// Estimated register usage (Table II input).
    pub regs: RegisterUsage,
    /// Whole-kernel static instruction histogram.
    pub static_histogram: InstrHistogram,
    /// Per-region static histograms along each region's execution path
    /// (Table I's columns; ISP variants only).
    pub region_histograms: Option<Vec<(Region, InstrHistogram)>>,
    /// Per-region static footprint in instructions (scheduler i-cache
    /// model), indexed by [`Region::index`]; ISP variants only.
    pub region_footprints: Option<[u32; 9]>,
    /// Per-pass optimiser statistics for this variant (iterations to fixed
    /// point, instructions removed per pass).
    pub opt_stats: OptStats,
}

impl CompiledVariant {
    fn from_lowered(variant: Variant, lowered: Lowered, opt: OptConfig) -> CompiledVariant {
        let (kernel, opt_stats) = optimize_with_stats(&lowered.kernel, opt);
        // CFG simplification renumbers (and may delete) blocks, so the
        // region paths recorded against the unoptimised kernel are
        // re-resolved by label: labels are validated unique, and a label
        // that vanished belonged to an empty forwarding block whose only
        // contribution (one branch) was threaded away.
        let region_paths: Option<RegionPaths> = lowered.region_paths.as_ref().map(|paths| {
            paths
                .iter()
                .map(|(r, path)| {
                    let remapped = path
                        .iter()
                        .filter_map(|id| kernel.block_by_label(&lowered.kernel.block(*id).label))
                        .collect();
                    (*r, remapped)
                })
                .collect()
        });
        // Pressure-aware list scheduling (the "ptxas" step), kept only when
        // it lowers the liveness estimate: after the optimiser that holds
        // for small ISP, texture and point-operator kernels (1-5 fewer live
        // registers) and never for bilateral, whose fused-reduce order
        // already beats the greedy one by an order of magnitude.
        let kernel = isp_ir::sched::schedule_min_pressure(&kernel);
        isp_ir::validate::assert_valid(&kernel);
        let regs = regalloc::estimate(&kernel);
        let static_histogram = InstrHistogram::of_kernel(&kernel);
        let (region_histograms, region_footprints) = match &region_paths {
            Some(paths) => {
                let hists: Vec<(Region, InstrHistogram)> = paths
                    .iter()
                    .map(|(r, path)| (*r, InstrHistogram::of_blocks(&kernel, path.iter().copied())))
                    .collect();
                let mut fp = [0u32; 9];
                for (r, h) in &hists {
                    fp[r.index()] = h.total() as u32;
                }
                (Some(hists), Some(fp))
            }
            None => (None, None),
        };
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
    }

    /// Static instruction count on the path one thread executes. For the
    /// naive variant that is the whole (linear) kernel; for ISP variants use
    /// [`CompiledVariant::region_histograms`].
    pub fn per_thread_instructions(&self) -> u64 {
        self.static_histogram.total()
    }
}

/// A fully compiled filter: the naive baseline plus (for non-point
/// operators) the requested ISP variant.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The source specification.
    pub spec: KernelSpec,
    /// Border handling pattern compiled in.
    pub pattern: BorderPattern,
    /// The naive baseline.
    pub naive: CompiledVariant,
    /// The ISP variant (`None` for point operators, which have no border).
    pub isp: Option<CompiledVariant>,
    /// The hardware texture variant (`None` for point operators and
    /// multi-input kernels whose extra inputs cannot all be texture-bound).
    pub texture: Option<CompiledVariant>,
}

impl CompiledKernel {
    /// The variant matching `v`, if compiled.
    pub fn variant(&self, v: Variant) -> Option<&CompiledVariant> {
        match v {
            Variant::Naive => Some(&self.naive),
            Variant::Texture => self.texture.as_ref(),
            _ => self.isp.as_ref().filter(|cv| cv.variant == v),
        }
    }

    /// Build the IR-statistics instruction model (the accurate `R_reduced`
    /// input): naive per-thread count vs per-region path counts, with each
    /// instruction counted once (the paper's literal PTX counting).
    pub fn ir_stats_model(&self) -> Option<IrStatsModel> {
        let isp = self.isp.as_ref()?;
        let hists = isp.region_histograms.as_ref()?;
        let mut region_per_thread = [0.0; 9];
        for (r, h) in hists {
            region_per_thread[r.index()] = h.total() as f64;
        }
        Some(IrStatsModel {
            naive_per_thread: self.naive.per_thread_instructions() as f64,
            region_per_thread,
        })
    }

    /// Device-weighted variant of [`CompiledKernel::ir_stats_model`]: counts
    /// are weighted by per-category issue cost plus expected memory
    /// transaction cost, which makes `R_reduced` track achievable cycle
    /// reductions rather than raw instruction reductions. This is what the
    /// planner uses.
    pub fn ir_stats_model_for(&self, device: &isp_sim::DeviceSpec) -> Option<IrStatsModel> {
        let isp = self.isp.as_ref()?;
        let hists = isp.region_histograms.as_ref()?;
        let mut region_per_thread = [0.0; 9];
        for (r, h) in hists {
            region_per_thread[r.index()] = device.weighted_cost(h);
        }
        Some(IrStatsModel {
            naive_per_thread: device.weighted_cost(&self.naive.static_histogram),
            region_per_thread,
        })
    }
}

/// The compiler: configuration + entry point.
#[derive(Debug, Clone)]
pub struct Compiler {
    /// IR optimisation configuration (the `ablation_cse` bench flips this).
    pub opt: OptConfig,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler {
            opt: OptConfig::pipeline(),
        }
    }
}

impl Compiler {
    /// A fully-optimising compiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiler with explicit optimisation settings.
    pub fn with_opt(opt: OptConfig) -> Self {
        Compiler { opt }
    }

    /// Compile `spec` under `pattern`, producing the naive baseline and —
    /// for stencil kernels — the `granularity` ISP variant (block- or
    /// warp-grained).
    pub fn compile(
        &self,
        spec: &KernelSpec,
        pattern: BorderPattern,
        granularity: Variant,
    ) -> CompiledKernel {
        assert!(granularity.is_isp(), "granularity selects the ISP flavour");
        let naive =
            CompiledVariant::from_lowered(Variant::Naive, lower_naive(spec, pattern), self.opt);
        let isp = if spec.is_point_op() {
            None
        } else {
            Some(CompiledVariant::from_lowered(
                granularity,
                lower_isp(spec, pattern, granularity),
                self.opt,
            ))
        };
        let texture = if spec.is_point_op() {
            None
        } else {
            Some(CompiledVariant::from_lowered(
                Variant::Texture,
                lower_texture(spec, pattern),
                self.opt,
            ))
        };
        CompiledKernel {
            spec: spec.clone(),
            pattern,
            naive,
            isp,
            texture,
        }
    }
}

impl Compiler {
    /// Compile the shared-memory **tiled** variant for a fixed block size
    /// (the tile geometry is baked into the kernel, as in real tiled CUDA
    /// code). Returned standalone because it is block-size specific, unlike
    /// the variants in [`CompiledKernel`].
    pub fn compile_tiled(
        &self,
        spec: &KernelSpec,
        pattern: BorderPattern,
        block: (u32, u32),
    ) -> CompiledVariant {
        CompiledVariant::from_lowered(Variant::Tiled, lower_tiled(spec, pattern, block), self.opt)
    }
}

/// Convenience re-export of the region paths type.
pub type CompiledRegionPaths = RegionPaths;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use isp_ir::InstrCategory;

    fn gauss3() -> KernelSpec {
        KernelSpec::convolution("gauss3", &isp_image::Mask::gaussian(3, 0.85).unwrap())
    }

    #[test]
    fn compiles_both_variants() {
        let ck = Compiler::new().compile(&gauss3(), BorderPattern::Clamp, Variant::IspBlock);
        assert_eq!(ck.naive.variant, Variant::Naive);
        let isp = ck.isp.as_ref().unwrap();
        assert_eq!(isp.variant, Variant::IspBlock);
        assert!(ck.variant(Variant::Naive).is_some());
        assert!(ck.variant(Variant::IspBlock).is_some());
        assert!(ck.variant(Variant::IspWarp).is_none());
    }

    #[test]
    fn isp_uses_more_registers_than_naive() {
        // The paper's Table II direction: region switching adds registers.
        for pattern in BorderPattern::ALL {
            let ck = Compiler::new().compile(&gauss3(), pattern, Variant::IspBlock);
            let isp = ck.isp.as_ref().unwrap();
            assert!(
                isp.regs.data_regs > ck.naive.regs.data_regs,
                "{pattern}: isp {:?} <= naive {:?}",
                isp.regs,
                ck.naive.regs
            );
        }
    }

    #[test]
    fn body_region_path_is_cheaper_than_naive() {
        let ck = Compiler::new().compile(&gauss3(), BorderPattern::Clamp, Variant::IspBlock);
        let isp = ck.isp.as_ref().unwrap();
        let hists = isp.region_histograms.as_ref().unwrap();
        let body = &hists.iter().find(|(r, _)| *r == Region::Body).unwrap().1;
        // Body path (incl. full switch cascade) still beats naive's checked
        // path in arithmetic instructions.
        assert!(
            body.arithmetic_total() < ck.naive.static_histogram.arithmetic_total(),
            "body {:?} vs naive {:?}",
            body.arithmetic_total(),
            ck.naive.static_histogram.arithmetic_total()
        );
    }

    #[test]
    fn cse_reduces_naive_instruction_count() {
        // The paper's §IV-A observation: NVCC CSE shrinks the naive cost.
        let spec = gauss3();
        let full = Compiler::new().compile(&spec, BorderPattern::Clamp, Variant::IspBlock);
        let nocse = Compiler::with_opt(isp_ir::opt::OptConfig::no_cse()).compile(
            &spec,
            BorderPattern::Clamp,
            Variant::IspBlock,
        );
        assert!(
            full.naive.static_histogram.total() < nocse.naive.static_histogram.total(),
            "CSE must shrink the naive kernel"
        );
    }

    #[test]
    fn ir_stats_model_prefers_isp_for_cheap_kernels() {
        let ck = Compiler::new().compile(&gauss3(), BorderPattern::Repeat, Variant::IspBlock);
        let model = ck.ir_stats_model().unwrap();
        let bounds = isp_core::IndexBounds::new(&isp_core::bounds::Geometry {
            sx: 2048,
            sy: 2048,
            m: 3,
            n: 3,
            tx: 32,
            ty: 4,
        });
        let r = model.r_reduced(&bounds);
        assert!(
            r > 1.2,
            "repeat gauss3 at 2048^2 should predict solid reduction, got {r}"
        );
    }

    #[test]
    fn point_op_compiles_naive_only() {
        let spec = KernelSpec::new("scale", 1, vec![], Expr::at(0, 0) * 2.0);
        let ck = Compiler::new().compile(&spec, BorderPattern::Clamp, Variant::IspBlock);
        assert!(ck.isp.is_none());
        assert!(ck.ir_stats_model().is_none());
        // Point ops have no border arithmetic at all.
        assert_eq!(ck.naive.static_histogram.get(InstrCategory::Max), 0);
    }

    #[test]
    fn region_footprints_populated() {
        let ck = Compiler::new().compile(&gauss3(), BorderPattern::Mirror, Variant::IspWarp);
        let isp = ck.isp.as_ref().unwrap();
        let fp = isp.region_footprints.unwrap();
        assert!(fp.iter().all(|&f| f > 0));
        // Corners traverse less switch code than Body.
        assert!(fp[Region::TL.index()] <= fp[Region::Body.index()] + 50);
    }
}
