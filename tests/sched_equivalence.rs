//! The pressure scheduler's early exit is exact: over every kernel the DSL
//! compiles (five apps × four patterns × naive / ISP block / ISP warp /
//! texture / tiled 32×4, point operators naive only), the guarded
//! scheduler returns exactly what the plain adoption rule returns — the
//! greedy schedule when it lowers `max_live_data`, else the input.

use isp_core::Variant;
use isp_dsl::lower::{lower_isp, lower_naive, lower_texture, lower_tiled, Lowered};
use isp_dsl::{Compiler, KernelSpec};
use isp_image::BorderPattern;
use isp_ir::regalloc::estimate;
use isp_ir::sched::{schedule_greedy, schedule_min_pressure};
use isp_ir::Kernel;

/// The optimised, not yet scheduled kernels of the full compile matrix,
/// labelled by app.
fn compile_matrix() -> Vec<(&'static str, Kernel)> {
    let opt = Compiler::new().opt;
    let optimise = |lowered: Lowered| isp_ir::opt::optimize_with_stats(&lowered.kernel, opt).0;
    let mut out = Vec::new();
    for app in isp_filters::apps::all_apps() {
        for stage in &app.pipeline.stages {
            let spec: &KernelSpec = &stage.spec;
            for pattern in BorderPattern::ALL {
                out.push((app.name, optimise(lower_naive(spec, pattern))));
                if spec.is_point_op() {
                    continue;
                }
                for variant in [Variant::IspBlock, Variant::IspWarp] {
                    out.push((app.name, optimise(lower_isp(spec, pattern, variant))));
                }
                out.push((app.name, optimise(lower_texture(spec, pattern))));
                out.push((app.name, optimise(lower_tiled(spec, pattern, (32, 4)))));
            }
        }
    }
    out
}

#[test]
fn guarded_schedule_equals_the_adoption_rule_on_every_compiled_kernel() {
    let matrix = compile_matrix();
    assert_eq!(matrix.len(), 188, "the compile matrix changed shape");
    let mut adopted = 0;
    for (app, k) in &matrix {
        let candidate = schedule_greedy(k);
        let want = if estimate(&candidate).max_live_data < estimate(k).max_live_data {
            adopted += 1;
            candidate
        } else {
            k.clone()
        };
        let got = schedule_min_pressure(k);
        assert!(
            got == want,
            "{app}: {} differs from the adoption rule",
            k.name
        );
        if *app == "Bilateral" {
            assert!(got == *k, "{}: the greedy order was adopted", k.name);
        }
    }
    assert!(adopted > 0, "no kernel adopted the greedy order");
}
