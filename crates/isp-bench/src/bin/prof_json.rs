//! Per-region profiling harness: exhaustive naive + ISP runs, `==PROF==`
//! per-region tables with model-residual columns, and the same profiles
//! as JSON in `target/results/BENCH_PR2.json` (schema `isp-prof-v1`).
//!
//! Usage: `cargo run -p isp-bench --bin prof_json --release [-- filter pattern size...]`
//!
//! Defaults to the paper's gaussian/Clamp configuration on GTX 680 at sizes
//! 256 and 512; CI passes a single small size to keep the exhaustive
//! interpreter fast.

use isp_bench::prof::{format_profile, profile_kernel, profile_to_json};
use isp_bench::report::write_json_doc;
use isp_exec::{bench_image, PAPER_BLOCK};
use isp_filters::by_name;
use isp_image::BorderPattern;
use isp_json::Json;
use isp_sim::DeviceSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter = args.first().map(String::as_str).unwrap_or("gaussian");
    let pattern = match args.get(1).map(String::as_str).unwrap_or("clamp") {
        "clamp" => BorderPattern::Clamp,
        "mirror" => BorderPattern::Mirror,
        "repeat" => BorderPattern::Repeat,
        "constant" => BorderPattern::Constant,
        other => panic!("unknown pattern '{other}'"),
    };
    let sizes: Vec<usize> = if args.len() > 2 {
        args[2..]
            .iter()
            .map(|s| s.parse().expect("size must be an integer"))
            .collect()
    } else {
        vec![256, 512]
    };

    let app = by_name(filter).unwrap_or_else(|| panic!("unknown filter '{filter}'"));
    let stage = app
        .pipeline
        .stages
        .iter()
        .find(|s| !s.spec.is_point_op())
        .unwrap_or_else(|| panic!("filter '{filter}' has no stencil stage"))
        .clone();

    let device = DeviceSpec::gtx680();
    let mut trajectory: Vec<Json> = Vec::new();
    for &size in &sizes {
        let source = bench_image(size);
        let p = profile_kernel(
            &device,
            &stage.spec,
            pattern,
            &source,
            &stage.user_params,
            PAPER_BLOCK,
        )
        .unwrap_or_else(|e| panic!("profiling {filter} at {size}: {e}"));
        print!("{}", format_profile(&p));
        println!();
        trajectory.push(profile_to_json(&p));
    }

    let doc = Json::obj()
        .set("schema", "isp-prof-v1")
        .set("filter", filter)
        .set("pattern", pattern.name())
        .set("device", device.name)
        .set("profiles", trajectory);
    let path = write_json_doc("BENCH_PR2", &doc).expect("write BENCH_PR2.json");
    println!("wrote {}", path.display());
}
