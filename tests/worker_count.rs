//! Exhaustive launches are independent of the worker count: the same
//! launches under worker caps 1, 2 and 4 produce equal `LaunchReport`s —
//! counters, cycles, per-class counters and per-class trace stats (which
//! blocks record, replay or deopt) — and bit-identical pixels. So is a
//! serving fleet: identically seeded fleets whose shards run at caps 1, 2
//! and 4 export byte-equal metrics snapshots.
//!
//! `with_worker_cap` only lowers the count, so a cap above the host's
//! parallelism (or above `ISP_SIM_THREADS`) runs at the host's.

use isp_core::Variant;
use isp_dsl::pipeline::Policy;
use isp_dsl::runner::ExecMode;
use isp_exec::{Engine, Request};
use isp_filters::apps::by_name;
use isp_image::{BorderPattern, ImageGenerator};
use isp_serve::{Arrivals, ServeConfig, Server, Workload};
use isp_sim::{DeviceSpec, LaunchReport};

/// (app, stage, variant, pattern, image size, block): naive, block- and
/// warp-grained ISP and texture kernels over region-classified grids.
#[allow(clippy::type_complexity)]
const LAUNCHES: [(&str, usize, Variant, BorderPattern, usize, (u32, u32)); 5] = [
    (
        "Gaussian",
        0,
        Variant::IspBlock,
        BorderPattern::Clamp,
        128,
        (32, 4),
    ),
    (
        "Laplace",
        0,
        Variant::IspWarp,
        BorderPattern::Mirror,
        128,
        (64, 2),
    ),
    (
        "Sobel",
        0,
        Variant::Naive,
        BorderPattern::Repeat,
        96,
        (32, 4),
    ),
    (
        "Night",
        1,
        Variant::Texture,
        BorderPattern::Constant,
        96,
        (32, 4),
    ),
    (
        "Bilateral",
        0,
        Variant::IspBlock,
        BorderPattern::Repeat,
        64,
        (32, 4),
    ),
];

/// Every launch twice on one fresh engine (a cold launch that records, then
/// a warm one that replays the first's traces), with the reports and
/// output pixel bits.
fn run_all(cap: usize) -> Vec<(String, LaunchReport, Vec<u32>)> {
    rayon::with_worker_cap(cap, || {
        let engine = Engine::new(DeviceSpec::gtx680());
        let mut out = Vec::new();
        for (name, stage, variant, pattern, size, block) in LAUNCHES {
            let stage = &by_name(name).expect("registered app").pipeline.stages[stage];
            let granularity = if variant.is_isp() {
                variant
            } else {
                Variant::IspBlock
            };
            let ck = engine.compile(&stage.spec, pattern, granularity);
            let input = ImageGenerator::new(7).natural::<f32>(size, size);
            for run in ["cold", "warm"] {
                let result = engine
                    .run_kernel(
                        &ck,
                        variant,
                        &[&input],
                        &stage.user_params,
                        0.25,
                        block,
                        ExecMode::Exhaustive,
                    )
                    .unwrap_or_else(|e| panic!("{name} {variant} {run}: {e}"));
                let image = result.image.expect("exhaustive output");
                out.push((
                    format!("{name} {variant} {pattern} {run}"),
                    result.report,
                    image.raw().iter().map(|v| v.to_bits()).collect(),
                ));
            }
        }
        out
    })
}

#[test]
fn launch_reports_are_independent_of_the_worker_count() {
    let serial = run_all(1);
    for (label, report, _) in &serial {
        let blocks = report.config.total_blocks();
        let traced: u64 = report
            .per_class_trace
            .iter()
            .map(|(_, s)| s.recorded + s.replayed + s.deopted)
            .sum();
        assert_eq!(traced, blocks, "{label}: per-class trace covers the grid");
        for (class, stats) in &report.per_class_trace {
            let want = u64::from(label.ends_with("cold"));
            assert_eq!(stats.recorded, want, "{label}: class {class} recordings");
        }
    }
    for cap in [2, 4] {
        let parallel = run_all(cap);
        assert_eq!(serial.len(), parallel.len());
        for ((label, a, pa), (_, b, pb)) in serial.iter().zip(&parallel) {
            assert_eq!(a, b, "{label}: report at cap {cap}");
            assert!(pa == pb, "{label}: pixels at cap {cap}");
        }
    }
}

/// Run one seeded closed-loop workload on a fleet whose shards all run at
/// worker cap `cap`, and render its metrics snapshot and Prometheus text.
fn fleet_metrics(cap: usize) -> (String, String) {
    let policy = Policy::Model(Variant::IspBlock);
    let mix = [
        ("gaussian", BorderPattern::Clamp),
        ("laplace", BorderPattern::Mirror),
        ("bilateral", BorderPattern::Repeat),
    ]
    .map(|(app, pattern)| {
        Request::paper(by_name(app).expect("registered app"), pattern, 64, policy).exhaustive()
    });
    let wl = Workload {
        seed: 42,
        requests: 12,
        arrivals: Arrivals::Closed {
            clients: 4,
            think_ms: 0.02,
        },
        mix: mix.to_vec(),
    };
    let mut config = ServeConfig::fleet();
    for shard in &mut config.shards {
        shard.worker_cap = cap;
    }
    let mut server = Server::new(config);
    let report = server.run(&wl);
    assert_eq!(
        report.completed.len(),
        12,
        "cap {cap}: every request completes"
    );
    (
        server.metrics_json().sort_keys().render(),
        server.prometheus(),
    )
}

#[test]
fn fleet_metrics_are_independent_of_the_worker_count() {
    let (json, prom) = fleet_metrics(1);
    assert!(
        json.contains("serve.e2e_ms"),
        "virtual-clock series present"
    );
    assert!(
        prom.contains("serve_completed"),
        "exposition carries the server's counters"
    );
    for cap in [2, 4] {
        let (j, p) = fleet_metrics(cap);
        assert!(j == json, "metrics JSON at cap {cap} differs from cap 1");
        assert!(p == prom, "Prometheus text at cap {cap} differs from cap 1");
    }
}
