//! Serving-layer invariants, end to end.
//!
//! 1. **Batching is invisible to results**: a batch of N mixed-policy
//!    requests through one engine is bit-identical — pixels, counters,
//!    per-region attribution, per-region trace journals — to the same N
//!    requests run sequentially on an identically configured engine, and
//!    (modulo trace-reuse counters, which legitimately differ with cache
//!    warmth) to N runs on fully cold engines. Covers all five filters
//!    times all four border patterns.
//! 2. **Backpressure is deterministic**: a burst beyond the admission cap
//!    yields exact admitted/rejected counts and a bounded queue depth,
//!    identical across repeated runs.
//! 3. **The fleet beats the baseline**: on a seeded closed loop, the
//!    model-routed two-device fleet has higher throughput than the
//!    single-shard FIFO baseline at an equal or better p99. Both run on the
//!    virtual clock, so the comparison is exact.

use isp_core::Variant;
use isp_dsl::pipeline::Policy;
use isp_exec::{Engine, Outcome, Request};
use isp_filters::{all_apps, by_name};
use isp_image::BorderPattern;
use isp_serve::{Arrivals, ServeConfig, ServeReport, Server, Workload};
use isp_sim::DeviceSpec;

const PATTERNS: [BorderPattern; 4] = [
    BorderPattern::Clamp,
    BorderPattern::Mirror,
    BorderPattern::Repeat,
    BorderPattern::Constant,
];

const POLICIES: [Policy; 3] = [
    Policy::Naive,
    Policy::AlwaysIsp(Variant::IspBlock),
    Policy::Model(Variant::IspBlock),
];

/// Every app x pattern, policies cycled so the batch mixes them.
fn mixed_requests(size: usize) -> Vec<Request> {
    let mut reqs = Vec::new();
    for (i, app) in all_apps().into_iter().enumerate() {
        for (j, &pattern) in PATTERNS.iter().enumerate() {
            let policy = POLICIES[(i * PATTERNS.len() + j) % POLICIES.len()];
            reqs.push(Request::paper(app.clone(), pattern, size, policy).exhaustive());
        }
    }
    reqs
}

fn assert_outcomes_equal(a: &Outcome, b: &Outcome, label: &str, compare_trace: bool) {
    assert_eq!(a.total_cycles, b.total_cycles, "{label}: cycles");
    assert_eq!(a.counters, b.counters, "{label}: counters");
    assert_eq!(a.stage_variants, b.stage_variants, "{label}: variants");
    assert_eq!(a.per_region, b.per_region, "{label}: per-region");
    assert_eq!(
        a.latency.exec_cycles, b.latency.exec_cycles,
        "{label}: exec cycles"
    );
    if compare_trace {
        assert_eq!(
            a.per_region_trace, b.per_region_trace,
            "{label}: trace journals"
        );
    }
    match (&a.image, &b.image) {
        (Some(x), Some(y)) => assert_eq!(x.raw(), y.raw(), "{label}: pixels"),
        (None, None) => {}
        _ => panic!("{label}: one run produced pixels, the other did not"),
    }
}

#[test]
fn batched_execution_is_bit_identical_to_sequential() {
    let size = 64;
    let mut reqs = mixed_requests(size);
    assert_eq!(reqs.len(), 20, "five filters x four patterns");
    // Re-enqueue the four gaussian requests so the batch contains
    // compatible pairs: their second runs must replay the first runs'
    // traces from block 0 (cross-launch reuse).
    reqs.extend(reqs[..4].to_vec());

    let batch_engine = Engine::new(DeviceSpec::gtx680());
    let batched = batch_engine.run_batch(&reqs).expect("batch runs");

    // Same requests, same order, sequentially on an identically
    // configured engine: cache warmth evolves identically, so even the
    // trace-reuse journals must match bit for bit.
    let seq_engine = Engine::new(DeviceSpec::gtx680());
    for (i, (req, b)) in reqs.iter().zip(&batched).enumerate() {
        let s = seq_engine.run(req).expect("sequential runs");
        let label = format!("{} {} #{i} (warm)", req.app.name, req.pattern);
        assert_outcomes_equal(b, &s, &label, true);
    }

    // Fully cold engines: results must still match (trace-reuse counters
    // may not — a cold engine records where a warm one replays).
    for (i, (req, b)) in reqs.iter().zip(&batched).enumerate() {
        let cold = Engine::new(DeviceSpec::gtx680());
        let c = cold.run(req).expect("cold runs");
        let label = format!("{} {} #{i} (cold)", req.app.name, req.pattern);
        assert_outcomes_equal(b, &c, &label, false);
    }

    // The batch itself must have exercised cross-launch reuse, otherwise
    // this test is not testing what it claims to.
    assert!(
        batch_engine.cache_stats().trace_cross_launch_hits > 0,
        "batch must replay traces across compatible launches"
    );
}

fn burst_workload() -> Workload {
    Workload {
        seed: 5,
        requests: 16,
        arrivals: Arrivals::Open {
            rate_rps: 1.0e6,
            exponential: false,
        },
        mix: vec![Request::paper(
            all_apps().remove(0),
            BorderPattern::Clamp,
            64,
            Policy::Model(Variant::IspBlock),
        )],
    }
}

fn summary(r: &ServeReport) -> (u64, u64, usize, u64, Vec<(u64, u64)>) {
    (
        r.admitted,
        r.rejected,
        r.max_queue_depth,
        r.makespan_ns,
        r.completed.iter().map(|c| (c.id, c.done_ns)).collect(),
    )
}

#[test]
fn admission_bounds_queue_depth_deterministically() {
    let wl = burst_workload();
    let cfg = || ServeConfig::baseline().with_queue_cap(3);
    let a = Server::new(cfg()).run(&wl);
    let b = Server::new(cfg()).run(&wl);

    assert_eq!(summary(&a), summary(&b), "repeated runs must be identical");
    assert!(a.max_queue_depth <= 3, "cap must bound the queue");
    assert!(a.rejected > 0, "the burst must overflow the queue");
    assert_eq!(a.admitted + a.rejected, 16);
    assert_eq!(a.completed.len() as u64, a.admitted);
    // Queue waits are attributed in device cycles on every completion.
    assert!(a.completed.iter().any(|c| c.latency.queue_cycles > 0));
}

/// One closed-loop pass over a three-pipeline mix (as many clients as
/// pipelines, one request each): the smallest loop that covers the whole
/// mix, and already enough for the fleet's second device to pay off.
#[test]
fn fleet_beats_fifo_baseline_on_throughput_at_no_worse_p99() {
    let policy = Policy::Model(Variant::IspBlock);
    let mix = [
        ("gaussian", BorderPattern::Clamp),
        ("laplace", BorderPattern::Mirror),
        ("sobel", BorderPattern::Repeat),
    ]
    .map(|(app, pattern)| Request::paper(by_name(app).unwrap(), pattern, 32, policy).exhaustive());
    let wl = Workload {
        seed: 42,
        requests: mix.len(),
        arrivals: Arrivals::Closed {
            clients: mix.len(),
            think_ms: 0.02,
        },
        mix: mix.to_vec(),
    };
    let baseline = Server::new(ServeConfig::baseline()).run(&wl);
    let fleet = Server::new(ServeConfig::fleet()).run(&wl);
    assert_eq!(baseline.completed.len(), mix.len());
    assert_eq!(fleet.completed.len(), mix.len());
    let (b99, f99) = (
        baseline.latency_percentile_ms(99.0),
        fleet.latency_percentile_ms(99.0),
    );
    assert!(
        fleet.throughput_rps() > baseline.throughput_rps() && f99 <= b99,
        "fleet {:.0} rps at p99 {f99:.4} ms vs baseline {:.0} rps at p99 {b99:.4} ms",
        fleet.throughput_rps(),
        baseline.throughput_rps(),
    );
}
