//! Metric names and the per-layer accumulator of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public function; nothing inside the program is instrumented.
//! Every timed span is a leaf, so span times are exclusive by construction.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), name and unit. All are host wall time
/// or host memory; simulated values are only checks and fingerprints.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose times are exclusive shares of the traced op's wall time;
/// with `unattributed_ms` they sum to `traced_op_ms`.
pub const EXCLUSIVE: [&str; 16] = [
    "image.generate_ms",
    "dsl.lower_ms",
    "dsl.compile_ms",
    "ir.opt_ms",
    "ir.sched_ms",
    "ir.regalloc_ms",
    "core.plan_ms",
    "sim.decode_ms",
    "sim.stage_ms",
    "sim.launch_record_ms",
    "sim.launch_replay_ms",
    "sim.launch_sampled_ms",
    "exec.cache_ms",
    "exec.predict_ms",
    "serve.shard_critical_ms",
    "serve.loop_ms",
];

/// Per-layer metrics (`--trace 1`), name and unit. Times and counts are
/// means per traced op; ratios are taken over the whole traced run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("traced_op_ms", "ms"),
    ("image.generate_ms", "ms"),
    ("dsl.lower_ms", "ms"),
    ("dsl.compile_ms", "ms"),
    ("ir.opt_ms", "ms"),
    ("ir.opt_iterations", "count"),
    ("ir.opt_removed", "count"),
    ("ir.sched_ms", "ms"),
    ("ir.regalloc_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("sim.decode_ms", "ms"),
    ("sim.stage_ms", "ms"),
    ("sim.launch_record_ms", "ms"),
    ("sim.launch_replay_ms", "ms"),
    ("sim.launch_sampled_ms", "ms"),
    ("sim.blocks_replayed", "count"),
    ("sim.blocks_deopted", "count"),
    ("sim.traces_recorded", "count"),
    ("sim.guard_fast_blocks", "count"),
    ("sim.replay_ratio", "ratio"),
    ("sim.host_ns_per_warp_instr", "ns"),
    ("exec.cache_ms", "ms"),
    ("exec.request_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("exec.kernel_hit_ratio", "ratio"),
    ("exec.plan_hit_ratio", "ratio"),
    ("exec.decode_hit_ratio", "ratio"),
    ("exec.trace_xlaunch_hits", "count"),
    ("exec.predict_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.shard_host_ms", "ms"),
    ("serve.shard_critical_ms", "ms"),
    ("serve.loop_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.trace_xlaunch_hits", "count"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("redrive_mismatches", "count"),
];

/// Accumulated span times (ms) and counts over the traced ops of a run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Run `f` as one span of `layer` (a `*_ms` name) and return its value.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(layer, t0.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Add to an entry: milliseconds for a `*_ms` name, else a count.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// The accumulated value of an entry (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the exclusive layer times.
    pub fn exclusive_ms(&self) -> f64 {
        EXCLUSIVE.iter().map(|l| self.get(l)).sum()
    }

    /// Fold another op's spans into this run's totals.
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.sums {
            *self.sums.entry(k).or_default() += v;
        }
    }
}

/// `num / (num + other)`, or 0 when both are 0.
fn share(num: f64, other: f64) -> f64 {
    if num + other > 0.0 {
        num / (num + other)
    } else {
        0.0
    }
}

/// The per-layer metric values of a traced run of `ops` ops, in
/// [`PER_LAYER`] order. `untraced_ms` is the summed wall time of the same
/// ops run through the public API without spans.
pub fn per_layer_values(total: &Layers, ops: usize, untraced_ms: f64) -> Vec<(&'static str, f64)> {
    let n = ops.max(1) as f64;
    let traced_ms = total.get("traced_op_ms");
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name {
                "sim.replay_ratio" => share(
                    total.get("sim.blocks_replayed"),
                    total.get("sim.blocks_deopted"),
                ),
                "sim.host_ns_per_warp_instr" => {
                    let instrs = total.get("sim.exhaustive_warp_instrs");
                    if instrs > 0.0 {
                        total.get("sim.exhaustive_launch_ms") * 1e6 / instrs
                    } else {
                        0.0
                    }
                }
                "exec.kernel_hit_ratio" => share(
                    total.get("exec.kernel_hits"),
                    total.get("exec.kernel_misses"),
                ),
                "exec.plan_hit_ratio" => {
                    share(total.get("exec.plan_hits"), total.get("exec.plan_misses"))
                }
                "exec.decode_hit_ratio" => share(
                    total.get("exec.decode_hits"),
                    total.get("exec.decode_misses"),
                ),
                "serve.mean_batch" => {
                    let batches = total.get("serve.batches");
                    if batches > 0.0 {
                        total.get("serve.requests") / batches
                    } else {
                        0.0
                    }
                }
                "unattributed_ms" => (traced_ms - total.exclusive_ms()) / n,
                "trace_overhead_pct" => {
                    if untraced_ms > 0.0 {
                        (traced_ms - untraced_ms) / untraced_ms * 100.0
                    } else {
                        0.0
                    }
                }
                other => total.get(other) / n,
            };
            (name, value)
        })
        .collect()
}
