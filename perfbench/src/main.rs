//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary, the workload's simulated fingerprint, and as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! the traced re-drive (`--trace 1`).

use isp_json::Json;
use perfbench::layers::{per_layer_values, END_TO_END, PER_LAYER};
use perfbench::run::{run, RunResult};
use perfbench::stats::{median, median_sorted, peak_rss_mb, tail};
use perfbench::workloads::{Kind, Matrix};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        kind,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

/// `{"<name>": {"value": .., "unit": ..}, ..}` for values listed in the
/// order of `units`.
fn metrics_json(values: &[(&str, f64)], units: &[(&str, &str)]) -> Json {
    values
        .iter()
        .zip(units)
        .fold(Json::obj(), |m, (&(name, value), &(_, unit))| {
            m.set(name, Json::obj().set("value", value).set("unit", unit))
        })
}

fn end_to_end(r: &RunResult) -> Vec<(&'static str, f64)> {
    let mut sorted = r.op_ms.clone();
    sorted.sort_by(f64::total_cmp);
    // With no op passed there is nothing to rank; the run reports 0 and
    // `correct: false`.
    let (p50, (tail_ms, tail_pct)) = if sorted.is_empty() {
        (0.0, (0.0, 0.0))
    } else {
        (median_sorted(&sorted), tail(&sorted))
    };
    println!("op_tail_ms is the p{tail_pct:.1} of {} ops", sorted.len());
    let values = [
        r.op_ms.len() as f64 / (r.busy_ms / 1e3),
        p50,
        tail_ms,
        median(&r.setup_s),
        peak_rss_mb(),
    ];
    END_TO_END.iter().map(|&(n, _)| n).zip(values).collect()
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Pin the simulator's worker count to the host's parallelism.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("ISP_SIM_THREADS", nproc.to_string());

    let name = args.kind.name();
    let matrix = Matrix::of(args.kind);
    let r = run(
        args.kind,
        &matrix,
        args.seed,
        args.seconds,
        args.trace,
        started,
    );
    for failure in &r.failures {
        eprintln!("FAILED {failure}");
    }
    println!(
        "{name}: {} of {} ops passed; nproc {nproc}; setups {:?} s",
        r.attempted - r.failed,
        r.attempted,
        r.setup_s
    );
    let f = &r.fingerprint;
    let serve = f.virtual_serve.map_or(String::new(), |[p50, p99, rps]| {
        format!(" virtual_p50_ms={p50} virtual_p99_ms={p99} virtual_rps={rps}")
    });
    println!(
        "fingerprint {name} seed {}: sim_cycles={} warp_instructions={}{serve}",
        args.seed, f.sim_cycles, f.warp_instructions
    );

    let metrics = match &r.traced {
        None => metrics_json(&end_to_end(&r), &END_TO_END),
        Some((layers, ops, untraced_ms)) => {
            let per_op = |v: f64| v / (*ops).max(1) as f64;
            println!(
                "traced {ops} ops: exclusive layers {:.3} ms + unattributed = traced op {:.3} ms (means per op)",
                per_op(layers.exclusive_ms()),
                per_op(layers.get("traced_op_ms"))
            );
            metrics_json(&per_layer_values(layers, *ops, *untraced_ms), &PER_LAYER)
        }
    };
    let out = Json::obj()
        .set("correct", r.failed == 0)
        .set("attempted", r.attempted)
        .set("failed", r.failed)
        .set("metrics", metrics);
    println!("{}", out.render());
    ExitCode::SUCCESS
}
