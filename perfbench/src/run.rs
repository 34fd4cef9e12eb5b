//! The measurement loop shared by the untraced and the traced run.

use crate::layers::Layers;
use crate::workloads::{self, Kind, Matrix, Observed, Op, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one run measured.
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// Wall times of the ops that passed their checks.
    pub op_ms: Vec<f64>,
    /// Wall time of every timed op, failed ones included.
    pub busy_ms: f64,
    pub setup_s: Vec<f64>,
    pub fingerprint: Fingerprint,
    /// One line per failed op or check.
    pub failures: Vec<String>,
    /// The traced run's span totals, ops, and untraced wall of the same ops.
    pub traced: Option<(Layers, usize, f64)>,
}

/// The simulated outputs of the seed's first round: check values that a
/// change to host speed alone must leave unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub sim_cycles: u64,
    pub warp_instructions: u64,
    /// The fleet's virtual p50 / p99 latency (ms) and throughput (1/s).
    pub virtual_serve: Option<[f64; 3]>,
}

/// Set up `kind` [`SETUPS`] times (keeping the last), then run whole rounds
/// until `seconds` have passed. `started` is when the process started.
pub fn run(
    kind: Kind,
    matrix: &Matrix,
    seed: u64,
    seconds: u64,
    trace: bool,
    started: Instant,
) -> RunResult {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for i in 0..SETUPS {
        drop(workload.take());
        let t0 = if i == 0 { started } else { Instant::now() };
        workload = Some(workloads::setup(kind, matrix, seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let mut r = RunResult {
        attempted: 0,
        failed: 0,
        op_ms: Vec::new(),
        busy_ms: 0.0,
        setup_s,
        fingerprint: Fingerprint {
            sim_cycles: 0,
            warp_instructions: 0,
            virtual_serve: None,
        },
        failures: Vec::new(),
        traced: None,
    };
    let cells = w.rounds().iter().flatten().max().map_or(0, |m| m + 1);
    let mut first: Vec<Option<Observed>> = vec![None; cells];
    w.prepare_checks();
    for (cell, op) in w.warm_ups() {
        if let Err(e) = check(&*w, &mut first, cell, op) {
            r.attempted += 1;
            r.failed += 1;
            r.failures
                .push(format!("{} (set-up run): {e}", w.describe(cell)));
        }
    }
    let rounds = w.rounds().to_vec();
    let deadline = Duration::from_secs(seconds);
    let mut traced = trace.then(|| (Layers::default(), 0usize, 0.0f64));
    let t_run = Instant::now();
    'run: loop {
        for round in &rounds {
            for &cell in round {
                let mut op_layers = Layers::default();
                let redrive_first = traced.as_ref().is_some_and(|(_, ops, _)| ops % 2 == 1);
                let redriven = redrive_first.then(|| redrive(&mut *w, cell, &mut op_layers));
                let t0 = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    w.op(cell, traced.is_some().then_some(&mut op_layers))
                }));
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                r.attempted += 1;
                r.busy_ms += ms;
                let verdict = match result {
                    Ok(Ok(op)) => {
                        let observed = op.observed.clone();
                        check(&*w, &mut first, cell, op).map(|()| observed)
                    }
                    Ok(Err(e)) => Err(e),
                    Err(_) => Err("panicked".to_string()),
                };
                let observed = match verdict {
                    Ok(observed) => {
                        r.op_ms.push(ms);
                        observed
                    }
                    Err(e) => {
                        r.failed += 1;
                        r.failures.push(format!("{}: {e}", w.describe(cell)));
                        continue;
                    }
                };
                if let Some((total, ops, untraced_ms)) = traced.as_mut() {
                    // Alternate which of the pair runs first, so neither
                    // always finds the other's data in the CPU caches.
                    let redriven =
                        redriven.unwrap_or_else(|| redrive(&mut *w, cell, &mut op_layers));
                    let mismatch = match redriven {
                        Ok(re) if re == observed => None,
                        Ok(re) => Some(format!("re-drive gave {re:?}, the op {observed:?}")),
                        Err(e) => Some(e),
                    };
                    if let Some(e) = mismatch {
                        op_layers.add("redrive_mismatches", 1.0);
                        r.failed += 1;
                        r.failures.push(format!(
                            "{}: the layer numbers describe a different program: {e}",
                            w.describe(cell)
                        ));
                    }
                    total.merge(&op_layers);
                    *ops += 1;
                    *untraced_ms += ms;
                }
            }
            if t_run.elapsed() >= deadline {
                break 'run;
            }
        }
    }
    r.fingerprint = fingerprint(&rounds[0], &first, kind);
    r.traced = traced;
    r
}

/// The traced re-drive of one op, timed as `traced_op_ms`.
fn redrive(w: &mut dyn Workload, cell: usize, layers: &mut Layers) -> Result<Observed, String> {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| w.redrive(cell, layers)));
    layers.add("traced_op_ms", t0.elapsed().as_secs_f64() * 1e3);
    result.unwrap_or_else(|_| Err("re-drive panicked".to_string()))
}

/// Check one op: a cell's first run against its reference, every later run
/// for equality with the first.
fn check(
    w: &dyn Workload,
    first: &mut [Option<Observed>],
    cell: usize,
    op: Op,
) -> Result<(), String> {
    match &first[cell] {
        Some(expected) if *expected == op.observed => Ok(()),
        Some(expected) => Err(format!(
            "repeat differs from the cell's first run: {:?} vs {:?}",
            op.observed, expected
        )),
        None => {
            w.check_first(cell, &op)?;
            first[cell] = Some(op.observed);
            Ok(())
        }
    }
}

fn fingerprint(round: &[usize], first: &[Option<Observed>], kind: Kind) -> Fingerprint {
    let observed: Vec<&Observed> = round.iter().filter_map(|&c| first[c].as_ref()).collect();
    Fingerprint {
        sim_cycles: observed.iter().map(|o| o.cycles).sum(),
        warp_instructions: observed.iter().map(|o| o.warp_instructions).sum(),
        virtual_serve: observed
            .first()
            .filter(|_| kind == Kind::Fleet)
            .map(|o| [0, 1, 2].map(|i| f64::from_bits(o.extra[i]))),
    }
}
