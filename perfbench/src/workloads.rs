//! The four workloads: their op matrices, set-up, the timed op, the output
//! checks, and the traced re-drive of each op.
//!
//! Every host loop is closed: one client, one op in flight. The seed only
//! shapes the generated inputs and the order of the cells; the program sees
//! nothing but those inputs.

use crate::layers::Layers;
use crate::redrive::{self, Kernels};
use isp_core::Variant;
use isp_dsl::pipeline::Policy;
use isp_exec::{bench_image, CacheStats, Engine, Request, Sweep, PAPER_SIZES};
use isp_filters::App;
use isp_image::{BorderPattern, BorderSpec, Image, ImageGenerator};
use isp_serve::{Arrivals, ServeConfig, ServeReport, Server};
use isp_sim::{DeviceSpec, PerfCounters};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pixel tolerance against the host reference (the integration tests'
/// bound; the simulator's float order differs from the host's).
const REFERENCE_TOLERANCE: f32 = 2e-4;

/// The engine every workload measures: the default configuration (replay
/// engine, fusion and guard batching on, no disk cache).
fn engine() -> Engine {
    Engine::new(DeviceSpec::gtx680())
}

/// The workloads, by their command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ExhaustiveWarm,
    SweepSampled,
    ColdStart,
    Fleet,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ExhaustiveWarm,
        Kind::SweepSampled,
        Kind::ColdStart,
        Kind::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ExhaustiveWarm => "exhaustive-warm",
            Kind::SweepSampled => "sweep-sampled",
            Kind::ColdStart => "cold-start",
            Kind::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The op matrix: every app under every pattern at every size. The fleet
/// uses `apps` and `patterns` as its request mix and `sizes[0]` as the
/// request size.
#[derive(Debug, Clone)]
pub struct Matrix {
    pub apps: Vec<App>,
    pub patterns: Vec<BorderPattern>,
    pub sizes: Vec<usize>,
    /// Requests per `Server::run` (fleet only).
    pub fleet_requests: usize,
    /// Distinct seeded virtual workloads the fleet's ops cycle over, so a
    /// run's request mix does not hang on one draw.
    pub fleet_workloads: usize,
}

impl Matrix {
    /// The full matrix a workload runs.
    pub fn of(kind: Kind) -> Matrix {
        let all = isp_filters::all_apps();
        let apps = match kind {
            // Bilateral would dominate the fleet and hide the serve loop.
            Kind::Fleet => all.into_iter().filter(|a| a.name != "Bilateral").collect(),
            _ => all,
        };
        let sizes = match kind {
            Kind::ExhaustiveWarm => vec![128, 512],
            Kind::SweepSampled => PAPER_SIZES.to_vec(),
            Kind::ColdStart | Kind::Fleet => vec![128],
        };
        Matrix {
            apps,
            patterns: BorderPattern::ALL.to_vec(),
            sizes,
            fleet_requests: 32,
            fleet_workloads: 16,
        }
    }

    /// Cell `i` as (app, pattern, size); patterns vary fastest.
    fn cell(&self, i: usize) -> (&App, BorderPattern, usize) {
        let np = self.patterns.len();
        let group = i / np;
        let app = &self.apps[group / self.sizes.len()];
        (
            app,
            self.patterns[i % np],
            self.sizes[group % self.sizes.len()],
        )
    }

    fn cells(&self) -> usize {
        self.apps.len() * self.sizes.len() * self.patterns.len()
    }

    /// The cells grouped into rounds, each in a seeded order. A run stops
    /// only at a round boundary, so its mix does not depend on timing.
    /// Unstratified, one round holds every cell. Stratified, round `r`
    /// holds every (app, size) once under a pattern drawn without
    /// replacement: for a matrix whose full pass outlasts a run, and whose
    /// op cost barely depends on the pattern.
    fn rounds(&self, rng: &mut SplitMix, stratified: bool) -> Vec<Vec<usize>> {
        if !stratified {
            return vec![rng.permutation(self.cells())];
        }
        let np = self.patterns.len();
        let groups = self.cells() / np;
        let perms: Vec<Vec<usize>> = (0..groups).map(|_| rng.permutation(np)).collect();
        (0..np)
            .map(|r| {
                let order = rng.permutation(groups);
                order.into_iter().map(|g| g * np + perms[g][r]).collect()
            })
            .collect()
    }
}

/// SplitMix64: the benchmark's own seeded generator for orders and seeds.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// The simulated outputs of one op: what every repeat of its cell must
/// reproduce exactly. These are checks and fingerprints, never metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated warp instructions (0 where the op does not report them).
    pub warp_instructions: u64,
    /// Merged performance counters of an exhaustive request.
    pub counters: Option<PerfCounters>,
    /// FNV-1a over the output pixels' bits (0 without pixels).
    pub pixels: u64,
    /// Workload-specific values: sampled cycle triples, or the fleet's
    /// virtual p50/p99/rps bits, completions and batches.
    pub extra: Vec<u64>,
}

fn pixel_hash(image: &Image<f32>) -> u64 {
    image.raw().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One op's result.
pub struct Op {
    pub observed: Observed,
    /// Output pixels of an exhaustive request (for the reference check).
    pub image: Option<Image<f32>>,
}

fn exhaustive_request(app: &App, pattern: BorderPattern, size: usize) -> Request {
    Request::paper(app.clone(), pattern, size, Policy::Model(Variant::IspBlock)).exhaustive()
}

fn observe_outcome(outcome: isp_exec::Outcome) -> Op {
    let image = outcome.image.expect("exhaustive requests return pixels");
    Op {
        observed: Observed {
            cycles: outcome.total_cycles,
            warp_instructions: outcome.counters.warp_instructions,
            pixels: pixel_hash(&image),
            counters: Some(outcome.counters),
            extra: Vec::new(),
        },
        image: Some(image),
    }
}

/// Record the host-side request split and cache hits of one untraced
/// `run_on` into the traced run's totals.
fn record_request(
    layers: &mut Layers,
    wall_ms: f64,
    latency: &isp_exec::Latency,
    before: &CacheStats,
    after: &CacheStats,
) {
    let host_ms = (latency.plan_wall_ns + latency.exec_wall_ns) as f64 / 1e6;
    layers.add("exec.request_ms", wall_ms);
    layers.add("exec.self_ms", wall_ms - host_ms);
    let d = |f: fn(&CacheStats) -> u64| (f(after) - f(before)) as f64;
    layers.add("exec.kernel_hits", d(|s| s.kernel_hits));
    layers.add("exec.kernel_misses", d(|s| s.kernel_misses));
    layers.add("exec.plan_hits", d(|s| s.plan_hits));
    layers.add("exec.plan_misses", d(|s| s.plan_misses));
    layers.add("exec.decode_hits", d(|s| s.decode_hits));
    layers.add("exec.decode_misses", d(|s| s.decode_misses));
    layers.add("exec.trace_xlaunch_hits", d(|s| s.trace_cross_launch_hits));
}

/// Record the trace-replay block counts between two cache snapshots.
fn record_blocks(layers: &mut Layers, before: &CacheStats, after: &CacheStats) {
    let d = |f: fn(&CacheStats) -> u64| (f(after) - f(before)) as f64;
    layers.add("sim.blocks_replayed", d(|s| s.trace_replayed));
    layers.add("sim.blocks_deopted", d(|s| s.trace_deopts));
    layers.add("sim.traces_recorded", d(|s| s.trace_recorded));
    layers.add("sim.guard_fast_blocks", d(|s| s.guard_batched_replays));
}

fn observe_redriven(re: redrive::Redriven) -> Observed {
    Observed {
        cycles: re.cycles,
        warp_instructions: re.counters.warp_instructions,
        pixels: re.image.as_ref().map_or(0, pixel_hash),
        counters: Some(re.counters),
        extra: Vec::new(),
    }
}

/// A workload after set-up.
pub trait Workload {
    /// Cells grouped into rounds of identical mix (see [`Matrix::rounds`]).
    fn rounds(&self) -> &[Vec<usize>];
    /// Human-readable name of a cell.
    fn describe(&self, cell: usize) -> String;
    /// Ops run during set-up, as (cell, op): the first run of those cells.
    fn warm_ups(&mut self) -> Vec<(usize, Op)>;
    /// Precompute what the output checks compare against; runs after
    /// set-up and before the timed loop, so neither times it.
    fn prepare_checks(&mut self) {}
    /// The timed op. With `layers`, also record the host-side counts the
    /// traced run reports for it.
    fn op(&mut self, cell: usize, layers: Option<&mut Layers>) -> Result<Op, String>;
    /// The output check of a cell's first run (against a host reference
    /// or the workload's own accounting); repeats must equal the first run.
    fn check_first(&self, cell: usize, op: &Op) -> Result<(), String>;
    /// Re-drive the op layer by layer, returning its simulated outputs
    /// (which must equal the untraced op's).
    fn redrive(&mut self, cell: usize, layers: &mut Layers) -> Result<Observed, String>;
}

/// Build a workload, including its warm-up: this is what `setup_s` times.
pub fn setup(kind: Kind, matrix: &Matrix, seed: u64) -> Box<dyn Workload> {
    match kind {
        Kind::ExhaustiveWarm => Box::new(ExhaustiveWarm::new(matrix, seed)),
        Kind::SweepSampled => Box::new(SweepSampled::new(matrix, seed)),
        Kind::ColdStart => Box::new(ColdStart::new(matrix, seed)),
        Kind::Fleet => Box::new(Fleet::new(matrix, seed)),
    }
}

/// Seeded inputs, one per cell.
fn inputs(matrix: &Matrix, rng: &mut SplitMix) -> Vec<Image<f32>> {
    (0..matrix.cells())
        .map(|i| {
            let (_, _, size) = matrix.cell(i);
            ImageGenerator::new(rng.next_u64()).natural::<f32>(size, size)
        })
        .collect()
}

/// Host references (`Pipeline::reference`) of every cell's input, computed
/// on all cores: the 512² bilateral reference alone takes seconds.
fn references(matrix: &Matrix, inputs: &[Image<f32>]) -> Vec<Image<f32>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Image<f32>>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let cell = next.fetch_add(1, Ordering::Relaxed);
                let Some(source) = inputs.get(cell) else {
                    break;
                };
                let (app, pattern, _) = matrix.cell(cell);
                let golden = app
                    .pipeline
                    .reference(source, BorderSpec::from_pattern(pattern));
                *slots[cell].lock().expect("reference slot") = Some(golden);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("reference slot")
                .expect("every cell has a reference")
        })
        .collect()
}

fn reference_check(references: &[Image<f32>], cell: usize, op: &Op) -> Result<(), String> {
    let golden = references
        .get(cell)
        .ok_or("reference checks were not prepared")?;
    let image = op
        .image
        .as_ref()
        .ok_or("exhaustive op returned no pixels")?;
    let diff = image.max_abs_diff(golden).map_err(|e| e.to_string())?;
    if diff < REFERENCE_TOLERANCE {
        Ok(())
    } else {
        Err(format!("max |diff| vs host reference = {diff}"))
    }
}

/// `exhaustive-warm`: `Engine::run_on` of exhaustive model-policy requests
/// on caller-supplied pixels, on one engine warmed in set-up.
struct ExhaustiveWarm {
    matrix: Matrix,
    rounds: Vec<Vec<usize>>,
    inputs: Vec<Image<f32>>,
    references: Vec<Image<f32>>,
    engine: Engine,
    warm: Vec<(usize, Op)>,
}

impl ExhaustiveWarm {
    fn new(matrix: &Matrix, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let rounds = matrix.rounds(&mut rng, false);
        let inputs = inputs(matrix, &mut rng);
        let mut w = ExhaustiveWarm {
            matrix: matrix.clone(),
            rounds,
            inputs,
            references: Vec::new(),
            engine: engine(),
            warm: Vec::new(),
        };
        // Warm every cache (kernels, plans, decode, traces) with one run of
        // every cell; a failure there surfaces as that cell's first-run check.
        for cell in 0..matrix.cells() {
            if let Ok(op) = w.op(cell, None) {
                w.warm.push((cell, op));
            }
        }
        w
    }

    fn request(&self, cell: usize) -> Request {
        let (app, pattern, size) = self.matrix.cell(cell);
        exhaustive_request(app, pattern, size)
    }
}

impl Workload for ExhaustiveWarm {
    fn rounds(&self) -> &[Vec<usize>] {
        &self.rounds
    }

    fn describe(&self, cell: usize) -> String {
        let (app, pattern, size) = self.matrix.cell(cell);
        format!("{} {pattern} {size}", app.name)
    }

    fn warm_ups(&mut self) -> Vec<(usize, Op)> {
        std::mem::take(&mut self.warm)
    }

    fn op(&mut self, cell: usize, layers: Option<&mut Layers>) -> Result<Op, String> {
        let req = self.request(cell);
        let Some(layers) = layers else {
            let outcome = self
                .engine
                .run_on(&req, &self.inputs[cell])
                .map_err(|e| e.to_string())?;
            return Ok(observe_outcome(outcome));
        };
        let before = self.engine.cache_stats();
        let t0 = Instant::now();
        let outcome = self
            .engine
            .run_on(&req, &self.inputs[cell])
            .map_err(|e| e.to_string())?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        record_request(
            layers,
            wall_ms,
            &outcome.latency,
            &before,
            &self.engine.cache_stats(),
        );
        Ok(observe_outcome(outcome))
    }

    fn prepare_checks(&mut self) {
        self.references = references(&self.matrix, &self.inputs);
    }

    fn check_first(&self, cell: usize, op: &Op) -> Result<(), String> {
        reference_check(&self.references, cell, op)
    }

    fn redrive(&mut self, cell: usize, layers: &mut Layers) -> Result<Observed, String> {
        let req = self.request(cell);
        let before = self.engine.cache_stats();
        let re = redrive::run_request(
            &mut Kernels::Warm(&self.engine),
            &req,
            &self.inputs[cell],
            layers,
        )
        .map_err(|e| e.to_string())?;
        record_blocks(layers, &before, &self.engine.cache_stats());
        Ok(observe_redriven(re))
    }
}

/// `sweep-sampled`: `Engine::measure` (naive / isp / isp+m, region-sampled)
/// over the paper's sizes, on an engine whose kernels are compiled in
/// set-up.
struct SweepSampled {
    matrix: Matrix,
    rounds: Vec<Vec<usize>>,
    engine: Engine,
}

impl SweepSampled {
    fn new(matrix: &Matrix, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let rounds = matrix.rounds(&mut rng, true);
        let engine = engine();
        for app in &matrix.apps {
            for &pattern in &matrix.patterns {
                engine.compile_pipeline(&app.pipeline, pattern, Variant::IspBlock);
            }
        }
        SweepSampled {
            matrix: matrix.clone(),
            rounds,
            engine,
        }
    }

    fn sweep(&self, cell: usize) -> Sweep {
        let (app, pattern, size) = self.matrix.cell(cell);
        Sweep::paper(app.clone(), pattern, size)
    }
}

/// A sweep point's (naive, isp, isp+m) cycles and its (naive + isp) warp
/// instructions.
fn sampled_observed(cycles: [u64; 3], warp_instructions: u64) -> Observed {
    Observed {
        cycles: cycles.iter().sum(),
        warp_instructions,
        counters: None,
        pixels: 0,
        extra: cycles.to_vec(),
    }
}

impl Workload for SweepSampled {
    fn rounds(&self) -> &[Vec<usize>] {
        &self.rounds
    }

    fn describe(&self, cell: usize) -> String {
        let (app, pattern, size) = self.matrix.cell(cell);
        format!("{} {pattern} {size}", app.name)
    }

    fn warm_ups(&mut self) -> Vec<(usize, Op)> {
        Vec::new()
    }

    fn op(&mut self, cell: usize, _layers: Option<&mut Layers>) -> Result<Op, String> {
        let m = self.engine.measure(&self.sweep(cell));
        Ok(Op {
            observed: sampled_observed(
                [m.naive_cycles, m.isp_cycles, m.ispm_cycles],
                m.warp_instructions.0 + m.warp_instructions.1,
            ),
            image: None,
        })
    }

    fn check_first(&self, _cell: usize, op: &Op) -> Result<(), String> {
        if op.observed.extra.iter().all(|&c| c > 0) && op.observed.warp_instructions > 0 {
            Ok(())
        } else {
            Err(format!("empty measurement {:?}", op.observed.extra))
        }
    }

    fn redrive(&mut self, cell: usize, layers: &mut Layers) -> Result<Observed, String> {
        let [naive, isp, ispm, wi_naive, wi_isp] =
            redrive::measure(&self.engine, &self.sweep(cell), layers).map_err(|e| e.to_string())?;
        Ok(sampled_observed([naive, isp, ispm], wi_naive + wi_isp))
    }
}

/// `cold-start`: `Engine::new` plus the first exhaustive `run_on` of one
/// cell, so every op compiles, plans, decodes and records from scratch.
struct ColdStart {
    matrix: Matrix,
    rounds: Vec<Vec<usize>>,
    inputs: Vec<Image<f32>>,
    references: Vec<Image<f32>>,
}

impl ColdStart {
    fn new(matrix: &Matrix, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let rounds = matrix.rounds(&mut rng, false);
        let inputs = inputs(matrix, &mut rng);
        let w = ColdStart {
            matrix: matrix.clone(),
            rounds,
            inputs,
            references: Vec::new(),
        };
        // One discarded cold op, so the first timed op does not also pay
        // for the process's first page faults and allocator growth.
        let _ = w.cold_run(0);
        w
    }

    fn request(&self, cell: usize) -> Request {
        let (app, pattern, size) = self.matrix.cell(cell);
        exhaustive_request(app, pattern, size)
    }

    fn cold_run(&self, cell: usize) -> Result<(Engine, isp_exec::Outcome), String> {
        let engine = engine();
        let outcome = engine
            .run_on(&self.request(cell), &self.inputs[cell])
            .map_err(|e| e.to_string())?;
        Ok((engine, outcome))
    }
}

impl Workload for ColdStart {
    fn rounds(&self) -> &[Vec<usize>] {
        &self.rounds
    }

    fn describe(&self, cell: usize) -> String {
        let (app, pattern, size) = self.matrix.cell(cell);
        format!("{} {pattern} {size} (cold)", app.name)
    }

    fn warm_ups(&mut self) -> Vec<(usize, Op)> {
        Vec::new()
    }

    fn op(&mut self, cell: usize, layers: Option<&mut Layers>) -> Result<Op, String> {
        let Some(layers) = layers else {
            return self
                .cold_run(cell)
                .map(|(_, outcome)| observe_outcome(outcome));
        };
        let t0 = Instant::now();
        let (engine, outcome) = self.cold_run(cell)?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        record_request(
            layers,
            wall_ms,
            &outcome.latency,
            &CacheStats::default(),
            &engine.cache_stats(),
        );
        Ok(observe_outcome(outcome))
    }

    fn prepare_checks(&mut self) {
        self.references = references(&self.matrix, &self.inputs);
    }

    fn check_first(&self, cell: usize, op: &Op) -> Result<(), String> {
        reference_check(&self.references, cell, op)
    }

    fn redrive(&mut self, cell: usize, layers: &mut Layers) -> Result<Observed, String> {
        let engine = engine();
        let req = self.request(cell);
        let mut kernels = Kernels::Cold {
            engine: &engine,
            compiled: Vec::new(),
        };
        let re = redrive::run_request(&mut kernels, &req, &self.inputs[cell], layers)
            .map_err(|e| e.to_string())?;
        record_blocks(layers, &CacheStats::default(), &engine.cache_stats());
        Ok(observe_redriven(re))
    }
}

/// `fleet`: one `Server::run` of a fixed seeded closed-loop virtual
/// workload (one per cell) on a `ServeConfig::fleet()` server warmed in
/// set-up.
struct Fleet {
    server: Server,
    workloads: Vec<isp_serve::Workload>,
    rounds: Vec<Vec<usize>>,
    warm: Vec<(usize, Op)>,
}

impl Fleet {
    fn new(matrix: &Matrix, seed: u64) -> Self {
        let mix: Vec<Request> = matrix
            .apps
            .iter()
            .flat_map(|app| {
                matrix
                    .patterns
                    .iter()
                    .map(|&p| exhaustive_request(app, p, matrix.sizes[0]))
            })
            .collect();
        let mut rng = SplitMix::new(seed);
        let workloads = (0..matrix.fleet_workloads)
            .map(|_| isp_serve::Workload {
                seed: rng.next_u64(),
                requests: matrix.fleet_requests,
                // Zero think time: every client reissues as soon as its
                // request completes, so the queue fills and batches form.
                arrivals: Arrivals::Closed {
                    clients: 8,
                    think_ms: 0.0,
                },
                mix: mix.clone(),
            })
            .collect();
        let mut w = Fleet {
            server: Server::new(ServeConfig::fleet()),
            workloads,
            rounds: vec![rng.permutation(matrix.fleet_workloads)],
            warm: Vec::new(),
        };
        // The warm-up runs compile and record on both shards; each virtual
        // workload is fixed, so later runs route identically and stay warm.
        for cell in 0..matrix.fleet_workloads {
            if let Ok(op) = w.op(cell, None) {
                w.warm.push((cell, op));
            }
        }
        w
    }
}

/// Σ over dispatch rounds of the slowest batch's shard host time
/// (`plan_wall_ns + exec_wall_ns` of its requests), in ms. Batches of one
/// round share their first request's virtual start time; the server waits
/// for every batch of a round before the next, so this is the shard time
/// on the run's critical path.
fn shard_critical_ms(report: &ServeReport) -> f64 {
    let mut rounds: Vec<(u64, f64)> = Vec::new();
    let mut i = 0;
    while i < report.completed.len() {
        let first = &report.completed[i];
        let batch = &report.completed[i..i + first.batch_size];
        let host_ns: u64 = batch
            .iter()
            .map(|r| r.latency.plan_wall_ns + r.latency.exec_wall_ns)
            .sum();
        match rounds.last_mut() {
            Some((start, worst)) if *start == first.start_ns => *worst = worst.max(host_ns as f64),
            _ => rounds.push((first.start_ns, host_ns as f64)),
        }
        i += first.batch_size;
    }
    rounds.iter().map(|(_, ns)| ns).sum::<f64>() / 1e6
}

fn fleet_cache(server: &Server) -> CacheStats {
    let mut total = CacheStats::default();
    for s in server.shards() {
        let c = s.cache_stats();
        total.trace_replayed += c.trace_replayed;
        total.trace_deopts += c.trace_deopts;
        total.trace_recorded += c.trace_recorded;
        total.guard_batched_replays += c.guard_batched_replays;
        total.trace_cross_launch_hits += c.trace_cross_launch_hits;
    }
    total
}

/// The fleet run's simulated cycles, virtual p50 / p99 / throughput, and
/// request accounting.
fn serve_observed(report: &ServeReport) -> Observed {
    Observed {
        cycles: report.completed.iter().map(|r| r.latency.exec_cycles).sum(),
        warp_instructions: 0,
        counters: None,
        pixels: 0,
        extra: vec![
            report.latency_percentile_ms(50.0).to_bits(),
            report.latency_percentile_ms(99.0).to_bits(),
            report.throughput_rps().to_bits(),
            report.completed.len() as u64,
            report.admitted,
            report.rejected,
            report.batches,
        ],
    }
}

impl Workload for Fleet {
    fn rounds(&self) -> &[Vec<usize>] {
        &self.rounds
    }

    fn describe(&self, cell: usize) -> String {
        let wl = &self.workloads[cell];
        format!("Server::run of {} requests, seed {}", wl.requests, wl.seed)
    }

    fn warm_ups(&mut self) -> Vec<(usize, Op)> {
        std::mem::take(&mut self.warm)
    }

    fn op(&mut self, cell: usize, _layers: Option<&mut Layers>) -> Result<Op, String> {
        let report = self.server.run(&self.workloads[cell]);
        Ok(Op {
            observed: serve_observed(&report),
            image: None,
        })
    }

    fn check_first(&self, cell: usize, op: &Op) -> Result<(), String> {
        let [.., completed, admitted, _rejected, _batches] = op.observed.extra[..] else {
            unreachable!("fleet ops carry seven extra values")
        };
        let issued = self.workloads[cell].requests as u64;
        if completed == issued && admitted == completed {
            Ok(())
        } else {
            Err(format!(
                "{completed} completed and {admitted} admitted of {issued} issued"
            ))
        }
    }

    fn redrive(&mut self, cell: usize, layers: &mut Layers) -> Result<Observed, String> {
        let wl = &self.workloads[cell];
        let before = fleet_cache(&self.server);
        let t0 = Instant::now();
        let report = self.server.run(wl);
        let run_ms = t0.elapsed().as_secs_f64() * 1e3;
        let after = fleet_cache(&self.server);
        let host_ms: f64 = report
            .completed
            .iter()
            .map(|r| (r.latency.plan_wall_ns + r.latency.exec_wall_ns) as f64 / 1e6)
            .sum();
        let critical_ms = shard_critical_ms(&report);
        layers.add("serve.run_ms", run_ms);
        layers.add("serve.shard_host_ms", host_ms);
        layers.add("serve.shard_critical_ms", critical_ms);
        layers.add("serve.loop_ms", run_ms - critical_ms);
        layers.add("serve.batches", report.batches as f64);
        layers.add("serve.requests", report.completed.len() as f64);
        layers.add(
            "serve.trace_xlaunch_hits",
            (after.trace_cross_launch_hits - before.trace_cross_launch_hits) as f64,
        );
        record_blocks(layers, &before, &after);
        // The calls the run made outside the shards' timed host fields,
        // re-timed after it: one prediction per shard per batch (routing,
        // drift) and one generated image per request.
        let mut i = 0;
        while i < report.completed.len() {
            let r = &report.completed[i];
            let head = wl
                .mix
                .iter()
                .find(|q| q.app.name == r.app && q.pattern.to_string() == r.pattern)
                .expect("completed requests come from the mix");
            for shard in self.server.shards() {
                layers.time("exec.predict_ms", || {
                    std::hint::black_box(shard.predict(head))
                });
            }
            i += r.batch_size;
        }
        for r in &report.completed {
            layers.time("image.generate_ms", || {
                std::hint::black_box(bench_image(r.size))
            });
        }
        Ok(serve_observed(&report))
    }
}
