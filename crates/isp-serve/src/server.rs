//! The serving loop: a discrete-event simulation on a virtual u64
//! nanosecond clock. Arrivals (open-loop from a seeded inter-arrival
//! distribution, or closed-loop from a fixed client population with think
//! times) flow through admission -> batching -> model routing -> shard
//! execution. Service time is the *simulated* cycle count of each outcome
//! converted through the owning shard's device clock, so every latency,
//! throughput, and rejection number is bit-stable across runs and
//! machines — while the shards still execute concurrently in wall time:
//! each dispatch round submits batches to every idle shard's worker
//! thread and only then harvests, so heterogeneous shards overlap.

use crate::batch::form_batch;
use crate::dispatch::{route, Routing};
use crate::flight::{FlightConfig, FlightDump, FlightEvent, FlightRecorder};
use crate::queue::{AdmissionQueue, QueuedRequest};
use crate::shard::{Shard, ShardSpec};
use crate::{ms_to_ns, ns_to_cycles, percentile_sorted};
use isp_exec::{CacheStats, Latency, Request};
use isp_probe::{MetricsRegistry, Probe, ProbeHandle, RecordingProbe, TraceGroup};
use isp_sim::DeviceSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Fleet shape and serving policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// One entry per shard.
    pub shards: Vec<ShardSpec>,
    /// How batches are routed to shards.
    pub routing: Routing,
    /// Maximum images per batch (1 disables batching).
    pub max_batch: usize,
    /// How many waiting requests the batcher scans for compatible work.
    pub batch_window: usize,
    /// Admission-queue depth cap (the backpressure knob).
    pub queue_cap: usize,
    /// End-to-end latency SLO in virtual milliseconds. When set, the
    /// server arms its flight recorder: any completion beyond the SLO
    /// counts a breach and freezes the recent-event ring into a dump.
    pub slo_ms: Option<f64>,
    /// Flight-recorder ring capacity (events buffered before a breach).
    pub flight_capacity: usize,
    /// Maximum flight dumps retained across one server's lifetime.
    pub flight_max_dumps: usize,
}

impl ServeConfig {
    /// Split the host's thread budget evenly over `n` shards.
    fn caps(n: usize) -> usize {
        (rayon::threads() / n.max(1)).max(1)
    }

    /// The heterogeneous fleet the paper's device table suggests: one
    /// Kepler and one Turing shard, Eq. 1-10 model routing, batching on.
    pub fn fleet() -> Self {
        let devices = [DeviceSpec::gtx680(), DeviceSpec::rtx2080()];
        let cap = Self::caps(devices.len());
        ServeConfig {
            shards: devices
                .into_iter()
                .map(|device| ShardSpec {
                    device,
                    worker_cap: cap,
                })
                .collect(),
            routing: Routing::Model,
            max_batch: 8,
            batch_window: 32,
            queue_cap: 64,
            slo_ms: None,
            flight_capacity: 256,
            flight_max_dumps: 4,
        }
    }

    /// The baseline the fleet must beat: a single Turing shard, FIFO
    /// dispatch, no batching.
    pub fn baseline() -> Self {
        ServeConfig {
            shards: vec![ShardSpec {
                device: DeviceSpec::rtx2080(),
                worker_cap: Self::caps(1),
            }],
            routing: Routing::Fixed,
            max_batch: 1,
            batch_window: 1,
            queue_cap: 64,
            slo_ms: None,
            flight_capacity: 256,
            flight_max_dumps: 4,
        }
    }

    /// Override the admission cap.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "queue cap must admit at least one request");
        self.queue_cap = cap;
        self
    }

    /// Arm the flight recorder with an end-to-end latency SLO (virtual
    /// milliseconds).
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        assert!(slo_ms > 0.0, "SLO must be positive");
        self.slo_ms = Some(slo_ms);
        self
    }
}

/// Arrival process of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Open loop: requests arrive at `rate_rps` regardless of completions
    /// (exponential inter-arrivals when `exponential`, else uniform in
    /// `(0, 2/rate)`). Overload shows up as deterministic rejections.
    Open { rate_rps: f64, exponential: bool },
    /// Closed loop: `clients` concurrent clients, each thinking for
    /// `think_ms` (virtual) between completion and its next request.
    Closed { clients: usize, think_ms: f64 },
}

/// A reproducible request stream.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Seed for every arrival-time and mix draw.
    pub seed: u64,
    /// Total requests to issue.
    pub requests: usize,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Request templates, drawn uniformly per arrival.
    pub mix: Vec<Request>,
}

/// One completed request in the report.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Dense request id in admission order.
    pub id: u64,
    /// Issuing closed-loop client, if any.
    pub client: Option<usize>,
    /// App name.
    pub app: String,
    /// Border pattern (display form).
    pub pattern: String,
    /// Image size.
    pub size: usize,
    /// Policy (debug form).
    pub policy: String,
    /// Shard index that executed the request.
    pub shard: usize,
    /// Size of the batch it rode in.
    pub batch_size: usize,
    /// Virtual arrival time.
    pub arrival_ns: u64,
    /// Virtual execution start (dispatch plus in-batch predecessors).
    pub start_ns: u64,
    /// Virtual completion time.
    pub done_ns: u64,
    /// The outcome's latency attribution, with `queue_cycles` filled in
    /// from the virtual queue wait on the executing shard's clock.
    pub latency: Latency,
}

impl RequestRecord {
    /// End-to-end virtual latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.arrival_ns) as f64 / 1.0e6
    }

    /// Virtual queue wait (admission to execution start) in milliseconds.
    pub fn queue_ms(&self) -> f64 {
        (self.start_ns - self.arrival_ns) as f64 / 1.0e6
    }

    /// Virtual execution time in milliseconds.
    pub fn exec_ms(&self) -> f64 {
        (self.done_ns - self.start_ns) as f64 / 1.0e6
    }
}

/// Per-shard totals for the report.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard display name (`shard<i>:<DEVICE>`).
    pub name: String,
    /// Device marketing name.
    pub device: String,
    /// Batches executed.
    pub batches: u64,
    /// Images executed.
    pub images: u64,
    /// Virtual nanoseconds spent executing.
    pub busy_ns: u64,
    /// The shard engine's cache counters (cumulative over the server's
    /// lifetime, including warmup runs).
    pub cache: CacheStats,
}

/// Everything one [`Server::run`] produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Completed requests in completion order.
    pub completed: Vec<RequestRecord>,
    /// Requests admitted by the queue.
    pub admitted: u64,
    /// Requests rejected at admission (open loop) or deferred to a retry
    /// (closed loop).
    pub rejected: u64,
    /// High-water mark of the admission queue.
    pub max_queue_depth: usize,
    /// Virtual time of the last completion.
    pub makespan_ns: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Completions whose end-to-end latency breached the configured SLO
    /// (zero when no SLO is set).
    pub slo_breaches: u64,
    /// Per-shard totals.
    pub shards: Vec<ShardReport>,
    /// End-to-end latencies sorted ascending, computed once at report
    /// construction so every percentile lookup is O(1).
    sorted_latencies_ms: Vec<f64>,
}

impl ServeReport {
    /// Completed requests per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.completed.len() as f64 / (self.makespan_ns as f64 / 1.0e9)
    }

    /// End-to-end virtual latencies, milliseconds, completion order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.completed.iter().map(|r| r.latency_ms()).collect()
    }

    /// End-to-end virtual latencies sorted ascending (cached at report
    /// construction).
    pub fn sorted_latencies_ms(&self) -> &[f64] {
        &self.sorted_latencies_ms
    }

    /// Nearest-rank latency percentile in milliseconds. Reads the sorted
    /// sample cached at construction — repeated lookups (dashboards walk
    /// p50/p90/p95/p99 on every refresh) no longer re-collect and re-sort
    /// the whole completion log per call.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted_latencies_ms, p)
    }

    /// Mean images per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.completed.len() as f64 / self.batches as f64
    }
}

#[derive(Debug)]
enum EventKind {
    Arrival(QueuedRequest),
    ShardFree(usize),
}

#[derive(Debug)]
struct Event {
    t: u64,
    seq: u64,
    kind: EventKind,
}

impl Event {
    fn order(&self) -> (u64, u64) {
        (self.t, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order().cmp(&other.order())
    }
}

struct ClientState {
    rng: StdRng,
    think_ns_mean: f64,
}

impl ClientState {
    fn think_ns(&mut self) -> u64 {
        // Uniform in (0, 2*mean): bounded, mean-preserving, seeded.
        let u: f64 = self.rng.gen();
        (u * 2.0 * self.think_ns_mean).round() as u64
    }
}

/// The serving system: shards plus the server's own probe (queue lanes)
/// and flight recorder.
pub struct Server {
    cfg: ServeConfig,
    shards: Vec<Shard>,
    probe: Arc<RecordingProbe>,
    handle: ProbeHandle,
    flight: FlightRecorder,
}

impl Server {
    /// Build the fleet described by `cfg` (spawns one worker thread per
    /// shard).
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(!cfg.shards.is_empty(), "a server needs at least one shard");
        let shards: Vec<Shard> = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(i, spec)| Shard::new(i, spec))
            .collect();
        let probe = Arc::new(RecordingProbe::new());
        let handle = ProbeHandle::new(Arc::clone(&probe) as Arc<dyn Probe>);
        let flight = FlightRecorder::new(FlightConfig {
            capacity: cfg.flight_capacity,
            slo_ms: cfg.slo_ms,
            max_dumps: cfg.flight_max_dumps,
        });
        Server {
            cfg,
            shards,
            probe,
            handle,
            flight,
        }
    }

    /// Re-arm (or disarm with `None`) the flight recorder's SLO without
    /// rebuilding the fleet — lets a caller calibrate the threshold from a
    /// first run and replay the same workload against warm caches.
    pub fn set_slo_ms(&mut self, slo_ms: Option<f64>) {
        self.cfg.slo_ms = slo_ms;
        self.flight = FlightRecorder::new(FlightConfig {
            capacity: self.cfg.flight_capacity,
            slo_ms,
            max_dumps: self.cfg.flight_max_dumps,
        });
    }

    /// Flight dumps captured so far (SLO breaches, oldest first).
    pub fn flight_dumps(&self) -> &[FlightDump] {
        self.flight.dumps()
    }

    /// The running shards (for cache stats and trace export).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The server's probe groups plus one group per shard and one per
    /// retained flight dump — feed to [`isp_probe::chrome_trace_groups`]
    /// for the one-process-per-shard timeline with breach windows
    /// alongside.
    pub fn trace_groups(&self) -> Vec<TraceGroup> {
        let mut groups = vec![self.probe.trace_group("server")];
        groups.extend(self.shards.iter().map(|s| s.trace_group()));
        groups.extend(self.flight.dumps().iter().map(|d| d.trace_group()));
        groups
    }

    /// The fleet-wide metrics snapshot: the server probe's registry (queue
    /// depth gauge, admission/batch counters, stage and drift histograms)
    /// merged with every shard probe's registry (launch/block/deopt
    /// counters aggregate across shards; histograms merge bucket-wise) and
    /// every shard engine's [`CacheStats`] exported under
    /// `shard.<name>.cache.*`.
    ///
    /// The host-clock `span_us.*` histograms are stripped from both the
    /// server and shard registries so the snapshot is deterministic: every
    /// remaining number derives from the virtual clock or simulated
    /// counters. Wall-clock span timing lives in the Perfetto export
    /// ([`Server::trace_groups`]) instead; the `span.<name>.count`
    /// counters stay (span *counts* are deterministic).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut registry = self.probe.metrics();
        registry.remove_prefix("span_us.");
        for shard in &self.shards {
            let mut m = shard.metrics();
            m.remove_prefix("span_us.");
            registry.merge(&m);
            shard
                .cache_stats()
                .export(&mut registry, &format!("shard.{}.cache", shard.name));
        }
        registry.set_counter("serve.slo_breaches", self.flight.breaches());
        if let Some(slo_ms) = self.flight.slo_ms() {
            registry.set_gauge("serve.slo_ms", slo_ms);
        }
        registry
    }

    /// [`Server::metrics`] rendered as the deterministic JSON snapshot
    /// (`{counters, gauges, histograms}`, keys sorted).
    pub fn metrics_json(&self) -> isp_json::Json {
        self.metrics().to_json()
    }

    /// [`Server::metrics`] rendered in the Prometheus text exposition
    /// format (counters, gauges, and histograms as quantile summaries).
    pub fn prometheus(&self) -> String {
        self.metrics().render_prometheus()
    }

    /// Drive one workload to completion and report. Deterministic: the
    /// same config and workload produce an identical report on every run
    /// and machine. Engine caches stay warm across calls (a second run of
    /// the same mix replays traces from block 0).
    pub fn run(&mut self, wl: &Workload) -> ServeReport {
        assert!(!wl.mix.is_empty(), "workload needs at least one template");
        for shard in &mut self.shards {
            shard.busy = false;
            shard.free_at_ns = 0;
            shard.batches = 0;
            shard.images = 0;
            shard.busy_ns = 0;
        }
        let breaches_before = self.flight.breaches();
        // Pre-render per-shard histogram keys so the per-completion
        // recording path never formats when it doesn't have to.
        let shard_exec_keys: Vec<String> = self
            .shards
            .iter()
            .map(|s| format!("serve.shard.{}.exec_ms", s.name))
            .collect();
        let shard_e2e_keys: Vec<String> = self
            .shards
            .iter()
            .map(|s| format!("serve.shard.{}.e2e_ms", s.name))
            .collect();
        let mut queue = AdmissionQueue::new(self.cfg.queue_cap);
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<Reverse<Event>>, t: u64, kind: EventKind| {
            heap.push(Reverse(Event { t, seq, kind }));
            seq += 1;
        };

        let mut issued = 0u64;
        let mut next_id = 0u64;
        let mut clients: Vec<ClientState> = Vec::new();
        match wl.arrivals {
            Arrivals::Open {
                rate_rps,
                exponential,
            } => {
                assert!(rate_rps > 0.0, "open-loop rate must be positive");
                let mut rng = StdRng::seed_from_u64(wl.seed);
                let mean_ns = 1.0e9 / rate_rps;
                let mut t = 0u64;
                for _ in 0..wl.requests {
                    let u: f64 = rng.gen();
                    let gap = if exponential {
                        -(1.0 - u).ln() * mean_ns
                    } else {
                        u * 2.0 * mean_ns
                    };
                    t += gap.round() as u64;
                    let request = wl.mix[rng.gen_range(0..wl.mix.len())].clone();
                    push(
                        &mut heap,
                        t,
                        EventKind::Arrival(QueuedRequest {
                            id: next_id,
                            client: None,
                            request,
                            arrival_ns: t,
                        }),
                    );
                    next_id += 1;
                    issued += 1;
                }
            }
            Arrivals::Closed {
                clients: n,
                think_ms,
            } => {
                assert!(n > 0, "closed loop needs at least one client");
                for c in 0..n {
                    let mut state = ClientState {
                        rng: StdRng::seed_from_u64(
                            wl.seed
                                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1)),
                        ),
                        think_ns_mean: think_ms * 1.0e6,
                    };
                    if issued < wl.requests as u64 {
                        let t = state.think_ns();
                        let request = wl.mix[state.rng.gen_range(0..wl.mix.len())].clone();
                        push(
                            &mut heap,
                            t,
                            EventKind::Arrival(QueuedRequest {
                                id: next_id,
                                client: Some(c),
                                request,
                                arrival_ns: t,
                            }),
                        );
                        next_id += 1;
                        issued += 1;
                    }
                    clients.push(state);
                }
            }
        }

        let mut completed: Vec<RequestRecord> = Vec::new();
        let mut batches = 0u64;
        let mut makespan_ns = 0u64;

        while let Some(Reverse(ev)) = heap.pop() {
            let now = ev.t;
            match ev.kind {
                EventKind::Arrival(qreq) => {
                    self.handle.instant(
                        "enqueue",
                        "serve",
                        Some(format!("req{} t={}ns", qreq.id, now)),
                    );
                    let id = qreq.id;
                    let client = qreq.client;
                    let request = qreq.request.clone();
                    if self.flight.enabled() {
                        self.flight.record(FlightEvent {
                            t_ns: now,
                            dur_ns: 0,
                            kind: "arrival",
                            request: id,
                            shard: None,
                            detail: String::new(),
                        });
                    }
                    if queue.offer(qreq) {
                        self.handle.count("serve.admitted", 1);
                        self.handle.instant("admit", "serve", None);
                        self.handle
                            .observe("serve.queue_depth", queue.depth() as f64);
                        self.handle.gauge("serve.queue_depth", queue.depth() as f64);
                        if self.flight.enabled() {
                            self.flight.record(FlightEvent {
                                t_ns: now,
                                dur_ns: 0,
                                kind: "admit",
                                request: id,
                                shard: None,
                                detail: format!("depth {}", queue.depth()),
                            });
                        }
                    } else {
                        self.handle.count("serve.rejected", 1);
                        self.handle.instant("reject", "serve", None);
                        if self.flight.enabled() {
                            self.flight.record(FlightEvent {
                                t_ns: now,
                                dur_ns: 0,
                                kind: "reject",
                                request: id,
                                shard: None,
                                detail: format!("queue full at {}", queue.cap()),
                            });
                        }
                        if let Some(c) = client {
                            // Closed-loop backpressure: the client retries
                            // after another think period.
                            self.handle.count("serve.retries", 1);
                            let retry = now + clients[c].think_ns();
                            push(
                                &mut heap,
                                retry,
                                EventKind::Arrival(QueuedRequest {
                                    id: next_id,
                                    client: Some(c),
                                    request,
                                    arrival_ns: retry,
                                }),
                            );
                            next_id += 1;
                        }
                    }
                }
                EventKind::ShardFree(i) => {
                    self.shards[i].busy = false;
                }
            }

            // Dispatch round: fill every idle shard, then harvest them all
            // before advancing the clock. The submits fan out to worker
            // threads, so heterogeneous shards execute concurrently in
            // wall time while virtual time stays deterministic.
            let mut submitted: Vec<(usize, Vec<QueuedRequest>)> = Vec::new();
            loop {
                let idle: Vec<usize> = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.busy)
                    .map(|(i, _)| i)
                    .collect();
                if idle.is_empty() || queue.is_empty() {
                    break;
                }
                // Balance the round: never let one batch swallow work that
                // could keep another idle shard busy.
                let fair = queue.depth().div_ceil(idle.len()).max(1);
                let t0 = self.handle.begin();
                let batch = form_batch(
                    &mut queue,
                    self.cfg.max_batch.min(fair),
                    self.cfg.batch_window,
                );
                self.handle.span("batch-form", "serve", t0, || {
                    Some(format!("{} images", batch.len()))
                });
                if batch.is_empty() {
                    break;
                }
                let t1 = self.handle.begin();
                let shard = route(
                    self.cfg.routing,
                    &self.shards,
                    &idle,
                    &batch[0].request,
                    batch.len(),
                );
                self.shards[shard].busy = true;
                self.shards[shard].submit(batch.iter().map(|q| q.request.clone()).collect());
                self.handle.span("dispatch", "serve", t1, || {
                    Some(format!(
                        "batch of {} -> {}",
                        batch.len(),
                        self.shards[shard].name
                    ))
                });
                self.handle.count("serve.batches", 1);
                self.handle.observe("serve.batch_size", batch.len() as f64);
                if self.flight.enabled() {
                    self.flight.record(FlightEvent {
                        t_ns: now,
                        dur_ns: 0,
                        kind: "dispatch",
                        request: batch[0].id,
                        shard: Some(shard),
                        detail: format!("batch of {} -> {}", batch.len(), self.shards[shard].name),
                    });
                }
                submitted.push((shard, batch));
            }

            for (i, batch) in submitted {
                let outcomes = self.shards[i].recv().expect("workload requests are valid");
                let ghz = self.shards[i].device.clock_ghz;
                // One Eq. 1-10 evaluation serves the whole batch (batch
                // mates share the compat key, hence the prediction); the
                // residuals against measured cycles and per-region counters
                // are the online drift signal.
                let prediction = if self.handle.is_enabled() {
                    Some(self.shards[i].predict(&batch[0].request))
                } else {
                    None
                };
                let dev = &self.shards[i].device.name;
                let mut t_done = now;
                let n = batch.len();
                for (qreq, mut outcome) in batch.into_iter().zip(outcomes) {
                    let start_ns = t_done;
                    let service_ns =
                        ms_to_ns(self.shards[i].device.cycles_to_ms(outcome.total_cycles));
                    t_done += service_ns;
                    outcome.latency.queue_cycles = ns_to_cycles(start_ns - qreq.arrival_ns, ghz);
                    let queue_ms = (start_ns - qreq.arrival_ns) as f64 / 1.0e6;
                    let exec_ms = service_ns as f64 / 1.0e6;
                    let e2e_ms = (t_done - qreq.arrival_ns) as f64 / 1.0e6;
                    self.handle.observe("serve.queue_wait_ms", queue_ms);
                    self.handle.observe("serve.exec_ms", exec_ms);
                    self.handle.observe("serve.e2e_ms", e2e_ms);
                    self.handle.observe(&shard_exec_keys[i], exec_ms);
                    self.handle.observe(&shard_e2e_keys[i], e2e_ms);
                    if let Some(prediction) = &prediction {
                        let est = prediction.est_cycles as f64;
                        if est > 0.0 {
                            let r = (outcome.total_cycles as f64 - est) / est;
                            self.handle
                                .observe(&format!("drift.{dev}.cycles.residual"), r);
                            self.handle
                                .observe(&format!("drift.{dev}.cycles.abs_residual"), r.abs());
                        }
                        for (region, counters) in &outcome.per_region {
                            let predicted = prediction.region_cost[region.index()];
                            let measured = counters.warp_instructions as f64;
                            if predicted > 0.0 && measured > 0.0 {
                                let r = (measured - predicted) / predicted;
                                let reg = region.name();
                                self.handle
                                    .observe(&format!("drift.{dev}.region.{reg}.residual"), r);
                                self.handle.observe(
                                    &format!("drift.{dev}.region.{reg}.abs_residual"),
                                    r.abs(),
                                );
                            }
                        }
                    }
                    self.handle.instant(
                        "complete",
                        "serve",
                        Some(format!("req{} done t={}ns", qreq.id, t_done)),
                    );
                    self.handle.count("serve.completed", 1);
                    if self.flight.enabled() {
                        self.flight.record(FlightEvent {
                            t_ns: start_ns,
                            dur_ns: service_ns,
                            kind: "execute",
                            request: qreq.id,
                            shard: Some(i),
                            detail: format!("batch of {n}"),
                        });
                        self.flight.record(FlightEvent {
                            t_ns: t_done,
                            dur_ns: 0,
                            kind: "complete",
                            request: qreq.id,
                            shard: Some(i),
                            detail: format!(
                                "e2e {e2e_ms:.3}ms = queue {queue_ms:.3}ms + exec {exec_ms:.3}ms"
                            ),
                        });
                        self.flight.complete(qreq.id, e2e_ms, t_done);
                    }
                    makespan_ns = makespan_ns.max(t_done);
                    if let Some(c) = qreq.client {
                        if issued < wl.requests as u64 {
                            let next_t = t_done + clients[c].think_ns();
                            let request = wl.mix[clients[c].rng.gen_range(0..wl.mix.len())].clone();
                            push(
                                &mut heap,
                                next_t,
                                EventKind::Arrival(QueuedRequest {
                                    id: next_id,
                                    client: Some(c),
                                    request,
                                    arrival_ns: next_t,
                                }),
                            );
                            next_id += 1;
                            issued += 1;
                        }
                    }
                    completed.push(RequestRecord {
                        id: qreq.id,
                        client: qreq.client,
                        app: qreq.request.app.name.to_string(),
                        pattern: qreq.request.pattern.to_string(),
                        size: qreq.request.size,
                        policy: format!("{:?}", qreq.request.policy),
                        shard: i,
                        batch_size: n,
                        arrival_ns: qreq.arrival_ns,
                        start_ns,
                        done_ns: t_done,
                        latency: outcome.latency,
                    });
                }
                self.shards[i].free_at_ns = t_done;
                self.shards[i].batches += 1;
                self.shards[i].images += n as u64;
                self.shards[i].busy_ns += t_done - now;
                batches += 1;
                push(&mut heap, t_done, EventKind::ShardFree(i));
            }
        }

        let mut sorted_latencies_ms: Vec<f64> = completed.iter().map(|r| r.latency_ms()).collect();
        sorted_latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        ServeReport {
            completed,
            admitted: queue.admitted(),
            rejected: queue.rejected(),
            max_queue_depth: queue.max_depth(),
            makespan_ns,
            batches,
            slo_breaches: self.flight.breaches() - breaches_before,
            shards: self
                .shards
                .iter()
                .map(|s| ShardReport {
                    name: s.name.clone(),
                    device: s.device.name.to_string(),
                    batches: s.batches,
                    images: s.images,
                    busy_ns: s.busy_ns,
                    cache: s.cache_stats(),
                })
                .collect(),
            sorted_latencies_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isp_core::Variant;
    use isp_dsl::pipeline::Policy;
    use isp_filters::by_name;
    use isp_image::BorderPattern;

    fn tiny_mix() -> Vec<Request> {
        vec![
            Request::paper(
                by_name("gaussian").unwrap(),
                BorderPattern::Clamp,
                64,
                Policy::Model(Variant::IspBlock),
            ),
            Request::paper(
                by_name("laplace").unwrap(),
                BorderPattern::Mirror,
                64,
                Policy::Model(Variant::IspBlock),
            ),
        ]
    }

    type Summary = (usize, u64, u64, u64, Vec<(u64, u64, u64)>);

    fn summarize(r: &ServeReport) -> Summary {
        (
            r.completed.len(),
            r.rejected,
            r.makespan_ns,
            r.batches,
            r.completed
                .iter()
                .map(|c| (c.id, c.start_ns, c.done_ns))
                .collect(),
        )
    }

    #[test]
    fn closed_loop_completes_and_is_deterministic() {
        let wl = Workload {
            seed: 7,
            requests: 12,
            arrivals: Arrivals::Closed {
                clients: 3,
                think_ms: 0.5,
            },
            mix: tiny_mix(),
        };
        let a = Server::new(ServeConfig::fleet()).run(&wl);
        let b = Server::new(ServeConfig::fleet()).run(&wl);
        assert_eq!(a.completed.len(), 12);
        assert_eq!(summarize(&a), summarize(&b));
        assert!(a.makespan_ns > 0);
        assert_eq!(a.shards.iter().map(|s| s.images).sum::<u64>(), 12);
    }

    #[test]
    fn open_loop_rejects_deterministically_under_burst() {
        // A rate far above service capacity with a tiny queue: admission
        // must bound the depth and the reject count must be exact.
        let wl = Workload {
            seed: 11,
            requests: 24,
            arrivals: Arrivals::Open {
                rate_rps: 1.0e6,
                exponential: true,
            },
            mix: tiny_mix(),
        };
        let cfg = || ServeConfig::baseline().with_queue_cap(4);
        let a = Server::new(cfg()).run(&wl);
        let b = Server::new(cfg()).run(&wl);
        assert_eq!(summarize(&a), summarize(&b));
        assert!(a.rejected > 0, "burst must overflow the tiny queue");
        assert!(a.max_queue_depth <= 4);
        assert_eq!(a.admitted + a.rejected, 24);
        assert_eq!(a.completed.len() as u64, a.admitted);
    }

    #[test]
    fn slo_breaches_freeze_flight_dumps() {
        let wl = Workload {
            seed: 7,
            requests: 12,
            arrivals: Arrivals::Closed {
                clients: 3,
                think_ms: 0.5,
            },
            mix: tiny_mix(),
        };
        // An SLO below the best achievable latency: every completion
        // breaches, deterministically.
        let mut server = Server::new(ServeConfig::fleet().with_slo_ms(1.0e-6));
        let report = server.run(&wl);
        assert_eq!(report.slo_breaches, 12, "every completion breaches");
        let dumps = server.flight_dumps();
        assert_eq!(dumps.len(), 4, "retention capped at flight_max_dumps");
        assert!(!dumps[0].events.is_empty());
        let group = dumps[0].trace_group();
        assert!(group.name.starts_with("flight:req"));
        // The breach counter and SLO gauge surface in the snapshot.
        let metrics = server.metrics();
        assert_eq!(metrics.counter("serve.slo_breaches"), 12);
        assert_eq!(metrics.gauge("serve.slo_ms"), Some(1.0e-6));
        // Without an SLO the recorder stays cold.
        let quiet = Server::new(ServeConfig::fleet()).run(&wl);
        assert_eq!(quiet.slo_breaches, 0);
    }

    #[test]
    fn report_percentiles_read_the_cached_sorted_sample() {
        let wl = Workload {
            seed: 7,
            requests: 12,
            arrivals: Arrivals::Closed {
                clients: 3,
                think_ms: 0.5,
            },
            mix: tiny_mix(),
        };
        let report = Server::new(ServeConfig::fleet()).run(&wl);
        let mut sorted = report.latencies_ms();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(report.sorted_latencies_ms(), &sorted[..]);
        for p in [50.0, 90.0, 95.0, 99.0] {
            assert_eq!(
                report.latency_percentile_ms(p),
                crate::percentile(&report.latencies_ms(), p),
                "cached-sorted path must equal the sort-per-call path at p{p}"
            );
        }
    }

    #[test]
    fn batching_folds_compatible_requests() {
        // Single-template closed-loop traffic with many clients: the
        // fleet config (max_batch 8) must form multi-image batches.
        let wl = Workload {
            seed: 3,
            requests: 16,
            arrivals: Arrivals::Closed {
                clients: 8,
                think_ms: 0.01,
            },
            // Exhaustive mode so replay traces are recorded and reused.
            mix: vec![tiny_mix().remove(0).exhaustive()],
        };
        let report = Server::new(ServeConfig::fleet()).run(&wl);
        assert_eq!(report.completed.len(), 16);
        assert!(
            report.mean_batch_size() > 1.0,
            "expected batching, got mean {}",
            report.mean_batch_size()
        );
        let xlaunch: u64 = report
            .shards
            .iter()
            .map(|s| s.cache.trace_cross_launch_hits)
            .sum();
        assert!(xlaunch > 0, "batch mates must replay cross-launch traces");
    }
}
