//! Engine shards: one per simulated device, each owning its own
//! [`Engine`] (with warm kernel/plan/decode/trace caches), its own
//! [`RecordingProbe`] (so the exported Chrome trace shows one process per
//! shard), and a persistent worker thread. The worker runs every batch
//! under `rayon::with_worker_cap(cap, ..)` so the shards split the host's
//! threads instead of oversubscribing each other — shard-level wall-clock
//! parallelism composes with the engine's intra-launch parallelism.

use isp_exec::{CacheStats, Engine, Outcome, Prediction, Request};
use isp_probe::{ProbeHandle, RecordingProbe, TraceGroup};
use isp_sim::{DeviceSpec, SimError};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Blueprint for one shard of the fleet.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The simulated device this shard's engine models.
    pub device: DeviceSpec,
    /// Thread budget for this shard's launches (its `with_worker_cap`).
    pub worker_cap: usize,
}

/// A running shard: engine + probe + worker thread, plus the virtual-time
/// bookkeeping the server's event loop maintains.
pub struct Shard {
    /// Display name, `shard<i>:<DEVICE>`.
    pub name: String,
    /// The shard's device (copied from the spec for cheap access).
    pub device: DeviceSpec,
    /// Virtual time at which the shard finishes its current batch
    /// (meaningful while `busy`).
    pub free_at_ns: u64,
    /// Whether a batch is currently dispatched to the worker.
    pub busy: bool,
    /// Batches executed so far.
    pub batches: u64,
    /// Images executed so far.
    pub images: u64,
    /// Total virtual nanoseconds spent executing batches.
    pub busy_ns: u64,
    engine: Arc<Engine>,
    probe: Arc<RecordingProbe>,
    job_tx: mpsc::Sender<Vec<Request>>,
    done_rx: mpsc::Receiver<Result<Vec<Outcome>, SimError>>,
    worker: Option<JoinHandle<()>>,
}

impl Shard {
    /// Spin up shard `index` per `spec`: a fresh engine wired to a fresh
    /// recording probe, and a worker thread waiting for batches.
    pub fn new(index: usize, spec: &ShardSpec) -> Self {
        let probe = Arc::new(RecordingProbe::new());
        let handle = ProbeHandle::new(Arc::clone(&probe) as Arc<dyn isp_probe::Probe>);
        let engine = Arc::new(Engine::new(spec.device.clone()).with_probe(handle));
        let (job_tx, job_rx) = mpsc::channel::<Vec<Request>>();
        let (done_tx, done_rx) = mpsc::channel();
        let worker_engine = Arc::clone(&engine);
        let cap = spec.worker_cap.max(1);
        let worker = std::thread::spawn(move || {
            while let Ok(reqs) = job_rx.recv() {
                let result = rayon::with_worker_cap(cap, || worker_engine.run_batch(&reqs));
                if done_tx.send(result).is_err() {
                    break;
                }
            }
        });
        Shard {
            name: format!("shard{index}:{}", spec.device.name),
            device: spec.device.clone(),
            free_at_ns: 0,
            busy: false,
            batches: 0,
            images: 0,
            busy_ns: 0,
            engine,
            probe,
            job_tx,
            done_rx,
            worker: Some(worker),
        }
    }

    /// Hand a batch to the worker thread (non-blocking). Collect the
    /// outcomes later with [`Shard::recv`]; exactly one `recv` per
    /// `submit`.
    pub fn submit(&self, reqs: Vec<Request>) {
        self.job_tx.send(reqs).expect("shard worker is alive");
    }

    /// Block until the worker finishes the batch submitted last.
    pub fn recv(&self) -> Result<Vec<Outcome>, SimError> {
        self.done_rx.recv().expect("shard worker is alive")
    }

    /// Evaluate the Eq. 1-10 cost model for `req` on this shard's device
    /// (cached compile; no execution).
    pub fn predict(&self, req: &Request) -> Prediction {
        self.engine.predict(req)
    }

    /// The shard engine's cache counters (kernel/plan/decode/trace,
    /// including cross-launch trace hits).
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Everything this shard's probe recorded, as one named group of the
    /// multi-process Chrome trace.
    pub fn trace_group(&self) -> TraceGroup {
        self.probe.trace_group(self.name.clone())
    }

    /// The shard's probe metrics registry.
    pub fn metrics_json(&self) -> isp_json::Json {
        self.probe.metrics_json()
    }

    /// A snapshot of the shard probe's metrics registry (counters, gauges,
    /// streaming histograms) for cross-shard merging.
    pub fn metrics(&self) -> isp_probe::MetricsRegistry {
        self.probe.metrics()
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Closing the job channel ends the worker loop.
        let (tx, _rx) = mpsc::channel();
        drop(std::mem::replace(&mut self.job_tx, tx));
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("name", &self.name)
            .field("busy", &self.busy)
            .field("batches", &self.batches)
            .field("images", &self.images)
            .finish()
    }
}
