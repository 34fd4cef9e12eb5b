//! Persistent on-disk artifact cache: compiled replay traces serialized
//! through `isp-json`, so a fresh process (or a newly spawned `isp-serve`
//! shard) replays from the first block of its first launch instead of
//! paying record + classify + compile from zero. Decoded kernels are not
//! persisted: decoding is a small share of a cold op, so a warm process
//! decodes each kernel once and finalizes the loaded traces against it.
//!
//! # Layout and keying
//!
//! All files live under `<root>/v<CACHE_FORMAT_VERSION>/`, where `<root>`
//! is the directory handed to [`DiskCache::at`]. Bumping
//! [`CACHE_FORMAT_VERSION`] therefore orphans old files wholesale — no
//! migration logic, stale versions are simply never read again.
//!
//! **Trace files** `t-<file_id>.json` hold every recorded class trace for
//! one launch key, where `file_id` hashes (kernel fingerprint, device
//! fingerprint, grid, block, scalar param bits) — everything a recorded
//! trace pins. Buffer contents are deliberately absent from the key:
//! replay guards re-validate every access and deopt on divergence, so
//! reuse is bit-exact by construction. Any other file in the directory
//! (such as the `k-*.json` kernel files older builds wrote) is never read.
//!
//! Every key component is also stored *verbatim inside* the file and
//! re-checked on load; a mismatch (hash collision, renamed file) counts as
//! **stale**. A version mismatch is also **stale**. Anything that fails to
//! parse or validate structurally counts as **corrupt**. Both outcomes fall
//! back to a clean recompile — a bad cache can cost time, never
//! correctness. Writes go through a temp file + rename so readers never
//! observe a half-written artifact, and all I/O errors are swallowed: the
//! cache is strictly best-effort.

use crate::decode::DecodedKernel;
use crate::device::DeviceSpec;
use crate::interp::WARP;
use crate::launch::{LaunchConfig, ParamValue};
use crate::trace::{trace_from_json, trace_to_json, Trace};
use isp_json::Json;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// On-disk format version. Part of the directory name: bumping it
/// invalidates every previously written artifact at once.
pub const CACHE_FORMAT_VERSION: u64 = 1;

/// Disk-cache traffic counters (shared across the owning `Gpu`'s clone
/// family, like every other cache statistic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Artifacts loaded and validated from disk.
    pub hits: u64,
    /// Lookups that found no file (cold cache).
    pub misses: u64,
    /// Files whose format version or embedded key did not match.
    pub stale: u64,
    /// Files that failed to parse or validate structurally.
    pub corrupt: u64,
    /// Artifacts written (or rewritten) to disk.
    pub stores: u64,
}

/// One disk-load outcome, mirroring which [`DiskCacheStats`] counter it
/// bumped — callers use it to emit the matching probe event.
pub(crate) enum DiskLoad<T> {
    Hit(T),
    Miss,
    Stale,
    Corrupt,
}

impl<T> DiskLoad<T> {
    /// Stable counter-style name of the outcome.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DiskLoad::Hit(_) => "hit",
            DiskLoad::Miss => "miss",
            DiskLoad::Stale => "stale",
            DiskLoad::Corrupt => "corrupt",
        }
    }
}

/// Fingerprint of a device spec: every field participates (the spec derives
/// `Debug` exhaustively), so any device difference invalidates artifacts
/// whose baked costs could differ.
pub fn fingerprint_device(spec: &DeviceSpec) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(format!("{spec:?}").as_bytes());
    h.finish()
}

/// The full identity of one trace file, stored verbatim in its header and
/// re-validated on load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceFileKey {
    pub kernel_fp: u64,
    pub device_fp: u64,
    pub grid: (u32, u32),
    pub block: (u32, u32),
    /// `(tag, bits)` per scalar param: tag 0 = i32, 1 = f32 (bitwise, so
    /// `-0.0` vs `0.0` and NaN payloads key distinctly).
    pub params: Vec<(u8, u32)>,
}

impl TraceFileKey {
    pub(crate) fn new(
        kernel_fp: u64,
        device: &DeviceSpec,
        cfg: LaunchConfig,
        params: &[ParamValue],
    ) -> TraceFileKey {
        TraceFileKey {
            kernel_fp,
            device_fp: fingerprint_device(device),
            grid: cfg.grid,
            block: cfg.block,
            params: params
                .iter()
                .map(|p| match p {
                    ParamValue::I32(v) => (0u8, *v as u32),
                    ParamValue::F32(v) => (1u8, v.to_bits()),
                })
                .collect(),
        }
    }

    /// Hash naming the file on disk (all components; collisions are caught
    /// by the verbatim header check).
    fn file_id(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.kernel_fp.hash(&mut h);
        self.device_fp.hash(&mut h);
        self.grid.hash(&mut h);
        self.block.hash(&mut h);
        self.params.hash(&mut h);
        h.finish()
    }

    fn header(&self) -> Json {
        Json::obj()
            .set("kernel_fp", self.kernel_fp)
            .set("device_fp", self.device_fp)
            .set(
                "grid",
                Json::Arr(vec![
                    Json::U64(self.grid.0 as u64),
                    Json::U64(self.grid.1 as u64),
                ]),
            )
            .set(
                "block",
                Json::Arr(vec![
                    Json::U64(self.block.0 as u64),
                    Json::U64(self.block.1 as u64),
                ]),
            )
            .set(
                "params",
                Json::Arr(
                    self.params
                        .iter()
                        .map(|&(tag, bits)| {
                            Json::Arr(vec![Json::U64(tag as u64), Json::U64(bits as u64)])
                        })
                        .collect(),
                ),
            )
    }

    /// Whether `j`'s header fields reproduce this key exactly.
    fn matches(&self, j: &Json) -> Option<bool> {
        let pair = |j: &Json| -> Option<(u32, u32)> {
            let v = j.as_arr()?;
            if v.len() != 2 {
                return None;
            }
            Some((
                u32::try_from(v[0].as_u64()?).ok()?,
                u32::try_from(v[1].as_u64()?).ok()?,
            ))
        };
        let params = j
            .get("params")?
            .as_arr()?
            .iter()
            .map(|p| {
                let v = p.as_arr()?;
                if v.len() != 2 {
                    return None;
                }
                Some((
                    u8::try_from(v[0].as_u64()?).ok()?,
                    u32::try_from(v[1].as_u64()?).ok()?,
                ))
            })
            .collect::<Option<Vec<(u8, u32)>>>()?;
        Some(
            j.get("kernel_fp")?.as_u64()? == self.kernel_fp
                && j.get("device_fp")?.as_u64()? == self.device_fp
                && pair(j.get("grid")?)? == self.grid
                && pair(j.get("block")?)? == self.block
                && params == self.params,
        )
    }
}

/// Handle on one on-disk artifact cache directory. Cloning shares the
/// statistics (the handle itself is just a path plus counters); concurrent
/// processes sharing a directory are safe because every write is a temp
/// file + atomic rename and every read fully validates.
#[derive(Debug, Clone)]
pub struct DiskCache {
    /// Versioned directory all artifacts live in.
    dir: PathBuf,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    stale: Arc<AtomicU64>,
    corrupt: Arc<AtomicU64>,
    stores: Arc<AtomicU64>,
}

impl DiskCache {
    /// A cache rooted at `root` (artifacts go in `root/v<version>/`). The
    /// directory is created lazily on first store; a missing directory just
    /// reads as a cold cache.
    pub fn at(root: impl Into<PathBuf>) -> DiskCache {
        DiskCache {
            dir: root.into().join(format!("v{CACHE_FORMAT_VERSION}")),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            stale: Arc::new(AtomicU64::new(0)),
            corrupt: Arc::new(AtomicU64::new(0)),
            stores: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Traffic counters since this handle (or the family it was cloned
    /// from) was created.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    fn trace_path(&self, key: &TraceFileKey) -> PathBuf {
        self.dir.join(format!("t-{:016x}.json", key.file_id()))
    }

    /// Read and parse `path`, classifying the outcome. `Hit` carries the
    /// parsed document with its `kind` and `version` fields still
    /// unchecked — callers validate those next.
    fn read_doc(&self, path: &Path) -> DiskLoad<Json> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(_) => return self.count(DiskLoad::Miss),
        };
        match Json::parse(&text) {
            Ok(doc) => DiskLoad::Hit(doc),
            Err(_) => self.count(DiskLoad::Corrupt),
        }
    }

    /// Bump the stats counter matching `outcome` and pass it through.
    fn count<T>(&self, outcome: DiskLoad<T>) -> DiskLoad<T> {
        match &outcome {
            DiskLoad::Hit(_) => &self.hits,
            DiskLoad::Miss => &self.misses,
            DiskLoad::Stale => &self.stale,
            DiskLoad::Corrupt => &self.corrupt,
        }
        .fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Atomically write `doc` to `path` (best-effort: errors are swallowed,
    /// a failed store just means a future cold start).
    fn write_doc(&self, path: &Path, doc: &Json) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, doc.render_pretty()).is_ok() && std::fs::rename(&tmp, path).is_ok()
        {
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Load every class trace recorded for `key`, validated and finalized
    /// against `dk` (which must be the kernel the key names).
    pub(crate) fn load_traces(
        &self,
        key: &TraceFileKey,
        dk: &DecodedKernel,
    ) -> DiskLoad<Vec<(u32, Trace)>> {
        let doc = match self.read_doc(&self.trace_path(key)) {
            DiskLoad::Hit(doc) => doc,
            DiskLoad::Miss => return DiskLoad::Miss,
            DiskLoad::Stale => return DiskLoad::Stale,
            DiskLoad::Corrupt => return DiskLoad::Corrupt,
        };
        let Some(version) = doc.get("version").and_then(Json::as_u64) else {
            return self.count(DiskLoad::Corrupt);
        };
        if version != CACHE_FORMAT_VERSION {
            return self.count(DiskLoad::Stale);
        }
        if doc.get("kind").and_then(Json::as_str) != Some("trace") {
            return self.count(DiskLoad::Corrupt);
        }
        match key.matches(&doc) {
            Some(true) => {}
            Some(false) => return self.count(DiskLoad::Stale),
            None => return self.count(DiskLoad::Corrupt),
        }
        let threads = key.block.0 as u64 * key.block.1 as u64;
        let max_warps = u32::try_from(threads.div_ceil(WARP as u64)).unwrap_or(0);
        let Some(classes) = doc.get("classes").and_then(Json::as_arr) else {
            return self.count(DiskLoad::Corrupt);
        };
        let mut out = Vec::with_capacity(classes.len());
        for entry in classes {
            let Some(class) = entry
                .get("class")
                .and_then(Json::as_u64)
                .and_then(|c| u32::try_from(c).ok())
            else {
                return self.count(DiskLoad::Corrupt);
            };
            let Some(trace) = entry
                .get("trace")
                .and_then(|t| trace_from_json(t, dk, max_warps, key.grid))
            else {
                return self.count(DiskLoad::Corrupt);
            };
            out.push((class, trace));
        }
        self.count(DiskLoad::Hit(out))
    }

    /// Store (rewrite) the full class->trace set for `key`.
    pub(crate) fn store_traces(&self, key: &TraceFileKey, traces: &[(u32, Arc<Trace>)]) {
        let classes = Json::Arr(
            traces
                .iter()
                .map(|(class, trace)| {
                    Json::obj()
                        .set("class", *class)
                        .set("trace", trace_to_json(trace))
                })
                .collect(),
        );
        let mut doc = Json::obj()
            .set("version", CACHE_FORMAT_VERSION)
            .set("kind", "trace");
        if let Json::Obj(fields) = &mut doc {
            if let Json::Obj(header) = key.header() {
                fields.extend(header);
            }
        }
        let doc = doc.set("classes", classes);
        self.write_doc(&self.trace_path(key), &doc);
    }
}
