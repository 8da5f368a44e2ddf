//! The I/O engine: executes one dataset access under a chosen strategy.
//!
//! A raw access is the strategy's [`CallPlan`], run by one executor: it
//! moves *real bytes* (gather/scatter/pack through the global array
//! buffer) and charges *virtual time* per process on a [`Timeline`], whose
//! makespan is the operation's cost. The engine leaves connection
//! management to the layer above (the paper charges `T_conn` once per
//! session, eq. (1)).
//!
//! # Execution model: virtual time vs. host parallelism
//!
//! Native storage calls stay strictly sequential (the resource is a single
//! stateful simulator behind one lock, and per-call virtual times depend
//! on call order): the executor issues every call and every [`Timeline`]
//! charge in plan order. The *host-side* data movement — gather, scatter,
//! pack/unpack, sieve overlay — runs on the work-stealing thread pool, over
//! disjoint `split_at_mut` windows, so the assembled buffers and the
//! [`IoReport`] virtual times are bitwise identical for every
//! `MSR_THREADS` setting (see `crates/runtime/tests/determinism.rs`).

use crate::error::RuntimeError;
use crate::layout::{Chunk, Distribution};
use crate::plan::{CallPlan, Object, Step, Unit};
use crate::retry::{backoff, MAX_RETRIES};
use crate::strategy::{shuffle_cost, IoStrategy};
use crate::RuntimeResult;
use bytes::Bytes;
use msr_obs::{ops, Layer, Recorder};
use msr_sim::{Clock, SimDuration, Timeline};
use msr_storage::{
    Cost, CostModel, Device, OpKind, OpenMode, Payload, ResourceStats, SharedResource, StorageError,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::OnceCell;

/// Node memory-copy rate used for pack/unpack/sieve costs (MB/s, year-2000
/// node class).
pub const MEMCPY_MB_S: f64 = 400.0;

/// Virtual cost of moving `bytes` through node memory at [`MEMCPY_MB_S`] —
/// also the charge for a read served from the prefetch staging cache.
pub fn memcpy_cost(bytes: u64) -> SimDuration {
    SimDuration::from_secs(bytes as f64 / (MEMCPY_MB_S * 1e6))
}

/// Global free list of host-side scratch buffers for the pack/sieve
/// phases. Any pool worker or caller thread may take one, so the list is
/// shared; buffers are
/// resized to the exact requested length, keeping assembled data
/// independent of which buffer was handed out.
mod scratch {
    use parking_lot::Mutex;

    static POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
    /// Bound on pooled buffers, so a wide dump doesn't pin memory forever.
    const MAX_POOLED: usize = 64;

    /// An empty buffer with at least `cap` capacity; `true` when it came
    /// from the pool.
    pub fn take(cap: usize) -> (Vec<u8>, bool) {
        match POOL.lock().pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(cap);
                (buf, true)
            }
            None => (Vec::with_capacity(cap), false),
        }
    }

    /// Return a buffer to the pool for the next dump.
    pub fn give(buf: Vec<u8>) {
        let mut pool = POOL.lock();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }
}

/// Window size for parallel bulk copies of one contiguous buffer.
const COPY_CHUNK: usize = 256 * 1024;

/// Copy `src` into the front of `dst` with the pool (chunked memcpy).
///
/// # Panics
/// Panics when `src` is longer than `dst`.
fn parallel_copy(dst: &mut [u8], src: &[u8]) {
    dst[..src.len()]
        .par_chunks_mut(COPY_CHUNK)
        .zip(src.par_chunks(COPY_CHUNK))
        .for_each(|(d, s)| d.copy_from_slice(s));
}

/// Scatter deferred copies into disjoint windows of `out` in parallel.
///
/// Each op is `(dst_offset, len, src_token)`; ops are sorted by
/// destination, `out` is carved into the named windows with
/// `split_at_mut` (so disjointness is enforced by the borrow checker, not
/// by `unsafe`), and `copy` fills every window on the pool.
///
/// # Panics
/// Panics when ops overlap or run past the end of `out`.
fn scatter_windows<S: Send>(
    out: &mut [u8],
    mut ops: Vec<(usize, usize, S)>,
    copy: impl Fn(&mut [u8], S) + Send + Sync,
) {
    ops.sort_unstable_by_key(|&(dst, _, _)| dst);
    let mut windows: Vec<(&mut [u8], S)> = Vec::with_capacity(ops.len());
    let mut rest: &mut [u8] = out;
    let mut base = 0usize;
    for (dst, len, src) in ops {
        let (_gap, tail) = rest.split_at_mut(dst - base);
        let (window, tail) = tail.split_at_mut(len);
        windows.push((window, src));
        rest = tail;
        base = dst + len;
    }
    windows
        .into_par_iter()
        .for_each(|(window, src)| copy(window, src));
}

/// The global array assembled from a read's deferred runs (every run was
/// checked to be whole, so together they cover it).
fn scattered(dist: &Distribution, ops: Vec<(usize, usize, Bytes)>) -> Vec<u8> {
    let mut out = vec![0u8; dist.total_bytes() as usize];
    scatter_windows(&mut out, ops, |window, src| window.copy_from_slice(&src));
    out
}

/// Outcome of one engine operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IoReport {
    /// Strategy that was used.
    pub strategy: IoStrategy,
    /// Process count.
    pub nprocs: usize,
    /// Native read calls issued.
    pub native_reads: usize,
    /// Native write calls issued.
    pub native_writes: usize,
    /// Native opens issued.
    pub native_opens: usize,
    /// Payload bytes of the dataset.
    pub bytes: u64,
    /// Virtual wall-clock of the operation (timeline makespan).
    pub elapsed: SimDuration,
    /// Sum of per-process busy time.
    pub total_work: SimDuration,
    /// Native calls that were retried after a transient fault.
    pub retries: usize,
    /// Total backoff time charged to the timelines for those retries.
    pub backoff: SimDuration,
    /// True when the data was served from a staging copy instead of the
    /// authoritative resource (degraded read) and may lag the latest dump.
    pub stale: bool,
}

/// The run-time engine: runs each strategy's call plan on a storage resource.
#[derive(Debug, Clone)]
pub struct IoEngine {
    pub(crate) recorder: Recorder,
    pub(crate) clock: Clock,
    /// Master seed of the retry backoff jitter streams.
    retry_seed: u64,
    pub(crate) plane: crate::chunked::ChunkPlane,
}

impl Default for IoEngine {
    /// [`IoEngine::new`] with seed 0.
    fn default() -> Self {
        IoEngine::new(0)
    }
}

/// Per-operation mutable context threaded through the executor: the
/// per-process timeline, the retry accounting and the resource's call
/// counters at the start, all of which end up in the [`IoReport`].
pub(crate) struct OpCx {
    pub(crate) tl: Timeline,
    retries: usize,
    backoff: SimDuration,
    scratch_allocs: usize,
    scratch_reuses: usize,
    before: ResourceStats,
}

impl OpCx {
    /// The context of an operation of `nprocs` ranks about to start on `r`.
    pub(crate) fn new(nprocs: usize, r: &Device<dyn CostModel>) -> Self {
        OpCx {
            tl: Timeline::new(nprocs),
            retries: 0,
            backoff: SimDuration::ZERO,
            scratch_allocs: 0,
            scratch_reuses: 0,
            before: r.stats(),
        }
    }

    fn note_scratch(&mut self, reused: bool) {
        if reused {
            self.scratch_reuses += 1;
        } else {
            self.scratch_allocs += 1;
        }
    }

    /// The report of an operation that moved `bytes` on `r` under
    /// `strategy`, once every rank is done.
    pub(crate) fn report(
        &mut self,
        strategy: IoStrategy,
        bytes: u64,
        r: &Device<dyn CostModel>,
    ) -> IoReport {
        self.tl.barrier();
        let after = r.stats();
        IoReport {
            strategy,
            nprocs: self.tl.nprocs(),
            native_reads: after.reads - self.before.reads,
            native_writes: after.writes - self.before.writes,
            native_opens: after.opens - self.before.opens,
            bytes,
            elapsed: self.tl.makespan(),
            total_work: self.tl.total_work(),
            retries: self.retries,
            backoff: self.backoff,
            stale: false,
        }
    }

    /// Fold totals gathered atomically inside a parallel region (the
    /// chunk plane's compress/decompress loops) into this op's scratch
    /// accounting, so [`IoEngine::record_scratch`] emits them from the
    /// sequential phase like every other count.
    pub(crate) fn note_scratch_many(&mut self, allocs: usize, reuses: usize) {
        self.scratch_allocs += allocs;
        self.scratch_reuses += reuses;
    }
}

/// The op key of a strategy span, `"<op>:<strategy>"`, without formatting
/// it per request.
fn strategy_op(op: OpKind, strategy: IoStrategy) -> &'static str {
    match (op, strategy) {
        (OpKind::Read, IoStrategy::Naive) => "read:naive",
        (OpKind::Read, IoStrategy::DataSieving) => "read:data-sieving",
        (OpKind::Read, IoStrategy::Collective) => "read:collective",
        (OpKind::Read, IoStrategy::Subfile) => "read:subfile",
        (OpKind::Write, IoStrategy::Naive) => "write:naive",
        (OpKind::Write, IoStrategy::DataSieving) => "write:data-sieving",
        (OpKind::Write, IoStrategy::Collective) => "write:collective",
        (OpKind::Write, IoStrategy::Subfile) => "write:subfile",
    }
}

/// The span key of a session's requests, `"session:<id>"`, written into
/// `buf` (the prefix and a `u64`'s twenty digits fit) instead of a `String`
/// per request.
fn session_key(buf: &mut [u8; 28], mut id: u64) -> &str {
    const PREFIX: &[u8] = b"session:";
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (id % 10) as u8;
        id /= 10;
        if id == 0 {
            break;
        }
    }
    at -= PREFIX.len();
    buf[at..at + PREFIX.len()].copy_from_slice(PREFIX);
    std::str::from_utf8(&buf[at..]).expect("ASCII prefix and digits")
}

impl IoEngine {
    /// An engine whose retry backoffs jitter from streams under `seed`.
    pub fn new(seed: u64) -> Self {
        IoEngine {
            recorder: Recorder::disabled(),
            clock: Clock::new(),
            retry_seed: seed,
            plane: crate::chunked::ChunkPlane::default(),
        }
    }

    /// Issue one native call under the retry budget ([`crate::retry`]).
    /// Transient failures back off on process `p`'s timeline (the sleep is
    /// real virtual time) and re-issue the call, up to the budget; anything
    /// else — or a transient that outlives the budget — propagates. Each retry
    /// emits a runtime-layer `retry` count and a `backoff` span.
    pub(crate) fn retried<T>(
        &self,
        cx: &mut OpCx,
        p: usize,
        r: &mut Device<dyn CostModel>,
        call: impl Fn(&mut Device<dyn CostModel>) -> Result<Cost<T>, StorageError>,
    ) -> RuntimeResult<Cost<T>> {
        let mut attempt = 0u32;
        loop {
            match call(r) {
                Ok(cost) => return Ok(cost),
                Err(e) if e.is_transient() && attempt < MAX_RETRIES => {
                    // Label by the op's running retry count so consecutive
                    // backoffs jitter independently yet replay exactly.
                    let label = format!("{}:{}", r.name(), cx.retries);
                    let delay = backoff(self.retry_seed, attempt, &label);
                    cx.tl.charge(p, delay);
                    cx.retries += 1;
                    cx.backoff += delay;
                    if self.recorder.enabled() {
                        let now = self.clock.now();
                        self.recorder
                            .count(Layer::Runtime, r.name(), ops::RETRY, now, 1.0);
                        self.recorder
                            .span(Layer::Runtime, r.name(), ops::BACKOFF, now, delay, 0);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(RuntimeError::Storage(e)),
            }
        }
    }

    /// Attach an observability recorder; each `write`/`read` emits one
    /// runtime-layer span (`"write:collective"`, `"read:naive"`, …) whose
    /// duration is the operation's virtual makespan, stamped with `clock`.
    pub fn set_observer(&mut self, recorder: Recorder, clock: Clock) {
        self.recorder = recorder;
        self.clock = clock;
    }

    pub(crate) fn record_strategy(&self, resource: &str, op: OpKind, report: &IoReport) {
        if self.recorder.enabled() {
            self.recorder.span(
                Layer::Runtime,
                resource,
                strategy_op(op, report.strategy),
                self.clock.now(),
                report.elapsed,
                report.bytes,
            );
        }
    }

    /// Emit this operation's scratch-pool activity, from the sequential
    /// phase only, so the event stream never depends on how parallel
    /// closures interleave.
    pub(crate) fn record_scratch(&self, resource: &str, cx: &OpCx) {
        if !self.recorder.enabled() {
            return;
        }
        if cx.scratch_allocs > 0 {
            self.recorder.count(
                Layer::Runtime,
                resource,
                ops::SCRATCH_ALLOC,
                self.clock.now(),
                cx.scratch_allocs as f64,
            );
        }
        if cx.scratch_reuses > 0 {
            self.recorder.count(
                Layer::Runtime,
                resource,
                ops::SCRATCH_REUSE,
                self.clock.now(),
                cx.scratch_reuses as f64,
            );
        }
    }

    /// Write the full global array `data` (row-major) as dataset file
    /// `path` on `res`, distributed per `dist`, with `strategy`.
    pub fn write(
        &self,
        res: &SharedResource,
        path: &str,
        data: &[u8],
        dist: &Distribution,
        strategy: IoStrategy,
        mode: OpenMode,
    ) -> RuntimeResult<IoReport> {
        self.write_raw(res, path, Src::Borrowed(data), dist, strategy, mode)
    }

    /// [`IoEngine::write_chunked`] for a caller that can give the payload
    /// away (a queued request's payload, a migration's read-back): a raw
    /// collective dump hands `data` to the resource's single native
    /// [`write_shared`](Device::write_shared), so a resource that
    /// keeps its data in memory stores the buffer, or the recipe, instead
    /// of a copy of the bytes. Every other write works on bytes: held
    /// ones as they are, a recipe generated whole for the call. Reports,
    /// costs and stored bytes are those of the borrowed call.
    #[allow(clippy::too_many_arguments)]
    pub fn write_shared(
        &self,
        res: &SharedResource,
        path: &str,
        data: Payload,
        dist: &Distribution,
        strategy: IoStrategy,
        mode: OpenMode,
        ingest: &msr_chunk::IngestSpec,
        dataset: &str,
    ) -> RuntimeResult<IoReport> {
        if ingest.is_active() {
            let data = data.into_bytes();
            return self.write_chunked(res, path, &data, dist, strategy, mode, ingest, dataset);
        }
        self.write_raw(res, path, Src::Owned(data), dist, strategy, mode)
    }

    /// The raw write behind both entry points.
    fn write_raw(
        &self,
        res: &SharedResource,
        path: &str,
        data: Src<'_>,
        dist: &Distribution,
        strategy: IoStrategy,
        mode: OpenMode,
    ) -> RuntimeResult<IoReport> {
        if data.len() as u64 != dist.total_bytes() {
            return Err(RuntimeError::SizeMismatch {
                expected: dist.total_bytes(),
                got: data.len() as u64,
            });
        }
        if !mode.writable() {
            return Err(RuntimeError::Storage(StorageError::BadMode { op: "write" }));
        }
        let plan = CallPlan::write(strategy, mode, *dist);
        Ok(self.run_plan(res, path, &plan, Some(&data))?.1)
    }

    /// Execute one schedulable unit against `res`: the dispatcher-facing
    /// entry point. Runs the request's operation exactly as the immediate
    /// `read`/`write` entry points would, then emits a runtime-layer span
    /// keyed by the owning session (`"session:<id>"`) so per-client service
    /// time is visible in the metrics next to the per-resource strategy
    /// spans.
    pub fn execute(
        &self,
        res: &SharedResource,
        req: &crate::request::EngineRequest,
    ) -> RuntimeResult<crate::request::RequestOutcome> {
        use crate::request::{RequestBody, RequestOutcome};
        let outcome = match &req.body {
            // Raw ingest falls back to the plain write inside, which
            // stores the request's payload rather than a copy.
            RequestBody::Write { data, mode } => RequestOutcome::Written(self.write_shared(
                res,
                &req.path,
                data.clone(),
                &req.dist,
                req.strategy,
                *mode,
                &req.ingest,
                &req.dataset,
            )?),
            RequestBody::Read => {
                let (data, report) = self.read_auto(res, &req.path, &req.dist, req.strategy)?;
                RequestOutcome::Read(data, report)
            }
        };
        if self.recorder.enabled() {
            let report = outcome.report();
            self.recorder.span(
                Layer::Runtime,
                session_key(&mut [0; 28], req.tag.session),
                "request",
                self.clock.now(),
                report.elapsed,
                report.bytes,
            );
        }
        Ok(outcome)
    }

    /// Serve a read request from a prefetched object already staged in
    /// memory: no native calls, no seeded jitter draws — the only charge
    /// is one memcpy of the dataset through node memory, so a staged serve
    /// costs the same at every thread count. The outcome holds the staged
    /// object itself (a reference-counted view, or the recipe), not a
    /// copy. `resource` names the resource the data would have come from
    /// (for the trace).
    pub fn staged_read(
        &self,
        resource: &str,
        req: &crate::request::EngineRequest,
        data: &Payload,
    ) -> RuntimeResult<crate::request::RequestOutcome> {
        let total = req.dist.total_bytes();
        if data.len() as u64 != total {
            return Err(RuntimeError::SizeMismatch {
                expected: total,
                got: data.len() as u64,
            });
        }
        let elapsed = memcpy_cost(total);
        let report = IoReport {
            strategy: req.strategy,
            nprocs: req.dist.nprocs(),
            native_reads: 0,
            native_writes: 0,
            native_opens: 0,
            bytes: total,
            elapsed,
            total_work: elapsed,
            retries: 0,
            backoff: SimDuration::ZERO,
            stale: false,
        };
        if self.recorder.enabled() {
            self.recorder.span(
                Layer::Runtime,
                resource,
                "read:staged",
                self.clock.now(),
                elapsed,
                total,
            );
        }
        Ok(crate::request::RequestOutcome::Read(data.clone(), report))
    }

    /// The stored objects of the dump at `path` on `r`: `[path]` for a
    /// whole-object dump or a chunked manifest, one object per process
    /// for a dump laid out in subfiles, none when the dump is not here.
    /// Info calls only: no native call, cost, span, stat or fault draw.
    pub fn dump_objects(&self, r: &Device<dyn CostModel>, path: &str) -> Vec<String> {
        if r.exists(path) {
            return vec![path.to_owned()];
        }
        (0..)
            .map(|p| subfile_path(path, p))
            .take_while(|sub| r.exists(sub))
            .collect()
    }

    /// Read dataset file `path` from `res` into a freshly assembled global
    /// array buffer. An object shorter than `dist` describes (the half a
    /// torn write left, say) is a [`RuntimeError::SizeMismatch`] from the
    /// first native read that comes back short, never zero padding.
    pub fn read(
        &self,
        res: &SharedResource,
        path: &str,
        dist: &Distribution,
        strategy: IoStrategy,
    ) -> RuntimeResult<(Vec<u8>, IoReport)> {
        let (data, report) = self.read_raw(res, path, dist, strategy)?;
        Ok((data.into_vec(), report))
    }

    /// [`IoEngine::read`], the global array as the collective read gets
    /// it: a whole object as the resource keeps it (held bytes or recipe),
    /// any other read's assembled buffer.
    pub(crate) fn read_raw(
        &self,
        res: &SharedResource,
        path: &str,
        dist: &Distribution,
        strategy: IoStrategy,
    ) -> RuntimeResult<(Payload, IoReport)> {
        let (out, report) = self.run_plan(res, path, &CallPlan::read(strategy, *dist), None)?;
        Ok((out.expect("a read returns the array"), report))
    }

    /// Run `plan` for the dump at `path` on `res` and report it; the
    /// device serves the plan's streams while it runs, one again after.
    fn run_plan(
        &self,
        res: &SharedResource,
        path: &str,
        plan: &CallPlan,
        src: Option<&Src<'_>>,
    ) -> RuntimeResult<(Option<Payload>, IoReport)> {
        let mut r = res.lock();
        let mut cx = OpCx::new(plan.dist.nprocs(), &*r);
        r.set_stream_hint(plan.streams());
        let out = self.run_steps(&mut *r, path, plan, src, &mut cx);
        r.set_stream_hint(1);
        let out = out?;
        let report = cx.report(plan.strategy, plan.dist.total_bytes(), &*r);
        self.record_strategy(r.name(), plan.op(), &report);
        self.record_scratch(r.name(), &cx);
        Ok((out, report))
    }

    /// The one executor: run `plan` for the dump at `path` on `r`, rank by
    /// rank and step by step, each native call under the retry budget and
    /// each charge on `cx`'s timeline in step order. A write moves `src`;
    /// a read returns the global array — a whole-array read's object as
    /// the resource keeps it, any other read's runs scattered into place
    /// on the pool after the last call.
    ///
    /// Ranks run in order because their calls share one stateful device,
    /// and a sieving write's read pass must see what the rank before it
    /// wrote. A rank's overlay copies run on the pool, and a packed write
    /// gathers every rank's pack on the pool before the first call.
    fn run_steps(
        &self,
        r: &mut Device<dyn CostModel>,
        path: &str,
        plan: &CallPlan,
        src: Option<&Src<'_>>,
        cx: &mut OpCx,
    ) -> RuntimeResult<Option<Payload>> {
        let dist = plan.dist();
        let writes = plan.op() == OpKind::Write;
        // A write's bytes, made once for the steps that take them in
        // pieces; a whole-array write of given-away data hands it over.
        let pieces = OnceCell::new();
        let data = || &**pieces.get_or_init(|| src.expect("a write has a source").bytes());
        let mut packs = None;
        // A read's runs, deferred: (offset in the array, length, bytes).
        let mut ops: Vec<(usize, usize, Bytes)> = Vec::new();
        let mut whole = None;
        for p in 0..dist.nprocs() {
            let extent = dist.shape(p).map(|(_, _, extent)| extent);
            let mut handle = None;
            // What the rank read last, and the buffer its next write sends.
            let mut held = Bytes::new();
            let mut stage: Option<Vec<u8>> = None;
            let mut skipping = false;
            for step in plan.steps(p) {
                if skipping {
                    skipping = step != Step::Close;
                    continue;
                }
                match step {
                    Step::Open { object, mode } => {
                        let sub = (object == Object::Subfile).then(|| subfile_path(path, p));
                        let at = sub.as_deref().unwrap_or(path);
                        if writes && mode == OpenMode::Read && !r.exists(at) {
                            skipping = true;
                            continue;
                        }
                        let open = self.retried(cx, p, r, |r| r.open(at, mode))?;
                        cx.tl.charge(p, open.time);
                        handle = Some(open.value);
                    }
                    Step::Transfer {
                        op, unit, bytes, ..
                    } => {
                        let h = handle.expect("a transfer follows its open");
                        let runs = match unit {
                            Unit::Run => dist.chunks_for(p),
                            Unit::Extent => extent.into_iter().collect(),
                            Unit::Packed | Unit::Whole => vec![Chunk {
                                offset: 0,
                                len: bytes,
                            }],
                        };
                        for run in runs {
                            if unit.seeks() {
                                let seek = self.retried(cx, p, r, |r| r.seek(h, run.offset))?;
                                cx.tl.charge(p, seek.time);
                            }
                            let (at, len) = (run.offset as usize, run.len as usize);
                            if op == OpKind::Write {
                                let write = self.retried(cx, p, r, |r| match (unit, src) {
                                    (Unit::Whole, Some(Src::Owned(payload))) => {
                                        r.write_shared(h, payload.clone())
                                    }
                                    (Unit::Whole | Unit::Run, _) => {
                                        r.write(h, &data()[at..at + len])
                                    }
                                    _ => r.write(h, stage.as_deref().expect("copied before")),
                                })?;
                                cx.tl.charge(p, write.time);
                                // A sent buffer goes back to the pool.
                                if let Some(buf) = stage.take() {
                                    scratch::give(buf);
                                }
                                continue;
                            }
                            let read = self.retried(cx, p, r, |r| r.read_shared(h, len))?;
                            // A short read fails rather than hand back zeros,
                            // but a read-modify-write pass keeps them.
                            let got = read.value.len() as u64;
                            if !writes && got != run.len {
                                return Err(RuntimeError::SizeMismatch {
                                    expected: run.len,
                                    got,
                                });
                            }
                            cx.tl.charge(p, read.time);
                            match unit {
                                Unit::Whole => whole = Some(read.value),
                                _ if writes => {
                                    let buf = staged(&mut stage, run.len, cx);
                                    parallel_copy(buf, &read.value.into_bytes());
                                }
                                Unit::Run => ops.push((at, len, read.value.into_bytes())),
                                _ => held = read.value.into_bytes(),
                            }
                        }
                    }
                    Step::Copy { unit, bytes } if writes && unit == Unit::Packed => {
                        // Every rank's pack is gathered on the pool at the
                        // first, before any native call.
                        let packs = packs.get_or_insert_with(|| packed(dist, data()));
                        let (buf, reused) = packs.next().expect("one pack per rank");
                        cx.note_scratch(reused);
                        stage = Some(buf);
                        cx.tl.charge(p, memcpy_cost(bytes));
                    }
                    Step::Copy { unit, bytes } => {
                        // Each run's place in the rank's buffer: where it
                        // lies in the extent, or packed end to end.
                        let base = extent.map_or(0, |e| e.offset);
                        let mut next = 0;
                        let windows = dist.chunks_for(p).into_iter().map(|c| {
                            let at = if unit == Unit::Packed {
                                next
                            } else {
                                c.offset - base
                            };
                            next += c.len;
                            (at as usize, c.len as usize, c.offset as usize)
                        });
                        if writes {
                            // Disjoint windows of the extent: the overlay
                            // copies are independent.
                            let buf = staged(&mut stage, extent.map_or(0, |e| e.len), cx);
                            let data = data();
                            scatter_windows(buf, windows.collect(), |window, from| {
                                window.copy_from_slice(&data[from..from + window.len()]);
                            });
                        } else {
                            for (at, len, to) in windows {
                                ops.push((to, len, held.slice(at..at + len)));
                            }
                        }
                        cx.tl.charge(p, memcpy_cost(bytes));
                    }
                    Step::Exchange => {
                        let shuffle = shuffle_cost(dist.total_bytes(), dist.nprocs());
                        cx.tl.barrier();
                        cx.tl.charge_all(shuffle);
                    }
                    Step::Close => {
                        let h = handle.take().expect("a close follows its open");
                        let close = self.retried(cx, p, r, |r| r.close(h))?;
                        cx.tl.charge(p, close.time);
                    }
                }
            }
        }
        Ok((!writes).then(|| whole.unwrap_or_else(|| scattered(dist, ops).into())))
    }
}

/// Every rank's runs of `data` packed end to end, in rank order, each in
/// a scratch buffer (`true` when it came from the pool). Ranks read
/// disjoint runs, so the packs are gathered in parallel.
fn packed(dist: &Distribution, data: &[u8]) -> std::vec::IntoIter<(Vec<u8>, bool)> {
    let pack = |p| {
        let (mut buf, reused) = scratch::take(dist.bytes_for(p) as usize);
        for chunk in dist.chunks_for(p) {
            buf.extend_from_slice(&data[chunk.offset as usize..chunk.end() as usize]);
        }
        (buf, reused)
    };
    let packs: Vec<_> = (0..dist.nprocs()).into_par_iter().map(pack).collect();
    packs.into_iter()
}

/// The rank's staging buffer, `len` zero bytes from the scratch pool the
/// first time it is asked for.
fn staged<'a>(stage: &'a mut Option<Vec<u8>>, len: u64, cx: &mut OpCx) -> &'a mut Vec<u8> {
    stage.get_or_insert_with(|| {
        let (mut buf, reused) = scratch::take(len as usize);
        buf.resize(len as usize, 0);
        cx.note_scratch(reused);
        buf
    })
}

/// A raw write's data as the caller hands it over.
enum Src<'a> {
    /// Lent for the call: the resource copies what it keeps.
    Borrowed(&'a [u8]),
    /// Given away: a collective dump's resource may keep it as it is.
    Owned(Payload),
}

impl Src<'_> {
    fn len(&self) -> usize {
        match self {
            Src::Borrowed(bytes) => bytes.len(),
            Src::Owned(payload) => payload.len(),
        }
    }

    /// The bytes, for a strategy that moves them in pieces: a view of
    /// lent or held bytes, a recipe generated.
    fn bytes(&self) -> Cow<'_, [u8]> {
        match self {
            Src::Borrowed(bytes) => Cow::Borrowed(bytes),
            Src::Owned(Payload::Bytes(bytes)) => Cow::Borrowed(bytes),
            Src::Owned(Payload::Recipe(recipe)) => Cow::Owned(recipe.range(0, recipe.len()).into()),
        }
    }
}

/// The per-process subfile naming convention.
pub(crate) fn subfile_path(path: &str, rank: usize) -> String {
    format!("{path}.sub{rank:03}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Dims3, Pattern, ProcGrid};
    use msr_storage::{share, DiskParams, LocalDisk};

    fn bare_disk() -> LocalDisk {
        LocalDisk::new("t", DiskParams::simple(100.0, 1 << 30), 0)
    }

    fn disk() -> SharedResource {
        share(bare_disk())
    }

    fn dist8(n: u64) -> Distribution {
        Distribution::new(Dims3::cube(n), 4, Pattern::bbb(), ProcGrid::new(2, 2, 2)).unwrap()
    }

    fn payload(bytes: u64) -> Vec<u8> {
        (0..bytes).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn strategy_op_keys_spell_op_and_strategy() {
        for op in [OpKind::Read, OpKind::Write] {
            for strategy in IoStrategy::ALL {
                assert_eq!(strategy_op(op, strategy), format!("{op}:{strategy}"));
            }
        }
    }

    #[test]
    fn all_strategies_roundtrip_identically() {
        let dist = dist8(16);
        let data = payload(dist.total_bytes());
        let engine = IoEngine::default();
        for (i, w_strat) in IoStrategy::ALL.iter().enumerate() {
            for r_strat in IoStrategy::ALL {
                // Subfile layout on storage is transposed, so it can only be
                // read back via subfile.
                if (*w_strat == IoStrategy::Subfile) != (r_strat == IoStrategy::Subfile) {
                    continue;
                }
                let res = disk();
                let path = format!("d{i}");
                engine
                    .write(&res, &path, &data, &dist, *w_strat, OpenMode::Create)
                    .unwrap();
                let (back, _) = engine.read(&res, &path, &dist, r_strat).unwrap();
                assert_eq!(back, data, "write {w_strat} / read {r_strat}");
            }
        }
    }

    #[test]
    fn collective_issues_exactly_one_native_write() {
        let dist = dist8(16);
        let data = payload(dist.total_bytes());
        let res = disk();
        let rep = IoEngine::default()
            .write(
                &res,
                "d",
                &data,
                &dist,
                IoStrategy::Collective,
                OpenMode::Create,
            )
            .unwrap();
        assert_eq!(rep.native_writes, 1, "the paper's n(j) = 1");
        assert_eq!(rep.native_opens, 1);
    }

    #[test]
    fn naive_issues_one_call_per_run() {
        let dist = dist8(8); // per proc: 4x4 = 16 runs
        let data = payload(dist.total_bytes());
        let res = disk();
        let rep = IoEngine::default()
            .write(&res, "d", &data, &dist, IoStrategy::Naive, OpenMode::Create)
            .unwrap();
        assert_eq!(rep.native_writes, 8 * 16);
        assert_eq!(rep.native_opens, 8);
    }

    #[test]
    fn subfile_issues_one_call_per_proc() {
        let dist = dist8(16);
        let data = payload(dist.total_bytes());
        let res = disk();
        let rep = IoEngine::default()
            .write(
                &res,
                "d",
                &data,
                &dist,
                IoStrategy::Subfile,
                OpenMode::Create,
            )
            .unwrap();
        assert_eq!(rep.native_writes, 8);
        assert_eq!(res.lock().list("d.sub").len(), 8);
    }

    #[test]
    fn a_dump_names_its_stored_objects_without_a_native_call() {
        let dist = dist8(8);
        let data = payload(dist.total_bytes());
        let engine = IoEngine::default();
        let res = disk();
        for (path, strategy) in [
            ("sub", IoStrategy::Subfile),
            ("col", IoStrategy::Collective),
        ] {
            engine
                .write(&res, path, &data, &dist, strategy, OpenMode::Create)
                .unwrap();
        }
        let r = res.lock();
        let stats = r.stats();
        let subs: Vec<String> = (0..8).map(|p| subfile_path("sub", p)).collect();
        assert_eq!(engine.dump_objects(&*r, "sub"), subs);
        assert_eq!(engine.dump_objects(&*r, "col"), ["col"]);
        assert!(engine.dump_objects(&*r, "gone").is_empty());
        assert_eq!(r.stats(), stats, "info calls only");
    }

    #[test]
    fn read_auto_reads_subfiles_whatever_strategy_is_asked() {
        let dist = dist8(8);
        let data = payload(dist.total_bytes());
        let engine = IoEngine::default();
        let res = disk();
        engine
            .write(
                &res,
                "d",
                &data,
                &dist,
                IoStrategy::Subfile,
                OpenMode::Create,
            )
            .unwrap();
        for strategy in IoStrategy::ALL {
            let (back, report) = engine.read_auto(&res, "d", &dist, strategy).unwrap();
            assert_eq!(back.into_vec(), data, "{strategy}");
            assert_eq!(report.strategy, IoStrategy::Subfile);
        }
    }

    #[test]
    fn collective_beats_naive_on_fragmented_layouts() {
        let dist = dist8(32);
        let data = payload(dist.total_bytes());
        let engine = IoEngine::default();
        let res1 = disk();
        let naive = engine
            .write(
                &res1,
                "d",
                &data,
                &dist,
                IoStrategy::Naive,
                OpenMode::Create,
            )
            .unwrap();
        let res2 = disk();
        let coll = engine
            .write(
                &res2,
                "d",
                &data,
                &dist,
                IoStrategy::Collective,
                OpenMode::Create,
            )
            .unwrap();
        assert!(
            coll.elapsed < naive.elapsed,
            "collective {} vs naive {}",
            coll.elapsed,
            naive.elapsed
        );
    }

    #[test]
    fn size_mismatch_rejected() {
        let dist = dist8(16);
        let res = disk();
        let err = IoEngine::default()
            .write(
                &res,
                "d",
                &[0u8; 10],
                &dist,
                IoStrategy::Naive,
                OpenMode::Create,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::SizeMismatch { .. }));
    }

    #[test]
    fn read_mode_cannot_write() {
        let dist = dist8(16);
        let data = payload(dist.total_bytes());
        let res = disk();
        let err = IoEngine::default()
            .write(&res, "d", &data, &dist, IoStrategy::Naive, OpenMode::Read)
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Storage(StorageError::BadMode { .. })
        ));
    }

    #[test]
    fn overwrite_dumps_preserve_roundtrip() {
        // Checkpoint-style: same path overwritten each dump.
        let dist = dist8(16);
        let engine = IoEngine::default();
        let res = disk();
        let first = payload(dist.total_bytes());
        engine
            .write(
                &res,
                "restart",
                &first,
                &dist,
                IoStrategy::Collective,
                OpenMode::Create,
            )
            .unwrap();
        let second: Vec<u8> = first.iter().map(|b| b.wrapping_add(7)).collect();
        engine
            .write(
                &res,
                "restart",
                &second,
                &dist,
                IoStrategy::Collective,
                OpenMode::OverWrite,
            )
            .unwrap();
        let (back, _) = engine
            .read(&res, "restart", &dist, IoStrategy::Collective)
            .unwrap();
        assert_eq!(back, second);
    }

    #[test]
    fn sieving_write_rmw_preserves_other_procs_data() {
        // Write with naive, then overwrite only via sieving and verify no
        // corruption of interleaved regions.
        let dist = dist8(16);
        let engine = IoEngine::default();
        let res = disk();
        let first = payload(dist.total_bytes());
        engine
            .write(
                &res,
                "d",
                &first,
                &dist,
                IoStrategy::Collective,
                OpenMode::Create,
            )
            .unwrap();
        let second: Vec<u8> = first.iter().map(|b| b.wrapping_mul(3)).collect();
        engine
            .write(
                &res,
                "d",
                &second,
                &dist,
                IoStrategy::DataSieving,
                OpenMode::OverWrite,
            )
            .unwrap();
        let (back, _) = engine
            .read(&res, "d", &dist, IoStrategy::Collective)
            .unwrap();
        assert_eq!(back, second);
    }

    #[test]
    fn stream_hint_reset_after_operation() {
        let dist = dist8(16);
        let data = payload(dist.total_bytes());
        let res = disk();
        IoEngine::default()
            .write(&res, "d", &data, &dist, IoStrategy::Naive, OpenMode::Create)
            .unwrap();
        assert_eq!(res.lock().stream_hint(), 1);
    }

    #[test]
    fn stream_hint_reset_after_a_failed_operation() {
        // Room for half the dump: the naive write of 8 processes fails
        // partway, with the hint still at 8 when the error surfaces.
        let dist = dist8(16);
        let data = payload(dist.total_bytes());
        let res = share(LocalDisk::new(
            "t",
            DiskParams::simple(100.0, dist.total_bytes() / 2),
            0,
        ));
        let err = IoEngine::default()
            .write(&res, "d", &data, &dist, IoStrategy::Naive, OpenMode::Create)
            .unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Storage(StorageError::CapacityExceeded { .. })
            ),
            "{err}"
        );
        assert!(res.lock().stats().writes > 0, "failed partway");
        assert_eq!(res.lock().stream_hint(), 1);
    }

    /// Dump under `strategy`, cut the object (the last rank's subfile,
    /// for the subfile layout) to half its length — what a torn write
    /// leaves behind — and read it back.
    fn read_of_a_halved_object(strategy: IoStrategy) -> RuntimeError {
        let dist = dist8(16);
        let data = payload(dist.total_bytes());
        let engine = IoEngine::default();
        let res = disk();
        engine
            .write(&res, "d", &data, &dist, strategy, OpenMode::Create)
            .unwrap();
        {
            let mut r = res.lock();
            let object = match strategy {
                IoStrategy::Subfile => subfile_path("d", dist.nprocs() - 1),
                _ => "d".to_owned(),
            };
            let half = r.file_size(&object).unwrap() as usize / 2;
            let h = r.open(&object, OpenMode::Create).unwrap().value;
            r.write(h, &data[..half]).unwrap();
            r.close(h).unwrap();
        }
        engine.read(&res, "d", &dist, strategy).unwrap_err()
    }

    #[test]
    fn naive_read_of_a_short_object_is_a_size_mismatch() {
        // The first run that starts past the half comes back empty.
        let err = read_of_a_halved_object(IoStrategy::Naive);
        assert!(
            matches!(err, RuntimeError::SizeMismatch { got: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn sieving_read_of_a_short_object_is_a_size_mismatch() {
        let err = read_of_a_halved_object(IoStrategy::DataSieving);
        assert!(matches!(err, RuntimeError::SizeMismatch { .. }), "{err}");
    }

    #[test]
    fn collective_read_of_a_short_object_is_a_size_mismatch() {
        let total = dist8(16).total_bytes();
        let err = read_of_a_halved_object(IoStrategy::Collective);
        assert!(
            matches!(err, RuntimeError::SizeMismatch { expected, got }
                if expected == total && got == total / 2),
            "{err}"
        );
    }

    #[test]
    fn subfile_read_of_a_short_object_is_a_size_mismatch() {
        let block = dist8(16).bytes_for(7);
        let err = read_of_a_halved_object(IoStrategy::Subfile);
        assert!(
            matches!(err, RuntimeError::SizeMismatch { expected, got }
                if expected == block && got == block / 2),
            "{err}"
        );
    }

    #[test]
    fn session_keys_spell_the_prefix_and_the_id() {
        for id in [0, 7, 10, 4_294_967_296, u64::MAX] {
            assert_eq!(session_key(&mut [0; 28], id), format!("session:{id}"));
        }
    }

    #[test]
    fn missing_file_read_fails() {
        let dist = dist8(16);
        let res = disk();
        assert!(IoEngine::default()
            .read(&res, "ghost", &dist, IoStrategy::Collective)
            .is_err());
    }

    mod retry {
        use super::*;
        use msr_sim::Clock;
        use msr_storage::FaultPlan;

        fn faulty(plan: FaultPlan) -> (SharedResource, msr_storage::FaultLog) {
            let mut disk = bare_disk();
            let log = disk.inject_faults(plan, Clock::new(), 11);
            (share(disk), log)
        }

        #[test]
        fn transient_burst_within_budget_succeeds_and_charges_backoff() {
            let dist = dist8(16);
            let data = payload(dist.total_bytes());
            // 2 deterministic failures on the first native call, budget 3.
            let (res, log) = faulty(FaultPlan::none().with_error_burst(2));
            let engine = IoEngine::default();
            let rep = engine
                .write(
                    &res,
                    "d",
                    &data,
                    &dist,
                    IoStrategy::Collective,
                    OpenMode::Create,
                )
                .unwrap();
            assert_eq!(rep.retries, 2);
            assert!(rep.backoff > SimDuration::ZERO);
            assert_eq!(log.errors_injected(), 2, "log reconciles with report");
            let (back, rrep) = engine
                .read(&res, "d", &dist, IoStrategy::Collective)
                .unwrap();
            assert_eq!(back, data, "data bitwise intact despite faults");
            assert_eq!(rrep.retries, 0);
        }

        #[test]
        fn torn_write_is_retried_to_a_clean_roundtrip() {
            let dist = dist8(16);
            let data = payload(dist.total_bytes());
            // Keep p low enough that no single call plausibly tears 4
            // times in a row (p^4 per call would exhaust the budget).
            let (res, log) = faulty(FaultPlan::none().with_torn_prob(0.05));
            let engine = IoEngine::default();
            let rep = engine
                .write(&res, "d", &data, &dist, IoStrategy::Naive, OpenMode::Create)
                .unwrap();
            let injected_during_write = log.errors_injected();
            let (back, _) = engine.read(&res, "d", &dist, IoStrategy::Naive).unwrap();
            assert_eq!(back, data, "torn transfers never corrupt");
            assert_eq!(
                rep.retries, injected_during_write,
                "every injected error was retried"
            );
            assert!(rep.retries > 0, "p=0.05 over ~270 calls must tear");
        }

        #[test]
        fn budget_exhaustion_propagates_a_typed_error() {
            let dist = dist8(16);
            let data = payload(dist.total_bytes());
            let (res, _log) = faulty(FaultPlan::none().with_error_prob(1.0));
            let err = IoEngine::default()
                .write(&res, "d", &data, &dist, IoStrategy::Naive, OpenMode::Create)
                .unwrap_err();
            assert!(matches!(
                err,
                RuntimeError::Storage(StorageError::Transient { .. })
            ));
        }

        #[test]
        fn retried_run_is_deterministic() {
            let dist = dist8(16);
            let data = payload(dist.total_bytes());
            let run = || {
                let (res, _) = faulty(
                    FaultPlan::none()
                        .with_error_prob(0.1)
                        .with_torn_prob(0.1)
                        .with_spikes(0.2, 4.0),
                );
                IoEngine::default()
                    .write(
                        &res,
                        "d",
                        &data,
                        &dist,
                        IoStrategy::DataSieving,
                        OpenMode::Create,
                    )
                    .unwrap()
            };
            assert_eq!(run(), run(), "same seed, bitwise-identical report");
        }
    }
}
