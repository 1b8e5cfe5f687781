//! The sharded (pipelined generate/replay) engine behind
//! `RunConfig::with_shards`: the generation side, its descriptor channels
//! and the run driver (the replay side is the fused event loop in
//! `crate::fused`). The scheduler reaches it only through `GenCtx::record`.
//!
//! ## Why not per-node lookahead windows?
//!
//! The textbook conservative-PDES refactor — let each node's processors
//! advance independently inside a window bounded by the minimum cross-node
//! interaction latency — cannot reproduce this simulator's statistics bit
//! for bit. Contended resources ([`crate::Resource`]) price requests in
//! first-come-first-served *execution* order, and under the quantum
//! run-ahead of the sequential scheduler the execution order is
//! deliberately not the timestamp order. Any engine that reorders platform
//! calls, however latency-safe, perturbs `busy-until` chains and with them
//! every downstream cycle count.
//!
//! So the parallel engine splits each simulated processor differently, in
//! *pipeline* rather than *space*:
//!
//! * a **generation** thread per processor runs the application body
//!   against a process-wide `ValuePlane` (the flat values of simulated
//!   memory) and emits its sequence of simulated operations as a
//!   descriptor stream (`Desc`);
//! * the **replay** side (`crate::fused`) consumes the streams and drives
//!   the sequential engine's scheduler state through the same `Inner::op_*`
//!   transitions the application's own `Proc` calls would have made, in
//!   the order the sequential engine would have chosen.
//!
//! All virtual time, statistics, resource arbitration, tracing, race
//! detection and protocol state live in replay; the statistics are
//! therefore a pure function of the streams. The streams themselves are
//! deterministic for data-race-free programs: every value a generation
//! thread reads from the `ValuePlane` is fixed by the happens-before order
//! that the round-trip synchronization descriptors (lock, barrier, timing
//! rendezvous, allocation) enforce on the host, mirroring the virtual-time
//! order replay computes. The `tests/shard_equivalence.rs` harness asserts
//! the resulting bit-identity across shard counts, platforms, applications
//! and diagnostics.
//!
//! The lookahead window here is **event-bounded** rather than
//! virtual-time-bounded: a generation thread may run ahead of replay by at
//! most the descriptor-channel capacity, and blocks at every
//! cross-processor interaction (which each platform certifies is mediated
//! by the replayed protocol — see [`Platform::min_cross_node_latency`]).

use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};

use crate::addr::Addr;
use crate::alloc::Placement;
use crate::config::check_shard_batch;
use crate::platform::Platform;
use crate::proc::{Backend, Proc};
use crate::run::panic_message;
use crate::stats::RunStats;
use crate::util::FxMap;
use crate::RunConfig;

/// Default descriptors per channel message: big enough to amortize channel
/// costs, small enough to keep the replay engine busy early. Overridable
/// per run via [`RunConfig::with_shard_batch`](crate::RunConfig::with_shard_batch).
pub(crate) const DEFAULT_BATCH: usize = 512;

/// Channel capacity in *batches*: how far (in events) generation may run
/// ahead of replay before backpressure parks it. Deep enough that a
/// processor's stream stays prefilled across the other processors'
/// scheduling turns, or replay degrades to lock-step with generation.
pub(crate) const CHANNEL_BATCHES: usize = 32;

/// Value-plane chunk size in bytes (a host bookkeeping unit, unrelated to
/// any platform's protocol page size).
const CHUNK: u64 = 4096;

/// Number of independently locked map shards in the value plane.
const PLANE_WAYS: usize = 64;

/// One simulated operation, recorded by a generation thread and replayed
/// by its processor's machine in `crate::fused`. Loads carry no values
/// (replay's platform state reproduces them); stores carry the generated
/// values so the platform's frames — and hence diff contents, wire bytes
/// and sharing footprints — match the sequential engine byte for byte.
pub(crate) enum Desc {
    Work(u64),
    /// `(per_elem, count)`.
    WorkFused(u64, u64),
    SetPhase(usize),
    /// `(label, bytes, align, placement)`.
    Alloc(&'static str, u64, u64, Placement),
    /// `(addr, len)`.
    Load(Addr, u8),
    /// `(addr, len, val)`.
    Store(Addr, u8, u64),
    /// `(addr, stride, len, n)`.
    LoadSlice(Addr, u64, u8, usize),
    /// `(addr, stride, len, vals)`.
    StoreSlice(Addr, u64, u8, Vec<u64>),
    Lock(u32),
    Unlock(u32),
    Barrier(u32),
    StartTiming,
    StopTiming,
    /// A named application-level metric count (see
    /// [`Proc::metric_add`](crate::Proc::metric_add)). Emitted only when
    /// the run records metrics, so metrics-off streams are byte-identical
    /// to builds that predate it.
    MetricEvent(&'static str, u64),
    /// The application body panicked in generation; replay re-raises the
    /// message so the run unwinds with the panic the sequential engine
    /// would have raised.
    Poison(String),
}

/// One [`Proc`] operation as the generation hook ([`GenCtx::record`])
/// receives it: a [`Desc`] whose slices are still the application's.
/// Fields are in the same order.
pub(crate) enum Op<'a> {
    Work(u64),
    WorkFused(u64, u64),
    SetPhase(usize),
    Alloc(&'static str, u64, u64, Placement),
    Load(Addr, u8),
    Store(Addr, u8, u64),
    /// `(addr, stride, len, out)`.
    LoadSlice(Addr, u64, u8, &'a mut [u64]),
    StoreSlice(Addr, u64, u8, &'a [u64]),
    Lock(u32),
    Unlock(u32),
    Barrier(u32),
    StartTiming,
    StopTiming,
    MetricEvent(&'static str, u64),
}

/// Reply sent by a replay interpreter for round-trip descriptors.
pub(crate) enum Reply {
    Addr(Addr),
    Sync,
}

/// Panic payload used to abort a generation thread quietly when the replay
/// side has already terminated (normally or by poison). Swallowed by the
/// generation wrapper; never escapes to the user.
pub(crate) struct ShardAbort;

/// Counting semaphore bounding how many generation threads execute
/// application code concurrently — the user-visible meaning of
/// `with_shards(n)`. Permits are released around every blocking point
/// (channel backpressure, round-trip replies) so the bound can never
/// deadlock the pipeline.
pub(crate) struct Gate {
    slots: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            slots: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn acquire(&self) {
        let mut s = self.slots.lock().unwrap();
        while *s == 0 {
            s = self.cv.wait(s).unwrap();
        }
        *s -= 1;
    }

    pub(crate) fn release(&self) {
        *self.slots.lock().unwrap() += 1;
        self.cv.notify_one();
    }
}

/// The flat current values of simulated shared memory, shared by all
/// generation threads. Chunked and shard-locked; unwritten memory reads as
/// zero, like every platform's zero-filled frames. This is *host* state
/// only — it carries no cycles, no protocol state, and replay never sees
/// it.
pub(crate) struct ValuePlane {
    ways: Vec<Mutex<FxMap<u64, Box<[u8]>>>>,
}

impl ValuePlane {
    pub(crate) fn new() -> Self {
        Self {
            ways: (0..PLANE_WAYS)
                .map(|_| Mutex::new(FxMap::default()))
                .collect(),
        }
    }

    /// Run `f` over the chunk containing byte `chunk * CHUNK`.
    fn with_chunk<R>(&self, chunk: u64, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut m = self.ways[(chunk as usize) & (PLANE_WAYS - 1)]
            .lock()
            .unwrap();
        let buf = m
            .entry(chunk)
            .or_insert_with(|| vec![0u8; CHUNK as usize].into_boxed_slice());
        f(buf)
    }

    fn read_bytes(&self, addr: Addr, out: &mut [u8]) {
        let mut a = addr;
        let mut done = 0;
        while done < out.len() {
            let chunk = a / CHUNK;
            let off = (a % CHUNK) as usize;
            let n = (out.len() - done).min(CHUNK as usize - off);
            self.with_chunk(chunk, |b| {
                out[done..done + n].copy_from_slice(&b[off..off + n])
            });
            done += n;
            a += n as u64;
        }
    }

    fn write_bytes(&self, addr: Addr, data: &[u8]) {
        let mut a = addr;
        let mut done = 0;
        while done < data.len() {
            let chunk = a / CHUNK;
            let off = (a % CHUNK) as usize;
            let n = (data.len() - done).min(CHUNK as usize - off);
            self.with_chunk(chunk, |b| {
                b[off..off + n].copy_from_slice(&data[done..done + n])
            });
            done += n;
            a += n as u64;
        }
    }

    /// Load up to 8 bytes little-endian, zero-extended.
    pub(crate) fn load(&self, addr: Addr, len: u8) -> u64 {
        let mut w = [0u8; 8];
        self.read_bytes(addr, &mut w[..len as usize]);
        u64::from_le_bytes(w)
    }

    /// Store the low `len` bytes of `val` little-endian.
    pub(crate) fn store(&self, addr: Addr, len: u8, val: u64) {
        self.write_bytes(addr, &val.to_le_bytes()[..len as usize]);
    }

    /// Strided bulk load (element width `len`). Grouped chunk-wise: one
    /// lock + map probe per chunk-resident run of elements, not per
    /// element — generation throughput has to outrun the replay engine for
    /// the pipeline to overlap at all.
    pub(crate) fn load_slice(&self, addr: Addr, stride: u64, len: u8, out: &mut [u64]) {
        let lenu = len as u64;
        let mut i = 0;
        while i < out.len() {
            let a = addr + i as u64 * stride;
            let (chunk, off) = (a / CHUNK, a % CHUNK);
            if off + lenu > CHUNK {
                // Element straddles the chunk boundary: byte-wise path.
                out[i] = self.load(a, len);
                i += 1;
                continue;
            }
            // Elements k with off + k*stride + len <= CHUNK stay in-chunk.
            let n = match (CHUNK - off - lenu).checked_div(stride) {
                None => out.len() - i,
                Some(fit) => ((fit + 1).min((out.len() - i) as u64)) as usize,
            };
            self.with_chunk(chunk, |b| {
                for k in 0..n {
                    let o = (off + k as u64 * stride) as usize;
                    let mut w = [0u8; 8];
                    w[..len as usize].copy_from_slice(&b[o..o + len as usize]);
                    out[i + k] = u64::from_le_bytes(w);
                }
            });
            i += n;
        }
    }

    /// Strided bulk store (element width `len`); chunk-grouped like
    /// [`ValuePlane::load_slice`].
    pub(crate) fn store_slice(&self, addr: Addr, stride: u64, len: u8, vals: &[u64]) {
        let lenu = len as u64;
        let mut i = 0;
        while i < vals.len() {
            let a = addr + i as u64 * stride;
            let (chunk, off) = (a / CHUNK, a % CHUNK);
            if off + lenu > CHUNK {
                self.store(a, len, vals[i]);
                i += 1;
                continue;
            }
            let n = match (CHUNK - off - lenu).checked_div(stride) {
                None => vals.len() - i,
                Some(fit) => ((fit + 1).min((vals.len() - i) as u64)) as usize,
            };
            self.with_chunk(chunk, |b| {
                for k in 0..n {
                    let o = (off + k as u64 * stride) as usize;
                    b[o..o + len as usize]
                        .copy_from_slice(&vals[i + k].to_le_bytes()[..len as usize]);
                }
            });
            i += n;
        }
    }
}

/// Per-processor generation context: the value plane, the outgoing
/// descriptor stream, the reply channel, and the concurrency gate.
pub(crate) struct GenCtx {
    plane: Arc<ValuePlane>,
    tx: SyncSender<Vec<Desc>>,
    reply_rx: Receiver<Reply>,
    gate: Arc<Gate>,
    batch: Vec<Desc>,
    /// Flush threshold (descriptors per channel message) for this run; see
    /// [`DEFAULT_BATCH`].
    batch_cap: usize,
    /// Whether this thread currently holds a gate permit (so cleanup after
    /// a panic releases exactly once).
    gate_held: bool,
    /// Generation-side mirror of the timed-region flag, maintained from
    /// this processor's own `start_timing`/`stop_timing` calls (which are
    /// all-processor rendezvous, so the mirror agrees with replay at every
    /// point the application can observe).
    timing: bool,
    /// Whether this run records interval metrics (`RunConfig::metrics > 0`):
    /// gates [`Desc::MetricEvent`] emission so metrics-off descriptor
    /// streams are unchanged.
    metrics: bool,
}

impl GenCtx {
    /// Processor context for a `cfg` run, holding a gate permit.
    fn new(
        plane: Arc<ValuePlane>,
        tx: SyncSender<Vec<Desc>>,
        reply_rx: Receiver<Reply>,
        gate: Arc<Gate>,
        cfg: &RunConfig,
    ) -> Self {
        let mut ctx = Self {
            plane,
            tx,
            reply_rx,
            gate,
            batch: Vec::with_capacity(cfg.shard_batch),
            batch_cap: cfg.shard_batch,
            gate_held: false,
            timing: false,
            metrics: cfg.metrics > 0,
        };
        ctx.unpark();
        ctx
    }

    /// The generation hook: record `op` in this processor's stream and
    /// answer it from the host side. Returns a load's value or an
    /// allocation's address, else 0. Inlined, so that each `Proc`
    /// operation keeps only its own arm.
    #[inline(always)]
    pub(crate) fn record(&mut self, op: Op<'_>) -> u64 {
        match op {
            // With timing off, compute is a no-op in every engine, so
            // nothing needs replaying.
            Op::Work(c) if self.timing => self.emit(Desc::Work(c)),
            Op::WorkFused(per_elem, count) if self.timing => {
                self.emit(Desc::WorkFused(per_elem, count))
            }
            Op::Work(_) | Op::WorkFused(..) => {}
            // Replay needs a descriptor only when a sink exists to count
            // it; metrics-off streams stay byte-identical.
            Op::MetricEvent(name, n) if self.timing && self.metrics => {
                self.emit(Desc::MetricEvent(name, n))
            }
            Op::MetricEvent(..) => {}
            Op::SetPhase(phase) => self.emit(Desc::SetPhase(phase)),
            // Round trip: bump addresses depend on allocation order, which
            // only replay (running the scheduler) can decide.
            Op::Alloc(label, bytes, align, placement) => {
                match self.roundtrip(Desc::Alloc(label, bytes, align, placement)) {
                    Reply::Addr(a) => return a,
                    Reply::Sync => unreachable!("alloc answered without an address"),
                }
            }
            Op::Load(addr, len) => {
                self.emit(Desc::Load(addr, len));
                return self.plane.load(addr, len);
            }
            Op::Store(addr, len, val) => {
                self.plane.store(addr, len, val);
                self.emit(Desc::Store(addr, len, val));
            }
            // One descriptor regardless of `bulk`: the replay interpreter's
            // own `load_slice` call degrades to the scalar path when the
            // run is configured scalar.
            Op::LoadSlice(addr, stride, len, out) => {
                self.emit(Desc::LoadSlice(addr, stride, len, out.len()));
                self.plane.load_slice(addr, stride, len, out);
            }
            Op::StoreSlice(addr, stride, len, vals) => {
                self.plane.store_slice(addr, stride, len, vals);
                self.emit(Desc::StoreSlice(addr, stride, len, vals.to_vec()));
            }
            // Round trip: the reply arrives only after replay granted this
            // processor the lock, so generation threads enter overlapping
            // critical sections in replay's (virtual-arrival) grant order —
            // the happens-before edge that makes value-plane reads, and
            // hence the streams themselves, deterministic.
            Op::Lock(id) => {
                self.roundtrip(Desc::Lock(id));
            }
            // Fire-and-forget: the next acquirer's reply cannot arrive
            // until replay has consumed this release, so the critical
            // section's plane writes are visible to it on the host.
            Op::Unlock(id) => self.emit(Desc::Unlock(id)),
            Op::Barrier(id) => {
                self.roundtrip(Desc::Barrier(id));
            }
            Op::StartTiming => {
                self.roundtrip(Desc::StartTiming);
                self.timing = true;
            }
            Op::StopTiming => {
                self.roundtrip(Desc::StopTiming);
                self.timing = false;
            }
        }
        0
    }

    /// Whether the timed region is active: the generation-side mirror,
    /// exact because timing only toggles at all-processor rendezvous this
    /// thread round-trips.
    pub(crate) fn timing_on(&self) -> bool {
        self.timing
    }

    /// Virtual time exists only on the replay side, behind this thread.
    pub(crate) fn now(&self) -> u64 {
        panic!(
            "Proc::now is not available under the sharded engine \
             (virtual time is computed by replay, behind this thread)"
        )
    }

    fn park(&mut self) {
        if self.gate_held {
            self.gate.release();
            self.gate_held = false;
        }
    }

    fn unpark(&mut self) {
        if !self.gate_held {
            self.gate.acquire();
            self.gate_held = true;
        }
    }

    /// Send the pending batch. Parks around the send so channel
    /// backpressure never stalls the pipeline behind the concurrency gate.
    /// Aborts the generation thread if replay has terminated.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(self.batch_cap));
        self.park();
        if self.tx.send(batch).is_err() {
            std::panic::panic_any(ShardAbort);
        }
        self.unpark();
    }

    /// Best-effort flush for cleanup paths: never panics, never reacquires
    /// the gate.
    fn flush_quiet(&mut self) {
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            let _ = self.tx.send(batch);
        }
    }

    /// Record a non-blocking descriptor.
    fn emit(&mut self, d: Desc) {
        self.batch.push(d);
        if self.batch.len() >= self.batch_cap {
            self.flush();
        }
    }

    /// Record a round-trip descriptor and block until replay answers —
    /// the host-side edge of every simulated happens-before edge.
    fn roundtrip(&mut self, d: Desc) -> Reply {
        self.batch.push(d);
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(self.batch_cap));
        self.park();
        if self.tx.send(batch).is_err() {
            std::panic::panic_any(ShardAbort);
        }
        match self.reply_rx.recv() {
            Ok(r) => {
                self.unpark();
                r
            }
            Err(_) => std::panic::panic_any(ShardAbort),
        }
    }
}

/// The sharded engine: the application bodies run concurrently on
/// generation threads (at most `cfg.shards` executing at once) against the
/// host-side value plane, streaming operation descriptors to the fused
/// replay loop, which drives the sequential engine's scheduler state
/// through the same transitions. Statistics are therefore bit-identical to
/// `shards = 1` for data-race-free programs — see the module docs for the
/// full argument and `tests/shard_equivalence.rs` for the proof harness.
///
/// # Panics
/// Before any thread starts, if `cfg.shard_fused` is `false` (the classic
/// replay side it selected is gone) or `cfg.shard_batch` is out of range.
pub(crate) fn run_sharded<F>(platform: Box<dyn Platform>, cfg: RunConfig, body: F) -> RunStats
where
    F: Fn(&mut Proc) + Sync,
{
    assert!(
        cfg.shard_fused,
        "shard_fused = false selected the classic replay engine, which was removed; \
         sharded runs replay on the fused engine only"
    );
    check_shard_batch(cfg.shard_batch);
    let plane = Arc::new(ValuePlane::new());
    let gate = Arc::new(Gate::new(cfg.shards));

    // Per-processor descriptor and reply channels: the generation ends are
    // moved into the generation threads, the replay ends into the fused
    // loop.
    let (gen_ends, replay_ends): (Vec<_>, Vec<_>) = (0..cfg.nprocs)
        .map(|_| {
            let (desc_tx, desc_rx) = sync_channel::<Vec<Desc>>(CHANNEL_BATCHES);
            let (reply_tx, reply_rx) = channel::<Reply>();
            ((desc_tx, reply_rx), (desc_rx, reply_tx))
        })
        .unzip();

    // A panic out of replay (forwarded poison, deadlock) drops the replay
    // ends on its way out, so every generation thread's sends and
    // reply-waits error out and it aborts; the scope joins them and then
    // re-raises the panic unchanged.
    std::thread::scope(|s| {
        for (pid, (tx, reply_rx)) in gen_ends.into_iter().enumerate() {
            let plane = Arc::clone(&plane);
            let gate = Arc::clone(&gate);
            let (body, cfg) = (&body, &cfg);
            std::thread::Builder::new()
                .name(format!("simgen-{pid}"))
                .stack_size(16 << 20)
                .spawn_scoped(s, move || {
                    let ctx = GenCtx::new(plane, tx, reply_rx, gate, cfg);
                    let mut proc = Proc::new(pid, cfg, Backend::Gen(Box::new(ctx)));
                    let r =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut proc)));
                    let Backend::Gen(mut ctx) = proc.into_backend() else {
                        unreachable!("a generation handle stays one")
                    };
                    // Never block on the channel while holding a gate
                    // permit (the final flush may hit backpressure).
                    ctx.park();
                    if let Err(payload) = r {
                        if payload.is::<ShardAbort>() {
                            // Replay terminated first (normally or by
                            // poison); nothing left to report.
                            return;
                        }
                        // A real application panic: forward it so replay
                        // re-raises it, producing the same outer panic a
                        // non-sharded run would.
                        ctx.batch.push(Desc::Poison(panic_message(&*payload)));
                    }
                    ctx.flush_quiet();
                    // Dropping `tx` here closes the stream: replay finishes
                    // this processor after draining it.
                })
                .expect("spawn generation thread");
        }
        crate::fused::replay_fused(platform, &cfg, replay_ends)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_round_trips_values_across_chunk_boundaries() {
        let p = ValuePlane::new();
        // Straddle the 4 KB chunk boundary.
        let a = 3 * CHUNK - 3;
        p.store(a, 8, 0x1122_3344_5566_7788);
        assert_eq!(p.load(a, 8), 0x1122_3344_5566_7788);
        // Unwritten memory reads zero.
        assert_eq!(p.load(10 * CHUNK, 8), 0);
        // Partial widths do not clobber neighbours.
        p.store(100, 8, u64::MAX);
        p.store(102, 2, 0);
        assert_eq!(p.load(100, 8), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn plane_slices_match_scalar_ops() {
        let p = ValuePlane::new();
        let vals: Vec<u64> = (0..1000u64).map(|i| i * i + 7).collect();
        p.store_slice(CHUNK - 40, 24, 8, &vals);
        let mut out = vec![0u64; vals.len()];
        p.load_slice(CHUNK - 40, 24, 8, &mut out);
        assert_eq!(out, vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(p.load(CHUNK - 40 + i as u64 * 24, 8), v);
        }
    }

    #[test]
    fn gate_bounds_concurrency() {
        let g = Arc::new(Gate::new(2));
        g.acquire();
        g.acquire();
        // A third acquire must block until a release.
        let g2 = Arc::clone(&g);
        let h = std::thread::spawn(move || {
            g2.acquire();
            g2.release();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!h.is_finished(), "gate failed to block");
        g.release();
        h.join().unwrap();
        g.release();
    }
}
