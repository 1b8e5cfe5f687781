//! Support types for the sharded (pipelined generate/replay) engine behind
//! [`RunConfig::with_shards`](crate::RunConfig::with_shards).
//!
//! ## Why not per-node lookahead windows?
//!
//! The textbook conservative-PDES refactor — let each node's processors
//! advance independently inside a window bounded by the minimum cross-node
//! interaction latency — cannot reproduce this simulator's statistics bit
//! for bit. Contended resources ([`crate::Resource`]) price requests in
//! first-come-first-served *execution* order, and under the quantum
//! run-ahead of the classic scheduler the execution order is deliberately
//! not the timestamp order. Any engine that reorders platform calls,
//! however latency-safe, perturbs `busy-until` chains and with them every
//! downstream cycle count.
//!
//! So the parallel engine splits each simulated processor differently, in
//! *pipeline* rather than *space*:
//!
//! * a **generation** thread per processor runs the application body
//!   against a process-wide `ValuePlane` (the flat values of simulated
//!   memory) and emits its sequence of simulated operations as a
//!   descriptor stream (`Desc`);
//! * the **replay** engine — the unmodified classic scheduler — consumes
//!   the streams, one interpreter per processor, re-issuing exactly the
//!   same `Proc` calls the application would have made, in exactly the
//!   order the classic engine would have chosen.
//!
//! All virtual time, statistics, resource arbitration, tracing, race
//! detection and protocol state live in replay, which is the classic
//! engine; the statistics are therefore a pure function of the streams.
//! The streams themselves are deterministic for data-race-free programs:
//! every value a generation thread reads from the `ValuePlane` is fixed
//! by the happens-before order that the round-trip synchronization
//! descriptors (lock, barrier, timing rendezvous, allocation) enforce on
//! the host, mirroring the virtual-time order replay computes. The
//! `tests/shard_equivalence.rs` harness asserts the resulting bit-identity
//! across shard counts, platforms, applications and diagnostics.
//!
//! The lookahead window here is **event-bounded** rather than
//! virtual-time-bounded: a generation thread may run ahead of its replay
//! interpreter by at most the descriptor-channel capacity, and blocks at
//! every cross-processor interaction (which each platform certifies is
//! mediated by the replayed protocol — see
//! [`Platform::min_cross_node_latency`](crate::Platform::min_cross_node_latency)).

use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};

use crate::addr::Addr;
use crate::alloc::Placement;
use crate::util::FxMap;

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

/// One simulated operation, recorded by a generation thread and re-issued
/// verbatim by its replay interpreter. Loads carry no values (replay's
/// platform state reproduces them); stores carry the generated values so
/// the platform's frames — and hence diff contents, wire bytes and sharing
/// footprints — match the classic engine byte for byte.
pub(crate) enum Desc {
    Work(u64),
    WorkFused {
        per_elem: u64,
        count: u64,
    },
    SetPhase(usize),
    Alloc {
        label: &'static str,
        bytes: u64,
        align: u64,
        placement: Placement,
    },
    Load {
        addr: Addr,
        len: u8,
    },
    Store {
        addr: Addr,
        len: u8,
        val: u64,
    },
    LoadSlice {
        addr: Addr,
        stride: u64,
        len: u8,
        n: usize,
    },
    StoreSlice {
        addr: Addr,
        stride: u64,
        len: u8,
        vals: Vec<u64>,
    },
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
    /// message so the classic poison protocol unwinds the run exactly as a
    /// direct panic would have.
    Poison(String),
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
    pub(crate) plane: Arc<ValuePlane>,
    pub(crate) tx: SyncSender<Vec<Desc>>,
    pub(crate) reply_rx: Receiver<Reply>,
    pub(crate) gate: Arc<Gate>,
    pub(crate) batch: Vec<Desc>,
    /// Flush threshold (descriptors per channel message) for this run; see
    /// [`DEFAULT_BATCH`].
    pub(crate) batch_cap: usize,
    /// Whether this thread currently holds a gate permit (so cleanup after
    /// a panic releases exactly once).
    pub(crate) gate_held: bool,
    /// Generation-side mirror of the timed-region flag, maintained from
    /// this processor's own `start_timing`/`stop_timing` calls (which are
    /// all-processor rendezvous, so the mirror agrees with replay at every
    /// point the application can observe).
    pub(crate) timing: bool,
    /// Whether this run records interval metrics (`RunConfig::metrics > 0`):
    /// gates [`Desc::MetricEvent`] emission so metrics-off descriptor
    /// streams are unchanged.
    pub(crate) metrics: bool,
}

impl GenCtx {
    pub(crate) fn new(
        plane: Arc<ValuePlane>,
        tx: SyncSender<Vec<Desc>>,
        reply_rx: Receiver<Reply>,
        gate: Arc<Gate>,
        batch_cap: usize,
        metrics: bool,
    ) -> Self {
        Self {
            plane,
            tx,
            reply_rx,
            gate,
            batch: Vec::with_capacity(batch_cap),
            batch_cap,
            gate_held: false,
            timing: false,
            metrics,
        }
    }

    pub(crate) fn park(&mut self) {
        if self.gate_held {
            self.gate.release();
            self.gate_held = false;
        }
    }

    pub(crate) fn unpark(&mut self) {
        if !self.gate_held {
            self.gate.acquire();
            self.gate_held = true;
        }
    }

    /// Send the pending batch. Parks around the send so channel
    /// backpressure never stalls the pipeline behind the concurrency gate.
    /// Aborts the generation thread if replay has terminated.
    pub(crate) fn flush(&mut self) {
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
    pub(crate) fn flush_quiet(&mut self) {
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            let _ = self.tx.send(batch);
        }
    }

    /// Record a non-blocking descriptor.
    pub(crate) fn emit(&mut self, d: Desc) {
        self.batch.push(d);
        if self.batch.len() >= self.batch_cap {
            self.flush();
        }
    }

    /// Record a round-trip descriptor and block until replay answers —
    /// the host-side edge of every simulated happens-before edge.
    pub(crate) fn roundtrip(&mut self, d: Desc) -> Reply {
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
