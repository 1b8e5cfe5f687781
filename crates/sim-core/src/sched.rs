//! The cooperative, deterministic, min-virtual-time scheduler and the
//! [`Proc`] handle applications program against.
//!
//! Each simulated processor is a stackful coroutine (`crate::coro`); all
//! of them live on the host thread that called [`run`], and exactly one runs
//! at a time. The running processor performs simulated events (memory
//! accesses, synchronization) against the shared scheduler state — no lock,
//! it holds the turn — then, at yield points, switches directly to the
//! runnable processor with the minimum virtual clock. Lock queueing and
//! barrier membership are implemented here, generically; the pluggable
//! [`Platform`] prices the protocol actions (see [`crate::platform`]).
//!
//! ## Determinism
//!
//! Every scheduling decision is a pure function of virtual state (clocks,
//! statuses), taken by the currently running processor. Repeated runs
//! therefore produce bit-identical statistics, which the integration tests
//! assert.

use std::cell::RefMut;
use std::sync::{Arc, Mutex, PoisonError};

use crate::alloc::{GlobalAlloc, Placement};
use crate::coro;
use crate::platform::{Platform, Timing};
use crate::probe::{Probe, ProbeHandle, ProtoEvent};
use crate::shard::{Desc, Reply};
use crate::stats::{Bucket, ProcStats, RunStats};
use crate::util::FxMap;
use crate::Addr;

/// Run-wide configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Run-ahead quantum in cycles: a processor voluntarily yields when its
    /// clock exceeds the minimum runnable clock by more than this. Smaller
    /// values tighten virtual-time ordering at the cost of more hand-offs.
    pub quantum: u64,
    /// Check the run for data races by happens-before analysis; the races
    /// found are [`RunStats::races`]. Off by default: an undiagnosed run's
    /// fast path then pays only one probe test per access, and timing
    /// statistics are bit-identical either way.
    pub detect_races: bool,
    /// Diagnostic name for this run (e.g. `"LU/Alg"`), attached to race
    /// reports.
    pub label: String,
    /// Use the bulk fast path for the slice operations
    /// ([`Proc::load_slice`] and friends). On by default; turning it off
    /// replays every slice word-at-a-time through [`Proc::load`] /
    /// [`Proc::store`] in the same order — the reference the equivalence
    /// tests compare against, and the "before" side of the perf benchmarks.
    pub bulk: bool,
    /// Gather a per-page [`crate::sharing::SharingProfile`] on page-based
    /// platforms (word-granularity write footprints, writer/reader sets,
    /// true-vs-false sharing classification), attached as
    /// [`RunStats::sharing`]. Off by default. Timing statistics are
    /// bit-identical either way.
    pub sharing_profile: bool,
    /// Record a virtual-time event trace ([`crate::trace`]) of the timed
    /// region, attached as [`RunStats::trace`]. Off by default. Timing
    /// statistics are bit-identical either way.
    pub trace: bool,
    /// Application phase names for figures and traces ("tree-build" instead
    /// of "phase 3"); indexed by phase id, may be shorter than the number of
    /// phases used.
    pub phase_names: Vec<String>,
    /// Host parallelism for the run. `1` (the default) selects the classic
    /// sequential engine — the oracle. `n > 1` selects the pipelined
    /// generate/replay engine (see [`crate::shard`]) with up to `n`
    /// application threads generating concurrently; the resulting
    /// [`RunStats`] are bit-identical to `shards = 1` for data-race-free
    /// programs (asserted by `tests/shard_equivalence.rs`). Platforms that
    /// do not report a [`Platform::min_cross_node_latency`] fall back to
    /// the classic engine.
    pub shards: usize,
    /// Replay engine for sharded runs (`shards > 1`). `true` (the default)
    /// selects the fused engine (`crate::fused`): every replay
    /// interpreter is a stackless state machine driven by one host
    /// thread's virtual-time event loop. `false` falls back to the classic
    /// replay side (the sequential engine, one coroutine per simulated
    /// processor, running the interpreters). Both are bit-identical to the
    /// sequential oracle.
    pub shard_fused: bool,
    /// Descriptors per channel message in the sharded engine: the
    /// granularity at which generation threads hand operation streams to
    /// replay. Bigger batches amortize channel costs; smaller ones start
    /// replay earlier and tighten the event-bounded lookahead window
    /// (capacity is counted in batches). Defaults to
    /// `crate::shard::DEFAULT_BATCH`. Invisible in the statistics
    /// (asserted across values by `tests/shard_equivalence.rs`).
    pub shard_batch: usize,
    /// Interval metrics sampling period in virtual cycles (see
    /// [`crate::metrics`]). `0` (the default) disables the metrics engine;
    /// a nonzero value snapshots per-proc/page/lock counter series every
    /// that many cycles of virtual time (plus forced samples at phase and
    /// barrier boundaries), attached as [`RunStats::metrics`]. Timing
    /// statistics are bit-identical either way.
    pub metrics: u64,
    /// A limit on every diagnostic buffer (trace events per processor and
    /// edges, each metrics collection, race reports): each holds at most
    /// its default or this, whichever is lower, and counts what it drops.
    /// `None` (the default) keeps every default.
    pub diag_cap: Option<usize>,
}

/// Largest accepted [`RunConfig::shard_batch`]: past ~a million descriptors
/// per message the channel stops being a pipeline at all.
pub const MAX_SHARD_BATCH: usize = 1 << 20;

impl RunConfig {
    /// Default configuration for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        Self {
            nprocs,
            quantum: 2_000,
            detect_races: false,
            label: String::new(),
            bulk: true,
            sharing_profile: false,
            trace: false,
            phase_names: Vec::new(),
            shards: 1,
            shard_fused: true,
            shard_batch: crate::shard::DEFAULT_BATCH,
            metrics: 0,
            diag_cap: None,
        }
    }

    /// Select the engine: `1` = the classic sequential scheduler (exact
    /// current behaviour, and the oracle the differential tests compare
    /// against); `n > 1` = the pipelined parallel engine with up to `n`
    /// concurrently generating application threads.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Select the replay side of the sharded engine: `true` = the fused
    /// single-threaded event loop (default), `false` = the classic
    /// coroutine-per-processor scheduler. No effect when `shards = 1`.
    pub fn with_shard_fused(mut self, fused: bool) -> Self {
        self.shard_fused = fused;
        self
    }

    /// Override the sharded engine's descriptor batch size (descriptors per
    /// channel message).
    ///
    /// # Panics
    /// If `n` is zero or exceeds [`MAX_SHARD_BATCH`].
    pub fn with_shard_batch(mut self, n: usize) -> Self {
        assert!(
            (1..=MAX_SHARD_BATCH).contains(&n),
            "shard_batch must be in 1..={MAX_SHARD_BATCH}, got {n}"
        );
        self.shard_batch = n;
        self
    }

    /// Disable the bulk fast path: every slice operation degrades to the
    /// word-at-a-time scalar path. Timing must be bit-identical either way;
    /// `tests/equivalence.rs` sweeps this against the default.
    pub fn scalar_reference(mut self) -> Self {
        self.bulk = false;
        self
    }

    /// Enable happens-before race detection for this run.
    pub fn with_race_detection(mut self) -> Self {
        self.detect_races = true;
        self
    }

    /// Enable the per-page sharing profiler for this run (see
    /// [`crate::sharing`]).
    pub fn with_sharing_profile(mut self) -> Self {
        self.sharing_profile = true;
        self
    }

    /// Record a virtual-time event trace for this run (see [`crate::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enable the virtual-time interval metrics engine for this run (see
    /// [`crate::metrics`]), sampling every `interval_cycles` of each
    /// processor's virtual clock.
    ///
    /// # Panics
    /// If `interval_cycles` is zero (zero means "off"; use the default
    /// configuration for that).
    pub fn with_metrics(mut self, interval_cycles: u64) -> Self {
        assert!(
            interval_cycles > 0,
            "metrics interval must be nonzero (it is the sampling period)"
        );
        self.metrics = interval_cycles;
        self
    }

    /// Hold every diagnostic buffer to at most `cap` entries (at least
    /// one; see [`RunConfig::diag_cap`]).
    pub fn with_diag_cap(mut self, cap: usize) -> Self {
        self.diag_cap = Some(cap.max(1));
        self
    }

    /// Register application phase names (indexed by phase id) so figures
    /// and traces print "tree-build" instead of "phase 3".
    pub fn with_phase_names<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.phase_names = names.into_iter().map(Into::into).collect();
        self
    }

    /// Name this run (race reports and diagnostics quote the label).
    pub fn named(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Running,
    Ready,
    Blocked,
    Done,
}

/// What a processor does next after one of the [`Inner`] step methods: the
/// engine-independent contract between the per-op state transitions and
/// whichever engine drives them (the classic blocking scheduler or the
/// fused event loop in [`crate::fused`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Keep running, with no quantum yield check (lock fast path,
    /// allocation, rendezvous release — exactly the classic paths that
    /// dropped the guard without calling `maybe_yield`).
    Run,
    /// Keep running, but first check whether a runnable processor has
    /// fallen more than a quantum behind (the classic `maybe_yield` sites).
    MaybeYield,
    /// The processor blocked; its status is already `Blocked` and the
    /// engine must hand the turn to the min-clock runnable processor.
    Block,
}

#[derive(Clone, Copy, Debug)]
struct Waiter {
    pid: usize,
    arrival: u64,
}

#[derive(Default)]
struct LockSt {
    held_by: Option<usize>,
    avail_at: u64,
    waiters: Vec<Waiter>,
    /// Last releaser and its clock at release — the provenance for a
    /// handoff edge when the next acquire finds the lock free but still
    /// pays for `avail_at`.
    last_release: Option<(usize, u64)>,
}

#[derive(Default)]
struct BarSt {
    arrivals: Vec<(usize, u64)>,
}

/// The min-clock `Ready` processor and the clock past which the running
/// processor must hand it the turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct YieldAt {
    /// [`Inner::min_ready`].
    next: Option<(usize, u64)>,
    /// `next`'s clock plus the quantum, saturating; `u64::MAX` if none.
    threshold: u64,
}

impl YieldAt {
    fn new(next: Option<(usize, u64)>, quantum: u64) -> Self {
        let threshold = next.map_or(u64::MAX, |(_, clk)| clk.saturating_add(quantum));
        Self { next, threshold }
    }
}

pub(crate) struct Inner {
    platform: Box<dyn Platform>,
    alloc: GlobalAlloc,
    clocks: Vec<u64>,
    stats: Vec<ProcStats>,
    status: Vec<Status>,
    blocked_at: Vec<u64>,
    locks: FxMap<u32, LockSt>,
    barriers: FxMap<u32, BarSt>,
    start_arrivals: usize,
    stop_arrivals: usize,
    timing_on: bool,
    quantum: u64,
    pub(crate) ndone: usize,
    /// The deadlock report, set by the processor that found nobody
    /// runnable just before it panics with the same text.
    deadlock: Option<String>,
    /// Min-clock index over `Ready` processors: entries are
    /// `(clock, pid)`, pushed by [`Inner::make_ready`] and discarded
    /// lazily when popped stale (status or clock moved on). Replaces the
    /// O(P) status scan the hot dispatch path used to pay per operation.
    /// Invariant: a `Ready` processor's clock never changes (clocks are
    /// only rewritten at wake-ups, before `make_ready`, or on the running
    /// processor), so every `Ready` processor always has one valid entry.
    ready: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// [`Inner::yield_at`]'s cache; `None` when stale.
    yield_at: Option<YieldAt>,
    /// Present iff a diagnostic layer (race detection, trace, metrics,
    /// sharing profile) is on: the protocol event stream, shared with the
    /// platform, and every operation's one observer.
    probe: Option<ProbeHandle>,
    /// Events not yet handed to `probe`: the accesses of the last
    /// operations (at most [`ACCESS_BATCH`]), which reach the stream in
    /// batches, one lock each, always ahead of the next scheduler event.
    pending: Vec<ProtoEvent<'static>>,
}

/// The sequential engine's processors — one coroutine each, all on the
/// host thread that called [`run`] — and the scheduler state they share.
/// No lock guards the state: only the processor holding the turn runs, and
/// it borrows the state for the length of one operation (see
/// [`crate::coro`] for the invariant and who checks it).
type Shared = coro::Set<Inner>;

impl Inner {
    /// Mark `pid` runnable and index it: the only way a processor enters
    /// `Ready`, so the min-clock heap always covers every `Ready`
    /// processor. Must be called *after* `clocks[pid]` has its resume
    /// value.
    #[inline]
    fn make_ready(&mut self, pid: usize) {
        self.status[pid] = Status::Ready;
        let clk = self.clocks[pid];
        self.ready.push(std::cmp::Reverse((clk, pid)));
        if let Some(y) = &mut self.yield_at {
            if y.next.is_none_or(|(p, c)| (clk, pid) < (c, p)) {
                *y = YieldAt::new(Some((pid, clk)), self.quantum);
            }
        }
    }

    /// Claim the turn for `pid` (which must be `Ready`); its heap entry
    /// goes stale and is lazily discarded.
    #[inline]
    fn set_running(&mut self, pid: usize) {
        debug_assert_eq!(self.status[pid], Status::Ready);
        self.status[pid] = Status::Running;
        self.yield_at = None;
    }

    /// The `Ready` processor with the minimum clock (lowest pid on ties —
    /// the same selection the old linear scan made, because the heap
    /// orders `(clock, pid)` lexicographically). Pops stale entries
    /// (status or clock moved on since push) from the top; amortized O(1)
    /// against the O(P) scan this replaces.
    fn min_ready(&mut self) -> Option<(usize, u64)> {
        while let Some(&std::cmp::Reverse((clk, pid))) = self.ready.peek() {
            if self.status[pid] == Status::Ready && self.clocks[pid] == clk {
                return Some((pid, clk));
            }
            self.ready.pop();
        }
        None
    }

    /// Who runs next and up to which clock the running processor may run
    /// first: behind the scalar yield, the fused loop's and the bulk budget
    /// alike. Cached, as only a switch or a wake-up changes it: `make_ready`
    /// lowers it, `set_running` makes it stale, a stale read recomputes it
    /// from the heap, and every dev-profile read re-proves it.
    #[inline]
    fn yield_at(&mut self) -> YieldAt {
        if self.yield_at.is_none() || cfg!(debug_assertions) {
            let fresh = YieldAt::new(self.min_ready(), self.quantum);
            debug_assert!(
                self.yield_at.is_none_or(|y| y == fresh),
                "stale yield threshold"
            );
            self.yield_at = Some(fresh);
        }
        self.yield_at.expect("computed above")
    }

    /// The inline yield test: a fresh cache says `pid` may run on.
    #[inline]
    pub(crate) fn keeps_turn(&mut self, pid: usize) -> bool {
        self.yield_at.is_some() && self.clocks[pid] <= self.yield_at().threshold
    }

    /// If the running `pid` has run more than a quantum past the min-clock
    /// `Ready` processor, make it `Ready` and give that one the turn.
    #[inline]
    pub(crate) fn yield_target(&mut self, pid: usize) -> Option<usize> {
        let y = self.yield_at();
        if self.clocks[pid] <= y.threshold {
            return None;
        }
        let (next, _) = y.next.expect("a yield needs a Ready processor");
        // In this order `make_ready` finds the cache stale and leaves it.
        self.set_running(next);
        self.make_ready(pid);
        Some(next)
    }

    /// The running processor blocked or finished: run the min-clock
    /// `Ready` processor, if any.
    pub(crate) fn dispatch(&mut self) -> Option<usize> {
        let (next, _) = self.yield_at().next?;
        self.set_running(next);
        Some(next)
    }

    /// Report a scheduler action on the protocol event stream, after the
    /// accesses still pending (gated and invisible — see [`crate::probe`]).
    #[inline]
    fn emit(&mut self, ev: ProtoEvent<'static>) {
        if self.probe.is_some() {
            self.pending.push(ev);
            self.flush();
        }
    }

    /// Hand the pending events to the probe, in order, under one lock.
    fn flush(&mut self) {
        if let Some(p) = &self.probe {
            p.emit(self.timing_on, &self.pending);
            self.pending.clear();
        }
    }

    /// Price one platform action of `pid` against its clock and
    /// statistics: the one place the scheduler lends out a [`Timing`].
    #[inline]
    fn priced<R>(
        &mut self,
        pid: usize,
        f: impl FnOnce(&mut dyn Platform, &mut Timing<'_>) -> R,
    ) -> R {
        let mut t = Timing {
            pid,
            now: &mut self.clocks[pid],
            stats: &mut self.stats[pid],
            placement: self.alloc.map(),
            timing_on: self.timing_on,
        };
        f(&mut *self.platform, &mut t)
    }

    /// The one observer call of an operation that moved `pid`'s clock, one
    /// inline test when the run is undiagnosed. `access` is what a load or
    /// store touched; `forced` marks a phase, barrier or timing boundary.
    /// The rest is out of line, and entered only if a consumer reads it.
    #[inline]
    fn observe(&mut self, pid: usize, forced: bool, access: Option<Touch>) {
        if let Some(p) = &self.probe {
            if (access.is_some() && p.accesses) || (self.timing_on && p.sampling) {
                self.observe_out_of_line(pid, forced, access);
            }
        }
    }

    /// The rest of [`Inner::observe`]: the operation's access joins the
    /// pending batch, and a cumulative counter snapshot at `pid`'s clock
    /// goes out with it; each only if a consumer reads it (the snapshot
    /// only in the timed region, where the metrics engine listens).
    #[inline(never)]
    fn observe_out_of_line(&mut self, pid: usize, forced: bool, access: Option<Touch>) {
        let Some(p) = &self.probe else { return };
        let sampling = self.timing_on && p.sampling;
        if let Some((base, stride, len, words, write)) = access.filter(|_| p.accesses) {
            self.pending.push(ProtoEvent::Access {
                pid,
                base,
                stride,
                len,
                words,
                write,
            });
            if !sampling && self.pending.len() >= ACCESS_BATCH {
                self.flush();
            }
        }
        if sampling {
            let s = &self.stats[pid];
            let sample = crate::metrics::ProcSample {
                interval: 0, // overwritten by the sink from `ts`
                ts: self.clocks[pid],
                compute: s.get(Bucket::Compute),
                data_wait: s.get(Bucket::DataWait),
                lock_wait: s.get(Bucket::LockWait),
                barrier_wait: s.get(Bucket::BarrierWait),
                remote_fetches: s.counters.remote_fetches,
            };
            self.emit(ProtoEvent::ProcSample {
                pid,
                sample,
                forced,
            });
        }
    }

    /// Count `n` occurrences of the named application-level event for `pid`
    /// at its current clock (e.g. KV requests served). Scheduling-neutral:
    /// touches no clocks, statistics or statuses, so it is invisible to the
    /// simulation and identical across engines.
    pub(crate) fn op_metric_event(&mut self, pid: usize, name: &'static str, n: u64) {
        let at = self.clocks[pid];
        self.emit(ProtoEvent::AppCount { pid, name, at, n });
    }

    pub(crate) fn describe(&self) -> String {
        let mut s = String::new();
        for pid in 0..self.status.len() {
            s.push_str(&format!(
                "  p{pid}: {:?} clock={}\n",
                self.status[pid], self.clocks[pid]
            ));
        }
        s
    }

    // ---- the reentrant step API ----
    //
    // Every simulated operation is a non-blocking state transition on
    // `Inner`, shared verbatim by both engines: the classic scheduler
    // calls them holding the turn and then switches coroutines per the
    // returned `Step`, while the fused event loop ([`crate::fused`]) owns
    // the `Inner` outright and just switches state machines. One
    // implementation of the transitions — clock advance, FCFS lock
    // queues, barrier membership, resource pricing, the events every
    // diagnostic layer consumes — is what makes the engines bit-identical
    // by construction rather than by careful duplication.

    /// Charge `cycles` of application compute time to `pid`.
    pub(crate) fn op_work(&mut self, pid: usize, cycles: u64) -> Step {
        if !self.timing_on {
            // Clocks stay mutually equal while timing is off (nothing
            // advances them), so `maybe_yield` could never fire — skip its
            // ready-heap probe entirely.
            return Step::Run;
        }
        self.clocks[pid] += cycles;
        self.stats[pid].add(Bucket::Compute, cycles);
        self.observe(pid, false, None);
        Step::MaybeYield
    }

    /// One yield-budget chunk of fused per-element compute. Returns the
    /// number of elements (of `left` remaining) consumed, or `None` when
    /// timing is off and the whole operation is a no-op.
    pub(crate) fn op_work_fused_chunk(
        &mut self,
        pid: usize,
        per_elem: u64,
        left: u64,
    ) -> Option<u64> {
        if !self.timing_on {
            return None; // as in `op_work`: nothing to charge, nothing can yield
        }
        let budget = self.yield_at().threshold;
        let now = self.clocks[pid];
        // First element index (1-based) whose completion pushes the
        // clock past the budget — exactly where the scalar path's
        // per-element `maybe_yield` would hand the turn over.
        let k = if now > budget {
            1
        } else {
            match (budget - now).checked_div(per_elem) {
                // per_elem == 0: the batch can never reach the budget
                None => left,
                Some(q) => q.saturating_add(1).min(left),
            }
        };
        self.clocks[pid] += k * per_elem;
        self.stats[pid].add(Bucket::Compute, k * per_elem);
        self.observe(pid, false, None);
        Some(k)
    }

    /// Set `pid`'s application phase (sticky, saturating; no-op changes
    /// leave the statistics untouched).
    pub(crate) fn op_set_phase(&mut self, pid: usize, phase: usize) {
        let old = self.stats[pid].phase();
        if old != phase {
            self.stats[pid].set_phase(phase);
            let new = self.stats[pid].phase(); // saturated when out of range
            if new != old {
                let at = self.clocks[pid];
                self.emit(ProtoEvent::PhaseEnd {
                    pid,
                    at,
                    phase: old,
                });
                self.emit(ProtoEvent::PhaseBegin {
                    pid,
                    at,
                    phase: new,
                });
                self.observe(pid, true, None);
            }
        }
    }

    /// Bump-allocate shared memory.
    pub(crate) fn op_alloc(
        &mut self,
        label: &'static str,
        bytes: u64,
        align: u64,
        placement: Placement,
    ) -> Addr {
        self.alloc.alloc_labeled(label, bytes, align, placement)
    }

    /// Perform one load for `pid`.
    pub(crate) fn op_load(&mut self, pid: usize, addr: Addr, len: u8) -> u64 {
        let v = self.priced(pid, |pf, t| pf.load(t, addr, len));
        self.observe(pid, false, Some((addr, len as u64, len, 1, false)));
        v
    }

    /// Perform one store for `pid`.
    pub(crate) fn op_store(&mut self, pid: usize, addr: Addr, len: u8, val: u64) {
        self.priced(pid, |pf, t| pf.store(t, addr, len, val));
        self.observe(pid, false, Some((addr, len as u64, len, 1, true)));
    }

    /// One yield-budget chunk of a bulk load: loads `len`-byte words at
    /// `base + i*stride` into `out` until the budget is exhausted, reporting
    /// them as one access run. Returns how many words were done (always ≥ 1
    /// for a non-empty `out`).
    pub(crate) fn op_load_chunk(
        &mut self,
        pid: usize,
        base: Addr,
        stride: u64,
        len: u8,
        out: &mut [u64],
    ) -> usize {
        let budget = self.yield_at().threshold;
        let k = self.priced(pid, |pf, t| pf.load_bulk(t, base, stride, len, out, budget));
        debug_assert!(k >= 1, "load_bulk must perform at least one word");
        self.observe(pid, false, Some((base, stride, len, k, false)));
        k
    }

    /// One yield-budget chunk of a bulk store (twin of
    /// [`Inner::op_load_chunk`]).
    pub(crate) fn op_store_chunk(
        &mut self,
        pid: usize,
        base: Addr,
        stride: u64,
        len: u8,
        vals: &[u64],
    ) -> usize {
        let budget = self.yield_at().threshold;
        let k = self.priced(pid, |pf, t| {
            pf.store_bulk(t, base, stride, len, vals, budget)
        });
        debug_assert!(k >= 1, "store_bulk must perform at least one word");
        self.observe(pid, false, Some((base, stride, len, k, true)));
        k
    }

    /// `pid` acquires lock `id`: grant immediately when free (paying
    /// protocol and availability stalls) or join the FCFS wait queue.
    pub(crate) fn op_lock(&mut self, pid: usize, id: u32) -> Step {
        self.stats[pid].counters.lock_acquires += 1;
        self.emit(ProtoEvent::LockRequest {
            pid,
            lock: id,
            at: self.clocks[pid],
        });
        let arrival = self.priced(pid, |pf, t| pf.acquire_request(t, id));
        let lk = self.locks.entry(id).or_default();
        if lk.held_by.is_none() && lk.waiters.is_empty() {
            lk.held_by = Some(pid);
            let grant_at = lk.avail_at.max(arrival);
            let last_release = lk.last_release;
            let timing_on = self.timing_on;
            let resume = self.platform.acquire_grant(
                pid,
                id,
                grant_at,
                &mut self.stats[pid],
                self.alloc.map(),
                timing_on,
            );
            let t0 = self.clocks[pid];
            let (mut src, mut src_ts) = (pid, t0);
            if self.timing_on && resume > t0 {
                self.stats[pid].add(Bucket::LockWait, resume - t0);
                self.clocks[pid] = resume;
                // The lock was free but the acquire still stalled (protocol
                // round trips, or paying off the previous holder's
                // `avail_at`): enabled by the last releaser if one exists
                // (a hand-off iff that is a different processor), else
                // intrinsic to this processor.
                (src, src_ts) = last_release.unwrap_or((pid, t0));
            }
            self.emit(ProtoEvent::LockGrant {
                pid,
                lock: id,
                t0,
                t1: self.clocks[pid],
                src,
                src_ts,
            });
            self.observe(pid, false, None);
            Step::Run
        } else {
            lk.waiters.push(Waiter { pid, arrival });
            self.blocked_at[pid] = self.clocks[pid];
            self.status[pid] = Status::Blocked;
            Step::Block
        }
    }

    /// `pid` releases lock `id`, granting it to the earliest-arrived
    /// waiter (if any), who becomes runnable at its resume time.
    pub(crate) fn op_unlock(&mut self, pid: usize, id: u32) -> Step {
        let avail = self.priced(pid, |pf, t| pf.release(t, id));
        self.emit(ProtoEvent::LockRelease {
            pid,
            lock: id,
            at: self.clocks[pid],
        });
        let release_ts = self.clocks[pid];
        let lk = self
            .locks
            .get_mut(&id)
            .expect("unlock of never-locked lock");
        assert_eq!(lk.held_by, Some(pid), "unlock by non-holder p{pid}");
        lk.held_by = None;
        lk.avail_at = avail;
        lk.last_release = Some((pid, release_ts));
        if !lk.waiters.is_empty() {
            // Earliest virtual arrival wins; pid breaks ties deterministically.
            let mut best = 0;
            for (i, w) in lk.waiters.iter().enumerate() {
                let b = &lk.waiters[best];
                if (w.arrival, w.pid) < (b.arrival, b.pid) {
                    best = i;
                }
            }
            let w = lk.waiters.swap_remove(best);
            lk.held_by = Some(w.pid);
            let grant_at = avail.max(w.arrival);
            let timing_on = self.timing_on;
            let resume = self.platform.acquire_grant(
                w.pid,
                id,
                grant_at,
                &mut self.stats[w.pid],
                self.alloc.map(),
                timing_on,
            );
            let resume = resume.max(self.blocked_at[w.pid]);
            if self.timing_on {
                let waited = resume - self.blocked_at[w.pid];
                self.stats[w.pid].add(Bucket::LockWait, waited);
            }
            // The waiter's resume was enabled by this release at
            // `release_ts` on the releaser's timeline: always a hand-off.
            self.emit(ProtoEvent::LockGrant {
                pid: w.pid,
                lock: id,
                t0: self.blocked_at[w.pid],
                t1: resume,
                src: pid,
                src_ts: release_ts,
            });
            self.clocks[w.pid] = resume;
            self.observe(w.pid, false, None);
            self.make_ready(w.pid);
        }
        self.observe(pid, false, None);
        Step::MaybeYield
    }

    /// `pid` arrives at barrier `id`; the last arrival releases everyone
    /// at their platform-priced resume times.
    pub(crate) fn op_barrier(&mut self, pid: usize, id: u32) -> Step {
        let nprocs = self.status.len();
        self.stats[pid].counters.barriers += 1;
        let t_arr = self.priced(pid, |pf, t| pf.barrier_arrive(t, id));
        self.blocked_at[pid] = self.clocks[pid];
        self.emit(ProtoEvent::BarrierEnter {
            pid,
            barrier: id,
            at: self.clocks[pid],
        });
        let bar = self.barriers.entry(id).or_default();
        bar.arrivals.push((pid, t_arr));
        if bar.arrivals.len() == nprocs {
            let mut arr = vec![0u64; nprocs];
            for &(p, a) in bar.arrivals.iter() {
                arr[p] = a;
            }
            bar.arrivals.clear();
            let timing_on = self.timing_on;
            let resumes = self.platform.barrier_release(
                id,
                &arr,
                &mut self.stats,
                self.alloc.map(),
                timing_on,
            );
            debug_assert_eq!(resumes.len(), nprocs);
            // The last arriver (earliest pid on ties) gates every exit: it
            // is the provenance of the barrier-release edges.
            let mut last = 0usize;
            for q in 1..nprocs {
                if arr[q] > arr[last] {
                    last = q;
                }
            }
            let last_ts = self.blocked_at[last];
            for q in 0..nprocs {
                let resume = resumes[q].max(self.blocked_at[q]);
                if self.timing_on {
                    let waited = resume - self.blocked_at[q];
                    self.stats[q].add(Bucket::BarrierWait, waited);
                }
                self.emit(ProtoEvent::BarrierExit {
                    pid: q,
                    barrier: id,
                    t0: self.blocked_at[q],
                    t1: resume,
                    last,
                    last_ts,
                });
                self.clocks[q] = resume;
                self.observe(q, true, None);
                if q != pid {
                    debug_assert_eq!(self.status[q], Status::Blocked);
                    self.make_ready(q);
                }
            }
            self.emit(ProtoEvent::Join);
            Step::MaybeYield
        } else {
            self.status[pid] = Status::Blocked;
            Step::Block
        }
    }

    /// `pid` arrives at the start-of-timed-region rendezvous; the last
    /// arrival resets clocks, statistics and platform resource state.
    pub(crate) fn op_start_timing(&mut self, pid: usize) -> Step {
        let nprocs = self.status.len();
        self.start_arrivals += 1;
        if self.start_arrivals == nprocs {
            self.start_arrivals = 0;
            self.platform.reset_timing();
            // Warm-up accesses still pending go out as warm-up traffic.
            self.flush();
            self.timing_on = true;
            for q in 0..nprocs {
                self.clocks[q] = 0;
                self.blocked_at[q] = 0;
                self.stats[q].reset();
                if q != pid && self.status[q] == Status::Blocked {
                    self.make_ready(q);
                }
            }
            // Restart every consumer so reports cover the window that
            // begins here; open each processor's current phase and anchor
            // its series with a zero sample at virtual time zero.
            if let Some(p) = self.probe.clone() {
                p.reset();
                for q in 0..nprocs {
                    let phase = self.stats[q].phase();
                    self.emit(ProtoEvent::PhaseBegin {
                        pid: q,
                        at: 0,
                        phase,
                    });
                    self.observe(q, true, None);
                }
            }
            self.emit(ProtoEvent::Join);
            Step::Run
        } else {
            self.blocked_at[pid] = self.clocks[pid];
            self.status[pid] = Status::Blocked;
            Step::Block
        }
    }

    /// `pid` arrives at the end-of-timed-region rendezvous; the last
    /// arrival settles everyone at the maximum clock and freezes timing.
    pub(crate) fn op_stop_timing(&mut self, pid: usize) -> Step {
        let nprocs = self.status.len();
        self.stop_arrivals += 1;
        if self.stop_arrivals == nprocs {
            self.stop_arrivals = 0;
            // Settle everyone at the maximum clock (a barrier in effect),
            // then freeze. The overall straggler (earliest pid on ties) is
            // the provenance of everyone else's settle wait.
            let max = self.clocks.iter().copied().max().unwrap_or(0);
            let mut straggler = 0usize;
            for q in 1..nprocs {
                if self.clocks[q] > self.clocks[straggler] {
                    straggler = q;
                }
            }
            for q in 0..nprocs {
                if self.timing_on {
                    let d = max - self.clocks[q];
                    self.emit(ProtoEvent::Settle {
                        pid: q,
                        t0: self.clocks[q],
                        t1: max,
                        straggler,
                    });
                    self.clocks[q] = max;
                    self.stats[q].add(Bucket::BarrierWait, d);
                    // Close each processor's open phase at the settle point
                    // so phase spans cover the whole timed region.
                    let phase = self.stats[q].phase();
                    self.emit(ProtoEvent::PhaseEnd {
                        pid: q,
                        at: max,
                        phase,
                    });
                    // Final sample at the settle point so every series ends
                    // with the run totals.
                    self.observe(q, true, None);
                }
                if q != pid && self.status[q] == Status::Blocked {
                    self.make_ready(q);
                }
            }
            self.timing_on = false;
            self.emit(ProtoEvent::Join);
            Step::Run
        } else {
            self.blocked_at[pid] = self.clocks[pid];
            self.status[pid] = Status::Blocked;
            Step::Block
        }
    }

    /// `pid`'s body returned: mark it done.
    pub(crate) fn op_finish(&mut self, pid: usize) {
        self.status[pid] = Status::Done;
        self.ndone += 1;
    }
}

/// What a load or store touched, for [`ProtoEvent::Access`]: `(base,
/// stride, len, words, write)`.
type Touch = (Addr, u64, u8, usize, bool);

/// Accesses the scheduler holds back before it takes the probe's lock for
/// them: enough to amortize the lock, few enough to stay in cache.
const ACCESS_BATCH: usize = 256;

/// A simulated processor handle: the API applications program against.
///
/// **Host-lock caveat:** every method on `Proc` may suspend the calling
/// simulated processor to run a different one — on the same host thread.
/// Never invoke a `Proc` method while holding a host-side lock (e.g. a
/// `std::sync::Mutex` used to extract results) that another simulated
/// processor might also take: it would wait for itself. Acquire such locks
/// only around plain host code, after the simulated values have been read
/// into locals.
pub struct Proc {
    pid: usize,
    nprocs: usize,
    bulk: bool,
    backend: Backend,
    /// The word buffer the typed slice wrappers convert through, at most
    /// [`SLICE_CHUNK`] words. It is reused across calls so that a short
    /// slice (LU's 32-word segments) pays for its own words only, not for
    /// clearing a whole chunk.
    words: Vec<u64>,
}

/// What a [`Proc`] handle is attached to: the classic scheduler (both the
/// sequential engine and the replay half of the sharded engine), or a
/// generation context of the sharded engine (see [`crate::shard`]), which
/// records the operation stream instead of simulating it.
enum Backend {
    Classic(Arc<Shared>),
    Gen(Box<crate::shard::GenCtx>),
}

/// Chunk size (words) for the slice convenience wrappers: big enough to
/// amortize a scheduler entry, and the cap on each `Proc`'s reused word
/// buffer. Every wrapper splits its slice at these boundaries, which fix
/// where `load_slice`/`store_slice` calls (and sharded-engine descriptors)
/// begin and end.
const SLICE_CHUNK: usize = 1024;

impl Proc {
    /// The classic scheduler state. Reachable only from methods (or arms)
    /// that are never entered in generation mode.
    #[inline(always)]
    fn shared(&self) -> &Arc<Shared> {
        match &self.backend {
            Backend::Classic(s) => s,
            Backend::Gen(_) => unreachable!("generation-mode Proc has no scheduler"),
        }
    }

    /// The generation context, if this handle is a sharded-engine
    /// generation front-end.
    #[inline(always)]
    fn gen(&mut self) -> Option<&mut crate::shard::GenCtx> {
        match &mut self.backend {
            Backend::Gen(ctx) => Some(ctx),
            Backend::Classic(_) => None,
        }
    }

    /// This processor's id (0-based).
    #[inline(always)]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Total number of simulated processors.
    #[inline(always)]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Charge `cycles` of application compute time.
    #[inline]
    pub fn work(&mut self, cycles: u64) {
        if let Some(ctx) = self.gen() {
            // With timing off this is a complete no-op in the classic
            // engine, so nothing needs replaying.
            if ctx.timing {
                ctx.emit(Desc::Work(cycles));
            }
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_work(self.pid, cycles);
        self.step_end(g, step);
    }

    /// Count `n` occurrences of a named application-level event (e.g.
    /// requests served) in the run's interval metrics (see
    /// [`crate::metrics`]), timestamped at this processor's current virtual
    /// clock. Free when the run does not record metrics or timing is off;
    /// never affects timing, scheduling or statistics either way — the
    /// `name` keys an [`crate::metrics::EventSeries`] in the report.
    pub fn metric_add(&mut self, name: &'static str, n: u64) {
        if let Some(ctx) = self.gen() {
            // Replay needs a descriptor only when a sink exists to count
            // it; metrics-off streams stay byte-identical.
            if ctx.timing && ctx.metrics {
                ctx.emit(Desc::MetricEvent(name, n));
            }
            return;
        }
        let mut g = self.shared().state();
        g.op_metric_event(self.pid, name, n);
    }

    /// Set the current application phase for per-phase time attribution.
    /// The phase is sticky across `start_timing`, so calls while timing is
    /// off still record it — but a no-op change returns without touching
    /// the statistics.
    pub fn set_phase(&mut self, phase: usize) {
        if let Some(ctx) = self.gen() {
            ctx.emit(Desc::SetPhase(phase));
            return;
        }
        let mut g = self.shared().state();
        g.op_set_phase(self.pid, phase);
    }

    /// Allocate shared memory (bump allocation; never freed).
    pub fn alloc_shared(&mut self, bytes: u64, align: u64, placement: Placement) -> Addr {
        self.alloc_shared_labeled("", bytes, align, placement)
    }

    /// Allocate shared memory with a diagnostic label; race reports quote
    /// the label of the allocation containing the racy word.
    pub fn alloc_shared_labeled(
        &mut self,
        label: &'static str,
        bytes: u64,
        align: u64,
        placement: Placement,
    ) -> Addr {
        if let Some(ctx) = self.gen() {
            // Round trip: bump addresses depend on allocation order, which
            // only replay (running the classic scheduler) can decide.
            match ctx.roundtrip(Desc::Alloc {
                label,
                bytes,
                align,
                placement,
            }) {
                Reply::Addr(a) => return a,
                Reply::Sync => unreachable!("alloc answered without an address"),
            }
        }
        let mut g = self.shared().state();
        g.op_alloc(label, bytes, align, placement)
    }

    /// Load `len` (1/2/4/8) bytes from the simulated shared address space.
    #[inline]
    pub fn load(&mut self, addr: Addr, len: u8) -> u64 {
        if let Some(ctx) = self.gen() {
            ctx.emit(Desc::Load { addr, len });
            return ctx.plane.load(addr, len);
        }
        let mut g = self.shared().state();
        let v = g.op_load(self.pid, addr, len);
        self.maybe_yield(g);
        v
    }

    /// Store the low `len` bytes of `val` to the simulated address space.
    #[inline]
    pub fn store(&mut self, addr: Addr, len: u8, val: u64) {
        if let Some(ctx) = self.gen() {
            ctx.plane.store(addr, len, val);
            ctx.emit(Desc::Store { addr, len, val });
            return;
        }
        let mut g = self.shared().state();
        g.op_store(self.pid, addr, len, val);
        self.maybe_yield(g);
    }

    /// Convenience: load an `f64`.
    #[inline]
    pub fn read_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.load(addr, 8))
    }

    /// Convenience: store an `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: Addr, v: f64) {
        self.store(addr, 8, v.to_bits());
    }

    /// Convenience: load a `u32`.
    #[inline]
    pub fn read_u32(&mut self, addr: Addr) -> u32 {
        self.load(addr, 4) as u32
    }

    /// Convenience: store a `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        self.store(addr, 4, v as u64);
    }

    // ---- bulk operations ----
    //
    // One scheduler entry per *batch* instead of per word. The
    // platform walks its tag arrays / page tables per line-or-page run and
    // stops at the first word that exhausts the yield budget (see
    // `Inner::yield_at`), and reports each batch as one access run. The
    // result is bit-identical `RunStats` to the scalar path — asserted over
    // every app x class x platform in `tests/equivalence.rs`.

    /// Load `out.len()` values of `len` bytes each from `addr + i*stride`.
    pub fn load_slice(&mut self, addr: Addr, stride: u64, len: u8, out: &mut [u64]) {
        if let Some(ctx) = self.gen() {
            // One descriptor regardless of `bulk`: the replay interpreter's
            // own `load_slice` call degrades to the scalar path when the
            // run is configured scalar.
            ctx.emit(Desc::LoadSlice {
                addr,
                stride,
                len,
                n: out.len(),
            });
            ctx.plane.load_slice(addr, stride, len, out);
            return;
        }
        if !self.bulk {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.load(addr + i as u64 * stride, len);
            }
            return;
        }
        let mut done = 0;
        while done < out.len() {
            let mut g = self.shared().state();
            let base = addr + done as u64 * stride;
            done += g.op_load_chunk(self.pid, base, stride, len, &mut out[done..]);
            self.maybe_yield(g);
        }
    }

    /// Store `vals[i]` (`len` bytes each) to `addr + i*stride`.
    pub fn store_slice(&mut self, addr: Addr, stride: u64, len: u8, vals: &[u64]) {
        if let Some(ctx) = self.gen() {
            ctx.plane.store_slice(addr, stride, len, vals);
            ctx.emit(Desc::StoreSlice {
                addr,
                stride,
                len,
                vals: vals.to_vec(),
            });
            return;
        }
        if !self.bulk {
            for (i, &v) in vals.iter().enumerate() {
                self.store(addr + i as u64 * stride, len, v);
            }
            return;
        }
        let mut done = 0;
        while done < vals.len() {
            let mut g = self.shared().state();
            let base = addr + done as u64 * stride;
            done += g.op_store_chunk(self.pid, base, stride, len, &vals[done..]);
            self.maybe_yield(g);
        }
    }

    /// Call `chunk(self, words, i, n)` for consecutive pieces `[i, i + n)`
    /// of `0..count`, each at most [`SLICE_CHUNK`] long, lending it this
    /// processor's word buffer (taken out for the loop, put back after).
    #[inline]
    fn chunked(
        &mut self,
        count: usize,
        mut chunk: impl FnMut(&mut Self, &mut Vec<u64>, usize, usize),
    ) {
        let mut words = std::mem::take(&mut self.words);
        let mut i = 0;
        while i < count {
            let n = (count - i).min(SLICE_CHUNK);
            chunk(self, &mut words, i, n);
            i += n;
        }
        self.words = words;
    }

    /// Bulk convenience: load `out.len()` `f64`s spaced `stride` bytes apart.
    pub fn read_f64_slice(&mut self, addr: Addr, stride: u64, out: &mut [f64]) {
        self.chunked(out.len(), |p, words, i, n| {
            words.resize(n, 0);
            p.load_slice(addr + i as u64 * stride, stride, 8, words);
            for (o, &w) in out[i..i + n].iter_mut().zip(words.iter()) {
                *o = f64::from_bits(w);
            }
        });
    }

    /// Bulk convenience: store `vals` as `f64`s spaced `stride` bytes apart.
    pub fn write_f64_slice(&mut self, addr: Addr, stride: u64, vals: &[f64]) {
        self.chunked(vals.len(), |p, words, i, n| {
            words.clear();
            words.extend(vals[i..i + n].iter().map(|v| v.to_bits()));
            p.store_slice(addr + i as u64 * stride, stride, 8, words);
        });
    }

    /// Bulk convenience: load `out.len()` `u32`s spaced `stride` bytes apart.
    pub fn read_u32_slice(&mut self, addr: Addr, stride: u64, out: &mut [u32]) {
        self.chunked(out.len(), |p, words, i, n| {
            words.resize(n, 0);
            p.load_slice(addr + i as u64 * stride, stride, 4, words);
            for (o, &w) in out[i..i + n].iter_mut().zip(words.iter()) {
                *o = w as u32;
            }
        });
    }

    /// Bulk convenience: store `vals` as `u32`s spaced `stride` bytes apart.
    pub fn write_u32_slice(&mut self, addr: Addr, stride: u64, vals: &[u32]) {
        self.chunked(vals.len(), |p, words, i, n| {
            words.clear();
            words.extend(vals[i..i + n].iter().map(|&v| v as u64));
            p.store_slice(addr + i as u64 * stride, stride, 4, words);
        });
    }

    /// Store `count` copies of the low `len` bytes of `val` contiguously
    /// from `addr` (stride = `len`): the bulk clear/memset.
    pub fn fill(&mut self, addr: Addr, len: u8, count: u64, val: u64) {
        let count = usize::try_from(count).expect("fill count fits the host address space");
        self.chunked(count, |p, words, i, n| {
            words.clear();
            words.resize(n, val);
            p.store_slice(addr + (i * len as usize) as u64, len as u64, len, words);
        });
    }

    /// Charge `count` elements of `per_elem` compute cycles each — the fused
    /// equivalent of calling [`Proc::work`]`(per_elem)` once per element
    /// (e.g. one flop-pair per word streamed), entering the scheduler once
    /// per yield budget instead of once per element.
    pub fn work_fused(&mut self, per_elem: u64, count: u64) {
        if let Some(ctx) = self.gen() {
            if ctx.timing {
                ctx.emit(Desc::WorkFused { per_elem, count });
            }
            return;
        }
        if !self.bulk {
            for _ in 0..count {
                self.work(per_elem);
            }
            return;
        }
        let mut left = count;
        while left > 0 {
            let mut g = self.shared().state();
            match g.op_work_fused_chunk(self.pid, per_elem, left) {
                None => return, // timing off: nothing to charge, nothing can yield
                Some(k) => left -= k,
            }
            self.maybe_yield(g);
        }
    }

    /// Acquire lock `id` (blocking in virtual time).
    pub fn lock(&mut self, id: u32) {
        if let Some(ctx) = self.gen() {
            // Round trip: the reply arrives only after replay granted this
            // processor the lock, so generation threads enter overlapping
            // critical sections in replay's (virtual-arrival) grant order —
            // the happens-before edge that makes value-plane reads, and
            // hence the streams themselves, deterministic.
            ctx.roundtrip(Desc::Lock(id));
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_lock(self.pid, id);
        self.step_end(g, step);
    }

    /// Release lock `id`, granting it to the earliest-arrived waiter if any.
    pub fn unlock(&mut self, id: u32) {
        if let Some(ctx) = self.gen() {
            // Fire-and-forget: the next acquirer's reply cannot arrive
            // until replay has consumed this release, so the critical
            // section's plane writes are visible to it on the host.
            ctx.emit(Desc::Unlock(id));
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_unlock(self.pid, id);
        self.step_end(g, step);
    }

    /// Wait at barrier `id` until all processors arrive.
    pub fn barrier(&mut self, id: u32) {
        if let Some(ctx) = self.gen() {
            ctx.roundtrip(Desc::Barrier(id));
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_barrier(self.pid, id);
        self.step_end(g, step);
    }

    /// Synchronize all processors, then reset clocks, statistics and
    /// platform resource state: the start of the timed region. Protocol and
    /// cache *state* is preserved (warm start, as in the paper).
    pub fn start_timing(&mut self) {
        if let Some(ctx) = self.gen() {
            ctx.roundtrip(Desc::StartTiming);
            ctx.timing = true;
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_start_timing(self.pid);
        self.step_end(g, step);
    }

    /// Synchronize all processors and freeze clocks and statistics: the end
    /// of the timed region. Use before reading results out of simulated
    /// memory so the extraction does not pollute the measurements.
    pub fn stop_timing(&mut self) {
        if let Some(ctx) = self.gen() {
            ctx.roundtrip(Desc::StopTiming);
            ctx.timing = false;
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_stop_timing(self.pid);
        self.step_end(g, step);
    }

    /// True while the timed region is active.
    pub fn timing_on(&self) -> bool {
        match &self.backend {
            // The generation-side mirror: exact, because timing only
            // toggles at all-processor rendezvous this thread round-trips.
            Backend::Gen(ctx) => ctx.timing,
            Backend::Classic(_) => self.shared().state().timing_on,
        }
    }

    /// Current virtual clock (cycles).
    ///
    /// # Panics
    /// Under the sharded engine (`with_shards(n > 1)`): virtual time exists
    /// only on the replay side, after this thread's operations ran.
    pub fn now(&self) -> u64 {
        match &self.backend {
            Backend::Gen(_) => panic!(
                "Proc::now is not available under the sharded engine \
                 (virtual time is computed by replay, behind this thread)"
            ),
            Backend::Classic(_) => self.shared().state().clocks[self.pid],
        }
    }

    // ---- scheduling internals ----
    //
    // The coroutine half of the sequential engine: an op method (above)
    // already performed the state transition; these realize the `Step` it
    // returned by switching to another processor's coroutine. The borrow
    // of the scheduler state always ends *before* the switch — the
    // processor switched to borrows it next (`coro::Set::switch_to`
    // asserts this).

    /// Realize an op's `Step`: keep running, offer the turn, or give it up
    /// entirely.
    #[inline]
    fn step_end(&self, g: RefMut<'_, Inner>, step: Step) {
        match step {
            Step::Run => drop(g),
            Step::MaybeYield => self.maybe_yield(g),
            Step::Block => self.suspend(g),
        }
    }

    /// Hand the turn over if some runnable processor has fallen more than a
    /// quantum behind this one.
    #[inline]
    fn maybe_yield(&self, mut g: RefMut<'_, Inner>) {
        if !g.keeps_turn(self.pid) {
            self.yield_now(g);
        }
    }

    /// The rest of [`Proc::maybe_yield`], out of line.
    #[inline(never)]
    fn yield_now(&self, mut g: RefMut<'_, Inner>) {
        if let Some(next) = g.yield_target(self.pid) {
            drop(g);
            self.shared().switch_to(next);
        }
    }

    /// The op already marked this processor non-runnable (Blocked): run a
    /// successor until someone makes this one runnable and switches back.
    fn suspend(&self, mut g: RefMut<'_, Inner>) {
        let next = self.dispatch_next(&mut g);
        drop(g);
        self.shared().switch_to(next);
    }

    /// Pick the next runnable processor (caller already gave up the turn)
    /// and mark it running; the driver's slot when every processor is done.
    /// Panics on deadlock.
    fn dispatch_next(&self, g: &mut Inner) -> usize {
        if let Some(next) = g.dispatch() {
            return next;
        }
        if g.ndone < g.status.len() {
            // Nobody is ready and the caller is blocked or done, so
            // everyone left is blocked for good.
            debug_assert!(g
                .status
                .iter()
                .all(|&s| s == Status::Blocked || s == Status::Done));
            let msg = format!(
                "simulated deadlock: no runnable processor\n{}",
                g.describe()
            );
            g.deadlock = Some(msg.clone());
            panic!("{msg}");
        }
        self.shared().driver()
    }

    /// Called when the body returns: mark Done and pick the successor. The
    /// caller — the coroutine's entry — returns that successor to
    /// [`coro::Set::drive`] instead of switching to it here, so that this
    /// handle and its `Arc` are dropped before the coroutine's last switch.
    fn finish(&self) -> usize {
        let mut g = self.shared().state();
        g.op_finish(self.pid);
        self.dispatch_next(&mut g)
    }
}

/// The message of a caught panic, as `panic!` produced it.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "simulated processor panicked".into())
}

/// Execute `body` on `cfg.nprocs` simulated processors over `platform` and
/// return the per-processor statistics of the timed region.
///
/// The body is invoked once per processor. The conventional shape is:
///
/// ```text
/// if p.pid() == 0 { allocate + initialize shared data }
/// p.barrier(INIT_BARRIER);
/// p.start_timing();
/// ... parallel computation ...
/// p.barrier(FINAL_BARRIER);
/// ```
pub fn run<F>(platform: Box<dyn Platform>, cfg: RunConfig, body: F) -> RunStats
where
    F: Fn(&mut Proc) + Sync,
{
    // The sharded engine requires the platform to certify (via the
    // min-cross-node-latency hook) that all cross-processor interactions
    // are mediated by replayed protocol actions; platforms that do not
    // fall back to the classic engine.
    if cfg.shards > 1 && platform.min_cross_node_latency().is_some() {
        run_sharded(platform, cfg, body)
    } else {
        run_classic(platform, cfg, body)
    }
}

/// Build the scheduler state both engines drive: processor 0 running,
/// everyone else ready at clock zero (and already in the ready heap).
pub(crate) fn build_inner(mut platform: Box<dyn Platform>, cfg: &RunConfig) -> Inner {
    let nprocs = cfg.nprocs;
    assert_eq!(
        platform.nprocs(),
        nprocs,
        "platform and RunConfig disagree on processor count"
    );
    assert!(nprocs >= 1);
    let probe = Probe::for_run(cfg);
    platform.set_probe(probe.clone());
    Inner {
        platform,
        alloc: GlobalAlloc::new(nprocs),
        clocks: vec![0; nprocs],
        stats: vec![ProcStats::default(); nprocs],
        status: {
            let mut v = vec![Status::Ready; nprocs];
            v[0] = Status::Running;
            v
        },
        ready: (1..nprocs).map(|pid| std::cmp::Reverse((0, pid))).collect(),
        yield_at: None,
        blocked_at: vec![0; nprocs],
        locks: FxMap::default(),
        barriers: FxMap::default(),
        start_arrivals: 0,
        stop_arrivals: 0,
        timing_on: false,
        quantum: cfg.quantum,
        ndone: 0,
        deadlock: None,
        probe,
        pending: Vec::new(),
    }
}

/// Harvest a completed run's `Inner` into `RunStats`: platform
/// finalization and the frozen diagnostic consumers, race reports
/// included, with addresses attributed to allocation labels. Shared by
/// both engines.
pub(crate) fn collect_stats(mut inner: Inner, cfg: &RunConfig) -> RunStats {
    inner.platform.finalize(&mut inner.stats);
    inner.flush();
    let sinks = inner.probe.map(|p| p.finish()).unwrap_or_default();
    let alloc = &inner.alloc;
    let label_of = |addr| alloc.label_of(addr);
    RunStats {
        sharing: sinks.sharing.map(|s| s.into_profile(label_of)),
        trace: sinks.trace.map(|t| {
            t.into_trace(
                cfg.label.clone(),
                cfg.phase_names.clone(),
                &inner.clocks,
                alloc.labeled_spans(),
            )
        }),
        metrics: sinks.metrics.map(|m| m.into_report(label_of)),
        races: (sinks.races.map(|d| d.into_reports(label_of))).unwrap_or_default(),
        procs: inner.stats,
        clocks: inner.clocks,
        phase_names: cfg.phase_names.clone(),
    }
}

/// The sequential engine: one coroutine per simulated processor, all on the
/// calling host thread, exactly one running at a time, every simulated
/// event priced inline. Both the `shards = 1` oracle and the classic replay
/// half of the sharded engine.
fn run_classic<F>(platform: Box<dyn Platform>, cfg: RunConfig, body: F) -> RunStats
where
    F: Fn(&mut Proc) + Sync,
{
    let nprocs = cfg.nprocs;
    let bulk = cfg.bulk;
    let shared = Arc::new(Shared::new(nprocs, build_inner(platform, &cfg)));

    // Processor 0 starts with the turn (see `build_inner`). A panic inside a
    // simulated processor (an application assertion, a detected deadlock)
    // comes back as `Err` once every other processor has been unwound out
    // of the call it was suspended in, its destructors run.
    let outcome = shared.drive(0, &|pid| {
        let mut proc = Proc {
            pid,
            nprocs,
            bulk,
            backend: Backend::Classic(Arc::clone(&shared)),
            words: Vec::new(),
        };
        body(&mut proc);
        proc.finish()
    });

    let mut inner = Arc::try_unwrap(shared)
        .ok()
        .expect("every simulated processor dropped its handle")
        .into_state();
    if let Err((pid, payload)) = outcome {
        // A deadlock is nobody's fault in particular: no `p{pid}` prefix.
        let msg = inner
            .deadlock
            .take()
            .unwrap_or_else(|| format!("p{pid}: {}", panic_message(&*payload)));
        panic!("simulated processor panicked: {msg}");
    }
    collect_stats(inner, &cfg)
}

/// The sharded engine: the application bodies run concurrently on
/// generation threads (at most `cfg.shards` executing at once) against the
/// host-side value plane, streaming operation descriptors to the
/// *unmodified* classic engine, whose per-processor bodies are interpreters
/// re-issuing the identical `Proc` calls. Statistics are therefore
/// bit-identical to `shards = 1` for data-race-free programs — see
/// [`crate::shard`] for the full argument and `tests/shard_equivalence.rs`
/// for the proof harness.
fn run_sharded<F>(platform: Box<dyn Platform>, cfg: RunConfig, body: F) -> RunStats
where
    F: Fn(&mut Proc) + Sync,
{
    use crate::shard::{Gate, GenCtx, ShardAbort, ValuePlane, CHANNEL_BATCHES};
    use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};

    /// The interpreter-side halves of one processor's channel pair.
    type ReplayEnd = (Receiver<Vec<Desc>>, Sender<Reply>);

    let nprocs = cfg.nprocs;
    let bulk = cfg.bulk;
    let batch_cap = cfg.shard_batch;
    let metrics_on = cfg.metrics > 0;
    let plane = Arc::new(ValuePlane::new());
    let gate = Arc::new(Gate::new(cfg.shards));

    // Per-processor descriptor and reply channels. The generation ends are
    // moved into the generation threads; the replay ends sit in mutexed
    // slots the interpreter bodies claim by pid (channel halves are `Send`
    // but not `Sync`).
    let mut gen_ends = Vec::with_capacity(nprocs);
    let mut replay_ends: Vec<Mutex<Option<ReplayEnd>>> = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let (desc_tx, desc_rx) = sync_channel::<Vec<Desc>>(CHANNEL_BATCHES);
        let (reply_tx, reply_rx) = channel::<Reply>();
        gen_ends.push(Some((desc_tx, reply_rx)));
        replay_ends.push(Mutex::new(Some((desc_rx, reply_tx))));
    }

    let result = std::thread::scope(|s| {
        for (pid, end) in gen_ends.iter_mut().enumerate() {
            let (tx, reply_rx) = end.take().expect("generation end claimed once");
            let plane = Arc::clone(&plane);
            let gate = Arc::clone(&gate);
            let body = &body;
            std::thread::Builder::new()
                .name(format!("simgen-{pid}"))
                .stack_size(16 << 20)
                .spawn_scoped(s, move || {
                    let mut proc = Proc {
                        pid,
                        nprocs,
                        bulk,
                        backend: Backend::Gen(Box::new(GenCtx::new(
                            plane, tx, reply_rx, gate, batch_cap, metrics_on,
                        ))),
                        words: Vec::new(),
                    };
                    if let Some(ctx) = proc.gen() {
                        ctx.unpark();
                    }
                    let r =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut proc)));
                    let Some(ctx) = proc.gen() else {
                        unreachable!()
                    };
                    // Never block on the channel while holding a gate
                    // permit (the final flush may hit backpressure).
                    ctx.park();
                    match r {
                        Ok(()) => {}
                        Err(payload) => {
                            if payload.downcast_ref::<ShardAbort>().is_some() {
                                // Replay terminated first (normally or by
                                // poison); nothing left to report.
                                return;
                            }
                            // A real application panic: forward it so replay
                            // re-raises it through the classic poison
                            // protocol, producing the same outer panic a
                            // non-sharded run would.
                            ctx.batch.push(Desc::Poison(panic_message(&*payload)));
                        }
                    }
                    ctx.flush_quiet();
                    // Dropping `tx` here closes the stream: the interpreter
                    // returns after draining it.
                })
                .expect("spawn generation thread");
        }

        let slots = &replay_ends;
        let out = if cfg.shard_fused {
            // The fused replay engine: all interpreter state machines run in
            // THIS thread's virtual-time event loop (see [`crate::fused`]).
            // Claim every replay end upfront; on unwind the machines drop
            // their channel halves, aborting the generation threads before
            // the scope joins them.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let ends: Vec<ReplayEnd> = slots
                    .iter()
                    .map(|s| {
                        s.lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .expect("replay end claimed once")
                    })
                    .collect();
                crate::fused::replay_fused(platform, &cfg, ends)
            }))
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_classic(platform, cfg, move |p: &mut Proc| {
                    let (rx, reply_tx) = slots[p.pid()]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .expect("interpreter body entered twice");
                    let mut scratch: Vec<u64> = Vec::new();
                    // Blocks while holding the turn when the stream runs dry:
                    // virtual time cannot advance past this processor anyway,
                    // and its generation thread runs on regardless.
                    while let Ok(batch) = rx.recv() {
                        for d in batch {
                            match d {
                                Desc::Work(c) => p.work(c),
                                Desc::WorkFused { per_elem, count } => {
                                    p.work_fused(per_elem, count)
                                }
                                Desc::SetPhase(ph) => p.set_phase(ph),
                                Desc::Alloc {
                                    label,
                                    bytes,
                                    align,
                                    placement,
                                } => {
                                    let a = p.alloc_shared_labeled(label, bytes, align, placement);
                                    let _ = reply_tx.send(Reply::Addr(a));
                                }
                                Desc::Load { addr, len } => {
                                    p.load(addr, len);
                                }
                                Desc::Store { addr, len, val } => p.store(addr, len, val),
                                Desc::LoadSlice {
                                    addr,
                                    stride,
                                    len,
                                    n,
                                } => {
                                    scratch.resize(n, 0);
                                    p.load_slice(addr, stride, len, &mut scratch[..n]);
                                }
                                Desc::StoreSlice {
                                    addr,
                                    stride,
                                    len,
                                    vals,
                                } => p.store_slice(addr, stride, len, &vals),
                                Desc::Lock(id) => {
                                    p.lock(id);
                                    let _ = reply_tx.send(Reply::Sync);
                                }
                                Desc::Unlock(id) => p.unlock(id),
                                Desc::Barrier(id) => {
                                    p.barrier(id);
                                    let _ = reply_tx.send(Reply::Sync);
                                }
                                Desc::StartTiming => {
                                    p.start_timing();
                                    let _ = reply_tx.send(Reply::Sync);
                                }
                                Desc::StopTiming => {
                                    p.stop_timing();
                                    let _ = reply_tx.send(Reply::Sync);
                                }
                                Desc::MetricEvent(name, n) => p.metric_add(name, n),
                                Desc::Poison(msg) => panic!("{msg}"),
                            }
                        }
                    }
                })
            }))
        };
        // Drop any unclaimed replay ends (a poisoned run can kill a
        // processor before its interpreter starts) so every generation
        // thread's sends and reply-waits error out and it aborts — the
        // scope is about to join them.
        for slot in slots.iter() {
            slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        }
        out
    });
    match result {
        Ok(out) => out,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::tests::CountDrop;
    use crate::platform::NullPlatform;
    use crate::HEAP_BASE;

    fn null_run<F: Fn(&mut Proc) + Sync>(n: usize, f: F) -> RunStats {
        run(Box::new(NullPlatform::new(n)), RunConfig::new(n), f)
    }

    #[test]
    fn cached_yield_threshold_matches_a_fresh_scan() {
        use crate::util::XorShift64;
        // The oracle: a linear scan over statuses and clocks, no heap.
        let scan = |g: &Inner| {
            let ready = (0..g.status.len()).filter(|&p| g.status[p] == Status::Ready);
            let min = ready.map(|p| (g.clocks[p], p)).min();
            YieldAt::new(min.map(|(clk, p)| (p, clk)), g.quantum)
        };
        for case in 0..64u64 {
            let mut rng = XorShift64::new(0x71E1D ^ (case << 8));
            let n = 1 + rng.below(6) as usize;
            let quantum = [0, 1, 2_000, u64::MAX, rng.below(1 << 20)][rng.below(5) as usize];
            let cfg = RunConfig {
                quantum,
                ..RunConfig::new(n)
            };
            let mut g = build_inner(Box::new(NullPlatform::new(n)), &cfg);
            let mut running = Some(0);
            for step in 0..400 {
                let what = format!("case {case} step {step}");
                match (running, rng.below(4)) {
                    (Some(r), 0 | 1) => {
                        // The running processor advances, now and then to
                        // the top of the clock range, and offers the turn.
                        g.clocks[r] = if rng.below(16) == 0 {
                            u64::MAX - rng.below(4)
                        } else {
                            g.clocks[r].saturating_add(rng.below(3_000))
                        };
                        let y = scan(&g);
                        let want = (g.clocks[r] > y.threshold).then(|| y.next.unwrap().0);
                        assert!(!g.keeps_turn(r) || want.is_none(), "{what}");
                        assert_eq!(g.yield_target(r), want, "{what}");
                        running = want.or(running);
                    }
                    (Some(r), 2) => {
                        // It blocks; the min-clock Ready processor runs.
                        g.status[r] = Status::Blocked;
                        let want = scan(&g).next.map(|(p, _)| p);
                        running = g.dispatch();
                        assert_eq!(running, want, "{what}");
                    }
                    _ => {
                        // A blocked processor wakes at some clock; the turn
                        // goes out if nobody holds it.
                        let blocked: Vec<usize> =
                            (0..n).filter(|&p| g.status[p] == Status::Blocked).collect();
                        if !blocked.is_empty() {
                            let q = blocked[rng.below(blocked.len() as u64) as usize];
                            g.clocks[q] = rng.below(1 << 16);
                            g.make_ready(q);
                        }
                        if running.is_none() {
                            running = g.dispatch();
                        }
                    }
                }
                // Read only now and then, so that wake-ups also land on a
                // stale cache.
                if rng.below(2) == 0 {
                    assert_eq!(g.yield_at(), scan(&g), "{what}");
                }
            }
        }
    }

    #[test]
    fn single_proc_runs_to_completion() {
        let stats = null_run(1, |p| {
            p.start_timing();
            p.work(100);
        });
        assert_eq!(stats.total_cycles(), 100);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let stats = null_run(4, |p| {
            p.start_timing();
            p.work((p.pid() as u64 + 1) * 100);
            p.barrier(0);
        });
        // All procs resume at the max arrival (400).
        for c in &stats.clocks {
            assert_eq!(*c, 400);
        }
        // Proc 0 waited 300 cycles at the barrier.
        assert_eq!(stats.procs[0].get(Bucket::BarrierWait), 300);
        assert_eq!(stats.procs[3].get(Bucket::BarrierWait), 0);
    }

    #[test]
    fn locks_provide_mutual_exclusion_in_virtual_time() {
        // All procs increment a shared counter under a lock; final value must
        // equal nprocs * iters, which only holds if the lock serializes.
        let n = 8;
        let iters = 25;
        let stats = null_run(n, |p| {
            p.start_timing();
            for _ in 0..iters {
                p.lock(7);
                let v = p.load(HEAP_BASE, 8);
                p.work(5);
                p.store(HEAP_BASE, 8, v + 1);
                p.unlock(7);
            }
            p.barrier(1);
        });
        // Re-run to read the value: instead assert via a writer-proc trick.
        // (Value lives inside the platform; verify using observable effects:
        // total lock acquisitions and absence of deadlock.)
        let c = stats.sum_counters();
        assert_eq!(c.lock_acquires, (n * iters) as u64);
    }

    #[test]
    fn lock_serialization_result_is_correct() {
        // Verify the final counter value via an extra read phase.
        let n = 4;
        let iters = 10;
        let observed = std::sync::Mutex::new(0u64);
        null_run(n, |p| {
            p.start_timing();
            for _ in 0..iters {
                p.lock(7);
                let v = p.load(HEAP_BASE, 8);
                p.store(HEAP_BASE, 8, v + 1);
                p.unlock(7);
            }
            p.barrier(1);
            if p.pid() == 0 {
                *observed.lock().unwrap() = p.load(HEAP_BASE, 8);
            }
        });
        assert_eq!(*observed.lock().unwrap(), (n * iters) as u64);
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            null_run(6, |p| {
                p.start_timing();
                for i in 0..50u64 {
                    p.work(i % 7);
                    p.store(HEAP_BASE + 8 * (p.pid() as u64), 8, i);
                    if i % 10 == 0 {
                        p.lock(3);
                        p.work(2);
                        p.unlock(3);
                    }
                }
                p.barrier(0);
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.clocks, b.clocks);
        for (x, y) in a.procs.iter().zip(&b.procs) {
            for bkt in Bucket::ALL {
                assert_eq!(x.get(bkt), y.get(bkt));
            }
        }
    }

    #[test]
    fn start_timing_resets_clocks_and_stats() {
        let stats = null_run(2, |p| {
            p.work(10_000); // before timing: ignored (timing off anyway)
            p.barrier(9);
            p.start_timing();
            p.work(50);
            p.barrier(10);
        });
        assert_eq!(stats.total_cycles(), 50);
    }

    #[test]
    fn data_written_before_barrier_is_visible_after() {
        let seen = std::sync::Mutex::new(vec![0u64; 4]);
        null_run(4, |p| {
            p.start_timing();
            p.store(HEAP_BASE + 8 * p.pid() as u64, 8, 100 + p.pid() as u64);
            p.barrier(0);
            let neighbour = (p.pid() + 1) % 4;
            let v = p.load(HEAP_BASE + 8 * neighbour as u64, 8);
            seen.lock().unwrap()[p.pid()] = v;
            p.barrier(1);
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, vec![101, 102, 103, 100]);
    }

    #[test]
    fn contended_lock_grants_by_virtual_arrival_order() {
        // Proc 0 grabs the lock first (it starts Running), works a long
        // time inside, and everyone else queues. Order of grants must follow
        // virtual arrival times, which equal request issue times here.
        let order = std::sync::Mutex::new(Vec::new());
        // A tight quantum keeps virtual-time ordering exact for this test.
        let cfg = RunConfig {
            quantum: 10,
            ..RunConfig::new(4)
        };
        run(Box::new(NullPlatform::new(4)), cfg, |p| {
            p.start_timing();
            // Stagger arrivals: pid k issues acquire at ~k*10 cycles.
            p.work(p.pid() as u64 * 10 + 1);
            p.lock(0);
            order.lock().unwrap().push(p.pid());
            p.work(1000); // long critical section forces queueing
            p.unlock(0);
            p.barrier(0);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn work_before_start_timing_is_free() {
        let stats = null_run(2, |p| {
            p.work(1_000_000);
            p.store(HEAP_BASE, 8, 1);
            p.start_timing();
            p.work(10);
            p.barrier(0);
        });
        assert_eq!(stats.total_cycles(), 10);
        // The pre-timing store still took effect on state, not on stats.
        assert_eq!(stats.sum(Bucket::Compute), 20);
    }

    #[test]
    fn stop_timing_freezes_clock() {
        let stats = null_run(2, |p| {
            p.start_timing();
            p.work(100);
            p.stop_timing();
            p.work(1_000_000); // untimed epilogue
            p.load(HEAP_BASE, 8);
        });
        assert_eq!(stats.total_cycles(), 100);
    }

    #[test]
    #[should_panic(expected = "simulated processor panicked")]
    fn deadlock_is_detected() {
        null_run(2, |p| {
            p.start_timing();
            if p.pid() == 0 {
                p.lock(0);
                p.barrier(0); // holds the lock across a barrier p1 never reaches
            } else {
                p.lock(0); // blocks forever
                p.barrier(0);
            }
        });
    }

    /// The panic `run` ends with.
    fn run_panic_message(f: impl FnOnce() -> RunStats) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the run must panic");
        panic_message(&*payload)
    }

    #[test]
    fn panic_unwinds_every_suspended_processor() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 4;
        let (drops, at_barrier) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let msg = run_panic_message(|| {
            null_run(n, |p| {
                let _guard = CountDrop(&drops);
                p.start_timing();
                if p.pid() == 0 {
                    // Long enough to yield to 1..n, who all reach the
                    // barrier and block there before p0 gets the turn back.
                    p.work(10_000);
                    assert_eq!(at_barrier.load(Ordering::Relaxed), n - 1);
                    panic!("boom");
                }
                at_barrier.fetch_add(1, Ordering::Relaxed);
                p.barrier(0);
            })
        });
        assert_eq!(msg, "simulated processor panicked: p0: boom");
        assert_eq!(drops.load(Ordering::Relaxed), n, "one drop per guard");

        // Nothing of the poisoned run lingers on this host thread.
        let stats = null_run(n, |p| {
            p.start_timing();
            p.work(5);
            p.barrier(0);
        });
        assert_eq!(stats.total_cycles(), 5);
    }

    #[test]
    fn deadlock_unwinds_every_suspended_processor() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let drops = AtomicUsize::new(0);
        let msg = run_panic_message(|| {
            // The kernel of `deadlock_is_detected`.
            null_run(2, |p| {
                let _guard = CountDrop(&drops);
                p.start_timing();
                p.lock(0); // p1 blocks here forever...
                p.barrier(0); // ...because p0 waits here holding the lock
            })
        });
        assert!(
            msg.starts_with("simulated processor panicked: simulated deadlock: no runnable"),
            "{msg}"
        );
        assert_eq!(drops.load(Ordering::Relaxed), 2, "one drop per guard");
    }
}
