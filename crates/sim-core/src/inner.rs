//! The scheduler state and its reentrant step API.
//!
//! [`Inner`] holds every processor's clock, statistics and status, the
//! min-clock ready heap, lock queues and barrier membership. Each simulated
//! operation is one `Inner::op_*` state transition, shared verbatim by
//! every engine: the sequential engine (`crate::proc`) realizes the
//! returned [`Step`] by switching coroutines, the fused event loop
//! (`crate::fused`) by switching state machines. Lock queueing and barrier
//! membership are implemented here, generically; the pluggable
//! [`Platform`] prices the protocol actions (see [`crate::platform`]).
//!
//! ## Determinism
//!
//! Every scheduling decision is a pure function of virtual state (clocks,
//! statuses), taken by the currently running processor. Repeated runs
//! therefore produce bit-identical statistics, which the integration tests
//! assert.

use crate::alloc::{GlobalAlloc, Placement};
use crate::platform::{Platform, Timing};
use crate::probe::{ProbeHandle, ProtoEvent};
use crate::stats::{Bucket, ProcStats};
use crate::util::FxMap;
use crate::{Addr, RunConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Running,
    Ready,
    Blocked,
    Done,
}

/// What a processor does next after one of the [`Inner`] step methods: the
/// engine-independent contract between the per-op state transitions and
/// whichever engine drives them (the sequential engine's coroutines or the
/// fused event loop in [`crate::fused`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Keep running, with no quantum yield check (lock fast path,
    /// allocation, rendezvous release — exactly the `Proc` paths that
    /// drop the guard without calling `maybe_yield`).
    Run,
    /// Keep running, but first check whether a runnable processor has
    /// fallen more than a quantum behind (the `Proc::maybe_yield` sites).
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
    /// Last releaser and its clock at release — the provenance of a
    /// handoff stall when the next acquire finds the lock free but still
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

/// The scheduler state every engine drives. The fields `crate::run`
/// harvests after a run are crate-visible; the rest keep the ready-heap
/// and yield-threshold invariants below, so only methods here touch them.
pub(crate) struct Inner {
    pub(crate) platform: Box<dyn Platform>,
    pub(crate) alloc: GlobalAlloc,
    pub(crate) clocks: Vec<u64>,
    pub(crate) stats: Vec<ProcStats>,
    status: Vec<Status>,
    blocked_at: Vec<u64>,
    locks: FxMap<u32, LockSt>,
    barriers: FxMap<u32, BarSt>,
    start_arrivals: usize,
    stop_arrivals: usize,
    timing_on: bool,
    quantum: u64,
    ndone: usize,
    /// The deadlock report, set by the processor that found nobody
    /// runnable just before it panics with the same text.
    pub(crate) deadlock: Option<String>,
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
    pub(crate) probe: Option<ProbeHandle>,
    /// Events not yet handed to `probe`: the accesses of the last
    /// operations (at most [`ACCESS_BATCH`]), which reach the stream in
    /// batches, one lock each, always ahead of the next scheduler event.
    pending: Vec<ProtoEvent<'static>>,
}

impl Inner {
    /// The state at the start of a `cfg` run: processor 0 running,
    /// everyone else ready at clock zero (and already in the ready heap).
    pub(crate) fn new(
        platform: Box<dyn Platform>,
        probe: Option<ProbeHandle>,
        cfg: &RunConfig,
    ) -> Self {
        let nprocs = cfg.nprocs;
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

    /// True while the timed region is active.
    pub(crate) fn timing_on(&self) -> bool {
        self.timing_on
    }

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
    fn dispatch(&mut self) -> Option<usize> {
        let (next, _) = self.yield_at().next?;
        self.set_running(next);
        Some(next)
    }

    /// [`Inner::dispatch`], where nobody runnable while some processor is
    /// not done is a deadlock: panics with the report, which it also leaves
    /// in `deadlock` for the engine's own panic. `None` when all are done.
    pub(crate) fn dispatch_or_deadlock(&mut self) -> Option<usize> {
        let next = self.dispatch();
        if next.is_none() && self.ndone < self.status.len() {
            // Nobody is ready and the caller is blocked or done, so
            // everyone left is blocked for good.
            let mut msg = String::from("simulated deadlock: no runnable processor\n");
            for (pid, (st, clk)) in self.status.iter().zip(&self.clocks).enumerate() {
                debug_assert!(matches!(st, Status::Blocked | Status::Done));
                msg.push_str(&format!("  p{pid}: {st:?} clock={clk}\n"));
            }
            self.deadlock = Some(msg.clone());
            panic!("{msg}");
        }
        next
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
    pub(crate) fn flush(&mut self) {
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

    // ---- the reentrant step API ----
    //
    // Every simulated operation is a non-blocking state transition on
    // `Inner`, shared verbatim by both engines: the sequential engine's
    // `Proc` methods call them holding the turn and then switch coroutines
    // per the returned `Step`, while the fused event loop
    // ([`crate::fused`]) owns the `Inner` outright and just switches state
    // machines. One
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
            // is the provenance of the barrier-release stalls.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::NullPlatform;
    use crate::run::build_inner;

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
}
