//! The [`Proc`] handle applications program against, and the coroutine
//! half of the sequential engine.
//!
//! Each simulated processor is a stackful coroutine (`crate::coro`); all of
//! them live on the host thread that called [`crate::run`], and exactly one
//! runs at a time. An operation performs its state transition on the
//! shared scheduler state (`crate::inner`) — no lock, it holds the turn —
//! then, at yield points, switches directly to the runnable processor with
//! the minimum virtual clock.

use std::cell::RefMut;
use std::sync::Arc;

use crate::alloc::Placement;
use crate::coro;
use crate::inner::{Inner, Step};
use crate::shard::{GenCtx, Op};
use crate::{Addr, RunConfig};

/// The sequential engine's processors — one coroutine each, all on the
/// host thread that called [`crate::run`] — and the scheduler state they
/// share. No lock guards the state: only the processor holding the turn
/// runs, and it borrows the state for the length of one operation (see
/// `crate::coro` for the invariant and who checks it).
pub(crate) type Shared = coro::Set<Inner>;

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

/// What a [`Proc`] handle is attached to: the sequential engine's
/// scheduler, which simulates each operation, or a generation context of
/// the sharded engine (`crate::shard`, DESIGN.md §2b), which records the
/// operation stream for the fused replay loop instead.
pub(crate) enum Backend {
    Classic(Arc<Shared>),
    Gen(Box<GenCtx>),
}

/// Chunk size (words) for the slice convenience wrappers: big enough to
/// amortize a scheduler entry, and the cap on each `Proc`'s reused word
/// buffer. Every wrapper splits its slice at these boundaries, which fix
/// where `load_slice`/`store_slice` calls (and sharded-engine descriptors)
/// begin and end.
const SLICE_CHUNK: usize = 1024;

impl Proc {
    /// A handle for processor `pid` of a `cfg` run, attached to `backend`.
    pub(crate) fn new(pid: usize, cfg: &RunConfig, backend: Backend) -> Self {
        Self {
            pid,
            nprocs: cfg.nprocs,
            bulk: cfg.bulk,
            backend,
            words: Vec::new(),
        }
    }

    /// What this handle was attached to, once the body is done with it.
    pub(crate) fn into_backend(self) -> Backend {
        self.backend
    }

    /// The sequential engine's scheduler state. Reachable only from methods
    /// (or arms) that are never entered in generation mode.
    #[inline(always)]
    fn shared(&self) -> &Arc<Shared> {
        match &self.backend {
            Backend::Classic(s) => s,
            Backend::Gen(_) => unreachable!("generation-mode Proc has no scheduler"),
        }
    }

    /// The sharded engine's one hook: a generation-side handle hands `op`
    /// to [`GenCtx::record`] and returns its answer; a scheduler-side
    /// handle gets `None` after one discriminant test and simulates `op`.
    #[inline(always)]
    fn recorded(&mut self, op: Op<'_>) -> Option<u64> {
        match &mut self.backend {
            Backend::Gen(ctx) => Some(ctx.record(op)),
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
        if self.recorded(Op::Work(cycles)).is_some() {
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
        if self.recorded(Op::MetricEvent(name, n)).is_some() {
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
        if self.recorded(Op::SetPhase(phase)).is_some() {
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
        if let Some(addr) = self.recorded(Op::Alloc(label, bytes, align, placement)) {
            return addr;
        }
        let mut g = self.shared().state();
        g.op_alloc(label, bytes, align, placement)
    }

    /// Load `len` (1/2/4/8) bytes from the simulated shared address space.
    #[inline]
    pub fn load(&mut self, addr: Addr, len: u8) -> u64 {
        if let Some(v) = self.recorded(Op::Load(addr, len)) {
            return v;
        }
        let mut g = self.shared().state();
        let v = g.op_load(self.pid, addr, len);
        self.maybe_yield(g);
        v
    }

    /// Store the low `len` bytes of `val` to the simulated address space.
    #[inline]
    pub fn store(&mut self, addr: Addr, len: u8, val: u64) {
        if self.recorded(Op::Store(addr, len, val)).is_some() {
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
        if self
            .recorded(Op::LoadSlice(addr, stride, len, out))
            .is_some()
        {
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
        if self
            .recorded(Op::StoreSlice(addr, stride, len, vals))
            .is_some()
        {
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
        if self.recorded(Op::WorkFused(per_elem, count)).is_some() {
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
        if self.recorded(Op::Lock(id)).is_some() {
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_lock(self.pid, id);
        self.step_end(g, step);
    }

    /// Release lock `id`, granting it to the earliest-arrived waiter if any.
    pub fn unlock(&mut self, id: u32) {
        if self.recorded(Op::Unlock(id)).is_some() {
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_unlock(self.pid, id);
        self.step_end(g, step);
    }

    /// Wait at barrier `id` until all processors arrive.
    pub fn barrier(&mut self, id: u32) {
        if self.recorded(Op::Barrier(id)).is_some() {
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
        if self.recorded(Op::StartTiming).is_some() {
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
        if self.recorded(Op::StopTiming).is_some() {
            return;
        }
        let mut g = self.shared().state();
        let step = g.op_stop_timing(self.pid);
        self.step_end(g, step);
    }

    /// True while the timed region is active.
    pub fn timing_on(&self) -> bool {
        match &self.backend {
            Backend::Gen(ctx) => ctx.timing_on(),
            Backend::Classic(s) => s.state().timing_on(),
        }
    }

    /// Current virtual clock (cycles).
    ///
    /// # Panics
    /// Under the sharded engine (`with_shards(n > 1)`): virtual time exists
    /// only on the replay side, after this thread's operations ran.
    pub fn now(&self) -> u64 {
        match &self.backend {
            Backend::Gen(ctx) => ctx.now(),
            Backend::Classic(s) => s.state().clocks[self.pid],
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
        g.dispatch_or_deadlock()
            .unwrap_or_else(|| self.shared().driver())
    }

    /// Called when the body returns: mark Done and pick the successor. The
    /// caller — the coroutine's entry — returns that successor to
    /// [`coro::Set::drive`] instead of switching to it here, so that this
    /// handle and its `Arc` are dropped before the coroutine's last switch.
    pub(crate) fn finish(&self) -> usize {
        let mut g = self.shared().state();
        g.op_finish(self.pid);
        self.dispatch_next(&mut g)
    }
}
