//! The [`Platform`] trait: a pluggable memory-system + synchronization cost
//! model, and [`Timing`], the charging context handed to it on every event.
//!
//! Platform implementations (in the `svm-hlrc`, `cc-numa`, and `smp-bus`
//! crates) are *passive*: they never block. Blocking — lock queueing and
//! barrier membership — is orchestrated generically by the scheduler in
//! [`crate::sched`]; the platform only prices the protocol actions and
//! mutates its own coherence state.

use crate::alloc::PlacementMap;
use crate::cache::Cache;
use crate::mem::{load_le, store_le, FlatMem};
use crate::stats::{Bucket, ProcStats};
use crate::Addr;

/// Charging context for one processor during one simulated event.
pub struct Timing<'a> {
    /// Processor id performing the event.
    pub pid: usize,
    /// The processor's virtual clock (advanced by [`Timing::charge`]).
    pub now: &'a mut u64,
    /// The processor's statistics.
    pub stats: &'a mut ProcStats,
    /// Data-placement map (page homes).
    pub placement: &'a mut PlacementMap,
    /// False while the application initializes: protocol *state* changes
    /// still happen (so page copies and cache contents are warmed exactly as
    /// in the paper's serial-init discussion for Raytrace), but no cycles are
    /// charged and no resources are occupied.
    pub timing_on: bool,
}

impl Timing<'_> {
    /// Charge `cycles` to `bucket` and advance the virtual clock.
    #[inline]
    pub fn charge(&mut self, bucket: Bucket, cycles: u64) {
        if self.timing_on && cycles > 0 {
            *self.now += cycles;
            self.stats.add(bucket, cycles);
        }
    }

    /// Account time without advancing the clock (e.g. overlap accounting).
    #[inline]
    pub fn account(&mut self, bucket: Bucket, cycles: u64) {
        if self.timing_on && cycles > 0 {
            self.stats.add(bucket, cycles);
        }
    }

    /// Advance the clock to `t` (if in the future), charging the wait to
    /// `bucket`.
    #[inline]
    pub fn advance_to(&mut self, bucket: Bucket, t: u64) {
        if self.timing_on && t > *self.now {
            let d = t - *self.now;
            self.stats.add(bucket, d);
            *self.now = t;
        }
    }
}

/// What [`Platform::hit_window`] lends the bulk loop so it can perform a
/// run of free words itself.
pub struct HitWindow<'a> {
    /// The accessing processor's first-level cache.
    pub l1: &'a mut Cache,
    /// The L1 way holding the queried address's line, as
    /// [`Cache::hit_way`] returned it: the run touches it without a second
    /// tag search.
    pub way: usize,
    /// Host bytes backing simulated memory from the queried address to at
    /// least the end of its L1 line.
    pub bytes: &'a mut [u8],
}

impl<'a> HitWindow<'a> {
    /// The window of a platform whose data lives in one [`FlatMem`] and
    /// whose L1 hits touch nothing else: free iff `l1` would hit.
    #[inline]
    pub fn flat(l1: &'a mut Cache, mem: &'a mut FlatMem, addr: Addr, write: bool) -> Option<Self> {
        let way = l1.hit_way(addr, write)?;
        let line_left = (l1.line_base(addr) + l1.geom().line - addr) as usize;
        let bytes = mem.window(addr, line_left);
        Some(Self { l1, way, bytes })
    }

    /// Account a run of free words from `a` (the queried address), `left`
    /// words of the slice remaining: count them, charge `Compute` a cycle
    /// each and touch the L1 once, as that many scalar hits would. Returns
    /// the run's length: at least one word, at most to the end of `a`'s L1
    /// line and (timing on) to the first word that leaves `*t.now > budget`,
    /// where the scalar path would yield.
    #[inline]
    fn run(
        &mut self,
        t: &mut Timing,
        a: Addr,
        write: bool,
        stride: u64,
        left: usize,
        budget: u64,
    ) -> usize {
        let line_left = self.l1.line_base(a) + self.l1.geom().line - a;
        // Strides of a line or more make every run one word long (LU's
        // column reads, most of its runs): settle that before paying for
        // the 64-bit division, which alone cost LU several percent.
        let mut k = if stride >= line_left {
            1
        } else if stride == 0 {
            left as u64
        } else {
            (left as u64).min(line_left.div_ceil(stride))
        };
        if t.timing_on {
            k = k.min(budget.saturating_sub(*t.now).saturating_add(1));
        }
        t.stats.counters.accesses += k;
        t.charge(Bucket::Compute, k);
        self.l1.hit_run_at(self.way, write, k);
        k as usize
    }
}

/// A memory-system and synchronization model.
///
/// All methods are called with the global scheduler lock held and are
/// non-blocking. Times are virtual cycles on the platform's own clock
/// frequency — speedups (the paper's metric) are frequency-independent.
pub trait Platform: Send {
    /// Number of processors this platform instance models.
    fn nprocs(&self) -> usize;

    /// Perform a load of `len` (1/2/4/8) bytes; returns the value
    /// (little-endian, zero-extended).
    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64;

    /// Perform a store of the low `len` bytes of `val`.
    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64);

    /// The one thing the bulk loop asks a platform: is this word free?
    /// `Some` iff [`Platform::load`] (or [`Platform::store`], when `write`)
    /// by `pid` at `addr` would do nothing but count the access, charge
    /// `Compute` 1 and touch the L1's LRU state — no interrupt debt, fault,
    /// twin, miss, upgrade or resource. The window is the processor's L1
    /// and the host bytes backing simulated memory from `addr` to at least
    /// the end of its L1 line (words are naturally aligned: none straddles
    /// a line). A side effect the scalar path repeats idempotently per word
    /// (sibling-line invalidation on multi-processor SVM nodes) is performed
    /// once, here: every `Some` is followed by at least one word.
    ///
    /// The default — `None`, every word takes the scalar path — is always
    /// correct; a wrong `Some` is what `tests/equivalence.rs` catches.
    #[inline]
    fn hit_window(&mut self, _pid: usize, _addr: Addr, _write: bool) -> Option<HitWindow<'_>> {
        None
    }

    /// Bulk load: perform loads of `len` bytes at `addr + i*stride` for
    /// `i = 0..out.len()`, writing each value into `out[i]`, and return how
    /// many were performed.
    ///
    /// Contract (shared with [`Platform::store_bulk`]): the batch is
    /// *observably identical* to calling [`Platform::load`] once per word in
    /// order, and performs **at least one** word, stopping after the first
    /// word that leaves `*t.now > budget`. The scheduler computes `budget`
    /// as the virtual time up to which this processor may run without
    /// yielding; stopping there lets it interleave processors at exactly
    /// the same points as the scalar path, which is what makes bulk runs
    /// bit-identical to word-at-a-time runs.
    ///
    /// This is the only implementation; platforms do not override it. A
    /// word [`Platform::hit_window`] answers `None` for goes through `load`;
    /// a `Some` batches the rest of the word's L1 line, so tag arrays and
    /// page tables are walked once per run instead of once per word, and
    /// "bulk ≡ scalar" holds by construction for all but that predicate.
    fn load_bulk(
        &mut self,
        t: &mut Timing,
        addr: Addr,
        stride: u64,
        len: u8,
        out: &mut [u64],
        budget: u64,
    ) -> usize {
        let mut done = 0;
        while done < out.len() {
            let a = addr + done as u64 * stride;
            match self.hit_window(t.pid, a, false) {
                None => {
                    out[done] = self.load(t, a, len);
                    done += 1;
                }
                Some(mut w) => {
                    let k = w.run(t, a, false, stride, out.len() - done, budget);
                    for (i, slot) in out[done..done + k].iter_mut().enumerate() {
                        *slot = load_le(&w.bytes[i * stride as usize..], len);
                    }
                    done += k;
                }
            }
            if *t.now > budget {
                break;
            }
        }
        done
    }

    /// Bulk store: the store-side twin of [`Platform::load_bulk`], storing
    /// `vals[i]` at `addr + i*stride`. Same budget contract; returns how many
    /// words were performed.
    fn store_bulk(
        &mut self,
        t: &mut Timing,
        addr: Addr,
        stride: u64,
        len: u8,
        vals: &[u64],
        budget: u64,
    ) -> usize {
        let mut done = 0;
        while done < vals.len() {
            let a = addr + done as u64 * stride;
            match self.hit_window(t.pid, a, true) {
                None => {
                    self.store(t, a, len, vals[done]);
                    done += 1;
                }
                Some(mut w) => {
                    let k = w.run(t, a, true, stride, vals.len() - done, budget);
                    for (i, &v) in vals[done..done + k].iter().enumerate() {
                        store_le(&mut w.bytes[i * stride as usize..], len, v);
                    }
                    done += k;
                }
            }
            if *t.now > budget {
                break;
            }
        }
        done
    }

    /// Processor `t.pid` issues an acquire request for `lock`. Charges the
    /// local send overhead and returns the virtual time at which the request
    /// reaches the arbitration point (manager/owner/home).
    fn acquire_request(&mut self, t: &mut Timing, lock: u32) -> u64;

    /// `pid` is granted `lock` at `grant_at` (already the max of lock
    /// availability and request arrival). Performs grant-side protocol work
    /// (e.g. HLRC consumes write notices and invalidates pages) and returns
    /// the time at which the grantee resumes execution.
    fn acquire_grant(
        &mut self,
        pid: usize,
        lock: u32,
        grant_at: u64,
        stats: &mut ProcStats,
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> u64;

    /// Processor `t.pid` releases `lock` (performing e.g. HLRC diff flushes).
    /// Returns the time at which the lock becomes available to the next
    /// grantee.
    fn release(&mut self, t: &mut Timing, lock: u32) -> u64;

    /// Processor `t.pid` arrives at `barrier`, flushing what its protocol
    /// requires. Returns the time its arrival notification reaches the
    /// barrier manager.
    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64;

    /// All processors have arrived (`arrivals[pid]` = arrival-at-manager
    /// time). Performs release-side protocol work for everyone and returns
    /// each processor's resume time.
    fn barrier_release(
        &mut self,
        barrier: u32,
        arrivals: &[u64],
        stats: &mut [ProcStats],
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64>;

    /// Reset all resource clocks and protocol counters for the start of the
    /// timed region (`start_timing`). Coherence *state* (page copies, cache
    /// contents) is preserved — warm state at timing start is part of what
    /// the paper measures.
    fn reset_timing(&mut self);

    /// Install the run's protocol event stream (see [`crate::probe`]) — the
    /// platform's one diagnostic hook. Called once, before any simulated
    /// processor starts, with `None` when the run is undiagnosed. Platforms
    /// report each protocol action — page fetch, diff, invalidation, remote
    /// miss — with one [`crate::probe::emit`]; emitting cannot charge
    /// cycles, so statistics stay bit-identical either way. Platforms with
    /// nothing to report ignore it.
    fn set_probe(&mut self, _probe: Option<crate::probe::ProbeHandle>) {}

    /// Called once after every simulated processor has finished, with the
    /// full statistics slice: the platform drains protocol counters that
    /// accrue at nodes other than the event initiator (e.g. diffs applied at
    /// a page's home) into the owning node's statistics. Deterministic and
    /// path-independent — it runs at the same point for scalar and bulk
    /// runs, so the equivalence sweeps still hold.
    fn finalize(&mut self, _stats: &mut [ProcStats]) {}

    /// The minimum virtual latency, in cycles, of any cross-processor
    /// interaction on this platform (lock grant, barrier notification,
    /// page fetch, remote miss, bus transfer — whichever is cheapest).
    ///
    /// Returning `Some` certifies that *every* way one simulated processor
    /// can affect another is a protocol action priced through this trait:
    /// the conservative lower bound the sharded engine
    /// ([`crate::RunConfig::with_shards`]) relies on when it lets
    /// application threads run ahead of the replayed virtual-time order —
    /// see [`crate::shard`] for how the bound and the event-bounded
    /// lookahead window interact. Platforms that keep hidden
    /// zero-latency side channels must return `None` (the default), which
    /// pins them to the classic sequential engine.
    fn min_cross_node_latency(&self) -> Option<u64> {
        None
    }
}

/// A trivial platform: every access costs one cycle, synchronization is
/// free and instantaneous. Useful for framework tests and as the simplest
/// possible reference implementation of the trait.
pub struct NullPlatform {
    nprocs: usize,
    mem: crate::mem::FlatMem,
    lock_avail: crate::util::FxMap<u32, u64>,
}

impl NullPlatform {
    /// A null platform for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        Self {
            nprocs,
            mem: crate::mem::FlatMem::new(),
            lock_avail: Default::default(),
        }
    }
}

impl Platform for NullPlatform {
    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        t.charge(Bucket::Compute, 1);
        t.stats.counters.accesses += 1;
        self.mem.load(addr, len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        t.charge(Bucket::Compute, 1);
        t.stats.counters.accesses += 1;
        self.mem.store(addr, len, val);
    }

    fn acquire_request(&mut self, t: &mut Timing, _lock: u32) -> u64 {
        *t.now
    }

    fn acquire_grant(
        &mut self,
        _pid: usize,
        _lock: u32,
        grant_at: u64,
        _stats: &mut ProcStats,
        _placement: &mut PlacementMap,
        _timing_on: bool,
    ) -> u64 {
        grant_at
    }

    fn release(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.lock_avail.insert(lock, *t.now);
        *t.now
    }

    fn barrier_arrive(&mut self, t: &mut Timing, _barrier: u32) -> u64 {
        *t.now
    }

    fn barrier_release(
        &mut self,
        _barrier: u32,
        arrivals: &[u64],
        _stats: &mut [ProcStats],
        _placement: &mut PlacementMap,
        _timing_on: bool,
    ) -> Vec<u64> {
        let t = arrivals.iter().copied().max().unwrap_or(0);
        vec![t; arrivals.len()]
    }

    fn reset_timing(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::HEAP_BASE as B;
    use crate::alloc::GlobalAlloc;
    use crate::cache::{CacheGeom, LineState, Lookup};

    /// What a `Timing` points into, for one processor.
    struct Ctx {
        now: u64,
        stats: ProcStats,
        alloc: GlobalAlloc,
    }

    impl Ctx {
        fn at(now: u64) -> Self {
            let (stats, alloc) = (ProcStats::default(), GlobalAlloc::new(2));
            Self { now, stats, alloc }
        }

        fn t(&mut self, timing_on: bool) -> Timing<'_> {
            Timing {
                pid: 0,
                now: &mut self.now,
                stats: &mut self.stats,
                placement: self.alloc.map(),
                timing_on,
            }
        }
    }

    #[test]
    fn timing_charge_respects_timing_flag() {
        let mut c = Ctx::at(0);
        c.t(false).charge(Bucket::Compute, 100);
        assert_eq!(c.now, 0);
        assert_eq!(c.stats.total(), 0);
        {
            let mut t = c.t(true);
            t.charge(Bucket::Compute, 100);
            t.advance_to(Bucket::DataWait, 150);
            t.advance_to(Bucket::DataWait, 50); // past: no-op
        }
        assert_eq!(c.now, 150);
        assert_eq!(c.stats.get(Bucket::Compute), 100);
        assert_eq!(c.stats.get(Bucket::DataWait), 50);
    }

    #[test]
    fn null_platform_round_trips_data() {
        let (mut p, mut c) = (NullPlatform::new(2), Ctx::at(0));
        p.store(&mut c.t(true), B, 8, 0xdead_beef);
        assert_eq!(p.load(&mut c.t(true), B, 8), 0xdead_beef);
        assert_eq!(c.now, 2);
    }

    // ---- the bulk loop's contract ----

    /// A one-processor platform whose `hit_window` answers from a table:
    /// the lines resident (Exclusive) in its 64-byte-line L1. A word of any
    /// other line is a 10-cycle miss on the scalar path and stays one
    /// (nothing fills). `windows: false` answers `None` throughout — the
    /// all-scalar oracle. `asked` logs every `hit_window` query.
    struct Table {
        l1: Cache,
        mem: FlatMem,
        windows: bool,
        asked: Vec<Addr>,
    }

    /// Three consecutive lines from the heap base.
    const LINES: [Addr; 3] = [B, B + 64, B + 128];

    fn table(resident: &[Addr], windows: bool) -> Table {
        let (size, line, ways) = (1024, 64, 2);
        let mut l1 = Cache::new(CacheGeom { size, line, ways });
        for &a in resident {
            l1.fill(a, LineState::Exclusive);
        }
        let (mem, asked) = (FlatMem::new(), Vec::new());
        Table {
            l1,
            mem,
            windows,
            asked,
        }
    }

    impl Table {
        fn access(&mut self, t: &mut Timing, addr: Addr, write: bool) {
            t.stats.counters.accesses += 1;
            t.charge(Bucket::Compute, 1);
            if self.l1.access(addr, write) != Lookup::Hit {
                t.charge(Bucket::CacheStall, 10);
            }
        }
    }

    impl Platform for Table {
        fn nprocs(&self) -> usize {
            1
        }
        fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
            self.access(t, addr, false);
            self.mem.load(addr, len)
        }
        fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
            self.access(t, addr, true);
            self.mem.store(addr, len, val);
        }
        fn hit_window(&mut self, _pid: usize, addr: Addr, write: bool) -> Option<HitWindow<'_>> {
            self.asked.push(addr);
            if !self.windows {
                return None;
            }
            HitWindow::flat(&mut self.l1, &mut self.mem, addr, write)
        }
        fn acquire_request(&mut self, _: &mut Timing, _: u32) -> u64 {
            unimplemented!()
        }
        fn acquire_grant(
            &mut self,
            _: usize,
            _: u32,
            _: u64,
            _: &mut ProcStats,
            _: &mut PlacementMap,
            _: bool,
        ) -> u64 {
            unimplemented!()
        }
        fn release(&mut self, _: &mut Timing, _: u32) -> u64 {
            unimplemented!()
        }
        fn barrier_arrive(&mut self, _: &mut Timing, _: u32) -> u64 {
            unimplemented!()
        }
        fn barrier_release(
            &mut self,
            _: u32,
            _: &[u64],
            _: &mut [ProcStats],
            _: &mut PlacementMap,
            _: bool,
        ) -> Vec<u64> {
            unimplemented!()
        }
        fn reset_timing(&mut self) {}
    }

    #[test]
    fn a_chunk_ends_after_the_first_word_past_the_budget() {
        let mut out = [0u64; 24];
        for (now, budget, resident, k, end) in [
            (0, 4, &LINES[..], 5, 5),    // words end at 1..=5: the fifth is first past 4
            (0, 4, &[][..], 1, 11),      // one 11-cycle miss overshoots at once
            (10, 4, &LINES[..], 1, 11),  // already past the budget: still one word
            (0, 99, &LINES[..], 24, 24), // never reached: the slice, line after line
        ] {
            let (mut p, mut c) = (table(resident, true), Ctx::at(now));
            let done = p.load_bulk(&mut c.t(true), B, 8, 8, &mut out, budget);
            assert_eq!((done, c.now), (k, end), "now {now} budget {budget}");
        }
        // Timing off: the clock stands still, so the budget cannot bind.
        let (mut p, mut c) = (table(&LINES, true), Ctx::at(0));
        assert_eq!(p.load_bulk(&mut c.t(false), B, 8, 8, &mut out, 0), 24);
        assert_eq!((c.now, c.stats.counters.accesses), (0, 24));
        assert_eq!(p.asked, LINES, "one whole-line run per line");
    }

    #[test]
    fn runs_split_where_the_l1_line_ends() {
        // Stride 0, = line, > line, and unit strides crossing a line end.
        for (off, stride, n) in [(8, 0, 5), (0, 64, 3), (8, 72, 2), (40, 8, 6), (48, 24, 4)] {
            let (mut p, mut c) = (table(&LINES, true), Ctx::at(0));
            let mut out = vec![0u64; n];
            let done = p.load_bulk(&mut c.t(true), B + off, stride, 8, &mut out, u64::MAX);
            assert_eq!((done, c.now), (n, n as u64));
            // One query per run: the first word of each stretch of
            // consecutive words sharing a line.
            let mut starts: Vec<Addr> = (0..n as u64).map(|i| B + off + i * stride).collect();
            starts.dedup_by_key(|a| p.l1.line_base(*a));
            assert_eq!(p.asked, starts, "offset {off} stride {stride}");
        }
    }

    #[test]
    fn every_width_round_trips_without_touching_its_neighbours() {
        for len in [1u8, 2, 4, 8] {
            let (mut p, mut c) = (table(&LINES, true), Ctx::at(0));
            p.mem.window(B, 64).fill(0xaa);
            let vals = [0x1122_3344_5566_7788, 0x99aa_bbcc_ddee_ff00];
            let mut out = [0u64; 2];
            p.store_bulk(&mut c.t(true), B + 16, 16, len, &vals, u64::MAX);
            p.load_bulk(&mut c.t(true), B + 16, 16, len, &mut out, u64::MAX);
            assert_eq!(out, vals.map(|v| v & (u64::MAX >> (64 - 8 * len as u32))));
            let written = |i| {
                [16, 32]
                    .iter()
                    .any(|w| (*w..*w + len as usize).contains(&i))
            };
            let line = p.mem.window(B, 64);
            assert!((0..64).all(|i| written(i) || line[i] == 0xaa), "len {len}");
        }
    }

    #[test]
    fn a_missing_window_falls_back_to_the_scalar_path_word_for_word() {
        // Lines 0 and 2 resident, line 1 missing: 4-byte stores then loads
        // sweep all three, yielding every 7 cycles as the scheduler would.
        let sweep = |windows: bool| {
            let (mut p, mut c) = (table(&[LINES[0], LINES[2]], windows), Ctx::at(0));
            let vals: Vec<u64> = (1..=48).map(|i| i * 0x0101_0101).collect();
            let (mut out, mut chunks) = (vec![0u64; 48], Vec::new());
            for write in [true, false] {
                let mut i = 0;
                while i < 48 {
                    let (a, budget) = (B + 4 * i as u64, c.now + 7);
                    i += if write {
                        p.store_bulk(&mut c.t(true), a, 4, 4, &vals[i..], budget)
                    } else {
                        p.load_bulk(&mut c.t(true), a, 4, 4, &mut out[i..], budget)
                    };
                    chunks.push((i, c.now));
                }
            }
            assert_eq!(out, vals);
            (
                chunks,
                c.stats,
                p.l1.hits,
                p.l1.misses,
                p.mem.window(B, 192).to_vec(),
            )
        };
        assert_eq!(sweep(true), sweep(false));
    }
}
