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

/// What [`Platform::free_extent`] lends the bulk loop: memory in which the
/// platform's protocol has nothing to do, so every L1 hit there is a free
/// word the loop can perform itself.
pub struct Extent<'a> {
    /// The accessing processor's first-level cache.
    pub l1: &'a mut Cache,
    /// Host bytes backing simulated memory from the queried address to the
    /// extent's end.
    pub bytes: &'a mut [u8],
}

impl<'a> Extent<'a> {
    /// The extent of a platform whose data lives in one [`FlatMem`] and
    /// whose L1 hits touch nothing else: the `span` bytes from `addr`.
    #[inline]
    pub fn flat(l1: &'a mut Cache, mem: &'a mut FlatMem, addr: Addr, span: usize) -> Self {
        let bytes = mem.window(addr, span);
        Self { l1, bytes }
    }

    /// Perform the free words from `addr`, the extent's start, at `stride`,
    /// `left` words of the slice remaining, handing `words` each line's run
    /// as its first word's index, its length and the bytes from its first
    /// word. Probes the L1 once per line (one tag search) and stamps the
    /// line once for its words, then counts them and charges `Compute` a
    /// cycle each, as that many scalar hits would. Stops at the extent's
    /// end, at the first word that leaves `*t.now > budget` (timing on),
    /// where the scalar path would yield, or before the first word whose
    /// line would miss. Returns how many words it performed and whether the
    /// next one needs the scalar path: it missed, or none fitted.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        t: &mut Timing,
        addr: Addr,
        stride: u64,
        len: u8,
        write: bool,
        left: usize,
        budget: u64,
        mut words: impl FnMut(usize, usize, &mut [u8]),
    ) -> (usize, bool) {
        let mut cap = left as u64;
        if t.timing_on {
            cap = cap.min(budget.saturating_sub(*t.now).saturating_add(1));
        }
        let (cap, stride) = (cap as usize, stride as usize);
        let line = self.l1.geom().line;
        // Offsets a word may start at without running past the extent.
        let room = (self.bytes.len() + 1).saturating_sub(len as usize);
        let (mut k, mut off, mut missed) = (0, 0, false);
        while k < cap && off < room {
            let a = addr + off as u64;
            let Some(way) = self.l1.hit_way(a, write) else {
                missed = true;
                break;
            };
            // The line's words: strides of a line or more (LU's column
            // reads) settle at one without paying for the division.
            let avail = room.min(off + (line - (a & (line - 1))) as usize) - off;
            let n = if stride == 0 {
                cap - k
            } else if stride >= avail {
                1
            } else {
                avail.div_ceil(stride).min(cap - k)
            };
            words(k, n, &mut self.bytes[off..]);
            self.l1.hit_run_at(way, write, n as u64);
            k += n;
            off += n * stride;
        }
        t.stats.counters.accesses += k as u64;
        t.charge(Bucket::Compute, k as u64);
        (k, missed || k == 0)
    }
}

/// Bytes from the first of `left` words of `len` bytes at `stride` to the
/// end of the last: what the rest of a bulk slice covers.
#[inline]
fn span(stride: u64, len: u8, left: usize) -> usize {
    ((left - 1) as u64 * stride) as usize + len as usize
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

    /// The one thing the bulk loop asks a platform, the protocol question:
    /// from `addr` on, how far is every L1 hit free? `Some` lends `pid`'s L1
    /// and the host bytes backing simulated memory from `addr` to a bound
    /// (at most `span`, the bytes the rest of the slice covers, or a whole
    /// protocol page) within which [`Platform::load`] (or
    /// [`Platform::store`], when `write`) of a word whose line hits in that
    /// L1 would do nothing but count the access, charge `Compute` 1 and
    /// touch the L1's LRU state — no interrupt debt, fault, twin or
    /// resource. The bulk loop answers the cache question itself, per line;
    /// the first word that would miss takes the scalar path. The extent
    /// covers at least the word at `addr` (words are naturally aligned: none
    /// straddles a line or a page). A side effect the scalar path repeats
    /// idempotently per word (sibling-line invalidation on multi-processor
    /// SVM nodes) is performed here, for the extent's first line, and the
    /// extent ends with that line.
    ///
    /// The default — `None`, every word takes the scalar path — is always
    /// correct; a wrong `Some` is what `tests/equivalence.rs` catches.
    #[inline]
    fn free_extent(
        &mut self,
        _pid: usize,
        _addr: Addr,
        _write: bool,
        _span: usize,
    ) -> Option<Extent<'_>> {
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
    /// This is the only implementation; platforms do not override it. The
    /// loop asks [`Platform::free_extent`] once per extent (a page, or the
    /// rest of the slice) and the L1 once per line inside it, and performs
    /// whatever hits itself; the first word that would miss, and every word
    /// outside an extent, goes through `load`. Page tables are walked once
    /// per extent and tag arrays once per line instead of once per word,
    /// and "bulk ≡ scalar" holds by construction for all but the platform's
    /// extent.
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
            let (a, left) = (addr + done as u64 * stride, out.len() - done);
            let (k, scalar) = match self.free_extent(t.pid, a, false, span(stride, len, left)) {
                Some(mut e) => e.run(t, a, stride, len, false, left, budget, |i, n, b| {
                    for (j, slot) in out[done + i..done + i + n].iter_mut().enumerate() {
                        *slot = load_le(&b[j * stride as usize..], len);
                    }
                }),
                None => (0, true),
            };
            done += k;
            if scalar {
                out[done] = self.load(t, a + k as u64 * stride, len);
                done += 1;
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
            let (a, left) = (addr + done as u64 * stride, vals.len() - done);
            let (k, scalar) = match self.free_extent(t.pid, a, true, span(stride, len, left)) {
                Some(mut e) => e.run(t, a, stride, len, true, left, budget, |i, n, b| {
                    for (j, &v) in vals[done + i..done + i + n].iter().enumerate() {
                        store_le(&mut b[j * stride as usize..], len, v);
                    }
                }),
                None => (0, true),
            };
            done += k;
            if scalar {
                self.store(t, a + k as u64 * stride, len, vals[done]);
                done += 1;
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

    /// A one-processor platform over a 64-byte-line L1 holding the lines
    /// `table` makes resident (Exclusive). A word of any other line, and a
    /// store to a Shared line, is a 10-cycle miss on the scalar path, which
    /// fills the line only when `fills` is set. Its extent runs to the end
    /// of the slice or of its `page`, whichever comes first; `windows:
    /// false` answers `None` throughout — the all-scalar oracle. `asked`
    /// logs every `free_extent` query.
    struct Table {
        l1: Cache,
        mem: FlatMem,
        windows: bool,
        page: u64,
        fills: bool,
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
            page: 4096,
            fills: false,
            asked,
        }
    }

    impl Table {
        fn access(&mut self, t: &mut Timing, addr: Addr, write: bool) {
            t.stats.counters.accesses += 1;
            t.charge(Bucket::Compute, 1);
            if self.l1.access(addr, write) != Lookup::Hit {
                t.charge(Bucket::CacheStall, 10);
                if self.fills {
                    self.l1.fill(addr, LineState::Modified);
                }
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
        fn free_extent(&mut self, _: usize, a: Addr, _: bool, span: usize) -> Option<Extent<'_>> {
            self.asked.push(a);
            if !self.windows {
                return None;
            }
            let span = span.min((self.page - (a & (self.page - 1))) as usize);
            Some(Extent::flat(&mut self.l1, &mut self.mem, a, span))
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
            assert_eq!(p.asked, [B], "one extent per chunk");
        }
        // Timing off: the clock stands still, so the budget cannot bind.
        let (mut p, mut c) = (table(&LINES, true), Ctx::at(0));
        assert_eq!(p.load_bulk(&mut c.t(false), B, 8, 8, &mut out, 0), 24);
        assert_eq!((c.now, c.stats.counters.accesses), (0, 24));
        assert_eq!(p.asked, [B], "one extent over the three lines");
    }

    #[test]
    fn runs_split_where_the_l1_line_ends() {
        // Stride 0, = line, > line, and unit strides crossing a line end;
        // then extents cut by a 128- and a 512-byte page mid-slice.
        let resident = [&LINES[..], &[B + 256, B + 512, B + 768]].concat();
        for (off, stride, n, page) in [
            (8, 0, 5, 4096),
            (0, 64, 3, 4096),
            (8, 72, 2, 4096),
            (40, 8, 6, 4096),
            (48, 24, 4, 4096),
            (0, 256, 4, 4096),
            (96, 8, 8, 128),
            (0, 256, 4, 512),
        ] {
            let (mut p, mut c) = (table(&resident, true), Ctx::at(0));
            p.page = page;
            let mut out = vec![0u64; n];
            let done = p.load_bulk(&mut c.t(true), B + off, stride, 8, &mut out, u64::MAX);
            assert_eq!((done, c.now), (n, n as u64));
            assert_eq!(p.l1.hits, n as u64, "every word one L1 hit");
            // One query per extent: the first word of each stretch of
            // consecutive words sharing a page.
            let mut starts: Vec<Addr> = (0..n as u64).map(|i| B + off + i * stride).collect();
            starts.dedup_by_key(|a| *a & !(page - 1));
            assert_eq!(p.asked, starts, "offset {off} stride {stride} page {page}");
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

    #[test]
    fn generated_slices_match_the_scalar_path() {
        let mut rng = crate::util::XorShift64::new(0xE47E);
        for case in 0..1500 {
            let mut pick = |xs: &[u64]| xs[rng.below(xs.len() as u64) as usize];
            let (page, len) = (pick(&[128, 256, 1024, 4096]), pick(&[1, 2, 4, 8]));
            let stride = pick(&[0, len, 24, 64, 72, 256, page - 8]);
            let n = 1 + rng.below(64) as usize;
            let addr = B + rng.below(2 * page / len) * len;
            let quantum = [rng.below(40), u64::MAX][(rng.below(4) == 0) as usize];
            let (timing_on, fills) = (rng.below(2) == 0, rng.below(2) == 0);
            let mut lines: Vec<Addr> = (0..n as u64).map(|i| (addr + i * stride) & !63).collect();
            lines.dedup();
            // Half the lines absent; the rest Shared or Exclusive.
            let resident: Vec<(Addr, LineState)> = lines
                .into_iter()
                .filter_map(|a| match rng.below(4) {
                    2 => Some((a, LineState::Shared)),
                    3 => Some((a, LineState::Exclusive)),
                    _ => None,
                })
                .collect();
            let vals: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let sweep = |windows: bool| {
                let (mut p, mut c) = (table(&[], windows), Ctx::at(0));
                (p.page, p.fills) = (page, fills);
                for &(a, state) in &resident {
                    p.l1.fill(a, state);
                }
                let (mut out, mut chunks) = (vec![0u64; n], Vec::new());
                for write in [true, false] {
                    let mut i = 0;
                    while i < n {
                        let (a, budget) = (addr + i as u64 * stride, c.now.saturating_add(quantum));
                        let mut t = c.t(timing_on);
                        i += if write {
                            p.store_bulk(&mut t, a, stride, len as u8, &vals[i..], budget)
                        } else {
                            p.load_bulk(&mut t, a, stride, len as u8, &mut out[i..], budget)
                        };
                        chunks.push((i, c.now));
                    }
                }
                let image = p.mem.window(addr, span(stride, len as u8, n)).to_vec();
                let l1 = format!("{:?}", p.l1);
                (chunks, c.now, c.stats, l1, image, out)
            };
            let (bulk, scalar) = (sweep(true), sweep(false));
            assert_eq!(
                bulk, scalar,
                "case {case}: page {page} len {len} stride {stride} n {n} addr {addr:#x} \
                 quantum {quantum} timing {timing_on} fills {fills}"
            );
        }
    }
}
