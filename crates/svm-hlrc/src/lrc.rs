//! The LRC platform both protocols are: one state machine over the
//! [`Machine`], generic over a [`Policy`].
//!
//! Written once, here: each node's page table and write set, the probe,
//! the fault, twin and frame path, the interval close, write-notice
//! consumption with its unmap-and-drop-lines step, and the whole
//! [`Platform`] implementation. The policy answers what HLRC and
//! TreadMarks do differently: what a fault maps and what it costs, where
//! a closed or forced diff goes, and what a barrier does after its
//! fan-out. Whether pages have homes answers the rest: a home writes in
//! place without a twin, and a write notice skips the home's copy, which
//! is always current.

use crate::machine::Machine;
use crate::page::{Diff, Frame, PState, PageEntry, PageTable};
use crate::SvmConfig;
use sim_core::mem::{load_le, store_le};
use sim_core::platform::{Extent, Platform, Timing};
use sim_core::probe::{self, ProbeHandle, ProtoEvent};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::util::FxSet;
use sim_core::{Addr, PlacementMap};
use std::sync::Arc;

/// What HLRC and TreadMarks answer differently, as functions over the
/// platform they parameterise: dispatched statically, so nothing on the
/// load/store path goes through a `dyn`. Public only inside this crate's
/// private module, so no other crate can name or implement it.
pub trait Policy: Sized + Send + 'static {
    /// Whether every page has a home node (HLRC).
    const HOME_BASED: bool;

    /// The policy's state for `cfg`.
    fn new(cfg: &SvmConfig) -> Self;

    /// Fault `page` in at `t.pid`'s node, which does not map it; `home` is
    /// its home node, under a home-based policy. `None`: the node
    /// zero-fills the page at no charge (a first touch at the home, or of
    /// a page no diff has reached). Otherwise the trap and the transfer
    /// are charged to `t`, and the result is the version to map, the
    /// processor standing in for the serving side, and the bytes moved.
    fn fetch(
        lrc: &mut LrcPlatform<Self>,
        t: &mut Timing,
        page: u64,
        home: Option<usize>,
    ) -> Option<(Arc<[u8]>, usize, u64)>;

    /// Send `diff`, which `pid`'s node made of `page` at `at`, where the
    /// policy keeps diffs, report it on the probe and count its
    /// application. `own_clock`: made at an interval close, on the maker's
    /// clock, rather than forced by a write notice (priced from time 0,
    /// the grant absorbing the cost). Returns the cycles the maker spends,
    /// when the diff has been applied, and the bytes it put on the wire.
    #[allow(clippy::too_many_arguments)]
    fn put_diff(
        lrc: &mut LrcPlatform<Self>,
        pid: usize,
        page: u64,
        home: Option<usize>,
        diff: Diff,
        at: u64,
        own_clock: bool,
        timing_on: bool,
    ) -> (u64, u64, u64);

    /// A barrier's fan-out is over: every node has consumed every notice.
    fn barrier_done(_lrc: &mut LrcPlatform<Self>) {}
}

/// One node's protocol state (the node hosts `procs_per_node`
/// processors): its page table, the pages its open interval wrote, and
/// the counters it owes. Resources and caches are the [`Machine`]'s.
pub struct Node {
    pub(crate) pages: PageTable,
    write_set: FxSet<u64>,
    /// Diffs this node made where its statistics are out of reach
    /// (flushes forced by write notices); drained into its counters by
    /// [`Platform::finalize`].
    created_debt: u64,
    /// Diffs applied at this node (an HLRC home; a TreadMarks writer,
    /// whose archival is the application), drained the same way.
    pub(crate) applied_debt: u64,
}

/// Cost of one node's write-notice consumption at a grant or barrier.
#[derive(Default)]
struct Acc {
    cycles: u64,
    invals: u64,
}

/// A lazy release consistency platform: the [`Machine`], each node's
/// pages, and the policy `P`. Named [`crate::SvmPlatform`] under HLRC's
/// policy and [`crate::TmkPlatform`] under TreadMarks'.
pub struct LrcPlatform<P> {
    pub(crate) m: Machine,
    pub(crate) nodes: Vec<Node>,
    /// The run's protocol event stream (None when undiagnosed).
    pub(crate) probe: Option<ProbeHandle>,
    pub(crate) pol: P,
}

impl<P: Policy> LrcPlatform<P> {
    /// Build the platform from a configuration.
    ///
    /// # Panics
    /// If [`SvmConfig::validate`] rejects the node grouping, the protocol
    /// page size is out of range, or the policy rejects the configuration
    /// (TreadMarks: more than one processor per node).
    pub fn new(cfg: SvmConfig) -> Self {
        let m = Machine::new(cfg);
        Self {
            pol: P::new(&m.cfg),
            nodes: (0..m.nics.len())
                .map(|_| Node {
                    pages: PageTable::new(m.page_shift),
                    write_set: FxSet::default(),
                    created_debt: 0,
                    applied_debt: 0,
                })
                .collect(),
            m,
            probe: None,
        }
    }

    /// Boxed, type-erased platform (convenience for `sim_core::run`).
    pub fn boxed(cfg: SvmConfig) -> Box<dyn Platform> {
        Box::new(Self::new(cfg))
    }

    /// The node homing `page` (first-touched by `toucher` if unplaced),
    /// under a home-based policy. Resolved from the protocol-page base so
    /// that coherence units larger than the 4 KB placement granularity
    /// have one consistent home; placement homes are processor ids, so
    /// divide down to the hosting SVM node.
    #[inline]
    fn home_of(&self, placement: &mut PlacementMap, page: u64, toucher: usize) -> Option<usize> {
        P::HOME_BASED.then(|| {
            let home = placement.home_of(page << self.m.page_shift, toucher);
            self.m.cfg.node_of(home)
        })
    }

    /// Map `page`, unmapped at `t.pid`'s node, there: zero-filled, or
    /// read-only over the version the policy fetches.
    fn fault(&mut self, t: &mut Timing, page: u64, home: Option<usize>) {
        let nd = self.m.cfg.node_of(t.pid);
        let t0 = *t.now;
        let Some((version, src, wire)) = P::fetch(self, t, page, home) else {
            let ps = self.m.cfg.page_size;
            self.nodes[nd].pages.insert(page, PageEntry::zeroed(ps));
            return;
        };
        let entry = PageEntry::read_only(Frame::Shared(version));
        self.nodes[nd].pages.insert(page, entry);
        // The page was unmapped until now, so none of the node's processors
        // caches a line of it (`machine`'s invariant): nothing to drop.
        let base = page << self.m.page_shift;
        debug_assert!(!self.m.caches_page(nd, base));
        t.stats.counters.remote_fetches += 1;
        // The fetch stalled `t.pid` over (t0, now]; `src` stands in for
        // the serving side on the critical path.
        probe::emit(
            &self.probe,
            t.timing_on,
            ProtoEvent::PageFetch {
                pid: t.pid,
                reader_node: nd,
                page: base,
                home: home.unwrap_or(src),
                src,
                bytes: wire,
                t0,
                t1: *t.now,
            },
        );
    }

    /// Make `page` writable at `t.pid`'s node: fault it in if absent, and
    /// twin it on the node's first write of the interval — except at its
    /// home, which writes in place. The twin is the frame's version; the
    /// frame becomes the node's own buffer.
    fn ensure_writable(&mut self, t: &mut Timing, page: u64, home: Option<usize>) {
        let nd = self.m.cfg.node_of(t.pid);
        if !self.nodes[nd].pages.contains(page) {
            self.fault(t, page, home);
        }
        let cfg = &self.m.cfg;
        let e = self.nodes[nd]
            .pages
            .get_mut(page)
            .expect("faulted in above");
        if e.state == PState::ReadOnly {
            if home == Some(nd) {
                // Home writes in place; only the protection trap.
                t.charge(Bucket::HandlerCompute, cfg.fault_trap / 4);
            } else {
                // Write-protection trap + twin copy.
                t.charge(
                    Bucket::HandlerCompute,
                    cfg.fault_trap + cfg.page_size / 2 * cfg.memcpy_cyc_per_2bytes,
                );
                e.twin = Some(e.frame.share());
                t.stats.counters.twins_created += 1;
            }
            e.frame.own_mut();
            e.state = PState::ReadWrite;
            self.nodes[nd].write_set.insert(page);
        }
    }

    /// The bytes of node `nd`'s copy of the (mapped) page from `addr` on.
    #[inline]
    fn frame_at(&self, nd: usize, addr: Addr) -> &[u8] {
        let off = (addr & (self.m.cfg.page_size - 1)) as usize;
        let page = addr >> self.m.page_shift;
        &self.nodes[nd]
            .pages
            .get(page)
            .expect("mapped by the caller")
            .frame[off..]
    }

    /// [`LrcPlatform::frame_at`] for a store: the node's own buffer.
    #[inline]
    fn frame_at_mut(&mut self, nd: usize, addr: Addr) -> &mut [u8] {
        let off = (addr & (self.m.cfg.page_size - 1)) as usize;
        let page = addr >> self.m.page_shift;
        let e = self.nodes[nd].pages.get_mut(page);
        &mut e.expect("mapped by the caller").frame.own_mut()[off..]
    }

    /// Write-protect node `nd`'s dirty copy of `page` and diff it against
    /// its twin: `None` if the copy is not dirty (or, since the write, not
    /// mapped), or if it is the home's, written in place.
    fn seal(&mut self, nd: usize, page: u64) -> Option<Diff> {
        let e = self.nodes[nd].pages.get_mut(page)?;
        if e.state != PState::ReadWrite {
            return None;
        }
        e.state = PState::ReadOnly;
        let twin = e.twin.take()?;
        Some(Diff::create(&twin, &e.frame))
    }

    /// Close `t.pid`'s interval at a release: charge the node's debt, seal
    /// every dirty page, hand its diff to the policy, log the notices.
    /// Charges `t`; returns when all its diffs are applied.
    fn close_interval(&mut self, t: &mut Timing) -> u64 {
        self.m.apply_debt(t);
        let nd = self.m.cfg.node_of(t.pid);
        if self.nodes[nd].write_set.is_empty() {
            return *t.now;
        }
        let mut pages: Vec<u64> = self.nodes[nd].write_set.drain().collect();
        pages.sort_unstable(); // determinism: FxSet iteration order is arbitrary
        let mut all_applied = *t.now;
        for &page in &pages {
            let Some(diff) = self.seal(nd, page) else {
                continue;
            };
            let home = self.home_of(t.placement, page, t.pid);
            let (now, timing_on) = (*t.now, t.timing_on);
            let (local, applied, wire) =
                P::put_diff(self, t.pid, page, home, diff, now, true, timing_on);
            t.charge(Bucket::HandlerCompute, local);
            all_applied = all_applied.max(applied);
            t.stats.counters.bytes_transferred += wire;
            t.stats.counters.diffs_created += 1;
        }
        self.m.close_interval(nd, pages);
        all_applied
    }

    /// Invalidate `page` at node `g` (consume a write notice). A dirty
    /// copy's diff goes out first, so no local writes are lost — the
    /// multiple-writer discipline.
    fn invalidate_page(
        &mut self,
        g: usize,
        page: u64,
        at: u64,
        placement: &mut PlacementMap,
        timing_on: bool,
        acc: &mut Acc,
    ) {
        let toucher = g * self.m.cfg.procs_per_node;
        let home = self.home_of(placement, page, toucher);
        if home == Some(g) {
            return; // the home copy is always current
        }
        let base = page << self.m.page_shift;
        if !self.nodes[g].pages.contains(page) {
            // Never mapped here, or unmapped by an earlier notice: no lines
            // to drop (`machine`'s invariant).
            debug_assert!(!self.m.caches_page(g, base));
            return;
        }
        if let Some(diff) = self.seal(g, page) {
            let (local, _, _) = P::put_diff(self, toucher, page, home, diff, at, false, timing_on);
            // The maker here is the invalidated node, whose statistics this
            // path cannot reach: accrue and drain at finalize.
            self.nodes[g].created_debt += 1;
            acc.cycles += local;
        }
        self.nodes[g].pages.remove(page);
        acc.cycles += self.m.cfg.inval_per_page;
        acc.invals += 1;
        let inval = ProtoEvent::Invalidation {
            pid: toucher,
            page: base,
            at,
        };
        probe::emit(&self.probe, timing_on, inval);
        // The stale copy's cached lines no longer describe memory contents
        // — for every processor of the node.
        self.m.drop_page_lines(g, base);
    }

    /// Bring node `g` up to vector time `upto`, invalidating at `g` every
    /// page the consumed intervals notify.
    fn consume_notices(
        &mut self,
        g: usize,
        upto: &[u32],
        at: u64,
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Acc {
        let mut acc = Acc::default();
        for page in self.m.take_notices(g, upto) {
            self.invalidate_page(g, page, at, placement, timing_on, &mut acc);
        }
        acc
    }
}

impl<P: Policy> Platform for LrcPlatform<P> {
    fn nprocs(&self) -> usize {
        self.m.cfg.nprocs
    }

    fn min_cross_node_latency(&self) -> Option<u64> {
        // Every cross-processor interaction is a protocol message: at
        // cheapest an intra-node handoff when nodes host several
        // processors, otherwise a wire crossing.
        let cfg = &self.m.cfg;
        Some(if cfg.procs_per_node > 1 {
            cfg.intra_node_cost.min(cfg.wire_latency)
        } else {
            cfg.wire_latency
        })
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.m.apply_debt(t);
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let page = addr >> self.m.page_shift;
        // The home matters only to a fault: resolve it (a search over the
        // allocation regions) off the mapped path.
        let nd = self.m.cfg.node_of(t.pid);
        if !self.nodes[nd].pages.contains(page) {
            let home = self.home_of(t.placement, page, t.pid);
            self.fault(t, page, home);
        }
        self.m.cache_access(t, addr, false);
        load_le(self.frame_at(nd, addr), len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.m.apply_debt(t);
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let page = addr >> self.m.page_shift;
        let nd = self.m.cfg.node_of(t.pid);
        if self.nodes[nd].pages.get(page).map(|e| e.state) != Some(PState::ReadWrite) {
            let home = self.home_of(t.placement, page, t.pid);
            self.ensure_writable(t, page, home);
        }
        self.m.cache_access(t, addr, true);
        store_le(self.frame_at_mut(nd, addr), len, val);
    }

    #[inline]
    fn free_extent(&mut self, pid: usize, addr: Addr, write: bool, _: usize) -> Option<Extent<'_>> {
        let nd = self.m.cfg.node_of(pid);
        let e = self.nodes[nd].pages.get_mut(addr >> self.m.page_shift)?;
        self.m.free_extent(pid, addr, write, e)
    }

    fn acquire_request(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.m.lock_request(t, lock)
    }

    fn acquire_grant(
        &mut self,
        pid: usize,
        lock: u32,
        grant_at: u64,
        stats: &mut ProcStats,
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> u64 {
        // Consume causally preceding write notices.
        let (nd, upto) = (self.m.cfg.node_of(pid), self.m.lock_time(lock));
        let acc = self.consume_notices(nd, &upto, grant_at, placement, timing_on);
        stats.counters.invalidations += acc.invals;
        self.m.lock_grant(grant_at, acc.cycles, timing_on)
    }

    fn release(&mut self, t: &mut Timing, lock: u32) -> u64 {
        let applied = self.close_interval(t);
        self.m.lock_release(t, lock);
        applied.max(*t.now)
    }

    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64 {
        let applied = self.close_interval(t);
        self.m.barrier_arrive(t, barrier, applied)
    }

    fn barrier_release(
        &mut self,
        barrier: u32,
        arrivals: &[u64],
        stats: &mut [ProcStats],
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64> {
        // The manager merges the interval information, then walks the
        // nodes in order: each consumes its write notices, then is sent its
        // release message (the manager's own node just remembers the work).
        // Consume-then-release *per node* is load-bearing: `Resource::serve`
        // is FCFS, and a flush forced by an invalidation at the manager's
        // node serves the `io_out` the release messages leave through.
        let (at, upto) = self.m.barrier_merge(arrivals, timing_on);
        let mgr = self.m.cfg.barrier_manager(barrier);
        let (mut resumes, mut sent, mut mgr_cycles) = (arrivals.to_vec(), at, 0);
        for nd in 0..self.nodes.len() {
            let acc = self.consume_notices(nd, &upto, at, placement, timing_on);
            let cfg = &self.m.cfg;
            stats[nd * cfg.procs_per_node].counters.invalidations += acc.invals;
            if nd == mgr {
                mgr_cycles = acc.cycles;
            } else if timing_on {
                let ctrl = cfg.ctrl_msg_bytes * cfg.io_cyc_per_byte;
                sent = self.m.nics[mgr].io_out.serve(sent, ctrl).1;
                let resume = sent + cfg.wire_latency + cfg.handler_cost + acc.cycles;
                self.m.resume_node(&mut resumes, nd, resume);
            }
        }
        P::barrier_done(self);
        // The manager node resumes after finishing all its sends plus its
        // own invalidation work — the paper's "barrier manager" imbalance.
        if timing_on {
            self.m.resume_node(&mut resumes, mgr, sent + mgr_cycles);
        }
        self.m.collect_log();
        resumes
    }

    fn reset_timing(&mut self) {
        self.m.reset_timing();
        for node in &mut self.nodes {
            node.created_debt = 0;
            node.applied_debt = 0;
        }
    }

    fn set_probe(&mut self, probe: Option<ProbeHandle>) {
        self.probe = probe;
        let page_bytes = self.m.cfg.page_size;
        probe::emit(&self.probe, false, ProtoEvent::PageGeometry { page_bytes });
    }

    fn finalize(&mut self, stats: &mut [ProcStats]) {
        // Drain protocol counters that accrued at non-initiator nodes into
        // the node's first processor. Runs once, after all simulated
        // processors have exited, so it cannot perturb the interleaving.
        for (nd, node) in self.nodes.iter_mut().enumerate() {
            let c = &mut stats[nd * self.m.cfg.procs_per_node].counters;
            c.diffs_created += std::mem::take(&mut node.created_debt);
            c.diffs_applied += std::mem::take(&mut node.applied_debt);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{SvmPlatform, TmkPlatform};
    use sim_core::{run, Placement, Proc, RunConfig, RunStats, HEAP_BASE, PAGE_SIZE};

    /// A platform driven through the trait by hand, timed, so that a test
    /// can look inside it between operations.
    pub(crate) struct Rig<P> {
        pub(crate) p: LrcPlatform<P>,
        pub(crate) alloc: sim_core::GlobalAlloc,
        pub(crate) clocks: Vec<u64>,
        pub(crate) stats: Vec<ProcStats>,
    }

    impl<P: Policy> Rig<P> {
        pub(crate) fn new(cfg: SvmConfig) -> Self {
            let n = cfg.nprocs;
            Self {
                p: LrcPlatform::new(cfg),
                alloc: sim_core::GlobalAlloc::new(n),
                clocks: vec![0; n],
                stats: vec![ProcStats::default(); n],
            }
        }

        pub(crate) fn on<R>(
            &mut self,
            pid: usize,
            f: impl FnOnce(&mut LrcPlatform<P>, &mut Timing) -> R,
        ) -> R {
            let mut t = Timing {
                pid,
                now: &mut self.clocks[pid],
                stats: &mut self.stats[pid],
                placement: self.alloc.map(),
                timing_on: true,
            };
            f(&mut self.p, &mut t)
        }

        pub(crate) fn barrier(&mut self) {
            let arrivals: Vec<u64> = (0..self.clocks.len())
                .map(|pid| self.on(pid, |p, t| p.barrier_arrive(t, 0)))
                .collect();
            let (p, map) = (&mut self.p, self.alloc.map());
            self.clocks = p.barrier_release(0, &arrivals, &mut self.stats, map, true);
        }
    }

    /// `f` run on `n` processors under HLRC and under TreadMarks, both in
    /// the paper's configuration.
    fn run_both(n: usize, f: impl Fn(&mut Proc) + Sync) -> [RunStats; 2] {
        let on = |platform: Box<dyn Platform>| run(platform, RunConfig::new(n), &f);
        let cfg = SvmConfig::paper(n);
        [
            on(SvmPlatform::boxed(cfg.clone())),
            on(TmkPlatform::boxed(cfg)),
        ]
    }

    #[test]
    fn data_flows_through_diffs_across_barrier() {
        // p1 writes a page homed at node 0; after the barrier both read the
        // value: HLRC moves it as a diff to the home and a page fetch from
        // there, TreadMarks as a diff archived at p1 and a gathering fault.
        let stats = run_both(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                p.write_f64(HEAP_BASE + 8, 7.25);
            }
            p.barrier(1);
            assert_eq!(p.read_f64(HEAP_BASE + 8), 7.25, "p{}", p.pid());
            p.barrier(2);
        });
        for c in stats.map(|s| s.sum_counters()) {
            // Applied once each: at the home, or by its archival.
            assert!(c.diffs_created > 0);
            assert_eq!(c.diffs_created, c.diffs_applied);
        }
    }

    #[test]
    fn multiple_writers_merge() {
        // Four nodes write disjoint words of the SAME page concurrently;
        // after the barrier each sees every write (multiple-writer
        // protocol), with a home or without.
        run_both(4, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            p.store(HEAP_BASE + 8 * p.pid() as u64, 8, 100 + p.pid() as u64);
            p.barrier(1);
            let (v0, v3) = (p.load(HEAP_BASE, 8), p.load(HEAP_BASE + 24, 8));
            assert_eq!((v0, v3), (100, 103), "p{}", p.pid());
            p.barrier(2);
        });
    }

    #[test]
    fn lock_chain_carries_causality() {
        // Classic LRC litmus, twice over: p0 writes x under a lock; p1,
        // later, acquires it and must see x, and writes y = x + 1; p2
        // acquires it last and must see y.
        run_both(3, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 0 {
                p.lock(1);
                p.store(HEAP_BASE, 8, 5);
                p.unlock(1);
            }
            p.barrier(1);
            if p.pid() == 1 {
                p.lock(1);
                let x = p.load(HEAP_BASE, 8);
                assert_eq!(x, 5);
                p.store(HEAP_BASE + 8, 8, x + 1);
                p.unlock(1);
            }
            p.barrier(2);
            if p.pid() == 2 {
                p.lock(1);
                assert_eq!(p.load(HEAP_BASE + 8, 8), 6);
                p.unlock(1);
            }
            p.barrier(3);
        });
    }

    #[test]
    fn runs_are_deterministic() {
        // Lock-protected stores among loads, and stores among critical
        // sections: each gives the same clocks twice under each policy.
        let locked_stores = |p: &mut Proc| {
            if p.pid() == 0 {
                p.alloc_shared(4 * PAGE_SIZE, 8, Placement::RoundRobin);
            }
            p.barrier(0);
            p.start_timing();
            for i in 0..32u64 {
                let a = HEAP_BASE + ((i * 37 + p.pid() as u64 * 91) % 512) * 8;
                if i % 3 == 0 {
                    p.lock(2);
                    p.store(a, 8, i);
                    p.unlock(2);
                } else {
                    p.load(a, 8);
                }
            }
            p.barrier(1);
        };
        let stores_among_locks = |p: &mut Proc| {
            if p.pid() == 0 {
                p.alloc_shared(4 * PAGE_SIZE, 8, Placement::RoundRobin);
            }
            p.barrier(0);
            p.start_timing();
            for i in 0..32u64 {
                p.store(HEAP_BASE + ((i * 56 + p.pid() as u64 * 96) % 4096), 8, i);
                if i % 8 == 0 {
                    p.lock(1);
                    p.work(3);
                    p.unlock(1);
                }
            }
            p.barrier(1);
        };
        let clocks = |f: &(dyn Fn(&mut Proc) + Sync)| run_both(4, f).map(|s| s.clocks);
        assert_eq!(clocks(&locked_stores), clocks(&locked_stores));
        assert_eq!(clocks(&stores_among_locks), clocks(&stores_among_locks));
    }
}
