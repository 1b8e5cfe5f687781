//! # svm-hlrc — an all-software, home-based lazy release consistency SVM
//!
//! A faithful implementation of the protocol the paper's SVM platform
//! simulates (Zhou, Iftode & Li's HLRC): a page-grained, multiple-writer
//! shared virtual memory over commodity messaging.
//!
//! * Every page has a **home** node (from the allocator's placement map);
//!   the home copy is kept up to date by applying **diffs** at releases.
//! * A node's first write to a page in an interval creates a **twin**; at a
//!   release, the dirty page is compared against the twin and the resulting
//!   word-granularity diff is sent to the home.
//! * Intervals carry **write notices**; vector timestamps order them. An
//!   acquiring processor invalidates every page written in intervals that
//!   causally precede the acquire; the next access faults and fetches the
//!   whole page from its home.
//! * Locks are manager-queued with a 3-hop grant path; barriers are
//!   centralized at a manager node that serializes arrival processing and
//!   release broadcasts — making barriers expensive, as the paper stresses.
//!
//! The crate is two layers: [`machine::Machine`] — nodes, network
//! interfaces, caches, the vector-time write-notice log and the price of
//! every synchronisation message, shared with the TreadMarks protocol in
//! `lrc-tmk` — and, here, HLRC's data policy over it: homes, whole-page
//! fetches, twins and diffs flushed home.
//!
//! This is a *real* protocol, not a timing approximation: application data
//! actually lives in per-node page frames, flows home as diffs, and is
//! re-fetched after invalidation. Data-race-free applications therefore
//! compute correct results **through** the protocol, which the workspace's
//! integration tests exploit by checking application output against
//! sequential references.

mod config;
pub mod machine;
mod page;

pub use config::SvmConfig;
pub use page::{Diff, Frame, PState, PageEntry, PageTable};

use machine::Machine;
use sim_core::mem::{load_le, store_le};
use sim_core::platform::{Extent, Platform, Timing};
use sim_core::probe::{self, ProbeHandle, ProtoEvent};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::util::FxSet;
use sim_core::{Addr, PlacementMap};

/// One SVM node's protocol state (the node hosts `procs_per_node`
/// processors): its page table and the counters it owes. Resources and
/// caches are the [`Machine`]'s.
struct Node {
    pages: PageTable,
    write_set: FxSet<u64>,
    /// Diffs this node created from paths that have no access to its
    /// statistics (write-notice invalidation flushes); drained into its
    /// counters by [`Platform::finalize`].
    diffs_created_debt: u64,
    /// Diffs applied at this node's homes; the applier is a remote flusher,
    /// so the count accrues here and is drained by [`Platform::finalize`].
    diffs_applied_debt: u64,
}

/// Cost accumulator for grant/barrier-side invalidation processing.
#[derive(Default, Clone, Copy)]
struct Acc {
    cycles: u64,
    invals: u64,
}

/// The home-based lazy release consistency platform: the home-based data
/// policy over the shared LRC [`Machine`].
pub struct SvmPlatform {
    m: Machine,
    nodes: Vec<Node>,
    /// The run's protocol event stream (None when undiagnosed).
    probe: Option<ProbeHandle>,
}

impl SvmPlatform {
    /// Build the platform from a configuration.
    ///
    /// # Panics
    /// If [`SvmConfig::validate`] rejects the node grouping, or the
    /// protocol page size is out of range.
    pub fn new(cfg: SvmConfig) -> Self {
        let m = Machine::new(cfg);
        Self {
            nodes: (0..m.nics.len())
                .map(|_| Node {
                    pages: PageTable::new(m.page_shift),
                    write_set: FxSet::default(),
                    diffs_created_debt: 0,
                    diffs_applied_debt: 0,
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

    /// The configuration in use.
    pub fn config(&self) -> &SvmConfig {
        &self.m.cfg
    }

    /// The node homing `page` (first-touched by `toucher` if unplaced).
    /// Resolved from the protocol-page base so that coherence units larger
    /// than the 4 KB placement granularity have one consistent home;
    /// placement homes are processor ids, so divide down to the hosting
    /// SVM node.
    #[inline]
    fn home_of(&self, placement: &mut PlacementMap, page: u64, toucher: usize) -> usize {
        let home = placement.home_of(page << self.m.page_shift, toucher);
        self.m.cfg.node_of(home)
    }

    /// Ensure the home node has a frame for `page`; create zeroed if first
    /// touch anywhere.
    fn home_frame_entry(&mut self, home: usize, page: u64) -> &mut PageEntry {
        let ps = self.m.cfg.page_size;
        self.nodes[home]
            .pages
            .get_or_insert_with(page, || PageEntry::zeroed(ps))
    }

    /// Fetch `page` from `home` into `pid`'s page table (remote page fault).
    fn fetch_page(&mut self, t: &mut Timing, page: u64, home: usize) {
        let nd = self.m.cfg.node_of(t.pid);
        debug_assert_ne!(nd, home);
        let cfg = &self.m.cfg;
        let wire = cfg.page_size + cfg.ctrl_msg_bytes;
        let t0 = *t.now;
        // Timing: trap, request message, home service, page transfer.
        t.charge(Bucket::DataWait, cfg.fault_trap);
        if t.timing_on {
            let pg = cfg.page_size * cfg.io_cyc_per_byte;
            let copy = cfg.page_size / 2 * cfg.memcpy_cyc_per_2bytes;
            let in_end = self.m.round_trip(nd, *t.now, home, cfg.handler_cost, pg);
            t.advance_to(Bucket::DataWait, in_end + copy);
        }
        // State: map the home frame's current version read-only — shared,
        // not copied, with every other reader of it.
        let version = self.home_frame_entry(home, page).frame.share();
        let entry = PageEntry::read_only(Frame::Shared(version));
        self.nodes[nd].pages.insert(page, entry);
        // The page was unmapped until now, so none of the node's processors
        // caches a line of it (`machine`'s invariant): nothing to drop.
        let base = page << self.m.page_shift;
        debug_assert!(!self.m.caches_page(nd, base));
        t.stats.counters.remote_fetches += 1;
        t.stats.counters.bytes_transferred += wire;
        // The fetch stalled `t.pid` over (t0, now]; the home node's first
        // processor stands in for it on the critical path.
        probe::emit(
            &self.probe,
            t.timing_on,
            ProtoEvent::PageFetch {
                pid: t.pid,
                reader_node: nd,
                page: base,
                home,
                src: home * self.m.cfg.procs_per_node,
                bytes: wire,
                t0,
                t1: *t.now,
            },
        );
    }

    /// Make `page` readable at `t.pid`'s node, faulting if necessary.
    fn ensure_readable(&mut self, t: &mut Timing, page: u64, home: usize) {
        let nd = self.m.cfg.node_of(t.pid);
        if self.nodes[nd].pages.contains(page) {
            return;
        }
        if nd == home {
            // Zero-fill first touch of an owned page: cheap minor fault.
            self.home_frame_entry(home, page);
        } else {
            self.fetch_page(t, page, home);
        }
    }

    /// Make `page` writable at `t.pid`'s node: fault in if absent, twin on
    /// the node's first write of the interval. The twin is the frame's
    /// version; the frame becomes the node's own buffer.
    fn ensure_writable(&mut self, t: &mut Timing, page: u64, home: usize) {
        self.ensure_readable(t, page, home);
        let nd = self.m.cfg.node_of(t.pid);
        let cfg = &self.m.cfg;
        let e = self.nodes[nd].pages.get_mut(page).unwrap();
        if e.state == PState::ReadOnly {
            if nd != home {
                // Write-protection trap + twin copy.
                t.charge(
                    Bucket::HandlerCompute,
                    cfg.fault_trap + cfg.page_size / 2 * cfg.memcpy_cyc_per_2bytes,
                );
                e.twin = Some(e.frame.share());
                t.stats.counters.twins_created += 1;
            } else {
                // Home writes in place; only the protection trap.
                t.charge(Bucket::HandlerCompute, cfg.fault_trap / 4);
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
        &self.nodes[nd].pages.get(page).unwrap().frame[off..]
    }

    /// [`SvmPlatform::frame_at`] for a store: the node's own buffer.
    #[inline]
    fn frame_at_mut(&mut self, nd: usize, addr: Addr) -> &mut [u8] {
        let off = (addr & (self.m.cfg.page_size - 1)) as usize;
        let page = addr >> self.m.page_shift;
        &mut self.nodes[nd].pages.get_mut(page).unwrap().frame.own_mut()[off..]
    }

    /// Flush one dirty page's diff to its home: state transfer plus cost
    /// bookkeeping. Returns `(local_cycles, applied_at_home, wire_bytes)` —
    /// the cycles the flushing node spends, when the diff has been applied
    /// at the home, and what it cost on the wire. `pid` is the processor
    /// the diff is attributed to (its node flushes) and `at` the virtual
    /// time of the flush. At an interval close the flusher pays on its own
    /// clock, which reads `at`; when a write notice forces the flush the
    /// grant absorbs the cost and resources are priced from time 0.
    fn flush_page(
        &mut self,
        pid: usize,
        page: u64,
        home: usize,
        at: u64,
        on_own_clock: bool,
        timing_on: bool,
    ) -> (u64, u64, u64) {
        let nd = self.m.cfg.node_of(pid);
        let now = if on_own_clock { at } else { 0 };
        let entry = self.nodes[nd].pages.get_mut(page).unwrap();
        debug_assert_eq!(entry.state, PState::ReadWrite);
        entry.state = PState::ReadOnly;
        if nd == home {
            // Writes already in place; nothing to transfer.
            return (0, now, 0);
        }
        let twin = entry.twin.take().expect("dirty remote page without twin");
        let diff = Diff::create(&twin, &entry.frame);
        let nwords = diff.len() as u64;
        let nruns = diff.run_count() as u64;
        // Apply to home frame (state). The applier is remote: count the
        // application at the home via its debt counter, drained at finalize.
        diff.apply(self.home_frame_entry(home, page).frame.own_mut());
        self.nodes[home].diffs_applied_debt += 1;
        // The home's processors may hold stale lines for the words just
        // patched; conservatively drop the page's lines there.
        let base = page << self.m.page_shift;
        self.m.drop_page_lines(home, base);
        let cfg = &self.m.cfg;
        let wire_bytes = diff.wire_bytes() + cfg.ctrl_msg_bytes;
        let mut priced = (0, now, 0);
        if timing_on {
            let scan = cfg.words_per_page() * cfg.diff_scan_per_word;
            let local = scan + nwords * cfg.diff_scan_per_word + nruns * 8;
            let io = wire_bytes * cfg.io_cyc_per_byte;
            let apply = cfg.handler_cost + nwords * cfg.diff_apply_per_word + nruns * 8;
            let arr = self.m.nics[nd].io_out.serve(now + local, io).1 + cfg.wire_latency;
            let (_, in_end) = self.m.nics[home].io_in.serve(arr, io);
            let (_, applied) = self.m.nics[home].handler.serve(in_end, apply);
            self.m.nics[home].debt += apply;
            // Attribute the application to the home node's first processor,
            // at the virtual time the home handler finished applying it.
            probe::emit(
                &self.probe,
                timing_on,
                ProtoEvent::DiffApplied {
                    pid: home * cfg.procs_per_node,
                    page: base,
                    at: applied,
                },
            );
            priced = (local, applied, wire_bytes);
        }
        probe::emit(
            &self.probe,
            timing_on,
            ProtoEvent::DiffCreated {
                pid,
                writer_node: nd,
                page: base,
                at,
                span: on_own_clock.then_some((at, at + priced.0)),
                word_runs: diff.runs(),
                wire_bytes,
            },
        );
        priced
    }

    /// Close `pid`'s current interval: flush all dirty pages home and log
    /// the write notices. Charges the flusher via `t` and returns the time
    /// at which all diffs have landed at their homes.
    fn close_interval(&mut self, t: &mut Timing) -> u64 {
        let nd = self.m.cfg.node_of(t.pid);
        if self.nodes[nd].write_set.is_empty() {
            return *t.now;
        }
        let mut pages: Vec<u64> = self.nodes[nd].write_set.drain().collect();
        pages.sort_unstable(); // determinism: FxSet iteration order is arbitrary
        let mut all_applied = *t.now;
        for &page in &pages {
            let still_dirty =
                self.nodes[nd].pages.get(page).map(|e| e.state) == Some(PState::ReadWrite);
            if still_dirty {
                let home = self.home_of(t.placement, page, t.pid);
                let (local, applied, bytes) =
                    self.flush_page(t.pid, page, home, *t.now, true, t.timing_on);
                t.charge(Bucket::HandlerCompute, local);
                all_applied = all_applied.max(applied);
                t.stats.counters.bytes_transferred += bytes;
                if nd != home {
                    t.stats.counters.diffs_created += 1;
                }
            }
        }
        self.m.close_interval(nd, pages);
        all_applied
    }

    /// Invalidate `page` at node `g` (consume a write notice). Flushes the
    /// local diff first if the copy is dirty, so no local writes are lost —
    /// the multiple-writer discipline.
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
        if g == home {
            return; // the home copy is always current
        }
        let state = self.nodes[g].pages.get(page).map(|e| e.state);
        if state == Some(PState::ReadWrite) {
            let (local, _, _) = self.flush_page(toucher, page, home, at, false, timing_on);
            // The flusher here is the invalidated node, whose statistics
            // this path cannot reach: accrue and drain at finalize.
            self.nodes[g].diffs_created_debt += 1;
            acc.cycles += local;
        }
        let base = page << self.m.page_shift;
        if state.is_some() {
            self.nodes[g].pages.remove(page);
            acc.cycles += self.m.cfg.inval_per_page;
            acc.invals += 1;
            probe::emit(
                &self.probe,
                timing_on,
                ProtoEvent::Invalidation {
                    pid: toucher,
                    page: base,
                    at,
                },
            );
            // The stale copy's cached lines no longer describe memory
            // contents — for every processor of the node.
            self.m.drop_page_lines(g, base);
        } else {
            // Never mapped here, or unmapped by an earlier notice: no lines
            // to drop (`machine`'s invariant), as in TreadMarks.
            debug_assert!(!self.m.caches_page(g, base));
        }
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

impl Platform for SvmPlatform {
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
            self.ensure_readable(t, page, home);
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
        self.m.apply_debt(t);
        let applied = self.close_interval(t);
        self.m.lock_release(t, lock);
        applied.max(*t.now)
    }

    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64 {
        self.m.apply_debt(t);
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
        let mut fan = self.m.barrier_merge(barrier, arrivals, timing_on);
        for nd in 0..self.nodes.len() {
            let acc = self.consume_notices(nd, &fan.upto, fan.at, placement, timing_on);
            stats[nd * self.m.cfg.procs_per_node].counters.invalidations += acc.invals;
            fan.release(&mut self.m, nd, acc.cycles);
        }
        fan.finish(&mut self.m)
    }

    fn reset_timing(&mut self) {
        self.m.reset_timing();
        for node in &mut self.nodes {
            node.diffs_created_debt = 0;
            node.diffs_applied_debt = 0;
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
            c.diffs_created += std::mem::take(&mut node.diffs_created_debt);
            c.diffs_applied += std::mem::take(&mut node.diffs_applied_debt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{run, Bucket, Placement, RunConfig, HEAP_BASE, PAGE_SIZE};

    fn svm_run<F: Fn(&mut sim_core::Proc) + Sync>(n: usize, f: F) -> sim_core::RunStats {
        run(
            SvmPlatform::boxed(SvmConfig::paper(n)),
            RunConfig::new(n),
            f,
        )
    }

    #[test]
    fn single_node_data_round_trips() {
        let got = std::sync::Mutex::new(0.0f64);
        svm_run(1, |p| {
            let a = p.alloc_shared(4096, 8, Placement::Node(0));
            p.start_timing();
            p.write_f64(a, 42.5);
            *got.lock().unwrap() = p.read_f64(a);
        });
        assert_eq!(*got.lock().unwrap(), 42.5);
    }

    #[test]
    fn data_flows_through_diffs_across_barrier() {
        // Writer and reader are different nodes; reader must get the value
        // via diff-to-home + page fetch after barrier invalidation.
        let got = std::sync::Mutex::new(vec![0.0f64; 2]);
        svm_run(2, |p| {
            let a = if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0))
            } else {
                0
            };
            p.barrier(0);
            // Share the address through simulated memory itself: node 0
            // writes it at a fixed heap location both can compute? Instead,
            // recompute: allocation order is deterministic, so pid 1
            // allocates nothing and the address equals HEAP_BASE.
            let a = if p.pid() == 0 { a } else { HEAP_BASE };
            p.start_timing();
            if p.pid() == 1 {
                p.write_f64(a + 8, 7.25); // node 1 writes a page homed at 0
            }
            p.barrier(1);
            let v = p.read_f64(a + 8);
            got.lock().unwrap()[p.pid()] = v;
            p.barrier(2);
        });
        assert_eq!(*got.lock().unwrap(), vec![7.25, 7.25]);
    }

    #[test]
    fn false_sharing_multiple_writers_merge() {
        // Both nodes write disjoint words of the SAME page concurrently;
        // after the barrier both see both writes (multiple-writer protocol).
        let got = std::sync::Mutex::new(vec![(0u64, 0u64); 2]);
        svm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            let a = HEAP_BASE;
            p.start_timing();
            let off = 8 * p.pid() as u64;
            p.store(a + off, 8, 100 + p.pid() as u64);
            p.barrier(1);
            let v0 = p.load(a, 8);
            let v1 = p.load(a + 8, 8);
            got.lock().unwrap()[p.pid()] = (v0, v1);
            p.barrier(2);
        });
        for &(v0, v1) in got.lock().unwrap().iter() {
            assert_eq!((v0, v1), (100, 101));
        }
    }

    #[test]
    fn lock_propagates_data_causally() {
        // Classic LRC litmus: p0 writes x under lock, p1 acquires the same
        // lock later and must see the write.
        let got = std::sync::Mutex::new(0u64);
        svm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            let a = HEAP_BASE;
            p.start_timing();
            if p.pid() == 0 {
                p.lock(1);
                p.store(a, 8, 77);
                p.unlock(1);
                p.barrier(1);
            } else {
                p.barrier(1); // ensure p0's critical section happened
                p.lock(1);
                *got.lock().unwrap() = p.load(a, 8);
                p.unlock(1);
            }
            p.barrier(2);
        });
        assert_eq!(*got.lock().unwrap(), 77);
    }

    #[test]
    fn remote_fetch_costs_much_more_than_local_access() {
        // Node 1 reads data homed at node 0: one remote fault then hits.
        let stats = svm_run(2, |p| {
            if p.pid() == 0 {
                let a = p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
                assert_eq!(a, HEAP_BASE);
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                for i in 0..16u64 {
                    p.load(HEAP_BASE + i * 8, 8);
                }
            }
            p.barrier(1);
        });
        let c = &stats.procs[1];
        assert_eq!(c.counters.remote_fetches, 1, "one page fault expected");
        assert!(
            c.get(Bucket::DataWait) > 10_000,
            "remote fetch should cost >10k cycles, got {}",
            c.get(Bucket::DataWait)
        );
        // Node 0 did not fetch anything.
        assert_eq!(stats.procs[0].counters.remote_fetches, 0);
    }

    #[test]
    fn write_creates_twin_and_release_creates_diff() {
        let stats = svm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                p.lock(0);
                p.store(HEAP_BASE, 8, 5);
                p.unlock(0);
            }
            p.barrier(1);
        });
        assert_eq!(stats.procs[1].counters.twins_created, 1);
        assert_eq!(stats.procs[1].counters.diffs_created, 1);
        // The diff is applied at the home (node 0), counted via finalize.
        assert_eq!(stats.procs[0].counters.diffs_applied, 1);
        assert_eq!(stats.procs[1].counters.diffs_applied, 0);
        // Home node writes never twin.
        assert_eq!(stats.procs[0].counters.twins_created, 0);
    }

    #[test]
    fn home_placement_avoids_remote_fetches() {
        // Each node works on its own partition homed locally: zero fetches.
        let stats = svm_run(4, |p| {
            if p.pid() == 0 {
                for n in 0..4 {
                    p.alloc_shared(PAGE_SIZE, 8, Placement::Node(n));
                }
            }
            p.barrier(0);
            p.start_timing();
            let mine = HEAP_BASE + p.pid() as u64 * PAGE_SIZE;
            for i in 0..64u64 {
                p.store(mine + i * 8, 8, i);
            }
            p.barrier(1);
            for i in 0..64u64 {
                assert_eq!(p.load(mine + i * 8, 8), i);
            }
            p.barrier(2);
        });
        assert_eq!(stats.sum_counters().remote_fetches, 0);
    }

    #[test]
    fn barriers_are_expensive() {
        let stats = svm_run(16, |p| {
            p.start_timing();
            p.barrier(1);
        });
        // A 16-way barrier should cost thousands of cycles even with no data.
        assert!(stats.total_cycles() > 5_000, "got {}", stats.total_cycles());
    }

    #[test]
    fn deterministic_runs() {
        let go = || {
            svm_run(4, |p| {
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
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.clocks, b.clocks);
    }

    #[test]
    fn dirty_page_invalidation_preserves_local_writes() {
        // p1 writes word A of a page; p0 writes word B under a lock that p1
        // then acquires (invalidating p1's dirty copy). p1's own write must
        // survive: flush-before-invalidate.
        let got = std::sync::Mutex::new((0u64, 0u64));
        svm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 0 {
                p.lock(9);
                p.store(HEAP_BASE, 8, 11);
                p.unlock(9);
                p.barrier(1);
            } else {
                p.store(HEAP_BASE + 8, 8, 22); // dirty word B, unreleased
                p.barrier(1); // closes p1's interval too (flush at arrive)
                p.lock(9);
                let a = p.load(HEAP_BASE, 8);
                let b = p.load(HEAP_BASE + 8, 8);
                *got.lock().unwrap() = (a, b);
                p.unlock(9);
            }
            p.barrier(2);
        });
        assert_eq!(*got.lock().unwrap(), (11, 22));
    }

    #[test]
    fn untimed_barriers_collect_the_interval_log() {
        // Initialisation runs untimed: its write+barrier rounds must not
        // pile up intervals until the first timed barrier. Driven through
        // the trait by hand, since a finished `run` takes the platform
        // with it.
        let mut p = SvmPlatform::new(SvmConfig::paper(2));
        let mut alloc = sim_core::GlobalAlloc::new(2);
        alloc.alloc(PAGE_SIZE, 8, Placement::Node(0));
        let (mut clocks, mut stats) = ([0u64; 2], [ProcStats::default(), ProcStats::default()]);
        for round in 0..100 {
            let mut arrivals = [0u64; 2];
            for pid in 0..2 {
                let mut t = Timing {
                    pid,
                    now: &mut clocks[pid],
                    stats: &mut stats[pid],
                    placement: alloc.map(),
                    timing_on: false,
                };
                p.store(&mut t, HEAP_BASE + 8 * pid as u64, 8, round);
                arrivals[pid] = p.barrier_arrive(&mut t, 0);
                assert_eq!(p.m.log_len(), pid + 1);
                // Both writes of the previous round crossed the barrier.
                let seen = [
                    p.load(&mut t, HEAP_BASE, 8),
                    p.load(&mut t, HEAP_BASE + 8, 8),
                ];
                assert!(seen.iter().all(|&v| v + 1 >= round), "{seen:?}");
            }
            p.barrier_release(0, &arrivals, &mut stats, alloc.map(), false);
            assert_eq!(p.m.log_len(), 0, "round {round}");
        }
    }

    /// A platform driven through the trait by hand, timed, so that a test
    /// can look inside it between operations.
    struct Rig {
        p: SvmPlatform,
        alloc: sim_core::GlobalAlloc,
        clocks: Vec<u64>,
        stats: Vec<ProcStats>,
    }

    impl Rig {
        fn new(cfg: SvmConfig) -> Self {
            let n = cfg.nprocs;
            Self {
                p: SvmPlatform::new(cfg),
                alloc: sim_core::GlobalAlloc::new(n),
                clocks: vec![0; n],
                stats: vec![ProcStats::default(); n],
            }
        }

        fn on<R>(&mut self, pid: usize, f: impl FnOnce(&mut SvmPlatform, &mut Timing) -> R) -> R {
            let mut t = Timing {
                pid,
                now: &mut self.clocks[pid],
                stats: &mut self.stats[pid],
                placement: self.alloc.map(),
                timing_on: true,
            };
            f(&mut self.p, &mut t)
        }

        fn barrier(&mut self) {
            let arrivals: Vec<u64> = (0..self.clocks.len())
                .map(|pid| self.on(pid, |p, t| p.barrier_arrive(t, 0)))
                .collect();
            let (p, map) = (&mut self.p, self.alloc.map());
            self.clocks = p.barrier_release(0, &arrivals, &mut self.stats, map, true);
        }
    }

    #[test]
    fn lines_are_cached_only_while_the_page_is_mapped() {
        // Two nodes of two processors; the page is homed at node 0 and
        // nodes[1] = {p2, p3} fetch, cache, lose and refetch it.
        let mut r = Rig::new(SvmConfig::paper_smp_nodes(4, 2));
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::Node(0));
        let page = a >> r.p.m.page_shift;
        let check = |r: &Rig, mapped: bool| {
            assert_eq!(r.p.nodes[1].pages.contains(page), mapped);
            assert_eq!(r.p.m.caches_page(1, a), mapped);
        };
        check(&r, false);
        r.on(2, |p, t| p.load(t, a, 8));
        check(&r, true);
        // The sibling's caches count too: p3 alone holds this line.
        r.on(3, |p, t| p.load(t, a + 1024, 8));
        r.on(0, |p, t| p.store(t, a, 8, 7));
        r.barrier();
        check(&r, false);
        assert!(r.p.m.caches_page(0, a), "the home copy is never unmapped");
        // A notice for a page the node no longer maps: nothing to drop.
        r.on(0, |p, t| p.store(t, a, 8, 8));
        r.barrier();
        check(&r, false);
        assert_eq!(r.on(3, |p, t| p.load(t, a, 8)), 8);
        check(&r, true);
        assert_eq!(r.stats[2].counters.remote_fetches, 1);
        assert_eq!(r.stats[3].counters.remote_fetches, 1);
    }

    #[test]
    fn readers_of_a_page_share_one_version() {
        // Three nodes read a page homed at node 0: one version among them.
        // The home then writes; on re-fault they share the new version and
        // the old one keeps the bytes it had.
        use std::sync::Arc;
        let mut r = Rig::new(SvmConfig::paper(4));
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::Node(0));
        let page = a >> r.p.m.page_shift;
        r.on(0, |p, t| p.store(t, a, 8, 1));
        r.barrier();
        let versions = |r: &Rig| -> Vec<Arc<[u8]>> {
            (1..4)
                .map(|nd| match &r.p.nodes[nd].pages.get(page).unwrap().frame {
                    Frame::Shared(v) => v.clone(),
                    Frame::Own(..) => panic!("node {nd} copied the page"),
                })
                .collect()
        };
        let one_version = |vs: &[Arc<[u8]>]| vs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1]));
        for pid in 1..4 {
            assert_eq!(r.on(pid, |p, t| p.load(t, a, 8)), 1);
        }
        let old = versions(&r);
        assert!(one_version(&old), "one allocation for three readers");
        r.on(0, |p, t| p.store(t, a, 8, 2));
        r.barrier();
        for pid in 1..4 {
            assert_eq!(r.on(pid, |p, t| p.load(t, a, 8)), 2);
        }
        let new = versions(&r);
        assert!(one_version(&new), "the new version is shared too");
        assert!(!Arc::ptr_eq(&old[0], &new[0]));
        assert_eq!(load_le(&old[0], 8), 1, "the old version is unchanged");
        assert_eq!(r.stats[1].counters.remote_fetches, 2);
    }

    #[test]
    fn first_touch_home_is_resolved_by_the_first_fault() {
        // The home is looked up only on the fault path; the first access to
        // a page anywhere is a fault, so first touch still decides it.
        let mut r = Rig::new(SvmConfig::paper(4));
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::FirstTouch);
        r.on(3, |p, t| p.load(t, a, 8));
        r.on(3, |p, t| p.load(t, a + 8, 8)); // mapped: no lookup
        r.on(1, |p, t| p.store(t, a, 8, 5));
        r.barrier();
        assert_eq!(r.alloc.map().home_of_resolved(a), Some(3));
        // p1 fetched from, twinned against and flushed its diff to node 3.
        assert_eq!(r.stats[3].counters.remote_fetches, 0);
        assert_eq!(r.stats[1].counters.remote_fetches, 1);
        assert_eq!(r.stats[1].counters.twins_created, 1);
        assert_eq!(r.stats[1].counters.diffs_created, 1);
        assert_eq!(r.on(3, |p, t| p.load(t, a, 8)), 5);
        assert_eq!(r.stats[3].counters.remote_fetches, 0, "home reads in place");
    }

    #[test]
    #[should_panic(expected = "does not divide nprocs")]
    fn construction_rejects_non_divisible_grouping() {
        let _ = SvmPlatform::new(SvmConfig::paper_smp_nodes(8, 3));
    }
}
