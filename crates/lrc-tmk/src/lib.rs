//! # lrc-tmk — a TreadMarks-style, non-home-based lazy release consistency SVM
//!
//! The baseline protocol the paper's §2.1.1 contrasts HLRC against (Keleher
//! et al.'s TreadMarks; the comparison is Zhou, Iftode & Li, OSDI'96). The
//! crucial difference from the home-based protocol in `svm-hlrc`:
//!
//! * There is **no home copy**. Writers create diffs at releases but keep
//!   them; a faulting reader must *gather diffs from every writer* whose
//!   intervals it has not yet applied, then apply them in causal order.
//! * Diffs accumulate until a garbage-collection point. A faulting reader
//!   is priced for the chain suffix it misses, so a page's chain is kept
//!   until it grows past a threshold at a barrier (TreadMarks ran periodic
//!   GC for the same reason) — the memory- and message-overhead this
//!   protocol pays for multiple-writer pages is exactly the weakness HLRC
//!   was designed to fix, and it reproduces here: page faults on
//!   multi-writer pages cost one round-trip **per writer** instead of one
//!   fetch from the home.
//!
//! The simulator keeps each page's *head* — its current contents, every
//! archived diff already applied — as one shared version: a fault maps it
//! without copying or replaying anything, and the chain is read only by
//! the cost model (who wrote, how many words and runs). GC therefore only
//! truncates the chain.
//!
//! The protocol is a *data policy* over the machine it shares with HLRC:
//! this crate owns page tables, diff chains, the gathering fault and chain
//! GC, and runs them on `svm_hlrc::machine::Machine` — nodes, network
//! interfaces, caches, the vector-time write-notice log and the pricing of
//! every synchronisation message — with `svm-hlrc`'s data-plane primitives
//! (`Diff`, `PageEntry`). It is exercised by the same application suite
//! through `apps::Platform::Tmk` — every run is verified against the
//! sequential references, so this is a real working protocol, not a cost
//! model.

use sim_core::mem::{load_le, store_le};
use sim_core::platform::{Extent, Platform, Timing};
use sim_core::probe::{self, ProbeHandle, ProtoEvent};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::util::{FxMap, FxSet};
use sim_core::{Addr, PlacementMap};
use std::sync::Arc;
use svm_hlrc::machine::Machine;
use svm_hlrc::{Diff, Frame, PState, PageEntry, PageTable, SvmConfig};

/// One archived diff: who wrote it and what changed.
struct ArchivedDiff {
    writer: usize,
    diff: Diff,
}

/// Global (conceptually distributed) per-page diff chain plus the page's
/// current contents.
struct PageLog {
    /// The head: the page with every diff ever archived applied, in archive
    /// order. Faulting readers share its version.
    head: Frame,
    /// The diffs archived since the last GC, oldest first — read only to
    /// price a fault.
    chain: Vec<ArchivedDiff>,
}

/// A page's chain is truncated at a barrier once it holds this many diffs.
const GC_THRESHOLD: usize = 8;

/// One node's protocol state; resources and caches are the [`Machine`]'s.
struct Node {
    pages: PageTable,
    /// How many chain entries of each page this node has applied.
    applied: FxMap<u64, u32>,
    write_set: FxSet<u64>,
}

#[derive(Default, Clone, Copy)]
struct Acc {
    cycles: u64,
    invals: u64,
    /// Diffs archived into page chains by write-notice invalidations. The
    /// caller folds these into the invalidated node's `diffs_created` and
    /// `diffs_applied` counters (archival *is* this protocol's application —
    /// there is no home copy to patch).
    archived: u64,
}

impl Acc {
    /// Fold the episode into the invalidated node's counters.
    fn count(&self, stats: &mut ProcStats) {
        stats.counters.invalidations += self.invals;
        stats.counters.diffs_created += self.archived;
        stats.counters.diffs_applied += self.archived;
    }
}

/// The non-home-based LRC platform: the diff-chain data policy over the LRC
/// [`Machine`] it shares with HLRC (and so [`SvmConfig`] — the machine is
/// identical; only the protocol differs).
pub struct TmkPlatform {
    m: Machine,
    nodes: Vec<Node>,
    logs_by_page: FxMap<u64, PageLog>,
    /// The run's protocol event stream (None when undiagnosed).
    probe: Option<ProbeHandle>,
}

impl TmkPlatform {
    /// Build the platform. TreadMarks-style nodes host one processor each,
    /// so the node-grouping knob of the shared [`SvmConfig`] must be left
    /// at 1.
    ///
    /// # Panics
    /// If [`Machine::new`] rejects the configuration or `procs_per_node`
    /// is not 1.
    pub fn new(cfg: SvmConfig) -> Self {
        let m = Machine::new(cfg);
        assert_eq!(
            m.cfg.procs_per_node, 1,
            "TmkPlatform models one processor per node; procs_per_node = {} is not supported",
            m.cfg.procs_per_node
        );
        Self {
            nodes: (0..m.nics.len())
                .map(|_| Node {
                    pages: PageTable::new(m.page_shift),
                    applied: FxMap::default(),
                    write_set: FxSet::default(),
                })
                .collect(),
            m,
            logs_by_page: FxMap::default(),
            probe: None,
        }
    }

    /// Boxed, type-erased platform.
    pub fn boxed(cfg: SvmConfig) -> Box<dyn Platform> {
        Box::new(Self::new(cfg))
    }

    fn log_entry(&mut self, page: u64) -> &mut PageLog {
        let ps = self.m.cfg.page_size as usize;
        self.logs_by_page.entry(page).or_insert_with(|| PageLog {
            head: Frame::zeroed(ps),
            chain: Vec::new(),
        })
    }

    /// The current contents of `page`: its head's version, shared with
    /// every other holder of the same bytes (one copy if the head changed
    /// since it was last shared).
    fn current_contents(&mut self, page: u64) -> Arc<[u8]> {
        self.log_entry(page).head.share()
    }

    /// Reference reconstruction: `base` with `chain` applied in order, as a
    /// fault rebuilt a page before the head was kept current. Kept as the
    /// oracle the property test compares the head against.
    #[cfg(test)]
    fn replay(base: &[u8], chain: &[ArchivedDiff]) -> Box<[u8]> {
        let mut buf: Box<[u8]> = base.into();
        for a in chain {
            a.diff.apply(&mut buf);
        }
        buf
    }

    /// Fault `page` in at `pid`: gather the un-applied diff chain suffix
    /// from each distinct writer (one round trip per writer!), apply.
    fn fetch_page(&mut self, t: &mut Timing, page: u64) {
        let pid = t.pid;
        let t0 = *t.now;
        // State first: share the page's head and remember how much of the
        // chain it reflects.
        let contents = self.current_contents(page);
        let chain = &self.logs_by_page[&page].chain;
        // Cost: if the node has never had this page, it also needs a full
        // copy of the base from *some* writer/creator; otherwise only the
        // chain suffix it is missing. (As things stand a faulting node
        // never has either — DESIGN.md §8 — so this is always base + whole
        // chain; changing that changes `RunStats`.)
        let already = *self.nodes[pid].applied.get(&page).unwrap_or(&0);
        let had_copy = self.nodes[pid].pages.contains(page);
        let cfg = &self.m.cfg;
        t.charge(Bucket::DataWait, cfg.fault_trap);
        // Distinct writers in the missing suffix (pure reads over the chain,
        // so computing this outside the timing check changes nothing).
        let mut writers: Vec<usize> = Vec::new();
        let mut suffix_words = 0u64;
        let mut suffix_runs = 0u64;
        for a in chain.iter().skip(already as usize) {
            if a.writer != pid && !writers.contains(&a.writer) {
                writers.push(a.writer);
            }
            suffix_words += a.diff.len() as u64;
            suffix_runs += a.diff.run_count() as u64;
        }
        let chain_len = chain.len() as u32;
        let page_bytes = cfg.page_size;
        let suffix_bytes = suffix_runs * 8 + suffix_words * 4 + cfg.ctrl_msg_bytes;
        let base_wire = if had_copy { 0 } else { page_bytes };
        let wire = base_wire + writers.len() as u64 * suffix_bytes;
        // No home in this protocol: report the round-robin base-copy source
        // the full-page transfer would come from.
        let src = (page % cfg.nprocs as u64) as usize;
        if t.timing_on {
            let io = cfg.io_cyc_per_byte;
            let svc = cfg.handler_cost + suffix_words * cfg.diff_scan_per_word;
            let apply = suffix_words * cfg.diff_apply_per_word + suffix_runs * 8;
            let mut done = *t.now;
            if !had_copy {
                // Full page transfer from one node (round robin choice).
                let pg = page_bytes * io;
                let in_end = self.m.round_trip(pid, *t.now, src, cfg.handler_cost, pg);
                // Copy-in at a flat cycle per 2 bytes: unlike HLRC's fetch,
                // not scaled by `memcpy_cyc_per_2bytes`.
                done = done.max(in_end + page_bytes / 2);
            }
            // One request/response round trip per distinct writer, all
            // issued in sequence (TreadMarks pipelines some of this; we
            // charge the conservative serial cost for requests and let the
            // responses overlap at the I/O bus).
            for w in writers {
                let in_end = self.m.round_trip(pid, done, w, svc, suffix_bytes * io);
                done = done.max(in_end + apply);
                t.stats.counters.bytes_transferred += suffix_bytes;
            }
            t.advance_to(Bucket::DataWait, done);
        }
        // The fault stalled `pid` over (t0, now]; the round-robin base
        // source stands in as the serving side.
        let base = page << self.m.page_shift;
        probe::emit(
            &self.probe,
            t.timing_on,
            ProtoEvent::PageFetch {
                pid,
                reader_node: pid,
                page: base,
                home: src,
                src,
                bytes: wire,
                t0,
                t1: *t.now,
            },
        );
        self.nodes[pid]
            .pages
            .insert(page, PageEntry::read_only(Frame::Shared(contents)));
        self.nodes[pid].applied.insert(page, chain_len);
        // Unmapped until now, so no line of the page is cached here
        // (`machine`'s invariant): nothing to drop.
        debug_assert!(!self.m.caches_page(pid, base));
        t.stats.counters.remote_fetches += 1;
        t.stats.counters.bytes_transferred += base_wire;
    }

    #[inline]
    fn ensure_readable(&mut self, t: &mut Timing, page: u64) {
        if self.nodes[t.pid].pages.contains(page) {
            return;
        }
        // First touch anywhere: cheap zero-fill only if no diffs exist yet.
        if !self.logs_by_page.contains_key(&page) {
            let ps = self.m.cfg.page_size;
            self.nodes[t.pid].pages.insert(page, PageEntry::zeroed(ps));
            self.nodes[t.pid].applied.insert(page, 0);
        } else {
            self.fetch_page(t, page);
        }
    }

    fn ensure_writable(&mut self, t: &mut Timing, page: u64) {
        self.ensure_readable(t, page);
        let cfg = &self.m.cfg;
        let e = self.nodes[t.pid].pages.get_mut(page).unwrap();
        if e.state == PState::ReadOnly {
            t.charge(
                Bucket::HandlerCompute,
                cfg.fault_trap + cfg.page_size / 2 * cfg.memcpy_cyc_per_2bytes,
            );
            e.twin = Some(e.frame.share());
            e.frame.own_mut();
            e.state = PState::ReadWrite;
            self.nodes[t.pid].write_set.insert(page);
            t.stats.counters.twins_created += 1;
        }
    }

    /// The bytes of `pid`'s copy of the (mapped) page from `addr` on.
    #[inline]
    fn frame_at(&self, pid: usize, addr: Addr) -> &[u8] {
        let off = (addr & (self.m.cfg.page_size - 1)) as usize;
        let page = addr >> self.m.page_shift;
        &self.nodes[pid].pages.get(page).unwrap().frame[off..]
    }

    /// [`TmkPlatform::frame_at`] for a store: `pid`'s own buffer.
    #[inline]
    fn frame_at_mut(&mut self, pid: usize, addr: Addr) -> &mut [u8] {
        let off = (addr & (self.m.cfg.page_size - 1)) as usize;
        let page = addr >> self.m.page_shift;
        &mut self.nodes[pid].pages.get_mut(page).unwrap().frame.own_mut()[off..]
    }

    /// Write-protect `pid`'s dirty copy of `page` and diff it against its
    /// twin.
    fn take_diff(&mut self, pid: usize, page: u64) -> Diff {
        let entry = self.nodes[pid].pages.get_mut(page).unwrap();
        entry.state = PState::ReadOnly;
        let twin = entry.twin.take().expect("dirty page without twin");
        Diff::create(&twin, &entry.frame)
    }

    /// Archive `pid`'s `diff` of `page` into the page's chain and apply it
    /// to the page's head, reporting it created and (archival being this
    /// protocol's application) applied at `at`. Wire cost 0: the chain is
    /// kept at the writer; bytes move at the faulting reader's gather,
    /// accounted in `fetch_page`. Returns the new chain length.
    fn archive(
        &mut self,
        pid: usize,
        page: u64,
        diff: Diff,
        at: u64,
        span: Option<(u64, u64)>,
        timing_on: bool,
    ) -> u32 {
        let base = page << self.m.page_shift;
        probe::emit(
            &self.probe,
            timing_on,
            ProtoEvent::DiffCreated {
                pid,
                writer_node: pid,
                page: base,
                at,
                span,
                word_runs: diff.runs(),
                wire_bytes: 0,
            },
        );
        let applied = ProtoEvent::DiffApplied {
            pid,
            page: base,
            at,
        };
        probe::emit(&self.probe, timing_on, applied);
        let log = self.log_entry(page);
        diff.apply(log.head.own_mut());
        log.chain.push(ArchivedDiff { writer: pid, diff });
        log.chain.len() as u32
    }

    /// Close `pid`'s interval: archive a diff per dirty page (kept at the
    /// writer — only local work at release time; this is where the
    /// protocol is *cheaper* than HLRC).
    fn close_interval(&mut self, t: &mut Timing) {
        let pid = t.pid;
        if self.nodes[pid].write_set.is_empty() {
            return;
        }
        let mut pages: Vec<u64> = self.nodes[pid].write_set.drain().collect();
        pages.sort_unstable();
        for &page in &pages {
            let still_dirty =
                self.nodes[pid].pages.get(page).map(|e| e.state) == Some(PState::ReadWrite);
            if !still_dirty {
                continue;
            }
            let diff = self.take_diff(pid, page);
            let cfg = &self.m.cfg;
            let scan = (cfg.words_per_page() + diff.len() as u64) * cfg.diff_scan_per_word;
            let diff_t0 = *t.now;
            t.charge(Bucket::HandlerCompute, scan);
            t.stats.counters.diffs_created += 1;
            // Archival into the page chain *is* this protocol's diff
            // application — there is no home copy to patch — so the two
            // counters stay structurally equal.
            t.stats.counters.diffs_applied += 1;
            // The writer spent (diff_t0, now] creating and archiving the
            // diff; its own copy already reflects it.
            let span = Some((diff_t0, *t.now));
            let chain_len = self.archive(pid, page, diff, *t.now, span, t.timing_on);
            self.nodes[pid].applied.insert(page, chain_len);
        }
        self.m.close_interval(pid, pages);
    }

    /// Invalidate a page at `g` on receipt of a write notice.
    fn invalidate_page(&mut self, g: usize, page: u64, at: u64, timing_on: bool, acc: &mut Acc) {
        let state = self.nodes[g].pages.get(page).map(|e| e.state);
        match state {
            // Not mapped: nothing to do, cached lines included — a node
            // caches lines only of pages it maps (`machine`'s invariant).
            None => return,
            Some(PState::ReadWrite) => {
                // Archive our local diff before dropping the copy.
                let diff = self.take_diff(g, page);
                if timing_on {
                    acc.cycles += self.m.cfg.words_per_page() * self.m.cfg.diff_scan_per_word;
                }
                acc.archived += 1;
                self.archive(g, page, diff, at, None, timing_on);
            }
            Some(PState::ReadOnly) => {}
        }
        let base = page << self.m.page_shift;
        let inval = ProtoEvent::Invalidation {
            pid: g,
            page: base,
            at,
        };
        probe::emit(&self.probe, timing_on, inval);
        self.nodes[g].pages.remove(page);
        self.nodes[g].applied.remove(&page);
        self.m.drop_page_lines(g, base);
        acc.cycles += self.m.cfg.inval_per_page;
        acc.invals += 1;
    }

    /// Bring `g` up to vector time `upto`, invalidating at `g` every page
    /// the consumed intervals notify.
    fn consume_notices(&mut self, g: usize, upto: &[u32], at: u64, timing_on: bool) -> Acc {
        let mut acc = Acc::default();
        for page in self.m.take_notices(g, upto) {
            self.invalidate_page(g, page, at, timing_on, &mut acc);
        }
        acc
    }

    /// Barrier-time garbage collection. TreadMarks collected diffs lazily;
    /// we drop a page's chain once it grows past [`GC_THRESHOLD`]
    /// (dropping eagerly would hide the protocol's signature multi-writer
    /// gather cost, which is exactly what the HLRC comparison is about).
    /// The head already holds every diff, so GC only truncates the chain.
    /// At a barrier every node has consumed every notice, so surviving
    /// copies equal the head and truncating is safe.
    fn gc_chains(&mut self) {
        for (page, log) in &mut self.logs_by_page {
            if log.chain.len() < GC_THRESHOLD {
                continue;
            }
            log.chain = Vec::new();
            // Applied counters now refer to a truncated chain: reset them
            // for every node still holding a copy (their frames equal the
            // head).
            for node in &mut self.nodes {
                if node.pages.contains(*page) {
                    node.applied.insert(*page, 0);
                }
            }
        }
    }
}

impl Platform for TmkPlatform {
    fn nprocs(&self) -> usize {
        self.m.cfg.nprocs
    }

    fn min_cross_node_latency(&self) -> Option<u64> {
        // TreadMarks-style LRC: uniprocessor nodes, so the cheapest
        // cross-processor interaction is one message over the wire.
        Some(self.m.cfg.wire_latency)
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.m.apply_debt(t);
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        self.ensure_readable(t, addr >> self.m.page_shift);
        self.m.cache_access(t, addr, false);
        load_le(self.frame_at(t.pid, addr), len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.m.apply_debt(t);
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let page = addr >> self.m.page_shift;
        if self.nodes[t.pid].pages.get(page).map(|e| e.state) != Some(PState::ReadWrite) {
            self.ensure_writable(t, page);
        }
        self.m.cache_access(t, addr, true);
        store_le(self.frame_at_mut(t.pid, addr), len, val);
    }

    #[inline]
    fn free_extent(&mut self, pid: usize, addr: Addr, write: bool, _: usize) -> Option<Extent<'_>> {
        let e = self.nodes[pid].pages.get_mut(addr >> self.m.page_shift)?;
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
        _placement: &mut PlacementMap,
        timing_on: bool,
    ) -> u64 {
        let upto = self.m.lock_time(lock);
        let acc = self.consume_notices(pid, &upto, grant_at, timing_on);
        acc.count(stats);
        self.m.lock_grant(grant_at, acc.cycles, timing_on)
    }

    fn release(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.m.apply_debt(t);
        self.close_interval(t);
        self.m.lock_release(t, lock);
        *t.now
    }

    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64 {
        self.m.apply_debt(t);
        self.close_interval(t);
        self.m.barrier_arrive(t, barrier, *t.now)
    }

    fn barrier_release(
        &mut self,
        barrier: u32,
        arrivals: &[u64],
        stats: &mut [ProcStats],
        _placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64> {
        let mut fan = self.m.barrier_merge(barrier, arrivals, timing_on);
        for (q, stats) in stats.iter_mut().enumerate() {
            let acc = self.consume_notices(q, &fan.upto, fan.at, timing_on);
            acc.count(stats);
            fan.release(&mut self.m, q, acc.cycles);
        }
        self.gc_chains();
        fan.finish(&mut self.m)
    }

    fn reset_timing(&mut self) {
        self.m.reset_timing();
    }

    fn set_probe(&mut self, probe: Option<ProbeHandle>) {
        self.probe = probe;
        let page_bytes = self.m.cfg.page_size;
        probe::emit(&self.probe, false, ProtoEvent::PageGeometry { page_bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{run, Placement, RunConfig, HEAP_BASE, PAGE_SIZE};

    fn tmk_run<F: Fn(&mut sim_core::Proc) + Sync>(n: usize, f: F) -> sim_core::RunStats {
        run(
            TmkPlatform::boxed(SvmConfig::paper(n)),
            RunConfig::new(n),
            f,
        )
    }

    #[test]
    fn data_flows_through_diff_chains() {
        let got = std::sync::Mutex::new(vec![0u64; 2]);
        let stats = tmk_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::RoundRobin);
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                p.store(HEAP_BASE + 8, 8, 7);
            }
            p.barrier(1);
            let v = p.load(HEAP_BASE + 8, 8);
            got.lock().unwrap()[p.pid()] = v;
            p.barrier(2);
        });
        assert_eq!(*got.lock().unwrap(), vec![7, 7]);
        // Archival is application in this protocol: the counters pair up.
        let c = stats.sum_counters();
        assert!(c.diffs_created > 0);
        assert_eq!(c.diffs_created, c.diffs_applied);
    }

    #[test]
    fn multiple_writers_merge_without_a_home() {
        let got = std::sync::Mutex::new(vec![(0u64, 0u64); 4]);
        tmk_run(4, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::RoundRobin);
            }
            p.barrier(0);
            p.start_timing();
            p.store(HEAP_BASE + 8 * p.pid() as u64, 8, 100 + p.pid() as u64);
            p.barrier(1);
            let a = p.load(HEAP_BASE, 8);
            let b = p.load(HEAP_BASE + 24, 8);
            got.lock().unwrap()[p.pid()] = (a, b);
            p.barrier(2);
        });
        for &(a, b) in got.lock().unwrap().iter() {
            assert_eq!((a, b), (100, 103));
        }
    }

    #[test]
    fn lock_chain_carries_causality() {
        let got = std::sync::Mutex::new(0u64);
        tmk_run(3, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::RoundRobin);
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
                let v = p.load(HEAP_BASE, 8);
                p.store(HEAP_BASE + 8, 8, v + 1);
                p.unlock(1);
            }
            p.barrier(2);
            if p.pid() == 2 {
                p.lock(1);
                *got.lock().unwrap() = p.load(HEAP_BASE + 8, 8);
                p.unlock(1);
            }
            p.barrier(3);
        });
        assert_eq!(*got.lock().unwrap(), 6);
    }

    #[test]
    fn multi_writer_fault_costs_more_than_single_writer() {
        // The protocol's signature weakness: a reader faulting on a page
        // with k writers pays ~k round trips.
        let cost = |writers: usize| {
            let stats = tmk_run(8, move |p| {
                if p.pid() == 0 {
                    p.alloc_shared(PAGE_SIZE, 8, Placement::RoundRobin);
                }
                p.barrier(0);
                p.start_timing();
                if p.pid() >= 1 && p.pid() <= writers {
                    p.store(HEAP_BASE + 8 * p.pid() as u64, 8, 1);
                }
                p.barrier(1);
                if p.pid() == 7 {
                    p.load(HEAP_BASE, 8);
                }
                p.barrier(2);
            });
            stats.procs[7].get(Bucket::DataWait)
        };
        let c1 = cost(1);
        let c5 = cost(5);
        assert!(
            c5 > c1 + 1000,
            "5 writers should cost several extra round trips: c1={c1} c5={c5}"
        );
    }

    #[test]
    fn gc_folds_chains_at_barriers() {
        // After a barrier the chains are folded, so a fresh fault needs only
        // the base copy (single transfer) even after heavy multi-writing.
        let stats = tmk_run(4, |p| {
            if p.pid() == 0 {
                p.alloc_shared(PAGE_SIZE, 8, Placement::RoundRobin);
            }
            p.barrier(0);
            p.start_timing();
            for epoch in 0..3u32 {
                p.store(HEAP_BASE + 8 * p.pid() as u64, 8, epoch as u64);
                p.barrier(1 + epoch);
            }
            // Everyone re-reads after the last barrier: single-transfer
            // faults, not 4-writer chain gathers.
            p.load(HEAP_BASE, 8);
            p.barrier(10);
        });
        assert!(stats.total_cycles() > 0);
    }

    #[test]
    fn deterministic() {
        let go = || {
            tmk_run(4, |p| {
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
            })
            .clocks
        };
        assert_eq!(go(), go());
    }

    /// A platform driven through the trait by hand, timed, so that a test
    /// can look inside it between operations.
    struct Rig {
        p: TmkPlatform,
        alloc: sim_core::GlobalAlloc,
        clocks: Vec<u64>,
        stats: Vec<ProcStats>,
    }

    impl Rig {
        fn new(n: usize) -> Self {
            Self {
                p: TmkPlatform::new(SvmConfig::paper(n)),
                alloc: sim_core::GlobalAlloc::new(n),
                clocks: vec![0; n],
                stats: vec![ProcStats::default(); n],
            }
        }

        fn on<R>(&mut self, pid: usize, f: impl FnOnce(&mut TmkPlatform, &mut Timing) -> R) -> R {
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
        // p1 fetches, caches, loses and refetches a page p0 keeps writing.
        let mut r = Rig::new(2);
        let a = r.alloc.alloc(PAGE_SIZE, 8, Placement::RoundRobin);
        let page = a >> r.p.m.page_shift;
        let check = |r: &Rig, mapped: bool| {
            assert_eq!(r.p.nodes[1].pages.contains(page), mapped);
            assert_eq!(r.p.m.caches_page(1, a), mapped);
        };
        r.on(0, |p, t| p.store(t, a, 8, 7));
        r.barrier();
        check(&r, false);
        assert_eq!(r.on(1, |p, t| p.load(t, a, 8)), 7);
        check(&r, true);
        r.on(0, |p, t| p.store(t, a, 8, 8));
        r.barrier();
        check(&r, false);
        assert_eq!(r.on(1, |p, t| p.load(t, a, 8)), 8);
        check(&r, true);
        assert_eq!(r.stats[1].counters.remote_fetches, 2);
    }

    #[test]
    fn the_head_is_the_folded_base_plus_the_chain() {
        // Random archives by random writers over three pages, random GCs
        // and reader faults: the head always equals the base the chain
        // would have been folded into, replayed with the chain; and a
        // head shared twice without an archive between is one version.
        let mut p = TmkPlatform::new(SvmConfig::paper(4));
        let first = HEAP_BASE >> p.m.page_shift;
        let words = (PAGE_SIZE / 4) as usize;
        let mut rng = sim_core::util::XorShift64::new(0x7E4D);
        let mut folded: FxMap<u64, Box<[u8]>> = FxMap::default();
        for step in 0..600u64 {
            let page = first + rng.below(3);
            match rng.below(10) {
                0 => {
                    for (pg, log) in &p.logs_by_page {
                        if log.chain.len() >= GC_THRESHOLD {
                            let base = TmkPlatform::replay(&folded[pg], &log.chain);
                            folded.insert(*pg, base);
                        }
                    }
                    p.gc_chains();
                }
                1 => {
                    let (v1, v2) = (p.current_contents(page), p.current_contents(page));
                    assert!(Arc::ptr_eq(&v1, &v2), "step {step}");
                }
                _ => {
                    let twin = p.current_contents(page);
                    let (before, mut dirty) = (twin.to_vec(), twin.to_vec());
                    for _ in 0..1 + rng.below(12) {
                        let w = rng.below(words as u64) as usize;
                        let n = (1 + rng.below(6) as usize).min(words - w);
                        for b in &mut dirty[w * 4..(w + n) * 4] {
                            *b = rng.next_u64() as u8;
                        }
                    }
                    let diff = Diff::create(&twin, &dirty);
                    let writer = rng.below(4) as usize;
                    p.archive(writer, page, diff, step, None, false);
                    folded
                        .entry(page)
                        .or_insert_with(|| vec![0; words * 4].into());
                    assert_eq!(&p.logs_by_page[&page].head[..], &dirty[..], "step {step}");
                    assert_eq!(
                        &twin[..],
                        &before[..],
                        "step {step}: a version is never written"
                    );
                }
            }
            for (pg, log) in &p.logs_by_page {
                let replayed = TmkPlatform::replay(&folded[pg], &log.chain);
                assert_eq!(&log.head[..], &replayed[..], "step {step} page {pg:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one processor per node")]
    fn construction_rejects_multi_processor_nodes() {
        let _ = TmkPlatform::new(SvmConfig::paper_smp_nodes(8, 2));
    }
}
