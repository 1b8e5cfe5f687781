//! # svm-hlrc — an all-software, home-based lazy release consistency SVM
//!
//! A faithful implementation of the protocol the paper's SVM platform
//! simulates (Zhou, Iftode & Li's HLRC): a page-grained, multiple-writer
//! shared virtual memory over commodity messaging.
//!
//! * Every page has a **home** node (from the allocator's placement map);
//!   the home copy is kept up to date by applying **diffs** at releases.
//! * A node's first write to a page in an interval creates a **twin**; at a
//!   release, the dirty page is compared against the twin word-by-word and
//!   the resulting diff is sent to the home.
//! * Intervals carry **write notices**; vector timestamps order them. An
//!   acquiring processor invalidates every page written in intervals that
//!   causally precede the acquire; the next access faults and fetches the
//!   whole page from its home.
//! * Locks are manager-queued with a 3-hop grant path; barriers are
//!   centralized at a manager node that serializes arrival processing and
//!   release broadcasts — making barriers expensive, as the paper stresses.
//!
//! This is a *real* protocol, not a timing approximation: application data
//! actually lives in per-node page frames, flows home as diffs, and is
//! re-fetched after invalidation. Data-race-free applications therefore
//! compute correct results **through** the protocol, which the workspace's
//! integration tests exploit by checking application output against
//! sequential references.

// Indexed loops over fixed coordinate dimensions are clearer than
// iterator adaptors in this numeric code.
#![allow(clippy::needless_range_loop)]
mod config;
mod page;

pub use config::SvmConfig;
pub use page::{Diff, DiffWords, PState, PageEntry};

use sim_core::cache::{Cache, LineState, Lookup};
use sim_core::platform::{Platform, Timing};
use sim_core::probe::{self, ProbeHandle, ProtoEvent};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::util::{FxMap, FxSet};
use sim_core::{Addr, PlacementMap, Resource};

/// One SVM node (which hosts `procs_per_node` processors): page table and
/// protocol resources. Caches are per processor, in `SvmPlatform::caches`.
struct Node {
    pages: FxMap<u64, PageEntry>,
    write_set: FxSet<u64>,
    handler: Resource,
    io_in: Resource,
    io_out: Resource,
    /// Protocol processing performed on this node's behalf by incoming
    /// requests; charged to its clock at its next own event (interrupt
    /// dilation).
    debt: u64,
    /// Diffs this node created from paths that have no access to its
    /// statistics (write-notice invalidation flushes); drained into its
    /// counters by [`Platform::finalize`].
    diffs_created_debt: u64,
    /// Diffs applied at this node's homes; the applier is a remote flusher,
    /// so the count accrues here and is drained by [`Platform::finalize`].
    diffs_applied_debt: u64,
}

/// Write-notice interval: the pages one processor dirtied between two
/// releases.
#[derive(Clone, Debug)]
struct Interval {
    pages: Vec<u64>,
}

/// Cost accumulator for grant/barrier-side invalidation processing.
#[derive(Default, Clone, Copy)]
struct Acc {
    cycles: u64,
    invals: u64,
}

/// The home-based lazy release consistency platform.
pub struct SvmPlatform {
    cfg: SvmConfig,
    page_shift: u32,
    nodes: Vec<Node>,
    /// Per-processor cache hierarchies.
    caches: Vec<(Cache, Cache)>,
    /// Closed-interval counts (vector timestamp component per processor).
    vt: Vec<u32>,
    /// `vc[g][r]`: how many of r's intervals processor g has consumed.
    vc: Vec<Vec<u32>>,
    /// Un-garbage-collected intervals per processor; `logs[p][i]` is
    /// interval `log_base[p] + i`.
    logs: Vec<Vec<Interval>>,
    log_base: Vec<u32>,
    /// Vector clock at the last release of each lock.
    lock_vc: FxMap<u32, Vec<u32>>,
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
        cfg.validate();
        let nn = cfg.nnodes();
        let nodes = (0..nn)
            .map(|_| Node {
                pages: FxMap::default(),
                write_set: FxSet::default(),
                handler: Resource::new(),
                io_in: Resource::new(),
                io_out: Resource::new(),
                debt: 0,
                diffs_created_debt: 0,
                diffs_applied_debt: 0,
            })
            .collect();
        let caches = (0..cfg.nprocs)
            .map(|_| (Cache::new(cfg.l1), Cache::new(cfg.l2)))
            .collect();
        assert!(
            cfg.page_size.is_power_of_two() && (1024..=16384).contains(&cfg.page_size),
            "protocol page size must be a power of two in [1K, 16K]"
        );
        let page_shift = cfg.page_shift();
        Self {
            cfg,
            page_shift,
            nodes,
            caches,
            vt: vec![0; nn],
            vc: vec![vec![0; nn]; nn],
            logs: vec![Vec::new(); nn],
            log_base: vec![0; nn],
            lock_vc: FxMap::default(),
            probe: None,
        }
    }

    /// Boxed, type-erased platform (convenience for `sim_core::run`).
    pub fn boxed(cfg: SvmConfig) -> Box<dyn Platform> {
        Box::new(Self::new(cfg))
    }

    /// The configuration in use.
    pub fn config(&self) -> &SvmConfig {
        &self.cfg
    }

    #[inline]
    fn page_bytes(&self) -> u64 {
        self.cfg.page_size
    }

    /// The SVM node hosting processor `pid`.
    #[inline]
    fn node_of(&self, pid: usize) -> usize {
        pid / self.cfg.procs_per_node
    }

    /// Charge any protocol work done on this node's behalf since its last
    /// own event (handler interrupts dilate the application).
    #[inline]
    fn apply_debt(&mut self, t: &mut Timing) {
        let nd = self.node_of(t.pid);
        let d = std::mem::take(&mut self.nodes[nd].debt);
        t.charge(Bucket::HandlerCompute, d);
    }

    /// Ensure the home node has a frame for `page`; create zeroed if first
    /// touch anywhere.
    fn home_frame_entry(&mut self, home: usize, page: u64) {
        let ps = self.cfg.page_size;
        self.nodes[home]
            .pages
            .entry(page)
            .or_insert_with(|| PageEntry::zeroed(ps));
    }

    /// Fetch `page` from `home` into `pid`'s page table (remote page fault).
    fn fetch_page(&mut self, t: &mut Timing, page: u64, home: usize) {
        let nd = self.node_of(t.pid);
        debug_assert_ne!(nd, home);
        self.home_frame_entry(home, page);
        let t0 = *t.now;
        let wire = self.page_bytes() + self.cfg.ctrl_msg_bytes;
        // Timing: trap, request message, home service, page transfer.
        t.charge(Bucket::DataWait, self.cfg.fault_trap);
        if t.timing_on {
            let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
            let (_, req_out) = self.nodes[nd].io_out.serve(*t.now, ctrl);
            let req_arr = req_out + self.cfg.wire_latency;
            let (_, svc_end) = self.nodes[home]
                .handler
                .serve(req_arr, self.cfg.handler_cost);
            self.nodes[home].debt += self.cfg.handler_cost;
            let pg = self.page_bytes() * self.cfg.io_cyc_per_byte;
            let (_, out_end) = self.nodes[home].io_out.serve(svc_end, pg);
            let arr = out_end + self.cfg.wire_latency;
            let (_, in_end) = self.nodes[nd].io_in.serve(arr, pg);
            let done = in_end + self.page_bytes() / 2 * self.cfg.memcpy_cyc_per_2bytes;
            t.advance_to(Bucket::DataWait, done);
        }
        // State: install a read-only copy of the home frame.
        let entry = PageEntry::copy_of(&self.nodes[home].pages[&page].frame);
        self.nodes[nd].pages.insert(page, entry);
        // The stale copy's cached lines no longer describe memory contents —
        // for every processor of the node.
        let base = page << self.page_shift;
        let len = self.page_bytes();
        for q in self.node_procs(nd) {
            self.caches[q].0.invalidate_range(base, len);
            self.caches[q].1.invalidate_range(base, len);
        }
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
                src: home * self.cfg.procs_per_node,
                bytes: wire,
                t0,
                t1: *t.now,
            },
        );
    }

    /// Processor ids hosted by node `nd`.
    fn node_procs(&self, nd: usize) -> std::ops::Range<usize> {
        nd * self.cfg.procs_per_node..(nd + 1) * self.cfg.procs_per_node
    }

    /// Make `page` readable at `t.pid`'s node, faulting if necessary.
    fn ensure_readable(&mut self, t: &mut Timing, page: u64, home: usize) {
        let nd = self.node_of(t.pid);
        if self.nodes[nd].pages.contains_key(&page) {
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
    /// the node's first write of the interval.
    fn ensure_writable(&mut self, t: &mut Timing, page: u64, home: usize) {
        self.ensure_readable(t, page, home);
        let nd = self.node_of(t.pid);
        let needs_twin = {
            let e = &self.nodes[nd].pages[&page];
            e.state == PState::ReadOnly
        };
        if needs_twin {
            if nd != home {
                // Write-protection trap + twin copy.
                t.charge(
                    Bucket::HandlerCompute,
                    self.cfg.fault_trap + self.page_bytes() / 2 * self.cfg.memcpy_cyc_per_2bytes,
                );
                let e = self.nodes[nd].pages.get_mut(&page).unwrap();
                e.twin = Some(e.frame.clone());
                t.stats.counters.twins_created += 1;
            } else {
                // Home writes in place; only the protection trap.
                t.charge(Bucket::HandlerCompute, self.cfg.fault_trap / 4);
            }
            let e = self.nodes[nd].pages.get_mut(&page).unwrap();
            e.state = PState::ReadWrite;
            self.nodes[nd].write_set.insert(page);
        }
    }

    /// Charge the local cache hierarchy for an access.
    fn cache_access(&mut self, t: &mut Timing, addr: Addr, write: bool) {
        let caches = &mut self.caches[t.pid];
        match caches.0.access(addr, write) {
            Lookup::Hit => {}
            _ => match caches.1.access(addr, write) {
                Lookup::Hit | Lookup::UpgradeMiss => {
                    t.charge(Bucket::CacheStall, self.cfg.l2_hit);
                    caches.0.fill(addr, LineState::Modified);
                    t.stats.counters.cache_misses += 1;
                }
                Lookup::Miss { .. } => {
                    t.charge(Bucket::CacheStall, self.cfg.mem_latency);
                    caches.1.fill(addr, LineState::Modified);
                    caches.0.fill(addr, LineState::Modified);
                    t.stats.counters.cache_misses += 1;
                }
            },
        }
        // Intra-node hardware coherence: a write by one processor of an SMP
        // node invalidates the line in its siblings' caches.
        if write && self.cfg.procs_per_node > 1 {
            let nd = self.node_of(t.pid);
            for q in self.node_procs(nd) {
                if q != t.pid {
                    self.caches[q].0.set_state(addr, LineState::Invalid);
                    self.caches[q].1.set_state(addr, LineState::Invalid);
                }
            }
        }
    }

    fn frame_load(&self, pid: usize, addr: Addr, len: u8) -> u64 {
        let nd = self.node_of(pid);
        let page = addr >> self.page_shift;
        let off = (addr & (self.cfg.page_size - 1)) as usize;
        let frame = &self.nodes[nd].pages[&page].frame;
        let mut w = [0u8; 8];
        w[..len as usize].copy_from_slice(&frame[off..off + len as usize]);
        u64::from_le_bytes(w)
    }

    fn frame_store(&mut self, pid: usize, addr: Addr, len: u8, val: u64) {
        let nd = self.node_of(pid);
        let page = addr >> self.page_shift;
        let off = (addr & (self.cfg.page_size - 1)) as usize;
        let frame = &mut self.nodes[nd].pages.get_mut(&page).unwrap().frame;
        frame[off..off + len as usize].copy_from_slice(&val.to_le_bytes()[..len as usize]);
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
        let nd = self.node_of(pid);
        let now = if on_own_clock { at } else { 0 };
        let scan = self.cfg.words_per_page() * self.cfg.diff_scan_per_word;
        let entry = self.nodes[nd].pages.get_mut(&page).unwrap();
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
        let wire_bytes = diff.wire_bytes() + self.cfg.ctrl_msg_bytes;
        // Apply to home frame (state). The applier is remote: count the
        // application at the home via its debt counter, drained at finalize.
        self.home_frame_entry(home, page);
        diff.apply(&mut self.nodes[home].pages.get_mut(&page).unwrap().frame);
        self.nodes[home].diffs_applied_debt += 1;
        // The home's processors may hold stale lines for the words just
        // patched; conservatively drop the page's lines there.
        let base = page << self.page_shift;
        let len = self.cfg.page_size;
        for q in self.node_procs(home) {
            self.caches[q].0.invalidate_range(base, len);
            self.caches[q].1.invalidate_range(base, len);
        }
        let mut priced = (0, now, 0);
        if timing_on {
            let local = scan + nwords * self.cfg.diff_scan_per_word + nruns * 8;
            let (_, send_end) = self.nodes[nd]
                .io_out
                .serve(now + local, wire_bytes * self.cfg.io_cyc_per_byte);
            let arr = send_end + self.cfg.wire_latency;
            let apply = self.cfg.handler_cost + nwords * self.cfg.diff_apply_per_word + nruns * 8;
            let (_, in_end) = self.nodes[home]
                .io_in
                .serve(arr, wire_bytes * self.cfg.io_cyc_per_byte);
            let (_, applied) = self.nodes[home].handler.serve(in_end, apply);
            self.nodes[home].debt += apply;
            // Attribute the application to the home node's first processor,
            // at the virtual time the home handler finished applying it.
            probe::emit(
                &self.probe,
                timing_on,
                ProtoEvent::DiffApplied {
                    pid: home * self.cfg.procs_per_node,
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
        let nd = self.node_of(t.pid);
        if self.nodes[nd].write_set.is_empty() {
            return *t.now;
        }
        let mut pages: Vec<u64> = self.nodes[nd].write_set.drain().collect();
        pages.sort_unstable(); // determinism: FxSet iteration order is arbitrary
        let mut all_applied = *t.now;
        for &page in &pages {
            let still_dirty =
                self.nodes[nd].pages.get(&page).map(|e| e.state) == Some(PState::ReadWrite);
            if still_dirty {
                let home =
                    t.placement.home_of(page << self.page_shift, t.pid) / self.cfg.procs_per_node;
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
        self.logs[nd].push(Interval { pages });
        self.vt[nd] += 1;
        self.vc[nd][nd] = self.vt[nd];
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
        let toucher = g * self.cfg.procs_per_node;
        let home = placement.home_of(page << self.page_shift, toucher) / self.cfg.procs_per_node;
        if g == home {
            return; // the home copy is always current
        }
        let state = self.nodes[g].pages.get(&page).map(|e| e.state);
        match state {
            None => {}
            Some(PState::ReadWrite) => {
                let (local, _, _) = self.flush_page(toucher, page, home, at, false, timing_on);
                // The flusher here is the invalidated node, whose statistics
                // this path cannot reach: accrue and drain at finalize.
                self.nodes[g].diffs_created_debt += 1;
                acc.cycles += local;
                self.nodes[g].pages.remove(&page);
                acc.cycles += self.cfg.inval_per_page;
                acc.invals += 1;
            }
            Some(PState::ReadOnly) => {
                self.nodes[g].pages.remove(&page);
                acc.cycles += self.cfg.inval_per_page;
                acc.invals += 1;
            }
        }
        let base = page << self.page_shift;
        if state.is_some() {
            probe::emit(
                &self.probe,
                timing_on,
                ProtoEvent::Invalidation {
                    pid: toucher,
                    page: base,
                    at,
                },
            );
        }
        let len = self.cfg.page_size;
        for q in self.node_procs(g) {
            self.caches[q].0.invalidate_range(base, len);
            self.caches[q].1.invalidate_range(base, len);
        }
    }

    /// Consume all of processor `r`'s intervals in `(vc[g][r], upto[r]]` for
    /// every `r`, invalidating the notified pages at `g`.
    fn consume_notices(
        &mut self,
        g: usize,
        upto: &[u32],
        at: u64,
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Acc {
        let mut acc = Acc::default();
        for r in 0..self.cfg.nnodes() {
            if r == g {
                self.vc[g][r] = self.vc[g][r].max(upto[r].min(self.vt[r]));
                continue;
            }
            let from = self.vc[g][r];
            let to = upto[r].min(self.vt[r]);
            if to <= from {
                continue;
            }
            for idx in from..to {
                let li = (idx - self.log_base[r]) as usize;
                let pages: Vec<u64> = self.logs[r][li].pages.clone();
                for page in pages {
                    self.invalidate_page(g, page, at, placement, timing_on, &mut acc);
                }
            }
            self.vc[g][r] = to;
        }
        acc
    }
}

impl Platform for SvmPlatform {
    fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    fn min_cross_node_latency(&self) -> Option<u64> {
        // Every cross-processor interaction is a protocol message: at
        // cheapest an intra-node handoff when nodes host several
        // processors, otherwise a wire crossing.
        Some(if self.cfg.procs_per_node > 1 {
            self.cfg.intra_node_cost.min(self.cfg.wire_latency)
        } else {
            self.cfg.wire_latency
        })
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.apply_debt(t);
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let page = addr >> self.page_shift;
        // Resolve the home from the protocol-page base so that coherence
        // units larger than the 4 KB placement granularity have one
        // consistent home; placement homes are processor ids, so divide
        // down to the hosting SVM node.
        let home = t.placement.home_of(page << self.page_shift, t.pid) / self.cfg.procs_per_node;
        self.ensure_readable(t, page, home);
        self.cache_access(t, addr, false);
        self.frame_load(t.pid, addr, len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.apply_debt(t);
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let page = addr >> self.page_shift;
        let home = t.placement.home_of(page << self.page_shift, t.pid) / self.cfg.procs_per_node;
        self.ensure_writable(t, page, home);
        self.cache_access(t, addr, true);
        self.frame_store(t.pid, addr, len, val);
    }

    // Bulk fast path: a word is "fast" when the scalar path would do no
    // protocol work for it — no pending interrupt debt, the page already
    // mapped at this node (with write permission for stores: present in the
    // page table as ReadWrite, so no fault/twin), and the word's line in L1
    // with sufficient permission (any valid state for reads; Exclusive or
    // Modified for writes — a Shared write would be an upgrade miss). Such a
    // word costs exactly Compute 1, so a run of k fast words within one L1
    // line batches to: accesses += k, charge(Compute, k), one `hit_run`,
    // k frame moves, and (stores, multi-processor nodes) one sibling-line
    // invalidation — each identical to k scalar iterations. Lines never
    // straddle pages, so one page lookup covers the run. Non-fast words
    // fall back to the scalar `load`/`store` one word at a time.
    fn load_bulk(
        &mut self,
        t: &mut Timing,
        addr: Addr,
        stride: u64,
        len: u8,
        out: &mut [u64],
        budget: u64,
    ) -> usize {
        let nd = self.node_of(t.pid);
        let l1_line = self.caches[t.pid].0.geom().line;
        let mut done = 0usize;
        while done < out.len() {
            let a = addr + done as u64 * stride;
            let page = a >> self.page_shift;
            let fast = self.nodes[nd].debt == 0
                && self.nodes[nd].pages.contains_key(&page)
                && self.caches[t.pid].0.state_of(a) != LineState::Invalid;
            if !fast {
                out[done] = self.load(t, a, len);
                done += 1;
                if *t.now > budget {
                    break;
                }
                continue;
            }
            let line_end = self.caches[t.pid].0.line_base(a) + l1_line;
            let mut k = (out.len() - done) as u64;
            if stride > 0 {
                k = k.min((line_end - a).div_ceil(stride));
            }
            if t.timing_on {
                // Each fast word costs exactly one cycle; the scalar path
                // yields after the first word past the budget.
                k = k.min(budget.saturating_sub(*t.now).saturating_add(1));
            }
            t.stats.counters.accesses += k;
            t.charge(Bucket::Compute, k);
            self.caches[t.pid].0.hit_run(a, false, k);
            let page_base = page << self.page_shift;
            let frame = &self.nodes[nd].pages[&page].frame;
            for i in 0..k {
                let off = (a + i * stride - page_base) as usize;
                let mut b = [0u8; 8];
                b[..len as usize].copy_from_slice(&frame[off..off + len as usize]);
                out[done + i as usize] = u64::from_le_bytes(b);
            }
            done += k as usize;
            if *t.now > budget {
                break;
            }
        }
        done
    }

    fn store_bulk(
        &mut self,
        t: &mut Timing,
        addr: Addr,
        stride: u64,
        len: u8,
        vals: &[u64],
        budget: u64,
    ) -> usize {
        let nd = self.node_of(t.pid);
        let l1_line = self.caches[t.pid].0.geom().line;
        let mut done = 0usize;
        while done < vals.len() {
            let a = addr + done as u64 * stride;
            let page = a >> self.page_shift;
            let fast = self.nodes[nd].debt == 0
                && self.nodes[nd]
                    .pages
                    .get(&page)
                    .is_some_and(|e| e.state == PState::ReadWrite)
                && matches!(
                    self.caches[t.pid].0.state_of(a),
                    LineState::Exclusive | LineState::Modified
                );
            if !fast {
                self.store(t, a, len, vals[done]);
                done += 1;
                if *t.now > budget {
                    break;
                }
                continue;
            }
            let line_end = self.caches[t.pid].0.line_base(a) + l1_line;
            let mut k = (vals.len() - done) as u64;
            if stride > 0 {
                k = k.min((line_end - a).div_ceil(stride));
            }
            if t.timing_on {
                k = k.min(budget.saturating_sub(*t.now).saturating_add(1));
            }
            t.stats.counters.accesses += k;
            t.charge(Bucket::Compute, k);
            self.caches[t.pid].0.hit_run(a, true, k);
            if self.cfg.procs_per_node > 1 {
                // The scalar path invalidates the sibling copies of this
                // line once per word; repeats are idempotent, so once per
                // run is identical.
                for q in self.node_procs(nd) {
                    if q != t.pid {
                        self.caches[q].0.set_state(a, LineState::Invalid);
                        self.caches[q].1.set_state(a, LineState::Invalid);
                    }
                }
            }
            let page_base = page << self.page_shift;
            let frame = &mut self.nodes[nd].pages.get_mut(&page).unwrap().frame;
            for i in 0..k {
                let off = (a + i * stride - page_base) as usize;
                frame[off..off + len as usize]
                    .copy_from_slice(&vals[done + i as usize].to_le_bytes()[..len as usize]);
            }
            done += k as usize;
            if *t.now > budget {
                break;
            }
        }
        done
    }

    fn acquire_request(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.apply_debt(t);
        // Local send overhead.
        t.charge(Bucket::LockWait, self.cfg.handler_cost);
        if !t.timing_on {
            return *t.now;
        }
        let nd = self.node_of(t.pid);
        let mgr = self.cfg.lock_manager(lock);
        if mgr == nd && self.cfg.procs_per_node > 1 {
            // Intra-node request: a bus interaction, not a network message.
            return *t.now + self.cfg.intra_node_cost;
        }
        let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
        let (_, out_end) = self.nodes[nd].io_out.serve(*t.now, ctrl);
        let (_, mgr_end) = self.nodes[mgr]
            .handler
            .serve(out_end + self.cfg.wire_latency, self.cfg.handler_cost);
        if mgr != nd {
            self.nodes[mgr].debt += self.cfg.handler_cost;
        }
        // Forward to the last owner (3-hop protocol).
        mgr_end + self.cfg.wire_latency
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
        let upto = match self.lock_vc.get(&lock) {
            Some(v) => v.clone(),
            None => vec![0; self.cfg.nprocs],
        };
        let acc = self.consume_notices(self.node_of(pid), &upto, grant_at, placement, timing_on);
        stats.counters.invalidations += acc.invals;
        if !timing_on {
            return grant_at;
        }
        grant_at + self.cfg.wire_latency + self.cfg.handler_cost + acc.cycles
    }

    fn release(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.apply_debt(t);
        let applied = self.close_interval(t);
        t.charge(Bucket::LockWait, self.cfg.handler_cost);
        let nd = self.node_of(t.pid);
        self.lock_vc.insert(lock, self.vc[nd].clone());
        applied.max(*t.now)
    }

    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64 {
        self.apply_debt(t);
        let applied = self.close_interval(t);
        if !t.timing_on {
            return *t.now;
        }
        let nd = self.node_of(t.pid);
        let mgr = self.cfg.barrier_manager(barrier);
        let send_start = applied.max(*t.now);
        if mgr == nd && self.cfg.procs_per_node > 1 {
            return send_start + self.cfg.intra_node_cost;
        }
        let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
        let (_, out_end) = self.nodes[nd].io_out.serve(send_start, ctrl);
        let (_, mgr_end) = self.nodes[mgr]
            .handler
            .serve(out_end + self.cfg.wire_latency, self.cfg.handler_cost);
        mgr_end
    }

    fn barrier_release(
        &mut self,
        barrier: u32,
        arrivals: &[u64],
        stats: &mut [ProcStats],
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64> {
        let n = self.cfg.nprocs;
        let ppn = self.cfg.procs_per_node;
        let nn = self.cfg.nnodes();
        let mgr = self.cfg.barrier_manager(barrier);
        let vt = self.vt.clone();
        let mut resumes = vec![0u64; n];
        let start = arrivals.iter().copied().max().unwrap_or(0);
        let merge_end = start
            + if timing_on {
                n as u64 * self.cfg.barrier_merge_per_proc
            } else {
                0
            };
        let mut send_cursor = merge_end;
        let mut mgr_acc = Acc::default();
        for nd in 0..nn {
            let acc = self.consume_notices(nd, &vt, merge_end, placement, timing_on);
            stats[nd * ppn].counters.invalidations += acc.invals;
            if nd == mgr {
                mgr_acc = acc;
                continue;
            }
            if timing_on {
                let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
                let (_, out_end) = self.nodes[mgr].io_out.serve(send_cursor, ctrl);
                send_cursor = out_end;
                let node_resume =
                    out_end + self.cfg.wire_latency + self.cfg.handler_cost + acc.cycles;
                for (k, q) in self.node_procs(nd).enumerate() {
                    // Intra-node release fan-out: one bus hop per sibling.
                    resumes[q] = node_resume + k as u64 * (self.cfg.intra_node_cost / 4);
                }
            }
        }
        // The manager node resumes after finishing all its sends plus its
        // own invalidation work — the paper's "barrier manager" imbalance.
        for (k, q) in self.node_procs(mgr).enumerate() {
            resumes[q] = send_cursor + mgr_acc.cycles + k as u64 * (self.cfg.intra_node_cost / 4);
        }
        if !timing_on {
            return arrivals.to_vec();
        }
        // Garbage-collect: after a barrier everyone has consumed everything.
        for p in 0..nn {
            self.log_base[p] = self.vt[p];
            self.logs[p].clear();
        }
        resumes
    }

    fn reset_timing(&mut self) {
        for node in &mut self.nodes {
            node.handler.reset();
            node.io_in.reset();
            node.io_out.reset();
            node.debt = 0;
            node.diffs_created_debt = 0;
            node.diffs_applied_debt = 0;
        }
    }

    fn set_probe(&mut self, probe: Option<ProbeHandle>) {
        self.probe = probe;
        let page_bytes = self.page_bytes();
        probe::emit(&self.probe, false, ProtoEvent::PageGeometry { page_bytes });
    }

    fn finalize(&mut self, stats: &mut [ProcStats]) {
        // Drain protocol counters that accrued at non-initiator nodes into
        // the node's first processor. Runs once, after all simulated
        // processors have exited, so it cannot perturb the interleaving.
        let ppn = self.cfg.procs_per_node;
        for nd in 0..self.nodes.len() {
            let c = &mut stats[nd * ppn].counters;
            c.diffs_created += self.nodes[nd].diffs_created_debt;
            c.diffs_applied += self.nodes[nd].diffs_applied_debt;
            self.nodes[nd].diffs_created_debt = 0;
            self.nodes[nd].diffs_applied_debt = 0;
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
    #[should_panic(expected = "does not divide nprocs")]
    fn construction_rejects_non_divisible_grouping() {
        let _ = SvmPlatform::new(SvmConfig::paper_smp_nodes(8, 3));
    }
}
