//! # lrc-tmk — a TreadMarks-style, non-home-based lazy release consistency SVM
//!
//! The baseline protocol the paper's §2.1.1 contrasts HLRC against (Keleher
//! et al.'s TreadMarks; the comparison is Zhou, Iftode & Li, OSDI'96). The
//! crucial difference from the home-based protocol in `svm-hlrc`:
//!
//! * There is **no home copy**. Writers create diffs at releases but keep
//!   them; a faulting reader must *gather diffs from every writer* whose
//!   intervals it has not yet applied, then apply them in causal order.
//! * Diffs accumulate until a garbage-collection point. We fold a page's
//!   diff chain into its canonical base copy at barriers (TreadMarks ran
//!   periodic GC for the same reason) — the memory- and message-overhead
//!   this protocol pays for multiple-writer pages is exactly the weakness
//!   HLRC was designed to fix, and it reproduces here: page faults on
//!   multi-writer pages cost one round-trip **per writer** instead of one
//!   fetch from the home.
//!
//! The crate reuses the data-plane primitives (`Diff`, `PageEntry`) from
//! `svm-hlrc`, and is exercised by the same application suite through
//! `apps::Platform::Tmk` — every run is verified against the sequential
//! references, so this is a real working protocol, not a cost model.

// Indexed loops over fixed coordinate dimensions are clearer than
// iterator adaptors in this numeric code.
#![allow(clippy::needless_range_loop)]
use sim_core::cache::{Cache, LineState, Lookup};
use sim_core::platform::{Platform, Timing};
use sim_core::probe::{self, ProbeHandle, ProtoEvent};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::util::{FxMap, FxSet};
use sim_core::{Addr, PlacementMap, Resource};
use svm_hlrc::{Diff, PState, PageEntry, SvmConfig};

/// One archived diff: who wrote it and what changed.
struct ArchivedDiff {
    writer: usize,
    diff: Diff,
}

/// Global (conceptually distributed) per-page diff chain plus the folded
/// base copy.
struct PageLog {
    base: Box<[u8]>,
    chain: Vec<ArchivedDiff>,
}

struct Node {
    pages: FxMap<u64, PageEntry>,
    /// How many chain entries of each page this node has applied.
    applied: FxMap<u64, u32>,
    write_set: FxSet<u64>,
    l1: Cache,
    l2: Cache,
    handler: Resource,
    io_in: Resource,
    io_out: Resource,
    debt: u64,
}

/// Write-notice interval (pages dirtied between releases).
#[derive(Clone)]
struct Interval {
    pages: Vec<u64>,
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

/// The non-home-based LRC platform. Reuses [`SvmConfig`] — the machine is
/// identical; only the protocol differs.
pub struct TmkPlatform {
    cfg: SvmConfig,
    page_shift: u32,
    nodes: Vec<Node>,
    logs_by_page: FxMap<u64, PageLog>,
    vt: Vec<u32>,
    vc: Vec<Vec<u32>>,
    intervals: Vec<Vec<Interval>>,
    log_base: Vec<u32>,
    lock_vc: FxMap<u32, Vec<u32>>,
    /// The run's protocol event stream (None when undiagnosed).
    probe: Option<ProbeHandle>,
}

impl TmkPlatform {
    /// Build the platform. TreadMarks-style nodes host one processor each,
    /// so the node-grouping knob of the shared [`SvmConfig`] must be left
    /// at 1.
    ///
    /// # Panics
    /// If [`SvmConfig::validate`] rejects the configuration or
    /// `procs_per_node` is not 1.
    pub fn new(cfg: SvmConfig) -> Self {
        cfg.validate();
        assert_eq!(
            cfg.procs_per_node, 1,
            "TmkPlatform models one processor per node; procs_per_node = {} is not supported",
            cfg.procs_per_node
        );
        let n = cfg.nprocs;
        let page_shift = cfg.page_shift();
        let nodes = (0..n)
            .map(|_| Node {
                pages: FxMap::default(),
                applied: FxMap::default(),
                write_set: FxSet::default(),
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
                handler: Resource::new(),
                io_in: Resource::new(),
                io_out: Resource::new(),
                debt: 0,
            })
            .collect();
        Self {
            cfg,
            page_shift,
            nodes,
            logs_by_page: FxMap::default(),
            vt: vec![0; n],
            vc: vec![vec![0; n]; n],
            intervals: vec![Vec::new(); n],
            log_base: vec![0; n],
            lock_vc: FxMap::default(),
            probe: None,
        }
    }

    /// Boxed, type-erased platform.
    pub fn boxed(cfg: SvmConfig) -> Box<dyn Platform> {
        Box::new(Self::new(cfg))
    }

    fn page_bytes(&self) -> u64 {
        self.cfg.page_size
    }

    #[inline]
    fn apply_debt(&mut self, t: &mut Timing) {
        let d = std::mem::take(&mut self.nodes[t.pid].debt);
        t.charge(Bucket::HandlerCompute, d);
    }

    fn log_entry(&mut self, page: u64) -> &mut PageLog {
        let ps = self.cfg.page_size as usize;
        self.logs_by_page.entry(page).or_insert_with(|| PageLog {
            base: vec![0u8; ps].into_boxed_slice(),
            chain: Vec::new(),
        })
    }

    /// Reconstruct the current contents of `page` (base + full chain).
    fn current_contents(&mut self, page: u64) -> Box<[u8]> {
        let log = self.log_entry(page);
        let mut buf = log.base.clone();
        for a in &log.chain {
            a.diff.apply(&mut buf);
        }
        buf
    }

    /// Fault `page` in at `pid`: gather the un-applied diff chain suffix
    /// from each distinct writer (one round trip per writer!), apply.
    fn fetch_page(&mut self, t: &mut Timing, page: u64) {
        let pid = t.pid;
        let t0 = *t.now;
        // State first: compute the fresh contents and remember how much of
        // the chain we now reflect.
        let contents = self.current_contents(page);
        let chain_len = self.log_entry(page).chain.len() as u32;
        // Cost: if the node has never had this page, it also needs a full
        // copy of the base from *some* writer/creator; otherwise only the
        // chain suffix it is missing.
        let already = *self.nodes[pid].applied.get(&page).unwrap_or(&0);
        let had_copy = self.nodes[pid].pages.contains_key(&page);
        t.charge(Bucket::DataWait, self.cfg.fault_trap);
        // Distinct writers in the missing suffix (pure reads over the chain,
        // so computing this outside the timing check changes nothing).
        let mut writers: Vec<usize> = Vec::new();
        let mut suffix_words = 0u64;
        let mut suffix_runs = 0u64;
        {
            let log = self.logs_by_page.get(&page).unwrap();
            for a in log.chain.iter().skip(already as usize) {
                if a.writer != pid && !writers.contains(&a.writer) {
                    writers.push(a.writer);
                }
                suffix_words += a.diff.len() as u64;
                suffix_runs += a.diff.run_count() as u64;
            }
        }
        let base_wire = if had_copy { 0 } else { self.page_bytes() };
        let wire = base_wire
            + writers.len() as u64 * (suffix_runs * 8 + suffix_words * 4 + self.cfg.ctrl_msg_bytes);
        // No home in this protocol: report the round-robin base-copy source
        // the full-page transfer would come from.
        let src = (page % self.cfg.nprocs as u64) as usize;
        if t.timing_on {
            let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
            let mut done = *t.now;
            if !had_copy {
                // Full page transfer from one node (round robin choice).
                let (_, req_out) = self.nodes[pid].io_out.serve(*t.now, ctrl);
                let arr = req_out + self.cfg.wire_latency;
                let (_, svc) = self.nodes[src].handler.serve(arr, self.cfg.handler_cost);
                if src != pid {
                    self.nodes[src].debt += self.cfg.handler_cost;
                }
                let pg = self.page_bytes() * self.cfg.io_cyc_per_byte;
                let (_, out_end) = self.nodes[src].io_out.serve(svc, pg);
                let (_, in_end) = self.nodes[pid]
                    .io_in
                    .serve(out_end + self.cfg.wire_latency, pg);
                done = done.max(in_end + self.page_bytes() / 2);
            }
            // One request/response round trip per distinct writer, all
            // issued in sequence (TreadMarks pipelines some of this; we
            // charge the conservative serial cost for requests and let the
            // responses overlap at the I/O bus).
            for w in writers {
                let (_, req_out) = self.nodes[pid].io_out.serve(done, ctrl);
                let arr = req_out + self.cfg.wire_latency;
                let svc_dur = self.cfg.handler_cost + suffix_words * self.cfg.diff_scan_per_word;
                let (_, svc) = self.nodes[w].handler.serve(arr, svc_dur);
                self.nodes[w].debt += svc_dur;
                let bytes = (suffix_runs * 8 + suffix_words * 4 + self.cfg.ctrl_msg_bytes)
                    * self.cfg.io_cyc_per_byte;
                let (_, out_end) = self.nodes[w].io_out.serve(svc, bytes);
                let (_, in_end) = self.nodes[pid]
                    .io_in
                    .serve(out_end + self.cfg.wire_latency, bytes);
                let applied_at =
                    in_end + suffix_words * self.cfg.diff_apply_per_word + suffix_runs * 8;
                done = done.max(applied_at);
                t.stats.counters.bytes_transferred += bytes / self.cfg.io_cyc_per_byte;
            }
            t.advance_to(Bucket::DataWait, done);
        }
        // The fault stalled `pid` over (t0, now]; the round-robin base
        // source stands in as the serving side.
        probe::emit(
            &self.probe,
            t.timing_on,
            ProtoEvent::PageFetch {
                pid,
                reader_node: pid,
                page: page << self.page_shift,
                home: src,
                src,
                bytes: wire,
                t0,
                t1: *t.now,
            },
        );
        self.nodes[pid]
            .pages
            .insert(page, PageEntry::copy_of(&contents));
        self.nodes[pid].applied.insert(page, chain_len);
        let base = page << self.page_shift;
        let len = self.page_bytes();
        self.nodes[pid].l1.invalidate_range(base, len);
        self.nodes[pid].l2.invalidate_range(base, len);
        t.stats.counters.remote_fetches += 1;
        if !had_copy {
            t.stats.counters.bytes_transferred += self.page_bytes();
        }
    }

    fn ensure_readable(&mut self, t: &mut Timing, page: u64) {
        if self.nodes[t.pid].pages.contains_key(&page) {
            return;
        }
        // First touch anywhere: cheap zero-fill only if no diffs exist yet.
        let virgin = self
            .logs_by_page
            .get(&page)
            .is_none_or(|l| l.chain.is_empty());
        if virgin && !self.logs_by_page.contains_key(&page) {
            let ps = self.cfg.page_size;
            self.nodes[t.pid].pages.insert(page, PageEntry::zeroed(ps));
            self.nodes[t.pid].applied.insert(page, 0);
        } else {
            self.fetch_page(t, page);
        }
    }

    fn ensure_writable(&mut self, t: &mut Timing, page: u64) {
        self.ensure_readable(t, page);
        let pid = t.pid;
        let needs_twin = self.nodes[pid].pages[&page].state == PState::ReadOnly;
        if needs_twin {
            t.charge(
                Bucket::HandlerCompute,
                self.cfg.fault_trap + self.page_bytes() / 2 * self.cfg.memcpy_cyc_per_2bytes,
            );
            let e = self.nodes[pid].pages.get_mut(&page).unwrap();
            e.twin = Some(e.frame.clone());
            e.state = PState::ReadWrite;
            self.nodes[pid].write_set.insert(page);
            t.stats.counters.twins_created += 1;
        }
    }

    fn cache_access(&mut self, t: &mut Timing, addr: Addr, write: bool) {
        let node = &mut self.nodes[t.pid];
        match node.l1.access(addr, write) {
            Lookup::Hit => {}
            _ => match node.l2.access(addr, write) {
                Lookup::Hit | Lookup::UpgradeMiss => {
                    t.charge(Bucket::CacheStall, self.cfg.l2_hit);
                    node.l1.fill(addr, LineState::Modified);
                    t.stats.counters.cache_misses += 1;
                }
                Lookup::Miss { .. } => {
                    t.charge(Bucket::CacheStall, self.cfg.mem_latency);
                    node.l2.fill(addr, LineState::Modified);
                    node.l1.fill(addr, LineState::Modified);
                    t.stats.counters.cache_misses += 1;
                }
            },
        }
    }

    /// Write-protect `pid`'s dirty copy of `page` and diff it against its
    /// twin.
    fn take_diff(&mut self, pid: usize, page: u64) -> Diff {
        let entry = self.nodes[pid].pages.get_mut(&page).unwrap();
        entry.state = PState::ReadOnly;
        let twin = entry.twin.take().expect("dirty page without twin");
        Diff::create(&twin, &entry.frame)
    }

    /// Archive `pid`'s `diff` of `page` into the page's chain, reporting it
    /// created and (archival being this protocol's application) applied at
    /// `at`. Wire cost 0: the chain is kept at the writer; bytes move at
    /// the faulting reader's gather, accounted in `fetch_page`. Returns the
    /// new chain length.
    fn archive(
        &mut self,
        pid: usize,
        page: u64,
        diff: Diff,
        at: u64,
        span: Option<(u64, u64)>,
        timing_on: bool,
    ) -> u32 {
        let base = page << self.page_shift;
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
                self.nodes[pid].pages.get(&page).map(|e| e.state) == Some(PState::ReadWrite);
            if !still_dirty {
                continue;
            }
            let diff = self.take_diff(pid, page);
            let scan = self.cfg.words_per_page() * self.cfg.diff_scan_per_word
                + diff.len() as u64 * self.cfg.diff_scan_per_word;
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
        self.intervals[pid].push(Interval { pages });
        self.vt[pid] += 1;
        let me = pid;
        self.vc[me][me] = self.vt[me];
    }

    /// Invalidate a page at `g` on receipt of a write notice.
    fn invalidate_page(&mut self, g: usize, page: u64, at: u64, timing_on: bool, acc: &mut Acc) {
        let state = self.nodes[g].pages.get(&page).map(|e| e.state);
        match state {
            None => return,
            Some(PState::ReadWrite) => {
                // Archive our local diff before dropping the copy.
                let diff = self.take_diff(g, page);
                if timing_on {
                    acc.cycles += self.cfg.words_per_page() * self.cfg.diff_scan_per_word;
                }
                acc.archived += 1;
                self.archive(g, page, diff, at, None, timing_on);
            }
            Some(PState::ReadOnly) => {}
        }
        let base = page << self.page_shift;
        let inval = ProtoEvent::Invalidation {
            pid: g,
            page: base,
            at,
        };
        probe::emit(&self.probe, timing_on, inval);
        self.nodes[g].pages.remove(&page);
        self.nodes[g].applied.remove(&page);
        let len = self.cfg.page_size;
        self.nodes[g].l1.invalidate_range(base, len);
        self.nodes[g].l2.invalidate_range(base, len);
        acc.cycles += self.cfg.inval_per_page;
        acc.invals += 1;
    }

    fn consume_notices(&mut self, g: usize, upto: &[u32], at: u64, timing_on: bool) -> Acc {
        let mut acc = Acc::default();
        for r in 0..self.cfg.nprocs {
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
                let pages: Vec<u64> = self.intervals[r][li].pages.clone();
                for page in pages {
                    self.invalidate_page(g, page, at, timing_on, &mut acc);
                }
            }
            self.vc[g][r] = to;
        }
        acc
    }

    /// Barrier-time garbage collection. TreadMarks collected diffs lazily;
    /// we fold a page's chain into its base copy once it grows past a
    /// threshold (folding eagerly would hide the protocol's signature
    /// multi-writer gather cost, which is exactly what the HLRC comparison
    /// is about). At a barrier every node has consumed every notice, so
    /// surviving copies equal base+chain and folding is safe.
    fn gc_chains(&mut self) {
        const GC_THRESHOLD: usize = 8;
        let pages: Vec<u64> = self
            .logs_by_page
            .iter()
            .filter(|(_, l)| l.chain.len() >= GC_THRESHOLD)
            .map(|(p, _)| *p)
            .collect();
        for page in pages {
            let log = self.logs_by_page.get_mut(&page).unwrap();
            let chain = std::mem::take(&mut log.chain);
            for a in &chain {
                a.diff.apply(&mut log.base);
            }
            // Applied counters now refer to a folded chain: reset them for
            // every node still holding a copy (their frames equal base).
            for node in &mut self.nodes {
                if node.pages.contains_key(&page) {
                    node.applied.insert(page, 0);
                }
            }
        }
    }
}

impl Platform for TmkPlatform {
    fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    fn min_cross_node_latency(&self) -> Option<u64> {
        // TreadMarks-style LRC: uniprocessor nodes, so the cheapest
        // cross-processor interaction is one message over the wire.
        Some(self.cfg.wire_latency)
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.apply_debt(t);
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let page = addr >> self.page_shift;
        self.ensure_readable(t, page);
        self.cache_access(t, addr, false);
        let off = (addr & (self.cfg.page_size - 1)) as usize;
        let frame = &self.nodes[t.pid].pages[&page].frame;
        let mut w = [0u8; 8];
        w[..len as usize].copy_from_slice(&frame[off..off + len as usize]);
        u64::from_le_bytes(w)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.apply_debt(t);
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let page = addr >> self.page_shift;
        self.ensure_writable(t, page);
        self.cache_access(t, addr, true);
        let off = (addr & (self.cfg.page_size - 1)) as usize;
        let frame = &mut self.nodes[t.pid].pages.get_mut(&page).unwrap().frame;
        frame[off..off + len as usize].copy_from_slice(&val.to_le_bytes()[..len as usize]);
    }

    // Bulk fast path, as in `svm-hlrc`: a word is fast when no interrupt
    // debt is pending, the page is already mapped at this processor (for
    // stores: ReadWrite, so no fault or twin), and the word's L1 line is
    // present with sufficient permission — then k words in one line batch to
    // counters + Compute k + one `hit_run` + k frame moves, identical to k
    // scalar iterations. Other words fall back to scalar `load`/`store`.
    fn load_bulk(
        &mut self,
        t: &mut Timing,
        addr: Addr,
        stride: u64,
        len: u8,
        out: &mut [u64],
        budget: u64,
    ) -> usize {
        let pid = t.pid;
        let l1_line = self.nodes[pid].l1.geom().line;
        let mut done = 0usize;
        while done < out.len() {
            let a = addr + done as u64 * stride;
            let page = a >> self.page_shift;
            let fast = self.nodes[pid].debt == 0
                && self.nodes[pid].pages.contains_key(&page)
                && self.nodes[pid].l1.state_of(a) != LineState::Invalid;
            if !fast {
                out[done] = self.load(t, a, len);
                done += 1;
                if *t.now > budget {
                    break;
                }
                continue;
            }
            let line_end = self.nodes[pid].l1.line_base(a) + l1_line;
            let mut k = (out.len() - done) as u64;
            if stride > 0 {
                k = k.min((line_end - a).div_ceil(stride));
            }
            if t.timing_on {
                k = k.min(budget.saturating_sub(*t.now).saturating_add(1));
            }
            t.stats.counters.accesses += k;
            t.charge(Bucket::Compute, k);
            self.nodes[pid].l1.hit_run(a, false, k);
            let page_base = page << self.page_shift;
            let frame = &self.nodes[pid].pages[&page].frame;
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
        let pid = t.pid;
        let l1_line = self.nodes[pid].l1.geom().line;
        let mut done = 0usize;
        while done < vals.len() {
            let a = addr + done as u64 * stride;
            let page = a >> self.page_shift;
            let fast = self.nodes[pid].debt == 0
                && self.nodes[pid]
                    .pages
                    .get(&page)
                    .is_some_and(|e| e.state == PState::ReadWrite)
                && matches!(
                    self.nodes[pid].l1.state_of(a),
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
            let line_end = self.nodes[pid].l1.line_base(a) + l1_line;
            let mut k = (vals.len() - done) as u64;
            if stride > 0 {
                k = k.min((line_end - a).div_ceil(stride));
            }
            if t.timing_on {
                k = k.min(budget.saturating_sub(*t.now).saturating_add(1));
            }
            t.stats.counters.accesses += k;
            t.charge(Bucket::Compute, k);
            self.nodes[pid].l1.hit_run(a, true, k);
            let page_base = page << self.page_shift;
            let frame = &mut self.nodes[pid].pages.get_mut(&page).unwrap().frame;
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
        t.charge(Bucket::LockWait, self.cfg.handler_cost);
        if !t.timing_on {
            return *t.now;
        }
        let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
        let (_, out_end) = self.nodes[t.pid].io_out.serve(*t.now, ctrl);
        let mgr = self.cfg.lock_manager(lock);
        let (_, mgr_end) = self.nodes[mgr]
            .handler
            .serve(out_end + self.cfg.wire_latency, self.cfg.handler_cost);
        if mgr != t.pid {
            self.nodes[mgr].debt += self.cfg.handler_cost;
        }
        mgr_end + self.cfg.wire_latency
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
        let upto = match self.lock_vc.get(&lock) {
            Some(v) => v.clone(),
            None => vec![0; self.cfg.nprocs],
        };
        let acc = self.consume_notices(pid, &upto, grant_at, timing_on);
        stats.counters.invalidations += acc.invals;
        stats.counters.diffs_created += acc.archived;
        stats.counters.diffs_applied += acc.archived;
        if !timing_on {
            return grant_at;
        }
        grant_at + self.cfg.wire_latency + self.cfg.handler_cost + acc.cycles
    }

    fn release(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.apply_debt(t);
        self.close_interval(t);
        t.charge(Bucket::LockWait, self.cfg.handler_cost);
        self.lock_vc.insert(lock, self.vc[t.pid].clone());
        *t.now
    }

    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64 {
        self.apply_debt(t);
        self.close_interval(t);
        if !t.timing_on {
            return *t.now;
        }
        let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
        let (_, out_end) = self.nodes[t.pid].io_out.serve(*t.now, ctrl);
        let mgr = self.cfg.barrier_manager(barrier);
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
        _placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64> {
        let n = self.cfg.nprocs;
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
        for q in 0..n {
            let acc = self.consume_notices(q, &vt, merge_end, timing_on);
            stats[q].counters.invalidations += acc.invals;
            stats[q].counters.diffs_created += acc.archived;
            stats[q].counters.diffs_applied += acc.archived;
            if q == mgr {
                mgr_acc = acc;
                continue;
            }
            if timing_on {
                let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
                let (_, out_end) = self.nodes[mgr].io_out.serve(send_cursor, ctrl);
                send_cursor = out_end;
                resumes[q] = out_end + self.cfg.wire_latency + self.cfg.handler_cost + acc.cycles;
            }
        }
        resumes[mgr] = send_cursor + mgr_acc.cycles;
        // GC: fold chains and release interval logs.
        self.gc_chains();
        for p in 0..n {
            self.log_base[p] = self.vt[p];
            self.intervals[p].clear();
        }
        if !timing_on {
            return arrivals.to_vec();
        }
        resumes
    }

    fn reset_timing(&mut self) {
        for node in &mut self.nodes {
            node.handler.reset();
            node.io_in.reset();
            node.io_out.reset();
            node.debt = 0;
        }
    }

    fn set_probe(&mut self, probe: Option<ProbeHandle>) {
        self.probe = probe;
        let page_bytes = self.page_bytes();
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

    #[test]
    #[should_panic(expected = "one processor per node")]
    fn construction_rejects_multi_processor_nodes() {
        let _ = TmkPlatform::new(SvmConfig::paper_smp_nodes(8, 2));
    }
}
