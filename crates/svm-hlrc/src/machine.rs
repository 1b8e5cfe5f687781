//! The part of the LRC platform ([`crate::lrc::LrcPlatform`]) that neither
//! policy touches: the nodes' network interfaces and caches, the
//! vector-time write-notice log, and the price of every synchronisation
//! message.
//!
//! **Cached lines ⊆ mapped pages.** A node's processors cache lines only of
//! pages mapped at that node, and the home's copy, once touched, is never
//! unmapped: a line enters a cache only through [`Machine::cache_access`],
//! which the platform reaches only with the page in the node's table, and
//! the platform's only unmap drops the page's lines from the node's caches.
//! So a fault, and a write notice for a page the node does not map, have no
//! lines to drop — the platform skips the sweep there and `debug_assert!`s
//! [`Machine::caches_page`] false instead, under either policy.

use crate::page::{PState, PageEntry};
use crate::SvmConfig;
use sim_core::cache::{Cache, LineState, Lookup};
use sim_core::platform::{Bytes, Extent, Timing};
use sim_core::stats::Bucket;
use sim_core::util::FxMap;
use sim_core::{Addr, Resource};

/// One node's network interface: its FCFS protocol resources and the
/// interrupt time it owes.
#[derive(Default)]
pub struct Nic {
    /// The protocol handler (one message at a time).
    pub handler: Resource,
    /// Inbound I/O bus.
    pub io_in: Resource,
    /// Outbound I/O bus.
    pub io_out: Resource,
    /// Protocol processing performed on this node's behalf by incoming
    /// requests; charged to its clock at its next own event (interrupt
    /// dilation).
    pub debt: u64,
}

/// Nodes, caches, write-notice log and synchronisation pricing of the LRC
/// platform.
pub struct Machine {
    /// The configuration in use.
    pub cfg: SvmConfig,
    /// log2 of the protocol page size.
    pub page_shift: u32,
    /// Per-node network interfaces.
    pub nics: Vec<Nic>,
    /// Per-processor cache hierarchies, `(L1, L2)`.
    pub caches: Vec<(Cache, Cache)>,
    /// Closed-interval counts (vector timestamp component per node).
    vt: Vec<u32>,
    /// `vc[g][r]`: how many of r's intervals node g has consumed.
    vc: Vec<Vec<u32>>,
    /// Un-garbage-collected intervals — the pages a node dirtied between
    /// two releases — per node; `logs[r][i]` is interval `log_base[r] + i`.
    logs: Vec<Vec<Vec<u64>>>,
    log_base: Vec<u32>,
    /// Vector clock at the last release of each lock.
    lock_vc: FxMap<u32, Vec<u32>>,
}

impl Machine {
    /// Build the machine.
    ///
    /// # Panics
    /// If [`SvmConfig::validate`] rejects the node grouping, or the
    /// protocol page size is out of range.
    pub fn new(cfg: SvmConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.page_size.is_power_of_two() && (1024..=16384).contains(&cfg.page_size),
            "protocol page size must be a power of two in [1K, 16K]"
        );
        let nn = cfg.nnodes();
        Self {
            page_shift: cfg.page_shift(),
            nics: (0..nn).map(|_| Nic::default()).collect(),
            caches: (0..cfg.nprocs)
                .map(|_| (Cache::new(cfg.l1), Cache::new(cfg.l2)))
                .collect(),
            vt: vec![0; nn],
            vc: vec![vec![0; nn]; nn],
            logs: vec![Vec::new(); nn],
            log_base: vec![0; nn],
            lock_vc: FxMap::default(),
            cfg,
        }
    }

    /// Processor ids hosted by node `nd`.
    pub fn node_procs(&self, nd: usize) -> std::ops::Range<usize> {
        nd * self.cfg.procs_per_node..(nd + 1) * self.cfg.procs_per_node
    }

    /// Charge any protocol work done on this node's behalf since its last
    /// own event (handler interrupts dilate the application).
    #[inline]
    pub fn apply_debt(&mut self, t: &mut Timing) {
        let nd = self.cfg.node_of(t.pid);
        let d = std::mem::take(&mut self.nics[nd].debt);
        t.charge(Bucket::HandlerCompute, d);
    }

    /// Charge the local cache hierarchy for an access; only an L1 hit is inline.
    #[inline]
    pub fn cache_access(&mut self, t: &mut Timing, addr: Addr, write: bool) {
        if self.caches[t.pid].0.access(addr, write) != Lookup::Hit {
            self.l1_miss(t, addr, write);
        }
        if write {
            self.invalidate_siblings(t.pid, addr);
        }
    }

    /// [`Machine::cache_access`] past an L1 miss: L2 hit, or memory.
    #[inline(never)]
    fn l1_miss(&mut self, t: &mut Timing, addr: Addr, write: bool) {
        let caches = &mut self.caches[t.pid];
        t.stats.counters.cache_misses += 1;
        if caches.1.access(addr, write) == Lookup::Miss {
            t.charge(Bucket::CacheStall, self.cfg.mem_latency);
            caches.1.fill(addr, LineState::Modified);
        } else {
            t.charge(Bucket::CacheStall, self.cfg.l2_hit);
        }
        caches.0.fill(addr, LineState::Modified);
    }

    /// Intra-node hardware coherence: a write by one processor of an SMP
    /// node invalidates the line in its siblings' caches.
    fn invalidate_siblings(&mut self, pid: usize, addr: Addr) {
        if self.cfg.procs_per_node > 1 {
            for q in self.node_procs(self.cfg.node_of(pid)) {
                if q != pid {
                    self.caches[q].0.set_state(addr, LineState::Invalid);
                    self.caches[q].1.set_state(addr, LineState::Invalid);
                }
            }
        }
    }

    /// Drop every cached line of the page at `base` from the caches of node
    /// `nd`'s processors: the page's contents changed under them.
    pub fn drop_page_lines(&mut self, nd: usize, base: Addr) {
        for q in self.node_procs(nd) {
            self.caches[q].0.invalidate_range(base, self.cfg.page_size);
            self.caches[q].1.invalidate_range(base, self.cfg.page_size);
        }
    }

    /// Does any processor of node `nd` hold, in L1 or L2, a line of the page
    /// at `base`? False for every page `nd` does not map (the module's
    /// invariant). A probe per line per cache, like dropping the page's
    /// lines: for assertions and tests.
    pub fn caches_page(&self, nd: usize, base: Addr) -> bool {
        let holds = |c: &Cache| {
            (base..base + self.cfg.page_size)
                .step_by(c.geom().line as usize)
                .any(|a| c.state_of(a) != LineState::Invalid)
        };
        self.node_procs(nd)
            .any(|q| holds(&self.caches[q].0) || holds(&self.caches[q].1))
    }

    /// An LRC platform's `Platform::free_extent`, given `e`, the entry of
    /// `addr`'s page in the table of `pid`'s node (unmapped is the caller's
    /// `None`). The scalar path does no protocol work for an L1 hit on the
    /// page when no interrupt debt is pending and, for a store, the page is
    /// ReadWrite (so no fault or twin): the extent is then the rest of the
    /// frame — read-only for a load, the node's own buffer for a store. A
    /// store on a multi-processor node invalidates the siblings' copies of
    /// its line, which the scalar path repeats per word: done here, the
    /// extent ends with that line. Takes the entry so the caller's one
    /// page-table `get_mut` serves both check and extent; page table and
    /// caches are disjoint fields, which lets both borrows live in the
    /// result.
    #[inline]
    pub fn free_extent<'a>(
        &'a mut self,
        pid: usize,
        addr: Addr,
        write: bool,
        e: &'a mut PageEntry,
    ) -> Option<Extent<'a>> {
        if self.nics[self.cfg.node_of(pid)].debt != 0 || (write && e.state != PState::ReadWrite) {
            return None;
        }
        let off = (addr & (self.cfg.page_size - 1)) as usize;
        let mut end = e.frame.len();
        if write && self.cfg.procs_per_node > 1 {
            self.invalidate_siblings(pid, addr);
            let line = self.cfg.l1.line;
            end = off + (line - (addr & (line - 1))) as usize;
        }
        let bytes = if write {
            Bytes::Rw(&mut e.frame.own_mut()[off..end])
        } else {
            Bytes::Ro(&e.frame[off..end])
        };
        Some(Extent {
            l1: &mut self.caches[pid].0,
            bytes,
        })
    }

    /// Close node `nd`'s current interval, logging `pages` as its write
    /// notices.
    pub fn close_interval(&mut self, nd: usize, pages: Vec<u64>) {
        self.logs[nd].push(pages);
        self.vt[nd] += 1;
        self.vc[nd][nd] = self.vt[nd];
    }

    /// The vector time of `lock`'s last release (zero if never released):
    /// how far its next holder has to catch up.
    pub fn lock_time(&self, lock: u32) -> Vec<u32> {
        let never = || vec![0; self.nics.len()];
        self.lock_vc.get(&lock).cloned().unwrap_or_else(never)
    }

    /// Advance node `g`'s view of every node `r` to `upto[r]` and return the
    /// pages of the other nodes' intervals it thereby consumes, in log order
    /// (writer by writer, oldest first) — one flat list per consumer. The
    /// caller invalidates them; invalidation never reads the log, so
    /// collecting first is equivalent to interleaving.
    pub fn take_notices(&mut self, g: usize, upto: &[u32]) -> Vec<u64> {
        let mut pages = Vec::new();
        for (r, &to) in upto.iter().enumerate() {
            let (from, to) = (self.vc[g][r], to.min(self.vt[r]));
            if to <= from {
                continue;
            }
            if r != g {
                let base = self.log_base[r];
                for interval in &self.logs[r][(from - base) as usize..(to - base) as usize] {
                    pages.extend_from_slice(interval);
                }
            }
            self.vc[g][r] = to;
        }
        pages
    }

    /// Un-garbage-collected intervals over all nodes.
    #[cfg(test)]
    pub(crate) fn log_len(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }

    /// Price a control message leaving node `from` at `at` for node `to`'s
    /// protocol handler, which spends `service` cycles on it; returns when
    /// the handler is done.
    fn ctrl_msg(&mut self, from: usize, at: u64, to: usize, service: u64) -> u64 {
        let ctrl = self.cfg.ctrl_msg_bytes * self.cfg.io_cyc_per_byte;
        let (_, out_end) = self.nics[from].io_out.serve(at, ctrl);
        let arrive = out_end + self.cfg.wire_latency;
        self.nics[to].handler.serve(arrive, service).1
    }

    /// Price a request node `from` sends at `at` and node `to`'s handler
    /// services for `service` cycles (an interrupt: `to`'s debt, unless it
    /// is the requester itself) before replying with data that occupies an
    /// I/O bus for `reply` cycles — a page or diff fetch. Returns when the
    /// reply has crossed `from`'s inbound bus.
    pub fn round_trip(&mut self, from: usize, at: u64, to: usize, service: u64, reply: u64) -> u64 {
        let svc_end = self.ctrl_msg(from, at, to, service);
        if to != from {
            self.nics[to].debt += service;
        }
        let (_, out_end) = self.nics[to].io_out.serve(svc_end, reply);
        let arrive = out_end + self.cfg.wire_latency;
        self.nics[from].io_in.serve(arrive, reply).1
    }

    /// `t.pid` asks for `lock`: local send overhead, a message to the
    /// lock's manager, and the manager's forward to the last owner (3-hop
    /// protocol). Returns when the request reaches the owner.
    pub fn lock_request(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.apply_debt(t);
        t.charge(Bucket::LockWait, self.cfg.handler_cost);
        if !t.timing_on {
            return *t.now;
        }
        let nd = self.cfg.node_of(t.pid);
        let mgr = self.cfg.lock_manager(lock);
        if mgr == nd && self.cfg.procs_per_node > 1 {
            // Intra-node request: a bus interaction, not a network message.
            return *t.now + self.cfg.intra_node_cost;
        }
        let mgr_end = self.ctrl_msg(nd, *t.now, mgr, self.cfg.handler_cost);
        if mgr != nd {
            self.nics[mgr].debt += self.cfg.handler_cost;
        }
        mgr_end + self.cfg.wire_latency
    }

    /// When a grantee resumes after being granted a lock at `grant_at` and
    /// spending `cycles` consuming the write notices that came with it.
    pub fn lock_grant(&self, grant_at: u64, cycles: u64, timing_on: bool) -> u64 {
        if !timing_on {
            return grant_at;
        }
        grant_at + self.cfg.wire_latency + self.cfg.handler_cost + cycles
    }

    /// `t.pid`, its interval closed, releases `lock`: local overhead, and
    /// the lock remembers the releaser's vector time for its next holder.
    pub fn lock_release(&mut self, t: &mut Timing, lock: u32) {
        t.charge(Bucket::LockWait, self.cfg.handler_cost);
        let nd = self.cfg.node_of(t.pid);
        self.lock_vc.insert(lock, self.vc[nd].clone());
    }

    /// `t.pid`, its interval closed and its diffs landed by `applied`,
    /// notifies `barrier`'s manager. Returns when the manager has the
    /// arrival.
    pub fn barrier_arrive(&mut self, t: &Timing, barrier: u32, applied: u64) -> u64 {
        if !t.timing_on {
            return *t.now;
        }
        let nd = self.cfg.node_of(t.pid);
        let mgr = self.cfg.barrier_manager(barrier);
        let send_start = applied.max(*t.now);
        if mgr == nd && self.cfg.procs_per_node > 1 {
            return send_start + self.cfg.intra_node_cost;
        }
        self.ctrl_msg(nd, send_start, mgr, self.cfg.handler_cost)
    }

    /// Everyone has arrived at a barrier (`arrivals[pid]` = arrival at
    /// the manager): when the manager has merged the interval information,
    /// and the vector time it brings every node up to.
    pub fn barrier_merge(&self, arrivals: &[u64], timing_on: bool) -> (u64, Vec<u32>) {
        let start = arrivals.iter().copied().max().unwrap_or(0);
        let merge = self.cfg.nprocs as u64 * self.cfg.barrier_merge_per_proc;
        (start + if timing_on { merge } else { 0 }, self.vt.clone())
    }

    /// Node `nd`'s processors resume from `at`, one bus hop per sibling
    /// apart (the intra-node release fan-out).
    pub fn resume_node(&self, resumes: &mut [u64], nd: usize, at: u64) {
        for (k, q) in self.node_procs(nd).enumerate() {
            resumes[q] = at + k as u64 * (self.cfg.intra_node_cost / 4);
        }
    }

    /// After a barrier everyone has consumed everything: collect the log,
    /// timed or not (an untimed initialisation phase must not leave it
    /// growing).
    pub fn collect_log(&mut self) {
        for r in 0..self.nics.len() {
            self.log_base[r] = self.vt[r];
            self.logs[r].clear();
        }
    }

    /// Reset resource clocks and interrupt debt for the start of the timed
    /// region.
    pub fn reset_timing(&mut self) {
        self.nics.fill_with(Nic::default);
    }
}
