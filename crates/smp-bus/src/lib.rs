//! # smp-bus — a bus-based, centralized-memory SMP platform model
//!
//! Models the paper's real machine: a 16-processor SGI Challenge — 150 MHz
//! processors, 16 KB first-level caches, unified 1 MB second-level caches
//! with 128-byte lines, and a 1.2 GB/s shared snooping bus in front of
//! centralized memory.
//!
//! All misses and upgrade transactions cross the single bus, which is
//! modelled as a shared FCFS [`Resource`]: its saturation is what makes
//! Radix "heavy communication and capacity traffic hurt ... due to the bus
//! bandwidth limitation" on this platform. Invalidation is by snooping, so a
//! write transaction invalidates every other cache's copy at no extra
//! per-sharer message cost. Synchronization is cheap: locks and barriers are
//! a handful of bus transactions.

// Indexed loops over fixed coordinate dimensions are clearer than
// iterator adaptors in this numeric code.
#![allow(clippy::needless_range_loop)]
use sim_core::cache::{Cache, CacheGeom, LineState, Lookup};
use sim_core::platform::{HitWindow, Platform, Timing};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::util::FxMap;
use sim_core::{Addr, FlatMem, PlacementMap, Resource};

/// Tunable parameters of the SMP platform (cycles at 150 MHz).
#[derive(Clone, Debug)]
pub struct SmpConfig {
    /// Number of processors.
    pub nprocs: usize,
    /// L1 geometry (16 KB direct-mapped).
    pub l1: CacheGeom,
    /// L2 geometry (1 MB 4-way, 128 B lines).
    pub l2: CacheGeom,
    /// Stall for an L1 miss that hits in L2.
    pub l2_hit: u64,
    /// DRAM access latency beyond bus occupancy.
    pub mem_latency: u64,
    /// Bus arbitration cycles per transaction.
    pub bus_arb: u64,
    /// Bus occupancy for a full line transfer (128 B at 1.2 GB/s ≈ 16 cy
    /// at 150 MHz).
    pub bus_line: u64,
    /// Bus occupancy for an address-only transaction (upgrade, lock).
    pub bus_addr: u64,
    /// Cost of an uncontended lock acquire beyond its bus transaction.
    pub lock_base: u64,
    /// Fixed barrier release cost.
    pub barrier_latency: u64,
}

impl SmpConfig {
    /// The paper's SGI Challenge configuration.
    pub fn paper(nprocs: usize) -> Self {
        Self {
            nprocs,
            l1: CacheGeom {
                size: 16 << 10,
                line: 128,
                ways: 1,
            },
            l2: CacheGeom {
                size: 1 << 20,
                line: 128,
                ways: 4,
            },
            l2_hit: 8,
            mem_latency: 40,
            bus_arb: 6,
            bus_line: 16,
            bus_addr: 4,
            lock_base: 30,
            barrier_latency: 100,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct SnoopEnt {
    sharers: u32,
    owner: Option<u8>,
}

/// The bus-based SMP platform.
pub struct SmpPlatform {
    cfg: SmpConfig,
    mem: FlatMem,
    caches: Vec<(Cache, Cache)>,
    bus: Resource,
    snoop: FxMap<u64, SnoopEnt>,
    line_mask: u64,
    /// The run's protocol event stream (None when undiagnosed).
    probe: Option<sim_core::ProbeHandle>,
}

impl SmpPlatform {
    /// Build the platform.
    pub fn new(cfg: SmpConfig) -> Self {
        assert!(cfg.nprocs <= 32);
        let caches = (0..cfg.nprocs)
            .map(|_| (Cache::new(cfg.l1), Cache::new(cfg.l2)))
            .collect();
        let line_mask = !(cfg.l2.line - 1);
        Self {
            cfg,
            mem: FlatMem::new(),
            caches,
            bus: Resource::new(),
            snoop: FxMap::default(),
            line_mask,
            probe: None,
        }
    }

    /// Boxed, type-erased platform.
    pub fn boxed(cfg: SmpConfig) -> Box<dyn Platform> {
        Box::new(Self::new(cfg))
    }

    /// The configuration in use.
    pub fn config(&self) -> &SmpConfig {
        &self.cfg
    }

    /// One bus transaction: arbitration + occupancy, with queueing.
    fn bus_txn(&mut self, t: &mut Timing, occupancy: u64) -> u64 {
        if !t.timing_on {
            return 0;
        }
        let (_, end) = self.bus.serve(*t.now, self.cfg.bus_arb + occupancy);
        end - *t.now
    }

    fn service_miss(&mut self, t: &mut Timing, line: u64, write: bool) -> u64 {
        let pid = t.pid;
        let ent = *self.snoop.entry(line).or_default();
        let stall;
        let mut src = pid;
        if let Some(owner) = ent.owner {
            let owner = owner as usize;
            if owner != pid {
                src = owner;
                // Cache-to-cache: one line transfer on the bus. The closest
                // thing a snooping bus has to a "remote" miss — traced with
                // the supplying cache as the home.
                stall = self.bus_txn(t, self.cfg.bus_line);
                if write {
                    self.caches[owner].0.set_state(line, LineState::Invalid);
                    self.caches[owner].1.set_state(line, LineState::Invalid);
                } else {
                    self.caches[owner].0.set_state(line, LineState::Shared);
                    self.caches[owner].1.set_state(line, LineState::Shared);
                }
            } else {
                stall = self.bus_txn(t, self.cfg.bus_addr);
            }
        } else {
            // From memory.
            stall = self.bus_txn(t, self.cfg.bus_line) + self.cfg.mem_latency;
        }
        let mut ent = ent;
        if write {
            // Snooping invalidation: every other copy drops at once (no
            // per-sharer messages on a broadcast bus).
            for q in 0..self.cfg.nprocs {
                if q != pid && (ent.sharers >> q) & 1 == 1 {
                    self.caches[q].0.set_state(line, LineState::Invalid);
                    self.caches[q].1.set_state(line, LineState::Invalid);
                }
            }
            ent.sharers = 1 << pid;
            ent.owner = Some(pid as u8);
        } else {
            ent.sharers |= 1 << pid;
            if ent.owner != Some(pid as u8) {
                ent.owner = None;
            }
        }
        self.snoop.insert(line, ent);
        t.stats.counters.bytes_transferred += self.cfg.l2.line;
        // Every bus-serviced miss is a data-latency sample on this platform,
        // charged by the caller from `now`; the supplying cache (if any) is
        // the serving side, otherwise memory (self).
        sim_core::probe::emit(
            &self.probe,
            t.timing_on,
            sim_core::ProtoEvent::RemoteMiss {
                pid,
                line,
                src,
                at: *t.now,
                stall,
                traced: src != pid,
            },
        );
        stall
    }

    fn access(&mut self, t: &mut Timing, addr: Addr, write: bool) {
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let line = addr & self.line_mask;
        let pid = t.pid;
        if self.caches[pid].0.access(addr, write) == Lookup::Hit {
            return;
        }
        match self.caches[pid].1.access(addr, write) {
            Lookup::Hit => {
                t.charge(Bucket::CacheStall, self.cfg.l2_hit);
                t.stats.counters.cache_misses += 1;
                let st = self.caches[pid].1.state_of(addr);
                self.caches[pid].0.fill(addr, st);
            }
            Lookup::UpgradeMiss => {
                let mut stall = self.service_miss(t, line, true);
                if stall == 0 {
                    stall = self.cfg.bus_arb + self.cfg.bus_addr;
                }
                t.charge(Bucket::DataWait, stall);
                t.stats.counters.cache_misses += 1;
                self.caches[pid].1.set_state(addr, LineState::Modified);
                self.caches[pid].0.fill(addr, LineState::Modified);
            }
            Lookup::Miss { .. } => {
                let stall = self.cfg.l2_hit + self.service_miss(t, line, write);
                // On a centralized-memory machine every miss is "local", but
                // coherence misses (someone else held the line) are the
                // communication the paper tracks; approximate by bucketing
                // cache-to-cache transfers as DataWait inside service_miss
                // via the snoop owner check — here we charge CacheStall.
                t.charge(Bucket::CacheStall, stall);
                t.stats.counters.cache_misses += 1;
                let ent = self.snoop.get(&line).copied().unwrap_or_default();
                let state = if write {
                    LineState::Modified
                } else if ent.sharers & !(1u32 << pid) == 0 {
                    LineState::Exclusive
                } else {
                    LineState::Shared
                };
                if let Some((victim, dirty)) = self.caches[pid].1.fill(addr, state) {
                    if dirty {
                        // Write-back occupies the bus.
                        self.bus_txn(t, self.cfg.bus_line);
                        if let Some(e) = self.snoop.get_mut(&victim) {
                            if e.owner == Some(pid as u8) {
                                e.owner = None;
                                e.sharers &= !(1u32 << pid);
                            }
                        }
                    }
                    self.caches[pid].0.set_state(victim, LineState::Invalid);
                }
                self.caches[pid].0.fill(addr, state);
            }
        }
    }
}

impl Platform for SmpPlatform {
    fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    fn min_cross_node_latency(&self) -> Option<u64> {
        // Processors interact only through bus transactions: the cheapest
        // is an arbitration plus an address-only (upgrade/lock) cycle.
        Some(self.cfg.bus_arb + self.cfg.bus_addr)
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.access(t, addr, false);
        self.mem.load(addr, len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.access(t, addr, true);
        self.mem.store(addr, len, val);
    }

    // An L1 hit (valid line for reads, owned line for writes — a Shared
    // write needs a bus upgrade) never touches the bus or snoop state.
    #[inline]
    fn hit_window(&mut self, pid: usize, addr: Addr, write: bool) -> Option<HitWindow<'_>> {
        HitWindow::flat(&mut self.caches[pid].0, &mut self.mem, addr, write)
    }

    fn acquire_request(&mut self, t: &mut Timing, _lock: u32) -> u64 {
        t.charge(Bucket::LockWait, self.cfg.lock_base);
        if !t.timing_on {
            return *t.now;
        }
        let stall = self.bus_txn(t, self.cfg.bus_addr);
        *t.now + stall
    }

    fn acquire_grant(
        &mut self,
        _pid: usize,
        _lock: u32,
        grant_at: u64,
        _stats: &mut ProcStats,
        _placement: &mut PlacementMap,
        timing_on: bool,
    ) -> u64 {
        if !timing_on {
            return grant_at;
        }
        grant_at + self.cfg.lock_base
    }

    fn release(&mut self, t: &mut Timing, _lock: u32) -> u64 {
        t.charge(Bucket::LockWait, self.cfg.lock_base / 2);
        if t.timing_on {
            self.bus_txn(t, self.cfg.bus_addr);
        }
        *t.now
    }

    fn barrier_arrive(&mut self, t: &mut Timing, _barrier: u32) -> u64 {
        if !t.timing_on {
            return *t.now;
        }
        // Atomic increment: one bus transaction (serializes arrivals).
        let stall = self.bus_txn(t, self.cfg.bus_addr);
        *t.now + stall
    }

    fn barrier_release(
        &mut self,
        _barrier: u32,
        arrivals: &[u64],
        _stats: &mut [ProcStats],
        _placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64> {
        let last = arrivals.iter().copied().max().unwrap_or(0);
        if !timing_on {
            return arrivals.to_vec();
        }
        vec![last + self.cfg.barrier_latency; arrivals.len()]
    }

    fn reset_timing(&mut self) {
        self.bus.reset();
    }

    fn set_probe(&mut self, probe: Option<sim_core::ProbeHandle>) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{run, Placement, RunConfig, HEAP_BASE};

    fn smp_run<F: Fn(&mut sim_core::Proc) + Sync>(n: usize, f: F) -> sim_core::RunStats {
        run(
            SmpPlatform::boxed(SmpConfig::paper(n)),
            RunConfig::new(n),
            f,
        )
    }

    #[test]
    fn data_round_trips() {
        let got = std::sync::Mutex::new(0u64);
        smp_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(4096, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 0 {
                p.store(HEAP_BASE, 8, 123);
            }
            p.barrier(1);
            if p.pid() == 1 {
                *got.lock().unwrap() = p.load(HEAP_BASE, 8);
            }
            p.barrier(2);
        });
        assert_eq!(*got.lock().unwrap(), 123);
    }

    #[test]
    fn bus_contention_slows_everyone() {
        // 8 procs streaming through memory: bus queueing should make the
        // parallel run take much longer than 1/8 of serial traffic time.
        let serial = smp_run(1, |p| {
            p.alloc_shared(1 << 20, 8, Placement::Node(0));
            p.start_timing();
            for i in 0..2048u64 {
                p.load(HEAP_BASE + i * 128, 8);
            }
        })
        .total_cycles();
        let par = smp_run(8, |p| {
            if p.pid() == 0 {
                p.alloc_shared(8 << 20, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            let base = HEAP_BASE + p.pid() as u64 * (1 << 20);
            for i in 0..2048u64 {
                p.load(base + i * 128, 8);
            }
            p.barrier(1);
        })
        .total_cycles();
        // Perfect scaling would give par == serial (each does the same work).
        // The shared bus must make it measurably slower.
        assert!(
            par as f64 > serial as f64 * 1.5,
            "expected bus contention: serial={serial} par={par}"
        );
    }

    #[test]
    fn snooping_invalidation_works() {
        let got = std::sync::Mutex::new(0u64);
        smp_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(4096, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                p.load(HEAP_BASE, 8);
            }
            p.barrier(1);
            if p.pid() == 0 {
                p.store(HEAP_BASE, 8, 7);
            }
            p.barrier(2);
            if p.pid() == 1 {
                *got.lock().unwrap() = p.load(HEAP_BASE, 8);
            }
            p.barrier(3);
        });
        assert_eq!(*got.lock().unwrap(), 7);
    }

    #[test]
    fn barriers_and_locks_are_cheap() {
        let stats = smp_run(16, |p| {
            p.start_timing();
            p.lock(0);
            p.unlock(0);
            p.barrier(1);
        });
        assert!(
            stats.total_cycles() < 5_000,
            "hardware sync should be cheap, got {}",
            stats.total_cycles()
        );
    }

    #[test]
    fn deterministic() {
        let go = || {
            smp_run(4, |p| {
                if p.pid() == 0 {
                    p.alloc_shared(1 << 16, 8, Placement::Node(0));
                }
                p.barrier(0);
                p.start_timing();
                for i in 0..128u64 {
                    p.store(HEAP_BASE + (i * 128 + p.pid() as u64 * 16) % 8192, 8, i);
                }
                p.barrier(1);
            })
        };
        assert_eq!(go().clocks, go().clocks);
    }
}
