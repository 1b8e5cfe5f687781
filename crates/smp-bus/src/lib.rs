//! # smp-bus — a bus-based, centralized-memory SMP platform model
//!
//! Models the paper's real machine: a 16-processor SGI Challenge — 150 MHz
//! processors, 16 KB first-level caches, unified 1 MB second-level caches
//! with 128-byte lines, and a 1.2 GB/s shared snooping bus in front of
//! centralized memory.
//!
//! The caches, the data and the coherence protocol are
//! [`sim_core::coherence::Machine`], shared with the CC-NUMA; this crate
//! prices it. All misses and upgrade transactions cross the single bus,
//! which is modelled as a shared FCFS [`Resource`]: its saturation is what
//! makes Radix "heavy communication and capacity traffic hurt ... due to
//! the bus bandwidth limitation" on this platform. Invalidation is by
//! snooping, so a write transaction invalidates every other cache's copy at
//! no extra per-sharer message cost. Synchronization is cheap: locks and
//! barriers are a handful of bus transactions.

use sim_core::cache::CacheGeom;
use sim_core::coherence::{self, DirEnt, Machine, Priced, Pricing};
use sim_core::platform::{Extent, Platform, Timing};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::{Addr, PlacementMap, Resource};

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

/// The bus machine's prices: its configuration and the bus.
struct Bus {
    cfg: SmpConfig,
    wire: Resource,
}

impl Bus {
    /// One bus transaction: arbitration + occupancy, with queueing.
    fn txn(&mut self, t: &Timing, occupancy: u64) -> u64 {
        if !t.timing_on {
            return 0;
        }
        let (_, end) = self.wire.serve(*t.now, self.cfg.bus_arb + occupancy);
        end - *t.now
    }
}

impl Pricing for Bus {
    fn miss(&mut self, t: &mut Timing, _: u64, before: DirEnt, _: u32, upgrade: bool) -> Priced {
        // Every bus-serviced miss is a data-latency sample: the supplying
        // cache is the serving side, otherwise memory (the requester).
        let (src, stall) = match before.owner {
            // Cache-to-cache: one line transfer on the bus — the closest
            // thing a snooping bus has to a remote miss.
            Some(owner) => (owner.into(), self.txn(t, self.cfg.bus_line)),
            None => (t.pid, self.txn(t, self.cfg.bus_line) + self.cfg.mem_latency),
        };
        // On a centralized-memory machine every miss is "local" and stalls
        // the cache; waiting for ownership on an upgrade is data wait.
        Priced {
            stall,
            bucket: if upgrade {
                Bucket::DataWait
            } else {
                Bucket::CacheStall
            },
            src: Some(src),
        }
    }

    fn write_back(&mut self, t: &mut Timing) {
        self.txn(t, self.cfg.bus_line);
    }
}

/// The bus-based SMP platform.
pub struct SmpPlatform {
    hw: Machine,
    bus: Bus,
}

impl SmpPlatform {
    /// Build the platform.
    ///
    /// # Panics
    /// If `cfg.nprocs` exceeds [`coherence::MAX_PROCS`].
    pub fn new(cfg: SmpConfig) -> Self {
        Self {
            hw: Machine::new(cfg.nprocs, cfg.l1, cfg.l2, cfg.l2_hit),
            bus: Bus {
                cfg,
                wire: Resource::new(),
            },
        }
    }

    /// Boxed, type-erased platform.
    pub fn boxed(cfg: SmpConfig) -> Box<dyn Platform> {
        Box::new(Self::new(cfg))
    }

    /// The configuration in use.
    pub fn config(&self) -> &SmpConfig {
        &self.bus.cfg
    }
}

impl Platform for SmpPlatform {
    fn nprocs(&self) -> usize {
        self.bus.cfg.nprocs
    }

    fn min_cross_node_latency(&self) -> Option<u64> {
        // Processors interact only through bus transactions: the cheapest
        // is an arbitration plus an address-only (upgrade/lock) cycle.
        Some(self.bus.cfg.bus_arb + self.bus.cfg.bus_addr)
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.hw.load(&mut self.bus, t, addr, len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.hw.store(&mut self.bus, t, addr, len, val);
    }

    #[inline]
    fn free_extent(&mut self, pid: usize, addr: Addr, _: bool, span: usize) -> Option<Extent<'_>> {
        Some(self.hw.free_extent(pid, addr, span))
    }

    fn acquire_request(&mut self, t: &mut Timing, _lock: u32) -> u64 {
        t.charge(Bucket::LockWait, self.bus.cfg.lock_base);
        *t.now + self.bus.txn(t, self.bus.cfg.bus_addr)
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
        grant_at + self.bus.cfg.lock_base
    }

    fn release(&mut self, t: &mut Timing, _lock: u32) -> u64 {
        t.charge(Bucket::LockWait, self.bus.cfg.lock_base / 2);
        self.bus.txn(t, self.bus.cfg.bus_addr);
        *t.now
    }

    fn barrier_arrive(&mut self, t: &mut Timing, _barrier: u32) -> u64 {
        // Atomic increment: one bus transaction (serializes arrivals).
        *t.now + self.bus.txn(t, self.bus.cfg.bus_addr)
    }

    fn barrier_release(
        &mut self,
        _barrier: u32,
        arrivals: &[u64],
        _stats: &mut [ProcStats],
        _placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64> {
        coherence::barrier_release(arrivals, timing_on, self.bus.cfg.barrier_latency)
    }

    fn reset_timing(&mut self) {
        self.bus.wire.reset();
    }

    fn set_probe(&mut self, probe: Option<sim_core::ProbeHandle>) {
        self.hw.probe = probe;
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
