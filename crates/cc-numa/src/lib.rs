//! # cc-numa — a directory-based, cache-coherent NUMA platform model
//!
//! Models the paper's hardware DSM simulator: an aggressive CC-NUMA machine
//! in the DASH tradition — one 300 MHz processor per node, 16 KB
//! direct-mapped L1s, 1 MB 4-way L2s with 64-byte lines, and a distributed
//! full-bit-vector directory kept at each line's home node.
//!
//! The caches, the data and the directory protocol are
//! [`sim_core::coherence::Machine`], shared with the bus-based SMP; this
//! crate prices it: local misses, clean/dirty remote misses (2- and 3-hop),
//! upgrades with per-sharer invalidation, and home-directory occupancy (the
//! contention term). Synchronization is hardware-cheap: an uncontended lock
//! costs about a remote miss, and barriers are tens-of-cycles per processor
//! — the key contrast with SVM that drives the paper's
//! performance-portability findings.

use sim_core::cache::CacheGeom;
use sim_core::coherence::{self, DirEnt, Machine, Priced, Pricing};
use sim_core::platform::{Extent, Platform, Timing};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::{Addr, PlacementMap, Resource};

/// Tunable parameters of the CC-NUMA platform (cycles at 300 MHz).
#[derive(Clone, Debug)]
pub struct DsmConfig {
    /// Number of nodes (one processor each).
    pub nprocs: usize,
    /// L1 geometry (paper: 16 KB direct-mapped).
    pub l1: CacheGeom,
    /// L2 geometry (paper: 1 MB 4-way, 64 B lines).
    pub l2: CacheGeom,
    /// Stall for an L1 miss that hits in L2.
    pub l2_hit: u64,
    /// Stall for an L2 miss satisfied from local memory.
    pub local_mem: u64,
    /// Extra latency for one network hop (request or reply).
    pub hop: u64,
    /// Directory/home memory occupancy per transaction (contention term).
    pub dir_occupancy: u64,
    /// Cycles to invalidate one sharer on a write/upgrade.
    pub inval_per_sharer: u64,
    /// Base cost of an uncontended lock acquire (beyond queueing).
    pub lock_base: u64,
    /// Per-processor cost component of a barrier episode.
    pub barrier_per_proc: u64,
    /// Fixed barrier release latency.
    pub barrier_latency: u64,
}

impl DsmConfig {
    /// The paper's configuration.
    pub fn paper(nprocs: usize) -> Self {
        Self {
            nprocs,
            l1: CacheGeom {
                size: 16 << 10,
                line: 64,
                ways: 1,
            },
            l2: CacheGeom {
                size: 1 << 20,
                line: 64,
                ways: 4,
            },
            l2_hit: 10,
            local_mem: 60,
            hop: 50,
            dir_occupancy: 20,
            inval_per_sharer: 25,
            lock_base: 120,
            barrier_per_proc: 40,
            barrier_latency: 200,
        }
    }
}

/// The directory machine's prices: its configuration and each node's home
/// directory.
struct Directory {
    cfg: DsmConfig,
    /// Per node, the home directory/memory: serves the misses, locks and
    /// barriers homed there, one at a time.
    homes: Vec<Resource>,
}

impl Pricing for Directory {
    fn miss(&mut self, t: &mut Timing, line: u64, before: DirEnt, inval: u32, _: bool) -> Priced {
        let (c, pid) = (&self.cfg, t.pid);
        let home = t.placement.home_of(line, pid);
        let remote = home != pid;
        let mut stall = if remote { 2 * c.hop } else { 0 };
        // Home directory occupancy (queueing under contention).
        if t.timing_on {
            let (_, end) = self.homes[home].serve(*t.now + stall, c.dir_occupancy);
            stall = end - *t.now;
        } else {
            stall += c.dir_occupancy;
        }
        stall += match before.owner {
            // Dirty at a third node: forward + cache-to-cache reply.
            Some(_) => 2 * c.hop,
            // Memory access at the home.
            None => c.local_mem,
        };
        stall += u64::from(inval) * c.inval_per_sharer;
        if remote {
            t.stats.counters.remote_fetches += 1;
        }
        // The home directory stands in as the serving side.
        Priced {
            stall,
            bucket: if remote {
                Bucket::DataWait
            } else {
                Bucket::CacheStall
            },
            src: remote.then_some(home),
        }
    }
}

/// The CC-NUMA platform.
pub struct DsmPlatform {
    hw: Machine,
    dir: Directory,
}

impl DsmPlatform {
    /// Build the platform.
    ///
    /// # Panics
    /// If `cfg.nprocs` exceeds [`coherence::MAX_PROCS`].
    pub fn new(cfg: DsmConfig) -> Self {
        Self {
            hw: Machine::new(cfg.nprocs, cfg.l1, cfg.l2, cfg.l2_hit),
            dir: Directory {
                homes: (0..cfg.nprocs).map(|_| Resource::new()).collect(),
                cfg,
            },
        }
    }

    /// Boxed, type-erased platform.
    pub fn boxed(cfg: DsmConfig) -> Box<dyn Platform> {
        Box::new(Self::new(cfg))
    }

    /// The configuration in use.
    pub fn config(&self) -> &DsmConfig {
        &self.dir.cfg
    }
}

impl Platform for DsmPlatform {
    fn nprocs(&self) -> usize {
        self.dir.cfg.nprocs
    }

    fn min_cross_node_latency(&self) -> Option<u64> {
        // The cheapest cross-processor interaction crosses the network
        // once and touches the directory at the home.
        Some(self.dir.cfg.hop + self.dir.cfg.dir_occupancy)
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.hw.load(&mut self.dir, t, addr, len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.hw.store(&mut self.dir, t, addr, len, val);
    }

    #[inline]
    fn free_extent(&mut self, pid: usize, addr: Addr, _: bool, span: usize) -> Option<Extent<'_>> {
        Some(self.hw.free_extent(pid, addr, span))
    }

    fn acquire_request(&mut self, t: &mut Timing, lock: u32) -> u64 {
        let c = &self.dir.cfg;
        t.charge(Bucket::LockWait, c.lock_base / 2);
        if !t.timing_on {
            return *t.now;
        }
        let home = (lock as usize) % c.nprocs;
        let (_, end) = self.dir.homes[home].serve(*t.now + c.hop, c.dir_occupancy);
        end
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
        grant_at + self.dir.cfg.hop + self.dir.cfg.lock_base / 2
    }

    fn release(&mut self, t: &mut Timing, _lock: u32) -> u64 {
        // Hardware release: write the lock word; roughly one remote write.
        t.charge(Bucket::LockWait, self.dir.cfg.lock_base / 2);
        *t.now
    }

    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64 {
        if !t.timing_on {
            return *t.now;
        }
        // Atomic increment at the barrier's home: serialized at the home
        // directory.
        let c = &self.dir.cfg;
        let home = (barrier as usize) % c.nprocs;
        let (_, end) = self.dir.homes[home].serve(*t.now + c.hop, c.barrier_per_proc);
        end
    }

    fn barrier_release(
        &mut self,
        _barrier: u32,
        arrivals: &[u64],
        _stats: &mut [ProcStats],
        _placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64> {
        coherence::barrier_release(arrivals, timing_on, self.dir.cfg.barrier_latency)
    }

    fn reset_timing(&mut self) {
        self.dir.homes.fill_with(Resource::new);
    }

    fn set_probe(&mut self, probe: Option<sim_core::ProbeHandle>) {
        self.hw.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{run, Placement, RunConfig, HEAP_BASE};

    fn dsm_run<F: Fn(&mut sim_core::Proc) + Sync>(n: usize, f: F) -> sim_core::RunStats {
        run(
            DsmPlatform::boxed(DsmConfig::paper(n)),
            RunConfig::new(n),
            f,
        )
    }

    #[test]
    fn data_round_trips_across_processors() {
        let got = std::sync::Mutex::new(0u64);
        dsm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(4096, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 0 {
                p.store(HEAP_BASE, 8, 99);
            }
            p.barrier(1);
            if p.pid() == 1 {
                *got.lock().unwrap() = p.load(HEAP_BASE, 8);
            }
            p.barrier(2);
        });
        assert_eq!(*got.lock().unwrap(), 99);
    }

    #[test]
    fn repeated_access_hits_in_cache() {
        let stats = dsm_run(1, |p| {
            p.alloc_shared(4096, 8, Placement::Node(0));
            p.start_timing();
            for _ in 0..100 {
                p.load(HEAP_BASE, 8);
            }
        });
        // 1 miss, 99 hits: stall must be far below 100 * miss cost.
        assert!(stats.procs[0].counters.cache_misses <= 2);
    }

    #[test]
    fn remote_miss_costs_more_than_local() {
        let cfg = DsmConfig::paper(2);
        let local_total = {
            let stats = dsm_run(1, |p| {
                p.alloc_shared(4096, 8, Placement::Node(0));
                p.start_timing();
                p.load(HEAP_BASE, 8);
            });
            stats.total_cycles()
        };
        let remote_stats = dsm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(4096, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                p.load(HEAP_BASE, 8);
            }
            p.barrier(1);
        });
        let remote_dw = remote_stats.procs[1].get(Bucket::DataWait);
        assert!(
            remote_dw >= 2 * cfg.hop,
            "remote load should pay hops, got {remote_dw}"
        );
        assert!(local_total > 0);
    }

    #[test]
    fn write_invalidates_sharers() {
        // p1 caches a line; p0 writes it; p1's next read misses again.
        let stats = dsm_run(2, |p| {
            if p.pid() == 0 {
                p.alloc_shared(4096, 8, Placement::Node(0));
            }
            p.barrier(0);
            p.start_timing();
            if p.pid() == 1 {
                p.load(HEAP_BASE, 8); // p1 caches the line
            }
            p.barrier(1);
            if p.pid() == 0 {
                p.store(HEAP_BASE, 8, 5); // invalidates p1
            }
            p.barrier(2);
            if p.pid() == 1 {
                assert_eq!(p.load(HEAP_BASE, 8), 5); // must re-miss & see new value
            }
            p.barrier(3);
        });
        // p1: at least two misses on that line (initial + post-invalidate).
        assert!(stats.procs[1].counters.cache_misses >= 2);
    }

    #[test]
    fn barriers_are_cheap_compared_to_svm() {
        let stats = dsm_run(16, |p| {
            p.start_timing();
            p.barrier(1);
        });
        assert!(
            stats.total_cycles() < 3_000,
            "hardware barrier should be cheap, got {}",
            stats.total_cycles()
        );
    }

    #[test]
    fn deterministic() {
        let go = || {
            dsm_run(4, |p| {
                if p.pid() == 0 {
                    p.alloc_shared(1 << 16, 8, Placement::RoundRobin);
                }
                p.barrier(0);
                p.start_timing();
                for i in 0..64u64 {
                    p.store(HEAP_BASE + (i * 64 + p.pid() as u64 * 8) % 4096, 8, i);
                }
                p.barrier(1);
            })
        };
        assert_eq!(go().clocks, go().clocks);
    }
}
