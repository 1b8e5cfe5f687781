//! # cc-numa — a directory-based, cache-coherent NUMA platform model
//!
//! Models the paper's hardware DSM simulator: an aggressive CC-NUMA machine
//! in the DASH tradition — one 300 MHz processor per node, 16 KB
//! direct-mapped L1s, 1 MB 4-way L2s with 64-byte lines, and a distributed
//! full-bit-vector directory kept at each line's home node.
//!
//! The data itself lives in one [`FlatMem`] (coherence guarantees a single
//! logical value); the model tracks per-processor cache tags and directory
//! state to price hits, local misses, clean/dirty remote misses (2- and
//! 3-hop), upgrades with sharer invalidation, and home-directory occupancy
//! (the contention term). Synchronization is hardware-cheap: an uncontended
//! lock costs about a remote miss, and barriers are tens-of-cycles per
//! processor — the key contrast with SVM that drives the paper's
//! performance-portability findings.

// Indexed loops over fixed coordinate dimensions are clearer than
// iterator adaptors in this numeric code.
#![allow(clippy::needless_range_loop)]
use sim_core::cache::{Cache, CacheGeom, LineState, Lookup};
use sim_core::platform::{HitWindow, Platform, Timing};
use sim_core::stats::{Bucket, ProcStats};
use sim_core::util::FxMap;
use sim_core::{Addr, FlatMem, PlacementMap, Resource};

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

/// Directory entry for one cache line.
#[derive(Clone, Copy, Debug, Default)]
struct DirEnt {
    /// Bitmask of sharers (valid copies).
    sharers: u32,
    /// Exclusive/modified owner, if any.
    owner: Option<u8>,
}

struct Node {
    l1: Cache,
    l2: Cache,
    dir: Resource,
}

/// The CC-NUMA platform.
pub struct DsmPlatform {
    cfg: DsmConfig,
    mem: FlatMem,
    nodes: Vec<Node>,
    directory: FxMap<u64, DirEnt>,
    line_mask: u64,
    /// The run's protocol event stream (None when undiagnosed).
    probe: Option<sim_core::ProbeHandle>,
}

impl DsmPlatform {
    /// Build the platform.
    pub fn new(cfg: DsmConfig) -> Self {
        assert!(cfg.nprocs <= 32, "sharer bitmask is 32 bits");
        let nodes = (0..cfg.nprocs)
            .map(|_| Node {
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
                dir: Resource::new(),
            })
            .collect();
        let line_mask = !(cfg.l2.line - 1);
        Self {
            cfg,
            mem: FlatMem::new(),
            nodes,
            directory: FxMap::default(),
            line_mask,
            probe: None,
        }
    }

    /// Boxed, type-erased platform.
    pub fn boxed(cfg: DsmConfig) -> Box<dyn Platform> {
        Box::new(Self::new(cfg))
    }

    /// The configuration in use.
    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    #[inline]
    fn line_of(&self, addr: Addr) -> u64 {
        addr & self.line_mask
    }

    /// Full miss handling: price the transaction and update directory +
    /// remote caches. Returns stall cycles (beyond L1/L2 lookup costs).
    fn service_miss(&mut self, t: &mut Timing, line: u64, write: bool) -> u64 {
        let pid = t.pid;
        let home = t.placement.home_of(line, pid);
        let remote = home != pid;
        let mut stall = if remote { 2 * self.cfg.hop } else { 0 };
        // Home directory occupancy (queueing under contention).
        if t.timing_on {
            let arrive = *t.now + stall;
            let (_, end) = self.nodes[home].dir.serve(arrive, self.cfg.dir_occupancy);
            stall = (end - *t.now).max(stall);
        } else {
            stall += self.cfg.dir_occupancy;
        }
        let ent = *self.directory.entry(line).or_default();
        // Dirty at a third node: 3-hop transfer + writeback.
        if let Some(owner) = ent.owner {
            let owner = owner as usize;
            if owner != pid {
                stall += 2 * self.cfg.hop; // forward + cache-to-cache reply
                                           // Owner's copy downgrades (read) or invalidates (write).
                let la = line;
                if write {
                    self.nodes[owner].l1.set_state(la, LineState::Invalid);
                    self.nodes[owner].l2.set_state(la, LineState::Invalid);
                } else {
                    self.nodes[owner].l1.set_state(la, LineState::Shared);
                    self.nodes[owner].l2.set_state(la, LineState::Shared);
                }
            }
        } else if !remote {
            stall += self.cfg.local_mem;
        } else {
            stall += self.cfg.local_mem; // memory access at the remote home
        }
        // Invalidate sharers on a write.
        let mut ent = ent;
        if write {
            let mut others = 0u64;
            for q in 0..self.cfg.nprocs {
                if q != pid && (ent.sharers >> q) & 1 == 1 {
                    self.nodes[q].l1.set_state(line, LineState::Invalid);
                    self.nodes[q].l2.set_state(line, LineState::Invalid);
                    others += 1;
                }
            }
            stall += others * self.cfg.inval_per_sharer;
            ent.sharers = 1 << pid;
            ent.owner = Some(pid as u8);
        } else {
            ent.sharers |= 1 << pid;
            if ent.owner == Some(pid as u8) {
                // kept
            } else {
                ent.owner = None;
            }
        }
        self.directory.insert(line, ent);
        if remote {
            t.stats.counters.remote_fetches += 1;
            t.stats.counters.bytes_transferred += self.cfg.l2.line;
            // The caller charges `stall` from `now`; the home directory
            // stands in as the serving side.
            sim_core::probe::emit(
                &self.probe,
                t.timing_on,
                sim_core::ProtoEvent::RemoteMiss {
                    pid,
                    line,
                    src: home,
                    at: *t.now,
                    stall,
                    traced: true,
                },
            );
        }
        stall
    }

    fn access(&mut self, t: &mut Timing, addr: Addr, write: bool) {
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        let line = self.line_of(addr);
        let pid = t.pid;
        let l1 = self.nodes[pid].l1.access(addr, write);
        if l1 == Lookup::Hit {
            // L1 state must not be more permissive than L2; writes that hit
            // exclusive lines in L1 are fine.
            return;
        }
        let l2 = self.nodes[pid].l2.access(addr, write);
        match l2 {
            Lookup::Hit => {
                t.charge(Bucket::CacheStall, self.cfg.l2_hit);
                t.stats.counters.cache_misses += 1;
                let st = self.nodes[pid].l2.state_of(addr);
                self.nodes[pid].l1.fill(addr, st);
            }
            Lookup::UpgradeMiss => {
                // Present shared, needs ownership: directory upgrade.
                let stall = self.service_miss(t, line, true);
                let home = t.placement.home_of(line, pid);
                let bucket = if home == pid {
                    Bucket::CacheStall
                } else {
                    Bucket::DataWait
                };
                t.charge(bucket, stall);
                t.stats.counters.cache_misses += 1;
                self.nodes[pid].l2.set_state(addr, LineState::Modified);
                self.nodes[pid].l1.fill(addr, LineState::Modified);
            }
            Lookup::Miss { .. } => {
                let stall = self.cfg.l2_hit + self.service_miss(t, line, write);
                let home = t.placement.home_of(line, pid);
                let bucket = if home == pid {
                    Bucket::CacheStall
                } else {
                    Bucket::DataWait
                };
                t.charge(bucket, stall);
                t.stats.counters.cache_misses += 1;
                let state = if write {
                    LineState::Modified
                } else {
                    // Exclusive when no other sharer: silent upgrades later.
                    let ent = self.directory.get(&line).copied().unwrap_or_default();
                    if ent.sharers & !(1u32 << pid) == 0 {
                        LineState::Exclusive
                    } else {
                        LineState::Shared
                    }
                };
                if let Some((victim, dirty)) = self.nodes[pid].l2.fill(addr, state) {
                    // Dirty eviction writes back; directory drops the owner.
                    if dirty {
                        if let Some(ent) = self.directory.get_mut(&victim) {
                            if ent.owner == Some(pid as u8) {
                                ent.owner = None;
                                ent.sharers &= !(1u32 << pid);
                            }
                        }
                    }
                    self.nodes[pid].l1.set_state(victim, LineState::Invalid);
                }
                self.nodes[pid].l1.fill(addr, state);
            }
        }
    }
}

impl Platform for DsmPlatform {
    fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    fn min_cross_node_latency(&self) -> Option<u64> {
        // The cheapest cross-processor interaction crosses the network
        // once and touches the directory at the home.
        Some(self.cfg.hop + self.cfg.dir_occupancy)
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.access(t, addr, false);
        self.mem.load(addr, len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.access(t, addr, true);
        self.mem.store(addr, len, val);
    }

    // A word whose L1 line is present with sufficient permission (a Shared
    // write needs a directory upgrade) touches nothing but the L1's LRU
    // state: no directory, no remote cache.
    #[inline]
    fn hit_window(&mut self, pid: usize, addr: Addr, write: bool) -> Option<HitWindow<'_>> {
        HitWindow::flat(&mut self.nodes[pid].l1, &mut self.mem, addr, write)
    }

    fn acquire_request(&mut self, t: &mut Timing, lock: u32) -> u64 {
        t.charge(Bucket::LockWait, self.cfg.lock_base / 2);
        if !t.timing_on {
            return *t.now;
        }
        let home = (lock as usize) % self.cfg.nprocs;
        let arrive = *t.now + self.cfg.hop;
        let (_, end) = self.nodes[home].dir.serve(arrive, self.cfg.dir_occupancy);
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
        grant_at + self.cfg.hop + self.cfg.lock_base / 2
    }

    fn release(&mut self, t: &mut Timing, _lock: u32) -> u64 {
        // Hardware release: write the lock word; roughly one remote write.
        t.charge(Bucket::LockWait, self.cfg.lock_base / 2);
        *t.now
    }

    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64 {
        if !t.timing_on {
            return *t.now;
        }
        // Atomic increment at the barrier's home: serialized at the home
        // directory.
        let home = (barrier as usize) % self.cfg.nprocs;
        let arrive = *t.now + self.cfg.hop;
        let (_, end) = self.nodes[home]
            .dir
            .serve(arrive, self.cfg.barrier_per_proc);
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
        let last = arrivals.iter().copied().max().unwrap_or(0);
        if !timing_on {
            return arrivals.to_vec();
        }
        vec![last + self.cfg.barrier_latency; arrivals.len()]
    }

    fn reset_timing(&mut self) {
        for n in &mut self.nodes {
            n.dir.reset();
        }
    }

    fn set_probe(&mut self, probe: Option<sim_core::ProbeHandle>) {
        self.probe = probe;
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
