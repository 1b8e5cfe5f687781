//! The machine both hardware-coherent platforms run on.
//!
//! The directory CC-NUMA (`cc-numa`) and the snooping bus (`smp-bus`) run
//! one invalidation-based MESI protocol and differ only in what a miss, an
//! upgrade and a dirty write-back *cost*. [`Machine`] is the protocol: each
//! processor's `(L1, L2)` pair, the data (one [`FlatMem`]: coherence
//! guarantees a single logical value), the per-line sharer/owner directory
//! (on the bus, the caches' snoop state) and the two-level walk. A platform
//! owns one beside a small [`Pricing`] type that answers, per miss, what it
//! costs, into which bucket, with which counters and whether it is a
//! `RemoteMiss` event. The walk is generic over that type, so it is
//! monomorphised per platform, and it never branches on its caller.
//!
//! The directory's transitions:
//! * a read adds the reader to the sharers, downgrades the owner's copy to
//!   Shared and clears the owner;
//! * a write miss or an upgrade invalidates every other sharer's copy (the
//!   owner's included) and leaves the writer sole sharer and owner;
//! * a dirty L2 victim clears its processor's ownership and sharer bit.
//!
//! A read fills Exclusive when no other processor shares the line. Only a
//! write miss or an upgrade makes an owner: an Exclusive copy is written
//! silently, and a later reader neither downgrades it nor fetches from it.

use crate::cache::{Cache, CacheGeom, LineState, Lookup};
use crate::mem::FlatMem;
use crate::platform::{Extent, Timing};
use crate::probe::{self, ProbeHandle, ProtoEvent};
use crate::stats::Bucket;
use crate::util::FxMap;
use crate::Addr;

/// Processors a machine can hold: the width of the sharer mask.
pub const MAX_PROCS: usize = 32;

/// One line's directory entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirEnt {
    /// Bitmask of the processors holding a valid copy.
    pub sharers: u32,
    /// The last writer, while it holds the line Modified; always among the
    /// sharers. An owner hits in its L2, so a miss is never its own.
    pub owner: Option<u8>,
}

/// A miss or an upgrade, priced.
pub struct Priced {
    /// Stall cycles beyond the L2 lookup (a miss also pays the L2 hit).
    pub stall: u64,
    /// The bucket the stall is charged to.
    pub bucket: Bucket,
    /// The serving side when a line moves: `bytes_transferred` grows by a
    /// line and the probe reports a `RemoteMiss`, traced if `src != pid`.
    pub src: Option<usize>,
}

/// A machine's prices. The walk calls `miss` after the directory transition
/// and before charging anything, and `write_back` after the miss that
/// evicted the dirty line is charged; the transition serves no `Resource`,
/// so the FCFS resources these two serve see the accesses in order.
pub trait Pricing {
    /// Price `t.pid`'s miss on `line` (an `upgrade`: its write to a Shared
    /// copy), given the entry before the transition and how many other
    /// sharers a write invalidated. Must not charge `t`.
    fn miss(
        &mut self,
        t: &mut Timing,
        line: u64,
        before: DirEnt,
        invalidated: u32,
        upgrade: bool,
    ) -> Priced;

    /// A dirty L2 victim is written back; the processor does not wait.
    fn write_back(&mut self, _t: &mut Timing) {}
}

/// Caches, data and directory of a hardware-coherent machine.
pub struct Machine {
    /// Per-processor cache hierarchies, `(L1, L2)`.
    caches: Vec<(Cache, Cache)>,
    mem: FlatMem,
    dir: FxMap<u64, DirEnt>,
    /// The coherence unit, the L2 line size.
    line: u64,
    /// Stall for an L1 miss that hits in L2.
    l2_hit: u64,
    /// The run's protocol event stream (None when undiagnosed).
    pub probe: Option<ProbeHandle>,
}

impl Machine {
    /// `nprocs` processors with an `l1`/`l2` pair each.
    ///
    /// # Panics
    /// If `nprocs` exceeds [`MAX_PROCS`].
    pub fn new(nprocs: usize, l1: CacheGeom, l2: CacheGeom, l2_hit: u64) -> Self {
        assert!(
            nprocs <= MAX_PROCS,
            "the sharer mask holds {MAX_PROCS} processors, not {nprocs}"
        );
        Self {
            caches: (0..nprocs)
                .map(|_| (Cache::new(l1), Cache::new(l2)))
                .collect(),
            mem: FlatMem::new(),
            dir: FxMap::default(),
            line: l2.line,
            l2_hit,
            probe: None,
        }
    }

    /// [`crate::Platform::load`], priced by `p`.
    pub fn load<P: Pricing>(&mut self, p: &mut P, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        self.access(p, t, addr, false);
        self.mem.load(addr, len)
    }

    /// [`crate::Platform::store`], priced by `p`.
    pub fn store<P: Pricing>(&mut self, p: &mut P, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        self.access(p, t, addr, true);
        self.mem.store(addr, len, val);
    }

    /// [`crate::Platform::free_extent`]: the protocol acts only on a miss or
    /// an upgrade, so every L1 hit in the rest of the slice is free.
    #[inline]
    pub fn free_extent(&mut self, pid: usize, addr: Addr, span: usize) -> Extent<'_> {
        Extent::flat(&mut self.caches[pid].0, &mut self.mem, addr, span)
    }

    /// The two-level walk: L1 hit, inline; the rest out of line.
    #[inline(always)]
    fn access<P: Pricing>(&mut self, p: &mut P, t: &mut Timing, addr: Addr, write: bool) {
        t.stats.counters.accesses += 1;
        t.charge(Bucket::Compute, 1);
        if self.caches[t.pid].0.access(addr, write) != Lookup::Hit {
            self.l1_miss(p, t, addr, write);
        }
    }

    /// The walk past an L1 miss: L2 hit; upgrade; miss.
    #[inline(never)]
    fn l1_miss<P: Pricing>(&mut self, p: &mut P, t: &mut Timing, addr: Addr, write: bool) {
        let pid = t.pid;
        let (l1, l2) = &mut self.caches[pid];
        t.stats.counters.cache_misses += 1;
        let upgrade = match l2.access(addr, write) {
            Lookup::Hit => {
                t.charge(Bucket::CacheStall, self.l2_hit);
                l1.fill(addr, l2.state_of(addr));
                return;
            }
            Lookup::UpgradeMiss => true,
            Lookup::Miss => false,
        };
        let line = addr & !(self.line - 1);
        let (before, invalidated) = self.transition(pid, line, write);
        let miss = p.miss(t, line, before, invalidated, upgrade);
        if let Some(src) = miss.src {
            t.stats.counters.bytes_transferred += self.line;
            let ev = ProtoEvent::RemoteMiss {
                pid,
                line,
                src,
                at: *t.now,
                stall: miss.stall,
                traced: src != pid,
            };
            probe::emit(&self.probe, t.timing_on, ev);
        }
        let (l1, l2) = &mut self.caches[pid];
        if upgrade {
            t.charge(miss.bucket, miss.stall);
            l2.set_state(addr, LineState::Modified);
            l1.fill(addr, LineState::Modified);
            return;
        }
        t.charge(miss.bucket, self.l2_hit + miss.stall);
        let state = if write {
            LineState::Modified
        } else if before.sharers & !(1 << pid) == 0 {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        if let Some((victim, dirty)) = l2.fill(addr, state) {
            if dirty {
                p.write_back(t);
                if let Some(e) = self.dir.get_mut(&victim) {
                    if e.owner == Some(pid as u8) {
                        e.owner = None;
                        e.sharers &= !(1 << pid);
                    }
                }
            }
            l1.set_state(victim, LineState::Invalid);
        }
        l1.fill(addr, state);
    }

    /// Apply `pid`'s miss or upgrade on `line` (a write if `write`) to the
    /// directory and the other caches. Returns the entry as it was and how
    /// many other sharers a write invalidated.
    fn transition(&mut self, pid: usize, line: u64, write: bool) -> (DirEnt, u32) {
        let me = 1u32 << pid;
        let ent = self.dir.entry(line).or_default();
        let before = *ent;
        let owner_ok = |o: u8| o as usize != pid && before.sharers >> o & 1 == 1;
        debug_assert!(before.owner.is_none_or(owner_ok));
        if !write {
            ent.sharers |= me;
            if let Some(o) = ent.owner.take() {
                self.set_state(o.into(), line, LineState::Shared);
            }
            return (before, 0);
        }
        *ent = DirEnt {
            sharers: me,
            owner: Some(pid as u8),
        };
        let others = before.sharers & !me;
        let mut left = others;
        while left != 0 {
            self.set_state(left.trailing_zeros() as usize, line, LineState::Invalid);
            left &= left - 1;
        }
        (before, others.count_ones())
    }

    fn set_state(&mut self, pid: usize, line: u64, state: LineState) {
        let (l1, l2) = &mut self.caches[pid];
        l1.set_state(line, state);
        l2.set_state(line, state);
    }
}

/// Resume times after a hardware barrier: `latency` after the last arrival,
/// or, untimed, each processor's own arrival.
pub fn barrier_release(arrivals: &[u64], timing_on: bool, latency: u64) -> Vec<u64> {
    if !timing_on {
        return arrivals.to_vec();
    }
    let last = arrivals.iter().copied().max().unwrap_or(0);
    vec![last + latency; arrivals.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::GlobalAlloc;
    use crate::stats::ProcStats;
    use LineState::{Exclusive, Invalid, Modified, Shared};

    /// A line, and another in the same L1 and L2 sets.
    const A: Addr = crate::HEAP_BASE;
    const B: Addr = A + 256;

    /// Pricing that records what the walk asks of it.
    #[derive(Default)]
    struct Log {
        /// `(before, invalidated, upgrade)` per miss.
        misses: Vec<(DirEnt, u32, bool)>,
        write_backs: u32,
    }

    impl Pricing for Log {
        fn miss(&mut self, _: &mut Timing, _: u64, before: DirEnt, inv: u32, up: bool) -> Priced {
            self.misses.push((before, inv, up));
            Priced {
                stall: 10,
                bucket: Bucket::DataWait,
                src: None,
            }
        }

        fn write_back(&mut self, _: &mut Timing) {
            self.write_backs += 1;
        }
    }

    /// A machine with direct-mapped 2-set L1s and 4-set L2s of 64-byte
    /// lines, and what a `Timing` points into.
    struct Rig {
        m: Machine,
        log: Log,
        now: u64,
        stats: ProcStats,
        alloc: GlobalAlloc,
    }

    fn rig(nprocs: usize) -> Rig {
        let geom = |size| CacheGeom {
            size,
            line: 64,
            ways: 1,
        };
        Rig {
            m: Machine::new(nprocs, geom(128), geom(256), 5),
            log: Log::default(),
            now: 0,
            stats: ProcStats::default(),
            alloc: GlobalAlloc::new(nprocs),
        }
    }

    impl Rig {
        fn access(&mut self, pid: usize, addr: Addr, write: bool) {
            let mut t = Timing {
                pid,
                now: &mut self.now,
                stats: &mut self.stats,
                placement: self.alloc.map(),
                timing_on: true,
            };
            self.m.access(&mut self.log, &mut t, addr, write);
        }

        /// `pid`'s L2 state of `a`'s line, which its L1 must not exceed.
        fn state(&self, pid: usize, a: Addr) -> LineState {
            let (l1, l2) = &self.m.caches[pid];
            assert!(l1.state_of(a) == Invalid || l1.state_of(a) == l2.state_of(a));
            l2.state_of(a)
        }

        fn ent(&self, a: Addr) -> DirEnt {
            self.m.dir[&a]
        }

        /// The last miss's `(before, invalidated, upgrade)`.
        fn last(&self) -> (DirEnt, u32, bool) {
            *self.log.misses.last().expect("a miss was priced")
        }
    }

    fn ent(sharers: u32, owner: Option<u8>) -> DirEnt {
        DirEnt { sharers, owner }
    }

    #[test]
    fn a_sole_reader_fills_exclusive_and_a_second_reader_shared() {
        let mut r = rig(2);
        r.access(0, A, false);
        assert_eq!((r.state(0, A), r.ent(A)), (Exclusive, ent(0b01, None)));
        r.access(1, A, false);
        assert_eq!((r.state(1, A), r.ent(A)), (Shared, ent(0b11, None)));
        // Exclusive is not ownership: the first reader keeps its copy.
        assert_eq!(r.state(0, A), Exclusive);
        // A miss pays the L2 hit time and the priced stall; a hit nothing.
        r.access(1, A, false);
        assert_eq!((r.now, r.stats.counters.cache_misses), (2 + 2 * 15 + 1, 2));
    }

    #[test]
    fn a_remote_read_downgrades_the_owner_and_a_remote_write_invalidates_it() {
        let mut r = rig(2);
        r.access(0, A, true);
        assert_eq!((r.state(0, A), r.ent(A)), (Modified, ent(0b01, Some(0))));
        r.access(1, A, false);
        assert_eq!(r.last(), (ent(0b01, Some(0)), 0, false));
        assert_eq!((r.state(0, A), r.state(1, A)), (Shared, Shared));
        assert_eq!(r.ent(A), ent(0b11, None));

        let mut r = rig(2);
        r.access(0, A, true);
        r.access(1, A, true);
        assert_eq!(r.last(), (ent(0b01, Some(0)), 1, false));
        assert_eq!((r.state(0, A), r.state(1, A)), (Invalid, Modified));
        assert_eq!(r.ent(A), ent(0b10, Some(1)));
    }

    #[test]
    fn a_write_invalidates_every_other_sharer_and_counts_them() {
        let mut r = rig(4);
        for pid in 1..4 {
            r.access(pid, A, false);
        }
        // An upgrade: p3 holds the line Shared (p1, Exclusive, would write
        // it silently).
        r.access(3, A, true);
        assert_eq!(r.last(), (ent(0b1110, None), 2, true));
        assert_eq!(r.ent(A), ent(0b1000, Some(3)));
        let states: Vec<_> = (0..4).map(|pid| r.state(pid, A)).collect();
        assert_eq!(states, [Invalid, Invalid, Invalid, Modified]);
        // A write miss: the owner is the one other sharer.
        r.access(0, A, true);
        assert_eq!(r.last(), (ent(0b1000, Some(3)), 1, false));
        assert_eq!((r.state(0, A), r.state(3, A)), (Modified, Invalid));
    }

    #[test]
    fn a_dirty_victim_clears_its_ownership() {
        let mut r = rig(2);
        r.access(0, A, true);
        r.access(0, B, false);
        assert_eq!((r.state(0, A), r.state(0, B)), (Invalid, Exclusive));
        assert_eq!((r.ent(A), r.log.write_backs), (ent(0, None), 1));
        // A clean victim is dropped silently.
        r.access(0, A, false);
        assert_eq!((r.ent(B), r.log.write_backs), (ent(0b01, None), 1));
    }

    #[test]
    #[should_panic(expected = "the sharer mask holds 32 processors, not 33")]
    fn more_processors_than_the_sharer_mask_are_rejected() {
        let _ = rig(MAX_PROCS);
        rig(MAX_PROCS + 1);
    }
}
