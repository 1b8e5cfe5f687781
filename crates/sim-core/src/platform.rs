//! The [`Platform`] trait: a pluggable memory-system + synchronization cost
//! model, and [`Timing`], the charging context handed to it on every event.
//!
//! Platform implementations (in the `svm-hlrc`, `cc-numa`, and `smp-bus`
//! crates) are *passive*: they never block. Blocking — lock queueing and
//! barrier membership — is orchestrated generically by the scheduler in
//! [`crate::sched`]; the platform only prices the protocol actions and
//! mutates its own coherence state.

use crate::alloc::PlacementMap;
use crate::stats::{Bucket, ProcStats};
use crate::Addr;

/// Charging context for one processor during one simulated event.
pub struct Timing<'a> {
    /// Processor id performing the event.
    pub pid: usize,
    /// The processor's virtual clock (advanced by [`Timing::charge`]).
    pub now: &'a mut u64,
    /// The processor's statistics.
    pub stats: &'a mut ProcStats,
    /// Data-placement map (page homes).
    pub placement: &'a mut PlacementMap,
    /// False while the application initializes: protocol *state* changes
    /// still happen (so page copies and cache contents are warmed exactly as
    /// in the paper's serial-init discussion for Raytrace), but no cycles are
    /// charged and no resources are occupied.
    pub timing_on: bool,
}

impl Timing<'_> {
    /// Charge `cycles` to `bucket` and advance the virtual clock.
    #[inline]
    pub fn charge(&mut self, bucket: Bucket, cycles: u64) {
        if self.timing_on && cycles > 0 {
            *self.now += cycles;
            self.stats.add(bucket, cycles);
        }
    }

    /// Account time without advancing the clock (e.g. overlap accounting).
    #[inline]
    pub fn account(&mut self, bucket: Bucket, cycles: u64) {
        if self.timing_on && cycles > 0 {
            self.stats.add(bucket, cycles);
        }
    }

    /// Advance the clock to `t` (if in the future), charging the wait to
    /// `bucket`.
    #[inline]
    pub fn advance_to(&mut self, bucket: Bucket, t: u64) {
        if self.timing_on && t > *self.now {
            let d = t - *self.now;
            self.stats.add(bucket, d);
            *self.now = t;
        }
    }
}

/// A memory-system and synchronization model.
///
/// All methods are called with the global scheduler lock held and are
/// non-blocking. Times are virtual cycles on the platform's own clock
/// frequency — speedups (the paper's metric) are frequency-independent.
pub trait Platform: Send {
    /// Number of processors this platform instance models.
    fn nprocs(&self) -> usize;

    /// Perform a load of `len` (1/2/4/8) bytes; returns the value
    /// (little-endian, zero-extended).
    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64;

    /// Perform a store of the low `len` bytes of `val`.
    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64);

    /// Bulk load: perform loads of `len` bytes at `addr + i*stride` for
    /// `i = 0..out.len()`, writing each value into `out[i]`, and return how
    /// many were performed.
    ///
    /// Contract (shared with [`Platform::store_bulk`]): the batch must be
    /// *observably identical* to calling [`Platform::load`] once per word in
    /// order, and must perform **at least one** word, stopping after the
    /// first word that leaves `*t.now > budget`. The scheduler computes
    /// `budget` as the virtual time up to which this processor may run
    /// without yielding; stopping there lets it interleave processors at
    /// exactly the same points as the scalar path, which is what makes bulk
    /// runs bit-identical to word-at-a-time runs.
    ///
    /// The default implementation is the scalar loop; platforms override it
    /// to walk their tag arrays and page tables once per line/page run
    /// instead of once per word.
    fn load_bulk(
        &mut self,
        t: &mut Timing,
        addr: Addr,
        stride: u64,
        len: u8,
        out: &mut [u64],
        budget: u64,
    ) -> usize {
        let mut done = 0;
        for slot in out.iter_mut() {
            *slot = self.load(t, addr + done as u64 * stride, len);
            done += 1;
            if *t.now > budget {
                break;
            }
        }
        done
    }

    /// Bulk store: the store-side twin of [`Platform::load_bulk`], storing
    /// `vals[i]` at `addr + i*stride`. Same budget contract; returns how many
    /// words were performed.
    fn store_bulk(
        &mut self,
        t: &mut Timing,
        addr: Addr,
        stride: u64,
        len: u8,
        vals: &[u64],
        budget: u64,
    ) -> usize {
        let mut done = 0;
        for &v in vals {
            self.store(t, addr + done as u64 * stride, len, v);
            done += 1;
            if *t.now > budget {
                break;
            }
        }
        done
    }

    /// Processor `t.pid` issues an acquire request for `lock`. Charges the
    /// local send overhead and returns the virtual time at which the request
    /// reaches the arbitration point (manager/owner/home).
    fn acquire_request(&mut self, t: &mut Timing, lock: u32) -> u64;

    /// `pid` is granted `lock` at `grant_at` (already the max of lock
    /// availability and request arrival). Performs grant-side protocol work
    /// (e.g. HLRC consumes write notices and invalidates pages) and returns
    /// the time at which the grantee resumes execution.
    fn acquire_grant(
        &mut self,
        pid: usize,
        lock: u32,
        grant_at: u64,
        stats: &mut ProcStats,
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> u64;

    /// Processor `t.pid` releases `lock` (performing e.g. HLRC diff flushes).
    /// Returns the time at which the lock becomes available to the next
    /// grantee.
    fn release(&mut self, t: &mut Timing, lock: u32) -> u64;

    /// Processor `t.pid` arrives at `barrier`, flushing what its protocol
    /// requires. Returns the time its arrival notification reaches the
    /// barrier manager.
    fn barrier_arrive(&mut self, t: &mut Timing, barrier: u32) -> u64;

    /// All processors have arrived (`arrivals[pid]` = arrival-at-manager
    /// time). Performs release-side protocol work for everyone and returns
    /// each processor's resume time.
    fn barrier_release(
        &mut self,
        barrier: u32,
        arrivals: &[u64],
        stats: &mut [ProcStats],
        placement: &mut PlacementMap,
        timing_on: bool,
    ) -> Vec<u64>;

    /// Reset all resource clocks and protocol counters for the start of the
    /// timed region (`start_timing`). Coherence *state* (page copies, cache
    /// contents) is preserved — warm state at timing start is part of what
    /// the paper measures.
    fn reset_timing(&mut self);

    /// Install the run's protocol event stream (see [`crate::probe`]) — the
    /// platform's one diagnostic hook. Called once, before any simulated
    /// processor starts, with `None` when the run is undiagnosed. Platforms
    /// report each protocol action — page fetch, diff, invalidation, remote
    /// miss — with one [`crate::probe::emit`]; emitting cannot charge
    /// cycles, so statistics stay bit-identical either way. Platforms with
    /// nothing to report ignore it.
    fn set_probe(&mut self, _probe: Option<crate::probe::ProbeHandle>) {}

    /// Called once after every simulated processor has finished, with the
    /// full statistics slice: the platform drains protocol counters that
    /// accrue at nodes other than the event initiator (e.g. diffs applied at
    /// a page's home) into the owning node's statistics. Deterministic and
    /// path-independent — it runs at the same point for scalar and bulk
    /// runs, so the equivalence sweeps still hold.
    fn finalize(&mut self, _stats: &mut [ProcStats]) {}

    /// The minimum virtual latency, in cycles, of any cross-processor
    /// interaction on this platform (lock grant, barrier notification,
    /// page fetch, remote miss, bus transfer — whichever is cheapest).
    ///
    /// Returning `Some` certifies that *every* way one simulated processor
    /// can affect another is a protocol action priced through this trait:
    /// the conservative lower bound the sharded engine
    /// ([`crate::RunConfig::with_shards`]) relies on when it lets
    /// application threads run ahead of the replayed virtual-time order —
    /// see [`crate::shard`] for how the bound and the event-bounded
    /// lookahead window interact. Platforms that keep hidden
    /// zero-latency side channels must return `None` (the default), which
    /// pins them to the classic sequential engine.
    fn min_cross_node_latency(&self) -> Option<u64> {
        None
    }
}

/// A trivial platform: every access costs one cycle, synchronization is
/// free and instantaneous. Useful for framework tests and as the simplest
/// possible reference implementation of the trait.
pub struct NullPlatform {
    nprocs: usize,
    mem: crate::mem::FlatMem,
    lock_avail: crate::util::FxMap<u32, u64>,
}

impl NullPlatform {
    /// A null platform for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        Self {
            nprocs,
            mem: crate::mem::FlatMem::new(),
            lock_avail: Default::default(),
        }
    }
}

impl Platform for NullPlatform {
    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn load(&mut self, t: &mut Timing, addr: Addr, len: u8) -> u64 {
        t.charge(Bucket::Compute, 1);
        t.stats.counters.accesses += 1;
        self.mem.load(addr, len)
    }

    fn store(&mut self, t: &mut Timing, addr: Addr, len: u8, val: u64) {
        t.charge(Bucket::Compute, 1);
        t.stats.counters.accesses += 1;
        self.mem.store(addr, len, val);
    }

    fn acquire_request(&mut self, t: &mut Timing, _lock: u32) -> u64 {
        *t.now
    }

    fn acquire_grant(
        &mut self,
        _pid: usize,
        _lock: u32,
        grant_at: u64,
        _stats: &mut ProcStats,
        _placement: &mut PlacementMap,
        _timing_on: bool,
    ) -> u64 {
        grant_at
    }

    fn release(&mut self, t: &mut Timing, lock: u32) -> u64 {
        self.lock_avail.insert(lock, *t.now);
        *t.now
    }

    fn barrier_arrive(&mut self, t: &mut Timing, _barrier: u32) -> u64 {
        *t.now
    }

    fn barrier_release(
        &mut self,
        _barrier: u32,
        arrivals: &[u64],
        _stats: &mut [ProcStats],
        _placement: &mut PlacementMap,
        _timing_on: bool,
    ) -> Vec<u64> {
        let t = arrivals.iter().copied().max().unwrap_or(0);
        vec![t; arrivals.len()]
    }

    fn reset_timing(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::GlobalAlloc;

    #[test]
    fn timing_charge_respects_timing_flag() {
        let mut now = 0u64;
        let mut stats = ProcStats::default();
        let mut alloc = GlobalAlloc::new(2);
        {
            let mut t = Timing {
                pid: 0,
                now: &mut now,
                stats: &mut stats,
                placement: alloc.map(),
                timing_on: false,
            };
            t.charge(Bucket::Compute, 100);
        }
        assert_eq!(now, 0);
        assert_eq!(stats.total(), 0);
        {
            let mut t = Timing {
                pid: 0,
                now: &mut now,
                stats: &mut stats,
                placement: alloc.map(),
                timing_on: true,
            };
            t.charge(Bucket::Compute, 100);
            t.advance_to(Bucket::DataWait, 150);
            t.advance_to(Bucket::DataWait, 50); // past: no-op
        }
        assert_eq!(now, 150);
        assert_eq!(stats.get(Bucket::Compute), 100);
        assert_eq!(stats.get(Bucket::DataWait), 50);
    }

    #[test]
    fn null_platform_round_trips_data() {
        let mut p = NullPlatform::new(2);
        let mut now = 0u64;
        let mut stats = ProcStats::default();
        let mut alloc = GlobalAlloc::new(2);
        let mut t = Timing {
            pid: 0,
            now: &mut now,
            stats: &mut stats,
            placement: alloc.map(),
            timing_on: true,
        };
        p.store(&mut t, crate::addr::HEAP_BASE, 8, 0xdead_beef);
        assert_eq!(p.load(&mut t, crate::addr::HEAP_BASE, 8), 0xdead_beef);
        assert_eq!(now, 2);
    }
}
