//! Tag-only set-associative cache models.
//!
//! The caches never hold data — the simulator's backing memory is
//! authoritative — but they model geometry (capacity, associativity, line
//! size) and LRU replacement faithfully. This matters: the paper's
//! superlinear speedups for LU and Ocean come from *conflict misses* in the
//! 2-d array layouts that disappear with 4-d blocked layouts, an effect that
//! only a real tag array with real associativity reproduces.
//!
//! Lines carry a [`LineState`] so the hardware-coherent machine
//! ([`crate::coherence`]) can model MESI-style upgrades and invalidations
//! with the same structure.

use crate::addr::Addr;

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheGeom {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size / (self.line * self.ways as u64)
    }
}

/// Coherence state of a cached line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum LineState {
    /// Not present.
    Invalid = 0,
    /// Present, read-only, possibly shared by other caches.
    Shared = 1,
    /// Present, writable, clean (this cache is the only holder).
    Exclusive = 2,
    /// Present, writable, dirty.
    Modified = 3,
}

/// Result of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Line present with sufficient permission.
    Hit,
    /// Line present but read-only and the access was a write.
    UpgradeMiss,
    /// Line absent: [`Cache::fill`] installs it and reports the line it
    /// evicts.
    Miss,
}

#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    state: LineState,
    lru: u32,
}

const INVALID_TAG: u64 = u64::MAX;

/// A set-associative, tag-only cache with true LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeom,
    line_shift: u32,
    set_mask: u64,
    ways: Vec<Way>,
    tick: u32,
    /// Total hits (for hit-rate reporting).
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
}

impl Cache {
    /// Build a cache with the given geometry.
    pub fn new(geom: CacheGeom) -> Self {
        assert!(
            geom.line.is_power_of_two(),
            "line size must be power of two"
        );
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "set count must be power of two");
        assert!(sets >= 1 && geom.ways >= 1);
        Self {
            geom,
            line_shift: geom.line.trailing_zeros(),
            set_mask: sets - 1,
            ways: vec![
                Way {
                    tag: INVALID_TAG,
                    state: LineState::Invalid,
                    lru: 0
                };
                (sets * geom.ways as u64) as usize
            ],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry of this cache.
    pub fn geom(&self) -> CacheGeom {
        self.geom
    }

    /// Base address of the line containing `a`.
    #[inline(always)]
    pub fn line_base(&self, a: Addr) -> Addr {
        a & !(self.geom.line - 1)
    }

    #[inline(always)]
    fn set_of(&self, a: Addr) -> usize {
        (((a >> self.line_shift) & self.set_mask) * self.geom.ways as u64) as usize
    }

    #[inline(always)]
    fn tag_of(&self, a: Addr) -> u64 {
        a >> self.line_shift
    }

    /// Access the line containing `a`. On a hit the LRU stamp is refreshed
    /// and (for writes to writable lines) the state is promoted to Modified.
    /// A miss installs nothing — call [`Cache::fill`] to install the line, so
    /// the caller can charge costs first.
    #[inline]
    pub fn access(&mut self, a: Addr, write: bool) -> Lookup {
        self.tick = self.tick.wrapping_add(1);
        let set = self.set_of(a);
        let tag = self.tag_of(a);
        let ways = self.geom.ways as usize;
        for w in &mut self.ways[set..set + ways] {
            if w.tag == tag && w.state != LineState::Invalid {
                w.lru = self.tick;
                if write {
                    match w.state {
                        LineState::Shared => {
                            self.hits += 1; // present, but needs ownership
                            return Lookup::UpgradeMiss;
                        }
                        LineState::Exclusive | LineState::Modified => {
                            w.state = LineState::Modified;
                        }
                        LineState::Invalid => unreachable!(),
                    }
                }
                self.hits += 1;
                return Lookup::Hit;
            }
        }
        self.misses += 1;
        Lookup::Miss
    }

    /// The way [`Cache::access`] would report a plain [`Lookup::Hit`] on:
    /// `Some` iff the line containing `a` is present and, for a write, owned
    /// (a write to a Shared line is an upgrade miss). The index stays valid
    /// for [`Cache::hit_run_at`] until the next `fill`, `set_state` or
    /// `clear`.
    #[inline]
    pub fn hit_way(&self, a: Addr, write: bool) -> Option<usize> {
        let set = self.set_of(a);
        let tag = self.tag_of(a);
        let ways = &self.ways[set..set + self.geom.ways as usize];
        let i = ways
            .iter()
            .position(|w| w.tag == tag && w.state != LineState::Invalid)?;
        (!(write && ways[i].state == LineState::Shared)).then_some(set + i)
    }

    /// Batch equivalent of `k` consecutive [`Cache::access`] hits on `way`,
    /// which [`Cache::hit_way`] returned for the same `write`. Semantically
    /// identical to calling `access` `k` times: the tick advances by `k`,
    /// the LRU stamp lands on the final tick, `hits` grows by `k`, and
    /// writes leave the line Modified.
    #[inline]
    pub fn hit_run_at(&mut self, way: usize, write: bool, k: u64) {
        debug_assert!(k > 0);
        self.tick = self.tick.wrapping_add(k as u32);
        let w = &mut self.ways[way];
        debug_assert!(
            w.state != LineState::Invalid && !(write && w.state == LineState::Shared),
            "hit_run_at needs a way hit_way returned"
        );
        w.lru = self.tick;
        if write {
            w.state = LineState::Modified;
        }
        self.hits += k;
    }

    /// [`Cache::hit_run_at`] on the way [`Cache::hit_way`] finds for `a`,
    /// which the caller has already proven to hit.
    #[inline]
    pub fn hit_run(&mut self, a: Addr, write: bool, k: u64) {
        match self.hit_way(a, write) {
            Some(way) => self.hit_run_at(way, write, k),
            None => debug_assert!(false, "hit_run on a line that would not hit"),
        }
    }

    /// Install the line containing `a` with `state`, evicting the LRU (or an
    /// invalid) way. Returns the victim `(line_base, was_dirty)` if a valid
    /// line was displaced.
    pub fn fill(&mut self, a: Addr, state: LineState) -> Option<(Addr, bool)> {
        self.tick = self.tick.wrapping_add(1);
        let set = self.set_of(a);
        let tag = self.tag_of(a);
        let ways = self.geom.ways as usize;
        let mut victim_idx = 0usize;
        let mut victim_age = 0u32;
        let mut found_invalid = false;
        for (i, w) in self.ways[set..set + ways].iter().enumerate() {
            if w.state == LineState::Invalid {
                victim_idx = i;
                found_invalid = true;
                break;
            }
            let age = self.tick.wrapping_sub(w.lru);
            if i == 0 || age > victim_age {
                victim_idx = i;
                victim_age = age;
            }
        }
        let w = &mut self.ways[set + victim_idx];
        let evicted = if found_invalid || w.state == LineState::Invalid {
            None
        } else {
            Some((w.tag << self.line_shift, w.state == LineState::Modified))
        };
        *w = Way {
            tag,
            state,
            lru: self.tick,
        };
        evicted
    }

    /// Current state of the line containing `a`.
    #[inline]
    pub fn state_of(&self, a: Addr) -> LineState {
        let set = self.set_of(a);
        let tag = self.tag_of(a);
        for w in &self.ways[set..set + self.geom.ways as usize] {
            if w.tag == tag && w.state != LineState::Invalid {
                return w.state;
            }
        }
        LineState::Invalid
    }

    /// Change the state of the line containing `a` if present. Setting
    /// `Invalid` removes it. Returns whether the line was present.
    pub fn set_state(&mut self, a: Addr, state: LineState) -> bool {
        let set = self.set_of(a);
        let tag = self.tag_of(a);
        for w in &mut self.ways[set..set + self.geom.ways as usize] {
            if w.tag == tag && w.state != LineState::Invalid {
                w.state = state;
                if state == LineState::Invalid {
                    w.tag = INVALID_TAG;
                }
                return true;
            }
        }
        false
    }

    /// Invalidate every cached line that overlaps `[base, base+len)` — used
    /// when an SVM page's contents change under a node, since they
    /// supersede anything cached from the stale copy. An empty range
    /// (`len == 0`) invalidates nothing. Visits only the sets the range's
    /// lines map to (every set once, if the range spans the cache), and
    /// in each invalidates the valid ways whose tag lies in the range: one
    /// sweep of the set window instead of a tag search per line.
    pub fn invalidate_range(&mut self, base: Addr, len: u64) {
        if len == 0 {
            return;
        }
        let (first, last) = (self.tag_of(base), self.tag_of(base + len - 1));
        let sets = (last - first).min(self.set_mask) + 1;
        let ways = self.geom.ways as usize;
        for k in 0..sets {
            let set = (((first + k) & self.set_mask) * ways as u64) as usize;
            for w in &mut self.ways[set..set + ways] {
                if w.state != LineState::Invalid && (first..=last).contains(&w.tag) {
                    w.state = LineState::Invalid;
                    w.tag = INVALID_TAG;
                }
            }
        }
    }

    /// Reference [`Cache::invalidate_range`]: one [`Cache::set_state`] per
    /// line of the range. Kept as the oracle the randomized unit test
    /// compares the set sweep against.
    #[cfg(test)]
    fn invalidate_range_per_line(&mut self, base: Addr, len: u64) {
        let mut a = self.line_base(base);
        while a < base + len {
            self.set_state(a, LineState::Invalid);
            a += self.geom.line;
        }
    }

    /// Drop all lines (used by `start_timing` on request, or tests).
    pub fn clear(&mut self) {
        for w in &mut self.ways {
            w.tag = INVALID_TAG;
            w.state = LineState::Invalid;
        }
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32B lines = 256B.
        Cache::new(CacheGeom {
            size: 256,
            line: 32,
            ways: 2,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(matches!(c.access(0x100, false), Lookup::Miss));
        c.fill(0x100, LineState::Shared);
        assert_eq!(c.access(0x100, false), Lookup::Hit);
        assert_eq!(c.access(0x11f, false), Lookup::Hit); // same line
        assert!(matches!(c.access(0x120, false), Lookup::Miss)); // next line
    }

    #[test]
    fn write_to_shared_is_upgrade_miss() {
        let mut c = small();
        c.fill(0x40, LineState::Shared);
        assert!(c.hit_way(0x40, false).is_some() && c.hit_way(0x40, true).is_none());
        assert_eq!(c.access(0x40, true), Lookup::UpgradeMiss);
        c.set_state(0x40, LineState::Modified);
        assert!(c.hit_way(0x40, true).is_some() && c.hit_way(0x60, false).is_none());
        assert_eq!(c.access(0x40, true), Lookup::Hit);
        assert_eq!(c.state_of(0x40), LineState::Modified);
    }

    #[test]
    fn write_promotes_exclusive_to_modified() {
        let mut c = small();
        c.fill(0x40, LineState::Exclusive);
        assert_eq!(c.access(0x40, true), Lookup::Hit);
        assert_eq!(c.state_of(0x40), LineState::Modified);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = small();
        // Set index = (addr>>5) & 3. Addresses 0x000, 0x080, 0x100 share set 0.
        c.fill(0x000, LineState::Shared);
        c.fill(0x080, LineState::Shared);
        // Touch 0x000 so 0x080 becomes LRU.
        assert_eq!(c.access(0x000, false), Lookup::Hit);
        let evicted = c.fill(0x100, LineState::Shared);
        assert_eq!(evicted, Some((0x080, false)));
        assert_eq!(c.access(0x000, false), Lookup::Hit);
        assert!(matches!(c.access(0x080, false), Lookup::Miss));
    }

    #[test]
    fn dirty_eviction_reports_dirty() {
        let mut c = small();
        c.fill(0x000, LineState::Modified);
        c.fill(0x080, LineState::Shared);
        let evicted = c.fill(0x100, LineState::Shared);
        assert_eq!(evicted, Some((0x000, true)));
    }

    #[test]
    fn invalidate_range_covers_page() {
        let mut c = small();
        c.fill(0x000, LineState::Shared);
        c.fill(0x020, LineState::Shared);
        c.fill(0x040, LineState::Modified);
        c.invalidate_range(0x000, 0x60);
        assert_eq!(c.state_of(0x000), LineState::Invalid);
        assert_eq!(c.state_of(0x020), LineState::Invalid);
        assert_eq!(c.state_of(0x040), LineState::Invalid);
    }

    #[test]
    fn invalidate_range_sweep_matches_the_per_line_oracle() {
        // The LRC caches (a 1-way 8 KiB L1, a 2-way 512 KiB L2, 32-byte
        // lines) under page-sized ranges of 1, 4 and 16 KiB — the last
        // wider than the L1's 8 KiB set span, so the sweep wraps the whole
        // array — plus unaligned bases and short ranges.
        let geoms = [
            CacheGeom {
                size: 8 << 10,
                line: 32,
                ways: 1,
            },
            CacheGeom {
                size: 512 << 10,
                line: 32,
                ways: 2,
            },
        ];
        let mut rng = crate::util::XorShift64::new(0x1A7E);
        for geom in geoms {
            for case in 0..200 {
                let mut a = Cache::new(geom);
                // Lines of a 64 KiB window, each filled only if absent (a
                // line lives in at most one way, as every caller keeps it).
                for _ in 0..rng.below(4096) {
                    let addr = 0x10_0000 + rng.below(64 << 10);
                    if a.state_of(addr) == LineState::Invalid {
                        a.fill(addr, [LineState::Shared, LineState::Modified][case % 2]);
                    }
                }
                let page = [1u64 << 10, 4 << 10, 16 << 10][rng.below(3) as usize];
                let base = 0x10_0000 + rng.below(48 << 10) / page * page;
                let (base, len) = match rng.below(4) {
                    0 => (base, page),
                    1 => (base + rng.below(page), page),
                    2 => (base + rng.below(page), 1 + rng.below(100)),
                    _ => (base + rng.below(page), 1 + rng.below(3 * page)),
                };
                let mut b = a.clone();
                a.invalidate_range(base, len);
                b.invalidate_range_per_line(base, len);
                let what = format!("{geom:?} case {case}: base {base:#x} len {len}");
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
                let (lo, hi) = (a.line_base(base), base + len);
                assert!(
                    (lo..hi)
                        .step_by(32)
                        .all(|l| a.state_of(l) == LineState::Invalid),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn an_empty_range_invalidates_nothing() {
        // The per-line loop dropped the line holding an unaligned base even
        // when `len == 0`; an empty range now leaves every line alone.
        let mut c = small();
        c.fill(0x40, LineState::Modified);
        c.invalidate_range(0x44, 0);
        c.invalidate_range(0x40, 0);
        assert_eq!(c.state_of(0x40), LineState::Modified);
        c.invalidate_range(0x5f, 1);
        assert_eq!(c.state_of(0x40), LineState::Invalid);
    }

    #[test]
    fn hit_run_matches_repeated_access() {
        let mut a = small();
        let mut b = small();
        for c in [&mut a, &mut b] {
            c.fill(0x000, LineState::Exclusive);
            c.fill(0x080, LineState::Shared);
        }
        // k scalar accesses on `a`, one batched hit_run on `b`.
        for _ in 0..5 {
            assert_eq!(a.access(0x000, true), Lookup::Hit);
        }
        b.hit_run(0x000, true, 5);
        for _ in 0..3 {
            assert_eq!(a.access(0x080, false), Lookup::Hit);
        }
        b.hit_run(0x080, false, 3);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.state_of(0x000), b.state_of(0x000));
        // LRU stamps agree: the same subsequent fill evicts the same victim.
        assert_eq!(
            a.fill(0x100, LineState::Shared),
            b.fill(0x100, LineState::Shared)
        );
    }

    #[test]
    fn hit_way_and_hit_run_at_agree_with_access() {
        // `a` takes every access; `b` probes once and batches hits. Twelve
        // lines over four 2-way sets keep fills evicting.
        let (mut a, mut b) = (small(), small());
        let mut rng = crate::util::XorShift64::new(29);
        let states = [
            LineState::Invalid,
            LineState::Shared,
            LineState::Exclusive,
            LineState::Modified,
        ];
        for step in 0..4000 {
            let addr = rng.below(12) * 32 + rng.below(32);
            let state = states[rng.below(4) as usize];
            match rng.below(5) {
                0 if state != LineState::Invalid => {
                    assert_eq!(a.fill(addr, state), b.fill(addr, state), "step {step}");
                }
                1 => assert_eq!(a.set_state(addr, state), b.set_state(addr, state)),
                _ => {
                    let (write, k) = (rng.below(2) == 1, 1 + rng.below(4));
                    let way = b.hit_way(addr, write);
                    if write && b.state_of(addr) == LineState::Shared {
                        assert_eq!(way, None, "step {step}: write to a Shared line");
                    }
                    let first = a.access(addr, write);
                    assert_eq!(way.is_some(), first == Lookup::Hit, "step {step}");
                    match way {
                        Some(way) => {
                            for _ in 1..k {
                                assert_eq!(a.access(addr, write), Lookup::Hit);
                            }
                            b.hit_run_at(way, write, k);
                        }
                        None => assert_eq!(b.access(addr, write), first),
                    }
                }
            }
            assert_eq!((a.hits, a.misses), (b.hits, b.misses), "step {step}");
            assert_eq!(a.state_of(addr), b.state_of(addr), "step {step}");
        }
        // LRU stamps agree in every set: the next fill evicts alike.
        for set in 0..4 {
            let addr = 0x1000 + set * 32;
            assert_eq!(
                a.fill(addr, LineState::Shared),
                b.fill(addr, LineState::Shared)
            );
        }
    }

    #[test]
    fn conflict_misses_depend_on_associativity() {
        // Direct-mapped: two addresses mapping to the same set thrash.
        let mut dm = Cache::new(CacheGeom {
            size: 256,
            line: 32,
            ways: 1,
        });
        // 8 sets; 0x000 and 0x100 share set 0.
        dm.fill(0x000, LineState::Shared);
        dm.fill(0x100, LineState::Shared);
        assert!(matches!(dm.access(0x000, false), Lookup::Miss));

        // 2-way: both fit.
        let mut sa = small(); // 4 sets x 2 ways; 0x000 & 0x100 both set 0? (0x100>>5)&3 = 0 yes
        sa.fill(0x000, LineState::Shared);
        sa.fill(0x100, LineState::Shared);
        assert_eq!(sa.access(0x000, false), Lookup::Hit);
        assert_eq!(sa.access(0x100, false), Lookup::Hit);
    }
}
