#![allow(clippy::needless_range_loop)]
//! Randomized tests of the simulation substrate: the allocator never hands
//! out overlapping or misaligned memory, the cache model agrees with a
//! naive reference implementation, and FlatMem behaves like a byte array.
//!
//! These were originally `proptest` properties; they now run as seeded
//! [`XorShift64`] sweeps so the workspace builds with no external crates
//! (tier-1 verify runs with no crates.io access). Each test fixes its seeds,
//! so failures reproduce exactly.

use sim_core::cache::{Cache, CacheGeom, LineState, Lookup};
use sim_core::util::XorShift64;
use sim_core::{FlatMem, GlobalAlloc, Placement, HEAP_BASE};
use std::collections::HashMap;

const CASES: u64 = 64;

fn random_placement(rng: &mut XorShift64) -> Placement {
    match rng.below(4) {
        0 => Placement::Node(rng.below(8) as usize),
        1 => Placement::RoundRobin,
        2 => Placement::Blocked {
            chunk_pages: 1 + rng.below(15),
        },
        _ => Placement::FirstTouch,
    }
}

#[test]
fn allocations_never_overlap() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0xA110C ^ (case << 8));
        let mut a = GlobalAlloc::new(8);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for _ in 0..(1 + rng.below(39)) {
            let bytes = 1 + rng.below(9_999);
            let align = 1u64 << rng.below(12);
            let policy = random_placement(&mut rng);
            let addr = a.alloc(bytes, align, policy, 0);
            assert_eq!(addr % align, 0, "misaligned (case {case})");
            assert!(addr >= HEAP_BASE);
            for &(s, e) in &regions {
                assert!(addr >= e || addr + bytes <= s, "overlap (case {case})");
            }
            regions.push((addr, addr + bytes));
        }
    }
}

#[test]
fn homes_are_always_in_range() {
    let nprocs = 8;
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x40E5 ^ (case << 8));
        let mut a = GlobalAlloc::new(nprocs);
        let mut bases = Vec::new();
        for _ in 0..(1 + rng.below(19)) {
            let bytes = 1 + rng.below(49_999);
            let policy = random_placement(&mut rng);
            bases.push((a.alloc(bytes, 8, policy, 0), bytes));
        }
        for _ in 0..(1 + rng.below(49)) {
            let (base, bytes) = bases[rng.below(bases.len() as u64) as usize];
            let off = rng.below(50_000);
            let addr = base + off % bytes;
            let home = a.map().home_of(addr, (off % nprocs as u64) as usize);
            assert!(home < nprocs);
            // Homes are stable.
            let again = a.map().home_of(addr, 0);
            assert_eq!(home, again);
        }
    }
}

#[test]
fn flat_mem_behaves_like_bytes() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0xF1A7 ^ (case << 8));
        let mut m = FlatMem::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for _ in 0..(1 + rng.below(199)) {
            let addr = HEAP_BASE + rng.below(10_000);
            let len = [1u8, 2, 4, 8][rng.below(4) as usize];
            let val = rng.next_u64();
            m.store(addr, len, val);
            for (k, b) in val.to_le_bytes().iter().enumerate().take(len as usize) {
                model.insert(addr + k as u64, *b);
            }
            // Read back through the model.
            let got = m.load(addr, len);
            let mut want = [0u8; 8];
            for k in 0..len as usize {
                want[k] = *model.get(&(addr + k as u64)).unwrap_or(&0);
            }
            assert_eq!(got, u64::from_le_bytes(want), "case {case}");
        }
    }
}

#[test]
fn cache_agrees_with_reference_lru() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0xCAC4E ^ (case << 8));
        // 4-set, 2-way, 32B lines.
        let geom = CacheGeom {
            size: 256,
            line: 32,
            ways: 2,
        };
        let mut cache = Cache::new(geom);
        // Reference: per set, an LRU list of tags.
        let mut sets: HashMap<u64, Vec<u64>> = HashMap::new();
        for _ in 0..(1 + rng.below(399)) {
            let addr = rng.below(4096);
            let write = rng.below(2) == 1;
            let line = addr / 32;
            let set = line % 4;
            let lru = sets.entry(set).or_default();
            let hit_ref = lru.contains(&line);
            let lookup = cache.access(addr, write);
            let hit_got = !matches!(lookup, Lookup::Miss);
            assert_eq!(hit_got, hit_ref, "hit/miss divergence at {addr:#x}");
            if hit_ref {
                lru.retain(|&t| t != line);
                lru.push(line);
            } else {
                cache.fill(addr, LineState::Exclusive);
                if lru.len() == 2 {
                    lru.remove(0);
                }
                lru.push(line);
            }
        }
    }
}
