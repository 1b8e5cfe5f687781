//! Small utilities: a fast deterministic hasher for hot protocol tables, a
//! seedable xorshift RNG used by workload generators that must not depend
//! on global state, and the JSON string escaper and array writer, the list
//! joiner, the sorted insert and the capped buffer of the diagnostic layers.
//!
//! We re-implement the well-known Fx hash function (as used by rustc) rather
//! than pulling in an extra dependency; protocol page tables and directories
//! are looked up on every simulated memory access, and SipHash is measurably
//! too slow there.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt::{Display, Write as _};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// `s` as the body of a JSON string: quote, backslash and control
/// characters escaped. Every hand-rolled JSON writer (sharing, trace,
/// metrics, advisor) passes labels and names through it, since an
/// allocation label may be any `&'static str`.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Append `rows` as the array shape every diagnostic JSON document
/// prints under a top-level key, one element per line:
/// `[\n    row,\n    row\n  ]` (`[\n  ]` when empty). `row` writes one
/// element.
pub fn json_rows<T>(
    out: &mut String,
    rows: impl IntoIterator<Item = T>,
    mut row: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in rows.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        row(out, x);
    }
    out.push_str("\n  ]");
}

/// `items` joined by `sep`: the inline lists inside a row (writers,
/// pages, intervals).
pub(crate) fn joined<T: Display>(items: impl IntoIterator<Item = T>, sep: &str) -> String {
    let mut out = String::new();
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        let _ = write!(out, "{x}");
    }
    out
}

/// Insert `x` into the ascending, duplicate-free `v` unless it is already
/// there.
pub(crate) fn insert_sorted<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

/// A collection that holds at most `cap` entries and counts what it turned
/// away: the one bounded buffer behind every diagnostic layer (trace
/// events, metrics series, race reports). Entries already held stay
/// reachable; only a *new* entry past the cap is dropped.
#[derive(Debug)]
pub(crate) struct Capped<C> {
    items: C,
    cap: usize,
    dropped: u64,
}

impl<C: Default> Capped<C> {
    /// An empty collection that holds at most `cap` entries.
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            items: C::default(),
            cap,
            dropped: 0,
        }
    }

    /// The entries held.
    pub(crate) fn items(&self) -> &C {
        &self.items
    }

    /// The entries held, for in-place updates.
    pub(crate) fn items_mut(&mut self) -> &mut C {
        &mut self.items
    }

    /// Entries turned away since creation or the last [`Capped::reset`].
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empty the collection and zero the drop counter.
    pub(crate) fn reset(&mut self) {
        *self = Self::new(self.cap);
    }

    /// The entries held and the drop count.
    pub(crate) fn into_parts(self) -> (C, u64) {
        (self.items, self.dropped)
    }
}

impl<T> Capped<Vec<T>> {
    /// Append `x` and return it, or count it as dropped if the buffer is
    /// full.
    #[inline]
    pub(crate) fn push(&mut self, x: T) -> Option<&mut T> {
        if self.items.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.items.push(x);
        self.items.last_mut()
    }
}

impl<K: Hash + Eq, V, S: BuildHasher + Default> Capped<HashMap<K, V, S>> {
    /// The entry for `k`, made by `make` if absent; `None` (counted as
    /// dropped) if absent and the map is full.
    #[inline]
    pub(crate) fn entry(&mut self, k: K, make: impl FnOnce() -> V) -> Option<&mut V> {
        let full = self.items.len() >= self.cap;
        match self.items.entry(k) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(_) if full => {
                self.dropped += 1;
                None
            }
            Entry::Vacant(e) => Some(e.insert(make())),
        }
    }
}

/// Multiplicative constant from the Fx hash (Firefox/rustc).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher for integer-keyed maps.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline(always)]
    fn add(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline(always)]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline(always)]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline(always)]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline(always)]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline(always)]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// HashMap with the fast deterministic hasher.
pub type FxMap<K2, V> = HashMap<K2, V, BuildHasherDefault<FxHasher>>;
/// HashSet with the fast deterministic hasher.
pub type FxSet<K2> = HashSet<K2, BuildHasherDefault<FxHasher>>;

/// A tiny, seedable xorshift64* RNG. Used only for deterministic workload
/// generation inside the simulator where pulling `rand` into the hot path is
/// unnecessary; statistical quality is more than sufficient for workloads.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create from a nonzero seed (zero is mapped to a fixed constant).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut m: FxMap<u64, u64> = FxMap::default();
        for i in 0..1000u64 {
            m.insert(i * 7919, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 7919)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn xorshift_is_deterministic_and_covers_range() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut seen_low = false;
        let mut seen_high = false;
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            if v < 0.1 {
                seen_low = true;
            }
            if v > 0.9 {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("psi"), "psi");
        assert_eq!(json_escape("a\"b\\c\u{1}"), "a\\\"b\\\\c\\u0001");
        assert_eq!(json_escape("\n\t\u{1f}é"), "\\n\\t\\u001fé");
    }

    #[test]
    fn capped_holds_at_most_cap_and_counts_the_rest() {
        let mut v: Capped<Vec<u32>> = Capped::new(2);
        // Under the cap, then at it: stored.
        assert_eq!(v.push(1).copied(), Some(1));
        assert_eq!((v.items().len(), v.dropped()), (1, 0));
        assert_eq!(v.push(2).copied(), Some(2));
        assert_eq!((v.items().as_slice(), v.dropped()), (&[1, 2][..], 0));
        // Past the cap: counted, not stored; held entries stay writable.
        assert!(v.push(3).is_none() && v.push(4).is_none());
        v.items_mut()[0] = 9;
        assert_eq!((v.items().as_slice(), v.dropped()), (&[9, 2][..], 2));
        // Reset empties it, zeroes the counter and keeps the cap.
        v.reset();
        assert_eq!((v.items().len(), v.dropped()), (0, 0));
        assert!(v.push(5).is_some() && v.push(6).is_some() && v.push(7).is_none());
        assert_eq!(v.into_parts(), (vec![5, 6], 1));

        let mut m: Capped<FxMap<u64, u64>> = Capped::new(2);
        *m.entry(10, || 0).unwrap() += 1;
        *m.entry(20, || 0).unwrap() += 1;
        // At the cap a held key is still updated, free; a new one is
        // dropped and never made.
        *m.entry(10, || 0).unwrap() += 1;
        assert!(m.entry(30, || unreachable!()).is_none());
        assert_eq!((m.items()[&10], m.items().len(), m.dropped()), (2, 2, 1));
        m.reset();
        assert_eq!((m.items().len(), m.dropped()), (0, 0));
        assert!(m.entry(30, || 7).is_some());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = XorShift64::new(99);
        for n in 1..100u64 {
            for _ in 0..100 {
                assert!(r.below(n) < n);
            }
        }
    }
}
