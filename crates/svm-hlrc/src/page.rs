//! Per-node page tables, page frames, twins and word-granularity diffs —
//! the data plane of the LRC platform, under either policy.
//!
//! A page's bytes are shared, not copied, wherever they are the same: a
//! fetched copy, a twin and a TreadMarks page's head are one immutable,
//! reference-counted *version* ([`Frame::share`]), and a buffer is copied
//! only when someone writes it ([`Frame::own_mut`]). Three invariants keep
//! that sound: a `ReadWrite` page's frame is [`Frame::Own`]; every
//! mutation of a frame goes through [`Frame::own_mut`]; a shared version
//! is never written.

use std::ops::Deref;
use std::sync::Arc;

use sim_core::HEAP_BASE;

/// Access state of a page at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PState {
    /// Mapped read-only: reads are local, first write twins the page.
    ReadOnly,
    /// Mapped read-write: a twin exists (except at the home node) and the
    /// page is in the node's current write set.
    ReadWrite,
}

/// A page's bytes at one holder: a buffer it writes in place, or a shared
/// version it has not written.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Written in place. The `Option` is the version this buffer last
    /// shared ([`Frame::share`]), remembered until its next write so that
    /// sharing the same bytes again is free.
    Own(Box<[u8]>, Option<Arc<[u8]>>),
    /// A shared version, never written: the first write copies it.
    Shared(Arc<[u8]>),
}

impl Frame {
    /// A zeroed buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self::Own(vec![0u8; len].into_boxed_slice(), None)
    }

    /// The frame's bytes as a shared version: free when it holds a current
    /// one, one copy otherwise (then remembered).
    pub fn share(&mut self) -> Arc<[u8]> {
        match self {
            Self::Shared(v) | Self::Own(_, Some(v)) => Arc::clone(v),
            Self::Own(b, v @ None) => Arc::clone(v.insert(Arc::from(&b[..]))),
        }
    }

    /// The frame's bytes for writing: a shared frame is copied into a
    /// buffer of its own first, and an own buffer forgets the version it
    /// shared (whose holders keep the bytes as they were).
    #[inline]
    pub fn own_mut(&mut self) -> &mut [u8] {
        if let Self::Shared(_) = self {
            self.unshare();
        }
        match self {
            Self::Own(b, v) => {
                *v = None;
                b
            }
            Self::Shared(_) => unreachable!("unshared above"),
        }
    }

    /// Replace a shared frame by a copy of its version: once per write
    /// fault, off the store path.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self) {
        if let Self::Shared(v) = self {
            *self = Self::Own(Box::from(&v[..]), None);
        }
    }
}

impl Deref for Frame {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            Self::Own(b, _) => b,
            Self::Shared(v) => v,
        }
    }
}

/// A page's local copy at one node.
#[derive(Clone, Debug)]
pub struct PageEntry {
    /// Current access state.
    pub state: PState,
    /// The node's working copy of the page ([`Frame::Own`] while
    /// `ReadWrite`).
    pub frame: Frame,
    /// The version captured at the first write of the interval (absent at
    /// the home node, which applies writes in place).
    pub twin: Option<Arc<[u8]>>,
}

impl PageEntry {
    /// A read-only page over `frame`, taking it as it is.
    pub fn read_only(frame: Frame) -> Self {
        Self {
            state: PState::ReadOnly,
            frame,
            twin: None,
        }
    }

    /// A fresh zeroed read-only page.
    pub fn zeroed(page_size: u64) -> Self {
        Self::read_only(Frame::zeroed(page_size as usize))
    }
}

/// One node's page table. The heap is a bump allocator from [`HEAP_BASE`],
/// so page numbers are dense from its first page: the table is an array
/// indexed from there, grown on insert, and a mapped access is one index.
/// A page below the heap reads as unmapped; mapping one panics.
#[derive(Clone, Debug)]
pub struct PageTable {
    /// The page number of slot 0: `HEAP_BASE >> page_shift`.
    first: u64,
    slots: Vec<Option<PageEntry>>,
}

impl PageTable {
    /// An empty table of `1 << page_shift`-byte pages.
    pub fn new(page_shift: u32) -> Self {
        Self {
            first: HEAP_BASE >> page_shift,
            slots: Vec::new(),
        }
    }

    /// The entry of `page`, if mapped.
    #[inline]
    pub fn get(&self, page: u64) -> Option<&PageEntry> {
        let i = page.wrapping_sub(self.first) as usize;
        self.slots.get(i)?.as_ref()
    }

    /// The entry of `page`, if mapped, for update.
    #[inline]
    pub fn get_mut(&mut self, page: u64) -> Option<&mut PageEntry> {
        let i = page.wrapping_sub(self.first) as usize;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Whether `page` is mapped.
    #[inline]
    pub fn contains(&self, page: u64) -> bool {
        self.get(page).is_some()
    }

    /// Map `page` to `entry`, replacing any entry it had.
    pub fn insert(&mut self, page: u64, entry: PageEntry) {
        *self.slot(page) = Some(entry);
    }

    /// The entry of `page`, mapped to `f()` first if absent.
    pub fn get_or_insert_with(
        &mut self,
        page: u64,
        f: impl FnOnce() -> PageEntry,
    ) -> &mut PageEntry {
        self.slot(page).get_or_insert_with(f)
    }

    /// Unmap `page`, returning its entry.
    pub fn remove(&mut self, page: u64) -> Option<PageEntry> {
        let i = page.wrapping_sub(self.first) as usize;
        self.slots.get_mut(i)?.take()
    }

    /// `page`'s slot, the table grown to hold it.
    fn slot(&mut self, page: u64) -> &mut Option<PageEntry> {
        assert!(
            page >= self.first,
            "page {page:#x} lies below the heap's first page {:#x}",
            self.first
        );
        let i = (page - self.first) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }
}

/// A word-granularity diff, run-length encoded as real SVM systems encode
/// them on the wire: a `(first_word, word_count)` header per maximal
/// contiguous run of differing 4-byte words, plus the runs' dirty bytes
/// concatenated run-major. Four-byte granularity matches TreadMarks-style
/// SVM systems and is essential for correctness under word-level false
/// sharing (e.g. two processors writing adjacent `u32` sort keys within the
/// same 8-byte span).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diff {
    /// `(first word index, words in run)` per contiguous run, ascending.
    runs: Vec<(u32, u32)>,
    /// The runs' dirty bytes, concatenated in run order (4 bytes per word).
    data: Vec<u8>,
}

impl Diff {
    /// Compute the diff of `dirty` against `twin` (equal-length page
    /// buffers). Most of a dirty page is clean, so the two are compared a
    /// chunk at a time — fixed-length slice equality, which compiles to
    /// vector compares — and words are looked at only inside an unequal
    /// chunk and in a tail shorter than a chunk.
    pub fn create(twin: &[u8], dirty: &[u8]) -> Self {
        debug_assert_eq!(twin.len(), dirty.len());
        debug_assert_eq!(twin.len() % 4, 0);
        const CHUNK: usize = 32;
        let mut diff = Self::default();
        let chunks = twin.chunks_exact(CHUNK).zip(dirty.chunks_exact(CHUNK));
        for (k, (t, d)) in chunks.enumerate() {
            if t != d {
                diff.push_words(k * CHUNK, t, d);
            }
        }
        let tail = twin.len() - twin.len() % CHUNK;
        diff.push_words(tail, &twin[tail..], &dirty[tail..]);
        diff
    }

    /// Append the 4-byte words in which `dirty` differs from `twin` — the
    /// pages' bytes from offset `at` on — extending the last run when the
    /// word continues it (runs cross chunk boundaries).
    fn push_words(&mut self, at: usize, twin: &[u8], dirty: &[u8]) {
        for i in (0..dirty.len()).step_by(4) {
            if twin[i..i + 4] != dirty[i..i + 4] {
                let w = ((at + i) / 4) as u32;
                match self.runs.last_mut() {
                    Some((start, len)) if *start + *len == w => *len += 1,
                    _ => self.runs.push((w, 1)),
                }
                self.data.extend_from_slice(&dirty[i..i + 4]);
            }
        }
    }

    /// Reference create: every word compared on its own. Kept as the oracle
    /// the randomized unit tests compare [`Diff::create`] against.
    #[cfg(test)]
    fn create_word_at_a_time(twin: &[u8], dirty: &[u8]) -> Self {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut data = Vec::new();
        for i in (0..dirty.len()).step_by(4) {
            if twin[i..i + 4] != dirty[i..i + 4] {
                let w = (i / 4) as u32;
                match runs.last_mut() {
                    Some((start, len)) if *start + *len == w => *len += 1,
                    _ => runs.push((w, 1)),
                }
                data.extend_from_slice(&dirty[i..i + 4]);
            }
        }
        Self { runs, data }
    }

    /// Apply this diff to `target` (the home frame): one `copy_from_slice`
    /// per contiguous run.
    pub fn apply(&self, target: &mut [u8]) {
        let mut off = 0usize;
        for &(w, n) in &self.runs {
            let dst = w as usize * 4;
            let bytes = n as usize * 4;
            target[dst..dst + bytes].copy_from_slice(&self.data[off..off + bytes]);
            off += bytes;
        }
    }

    /// Reference apply: one 4-byte copy per word. Kept as the oracle the
    /// randomized unit tests compare [`Diff::apply`] against.
    #[cfg(test)]
    fn apply_word_at_a_time(&self, target: &mut [u8]) {
        let words = self.runs.iter().flat_map(|&(w, n)| w..w + n);
        for (w, v) in words.zip(self.data.chunks_exact(4)) {
            let i = w as usize * 4;
            target[i..i + 4].copy_from_slice(v);
        }
    }

    /// The `(first word index, words in run)` runs, ascending — the
    /// footprint diagnostics consume.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// Number of differing words.
    pub fn len(&self) -> usize {
        self.data.len() / 4
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of maximal contiguous runs of differing words.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Wire size in bytes: an 8-byte (offset, length) header per contiguous
    /// run plus 4 bytes per word.
    pub fn wire_bytes(&self) -> u64 {
        (self.runs.len() * 8 + self.data.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::util::XorShift64;

    /// The protocol page sizes the LRC machine accepts: 1, 4 and 16 KiB.
    const SHIFTS: [u32; 3] = [10, 12, 14];

    #[test]
    fn page_table_is_dense_from_the_heaps_first_page() {
        for shift in SHIFTS {
            let mut pt = PageTable::new(shift);
            let first = HEAP_BASE >> shift;
            let page =
                |fill: u8| PageEntry::read_only(Frame::Own(vec![fill; 1 << shift].into(), None));
            assert!(!pt.contains(first) && pt.slots.is_empty());
            pt.insert(first, page(1));
            assert_eq!(pt.slots.len(), 1, "the first heap page is slot 0");
            pt.insert(first + 5, page(2));
            assert_eq!(pt.slots.len(), 6, "grown on insert");
            assert!(!pt.contains(first + 3) && !pt.contains(first + 6));
            assert!(!pt.contains(first - 1), "below the heap reads as unmapped");
            assert_eq!(pt.get(first + 5).unwrap().frame[0], 2);
            // An existing entry is kept, an absent one made.
            assert_eq!(pt.get_or_insert_with(first, || page(3)).frame[0], 1);
            assert_eq!(pt.get_or_insert_with(first + 9, || page(4)).frame[0], 4);
            pt.get_mut(first).unwrap().state = PState::ReadWrite;
            assert_eq!(pt.get(first).unwrap().state, PState::ReadWrite);
            // Removal empties the slot and keeps the table's size.
            assert_eq!(pt.remove(first + 5).unwrap().frame[0], 2);
            assert!(!pt.contains(first + 5) && pt.remove(first + 5).is_none());
            assert_eq!(pt.slots.len(), 10);
            assert!(pt.remove(first + 99).is_none());
        }
    }

    #[test]
    fn sharing_twice_without_a_write_is_free() {
        let mut f = Frame::zeroed(64);
        let (v1, v2) = (f.share(), f.share());
        assert!(Arc::ptr_eq(&v1, &v2), "the remembered version is reused");
        let mut g = Frame::Shared(v1.clone());
        assert!(
            Arc::ptr_eq(&g.share(), &v1),
            "a shared frame is its version"
        );
    }

    #[test]
    fn writing_after_sharing_leaves_the_version_alone() {
        let mut f = Frame::zeroed(64);
        let v = f.share();
        f.own_mut()[3] = 9;
        assert_eq!((f[3], v[3]), (9, 0));
        assert!(matches!(f, Frame::Own(_, None)), "the write forgets it");
        let w = f.share();
        assert!(!Arc::ptr_eq(&v, &w) && w[3] == 9, "a new version");
    }

    #[test]
    fn writing_a_shared_frame_copies_it() {
        let v: Arc<[u8]> = Arc::from(vec![5u8; 64]);
        let mut f = Frame::Shared(v.clone());
        f.own_mut()[0] = 6;
        assert!(matches!(f, Frame::Own(_, None)));
        assert_eq!((f[0], f[1], v[0]), (6, 5, 5));
        assert_eq!(Arc::strong_count(&v), 1, "the frame let go of it");
    }

    #[test]
    fn a_page_table_slot_is_56_bytes() {
        // DESIGN.md §2 quotes this figure: a slot per heap page per node.
        assert_eq!(std::mem::size_of::<Option<PageEntry>>(), 56);
    }

    #[test]
    fn mapping_a_page_below_the_heap_panics() {
        for shift in SHIFTS {
            let below = (HEAP_BASE >> shift) - 1;
            let caught = std::panic::catch_unwind(|| {
                PageTable::new(shift).insert(below, PageEntry::zeroed(1 << shift))
            });
            let msg = *caught
                .expect_err("must panic")
                .downcast::<String>()
                .unwrap();
            assert!(msg.contains("lies below the heap's first page"), "{msg}");
        }
    }

    #[test]
    fn diff_of_identical_pages_is_empty() {
        let a = vec![7u8; 64];
        let d = Diff::create(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.run_count(), 0);
        assert_eq!(d.wire_bytes(), 0);
    }

    #[test]
    fn apply_recreates_dirty_from_twin() {
        let twin = vec![0u8; 128];
        let mut dirty = twin.clone();
        dirty[8..16].copy_from_slice(&123u64.to_le_bytes());
        dirty[120..128].copy_from_slice(&u64::MAX.to_le_bytes());
        let d = Diff::create(&twin, &dirty);
        assert_eq!(d.len(), 3); // 123 fits one u32 word; u64::MAX spans two
        assert_eq!(d.run_count(), 2); // one single-word run + one two-word run
        let mut home = twin.clone();
        d.apply(&mut home);
        assert_eq!(home, dirty);
    }

    #[test]
    fn scattered_words_cost_more_wire_than_contiguous() {
        let twin = vec![0u8; 256];
        let mut scattered = twin.clone();
        let mut contiguous = twin.clone();
        for k in 0..8 {
            scattered[k * 32] = 1; // 8 isolated words
            contiguous[k * 4] = 1; // 8 adjacent words
        }
        let ds = Diff::create(&twin, &scattered);
        let dc = Diff::create(&twin, &contiguous);
        assert_eq!(ds.len(), dc.len());
        assert_eq!(ds.run_count(), 8);
        assert_eq!(dc.run_count(), 1);
        assert!(ds.wire_bytes() > 2 * dc.wire_bytes());
    }

    #[test]
    fn disjoint_diffs_merge_at_home() {
        // Two writers modify different words of the same page; applying both
        // diffs to the home yields the union — the multiple-writer protocol.
        let twin = vec![0u8; 64];
        let mut w1 = twin.clone();
        w1[0..8].copy_from_slice(&1u64.to_le_bytes());
        let mut w2 = twin.clone();
        w2[8..16].copy_from_slice(&2u64.to_le_bytes());
        let d1 = Diff::create(&twin, &w1);
        let d2 = Diff::create(&twin, &w2);
        assert!(!d1.is_empty() && !d2.is_empty());
        let mut home = twin.clone();
        d1.apply(&mut home);
        d2.apply(&mut home);
        assert_eq!(u64::from_le_bytes(home[0..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(home[8..16].try_into().unwrap()), 2);
    }

    #[test]
    fn chunked_create_matches_word_at_a_time() {
        // `create` skips equal 32-byte chunks; the word loop it replaced
        // must agree on every encoding detail (runs, data, hence wire
        // bytes and every priced cycle).
        let same = |twin: &[u8], dirty: &[u8], what: &str| {
            let d = Diff::create(twin, dirty);
            assert_eq!(d, Diff::create_word_at_a_time(twin, dirty), "{what}");
            let mut home = twin.to_vec();
            d.apply(&mut home);
            assert_eq!(home, dirty, "{what}");
        };
        // 100 is not a multiple of the chunk: a 4-byte tail.
        for size in [100usize, 1024, 2048, 4096, 8192, 16384] {
            let mut rng = XorShift64::new(0xD1FF ^ size as u64);
            let twin: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
            let flip = |page: &mut [u8], words: std::ops::Range<usize>| {
                for b in &mut page[words.start * 4..words.end * 4] {
                    *b = !*b;
                }
            };
            let nw = size / 4;
            same(&twin, &twin, "all equal");
            let mut all = twin.clone();
            flip(&mut all, 0..nw);
            same(&twin, &all, "all different");
            for w in [0, nw - 1] {
                let mut one = twin.clone();
                flip(&mut one, w..w + 1);
                same(&twin, &one, "single word at either end");
                assert_eq!(Diff::create(&twin, &one).runs(), [(w as u32, 1)]);
            }
            // Runs that start on, end on and straddle chunk boundaries (a
            // chunk is 8 words); the last runs into the 100-byte tail.
            for (start, len) in [(8, 8), (8, 3), (5, 3), (6, 4), (7, 1), (3, 18), (22, 3)] {
                let mut d = twin.clone();
                flip(&mut d, start..start + len);
                same(&twin, &d, "boundary run");
                assert_eq!(Diff::create(&twin, &d).runs(), [(start as u32, len as u32)]);
            }
            for case in 0..32 {
                let mut d = twin.clone();
                for _ in 0..rng.below(24) {
                    let w = rng.below(nw as u64) as usize;
                    let n = (1 + rng.below(20)) as usize;
                    flip(&mut d, w..(w + n).min(nw));
                }
                same(&twin, &d, &format!("size {size} case {case}"));
            }
        }
    }

    #[test]
    fn run_apply_matches_word_at_a_time_on_random_diffs() {
        // The bulk (one copy per run) apply must be byte-identical to the
        // per-word reference on randomized dirty patterns: isolated words,
        // runs, run ends at the page boundary, everything in between.
        for case in 0..64u64 {
            let mut rng = XorShift64::new(0xA11C ^ (case << 8));
            let npages = 1 + rng.below(3);
            let size = (npages * 256) as usize;
            let twin: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
            let mut dirty = twin.clone();
            for _ in 0..rng.below(40) {
                // Dirty a random run of 1..8 words.
                let w = rng.below((size / 4) as u64) as usize;
                let n = (1 + rng.below(8)) as usize;
                for k in 0..n.min(size / 4 - w) {
                    let v = rng.next_u64() as u32;
                    dirty[(w + k) * 4..(w + k) * 4 + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            let d = Diff::create(&twin, &dirty);
            let mut fast = twin.clone();
            d.apply(&mut fast);
            let mut slow = twin.clone();
            d.apply_word_at_a_time(&mut slow);
            assert_eq!(fast, slow, "case {case}");
            assert_eq!(fast, dirty, "case {case}");
            // The runs keep the encoding's own invariants: nonempty,
            // ascending and maximal (a clean word between any two), their
            // lengths summing to the differing words.
            let runs = d.runs();
            assert!(runs.iter().all(|&(_, n)| n > 0), "case {case}: empty run");
            assert!(
                runs.windows(2).all(|r| r[0].0 + r[0].1 < r[1].0),
                "case {case}: runs not ascending and maximal"
            );
            let words: usize = runs.iter().map(|&(_, n)| n as usize).sum();
            assert_eq!(words, d.len(), "case {case}");
        }
    }
}
