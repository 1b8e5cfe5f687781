//! Shared-heap allocator with explicit data placement.
//!
//! The paper performs "data distribution ... as suggested in SPLASH-2" on the
//! SVM and DSM platforms; this allocator is how applications express it.
//! Each allocation chooses a [`Placement`] policy; the resulting page→home
//! mapping is recorded in a [`PlacementMap`] that the platform models query
//! (the SVM platform for page homes, the DSM platform for line homes).
//!
//! The allocator is a bump allocator: simulated programs never free, exactly
//! like the SPLASH-2 `G_MALLOC` arena.

use crate::addr::{align_up, page_of, Addr, HEAP_BASE, PAGE_SIZE};

/// Where the pages of an allocation should live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// All pages homed on one node (e.g. a processor's partition).
    Node(usize),
    /// Pages homed round-robin across nodes starting at page 0 of the
    /// allocation (the default SPLASH-2 distribution for shared globals).
    RoundRobin,
    /// Pages homed in contiguous chunks: page `i` goes to node
    /// `i / chunk_pages % nprocs`. `Blocked { chunk_pages: 1 }` equals
    /// `RoundRobin`.
    Blocked { chunk_pages: u64 },
    /// First-touch: homed on the first node that accesses the page
    /// (hardware-DSM style). Until touched, reads resolve to the allocating
    /// node.
    FirstTouch,
}

#[derive(Clone, Debug)]
struct Region {
    first_page: u64,
    last_page: u64,
    policy: Placement,
    /// Diagnostic name (`alloc_labeled`); the race detector attaches it to
    /// reports so a race reads "in `hist`" rather than a bare address.
    label: &'static str,
}

/// Page → home-node map built up from allocations.
#[derive(Clone, Debug)]
pub struct PlacementMap {
    nprocs: usize,
    regions: Vec<Region>,
    first_touch: crate::util::FxMap<u64, usize>,
}

impl PlacementMap {
    fn new(nprocs: usize) -> Self {
        Self {
            nprocs,
            regions: Vec::new(),
            first_touch: Default::default(),
        }
    }

    /// Home node of the page containing `addr`. `toucher` is the node
    /// performing the access (used only to resolve first-touch pages).
    pub fn home_of(&mut self, addr: Addr, toucher: usize) -> usize {
        let page = page_of(addr);
        // Regions are sorted by construction (bump allocator): binary search.
        let idx = self.regions.partition_point(|r| r.last_page < page);
        if let Some(r) = self.regions.get(idx) {
            if page >= r.first_page && page <= r.last_page {
                return match r.policy {
                    Placement::Node(n) => n % self.nprocs,
                    Placement::RoundRobin => ((page - r.first_page) % self.nprocs as u64) as usize,
                    Placement::Blocked { chunk_pages } => {
                        (((page - r.first_page) / chunk_pages.max(1)) % self.nprocs as u64) as usize
                    }
                    Placement::FirstTouch => *self.first_touch.entry(page).or_insert(toucher),
                };
            }
        }
        // Address outside any allocation (e.g. tests poking raw addresses):
        // deterministic round-robin fallback.
        (page % self.nprocs as u64) as usize
    }

    /// Non-mutating query for a page that is known to be resolved (tests).
    pub fn home_of_resolved(&self, addr: Addr) -> Option<usize> {
        let page = page_of(addr);
        let idx = self.regions.partition_point(|r| r.last_page < page);
        let r = self.regions.get(idx)?;
        if page < r.first_page || page > r.last_page {
            return None;
        }
        match r.policy {
            Placement::Node(n) => Some(n % self.nprocs),
            Placement::RoundRobin => Some(((page - r.first_page) % self.nprocs as u64) as usize),
            Placement::Blocked { chunk_pages } => {
                Some((((page - r.first_page) / chunk_pages.max(1)) % self.nprocs as u64) as usize)
            }
            Placement::FirstTouch => self.first_touch.get(&page).copied(),
        }
    }
}

/// The shared-heap bump allocator.
#[derive(Clone, Debug)]
pub struct GlobalAlloc {
    next: Addr,
    map: PlacementMap,
}

impl GlobalAlloc {
    /// New heap for `nprocs` nodes.
    pub fn new(nprocs: usize) -> Self {
        Self {
            next: HEAP_BASE,
            map: PlacementMap::new(nprocs),
        }
    }

    /// Allocate `bytes` with `align` (power of two) under `policy`.
    /// Placement policies are page-granular, so the allocation is padded out
    /// to page boundaries whenever the policy cares about pages and the
    /// allocation spans any.
    pub fn alloc(&mut self, bytes: u64, align: u64, policy: Placement) -> Addr {
        self.alloc_labeled("", bytes, align, policy)
    }

    /// Like [`GlobalAlloc::alloc`], tagging the region with a diagnostic
    /// `label` reported by the race detector.
    pub fn alloc_labeled(
        &mut self,
        label: &'static str,
        bytes: u64,
        align: u64,
        policy: Placement,
    ) -> Addr {
        assert!(bytes > 0, "zero-size shared allocation");
        let align = align.max(1);
        // Distinct placement regions must start on fresh pages, otherwise two
        // regions would share a page and the home would be ambiguous.
        let start = match policy {
            Placement::Node(_) if self.page_compatible(policy) => align_up(self.next, align),
            _ => align_up(align_up(self.next, PAGE_SIZE), align),
        };
        let end = start + bytes;
        self.next = end;
        let first_page = page_of(start);
        let last_page = page_of(end - 1);
        // Merge with previous region if identical policy & contiguous pages;
        // otherwise the next region must begin on a fresh page.
        if let Some(last) = self.map.regions.last_mut() {
            if last.policy == policy
                && last.label == label
                && matches!(policy, Placement::Node(_))
                && first_page <= last.last_page + 1
            {
                last.last_page = last.last_page.max(last_page);
                return start;
            }
        }
        self.map.regions.push(Region {
            first_page,
            last_page,
            policy,
            label,
        });
        self.enforce_sorted();
        start
    }

    /// Label of the allocation containing `addr` (empty if unlabeled or
    /// outside every allocation).
    pub fn label_of(&self, addr: Addr) -> &'static str {
        let page = page_of(addr);
        let idx = self.map.regions.partition_point(|r| r.last_page < page);
        match self.map.regions.get(idx) {
            Some(r) if page >= r.first_page && page <= r.last_page => r.label,
            _ => "",
        }
    }

    fn page_compatible(&self, policy: Placement) -> bool {
        // A Node(..) allocation may share a page with a previous allocation
        // only if that page already belongs to the same node.
        match (self.map.regions.last(), policy) {
            (Some(last), Placement::Node(n)) => {
                matches!(last.policy, Placement::Node(m) if m == n)
                    && page_of(self.next) <= last.last_page
            }
            _ => false,
        }
    }

    fn enforce_sorted(&mut self) {
        debug_assert!(self
            .map
            .regions
            .windows(2)
            .all(|w| w[0].last_page < w[1].first_page));
    }

    /// Snapshot of the labeled allocation spans as `(first byte, last byte
    /// inclusive, label)` triples in address order — the page-granular view
    /// post-hoc analysis (the critical-path analyzer) attributes protocol
    /// traffic against.
    pub fn labeled_spans(&self) -> Vec<crate::trace::AllocSpan> {
        self.map
            .regions
            .iter()
            .map(|r| crate::trace::AllocSpan {
                first: r.first_page * PAGE_SIZE,
                last: (r.last_page + 1) * PAGE_SIZE - 1,
                label: r.label,
            })
            .collect()
    }

    /// The placement map (for platforms).
    pub fn map(&mut self) -> &mut PlacementMap {
        &mut self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_never_overlap_and_respect_alignment() {
        let mut a = GlobalAlloc::new(4);
        let mut prev_end = 0u64;
        for i in 1..50u64 {
            let align = 1u64 << (i % 7);
            let p = a.alloc(i * 13, align, Placement::RoundRobin);
            assert_eq!(p % align, 0, "misaligned");
            assert!(p >= prev_end, "overlap");
            prev_end = p + i * 13;
        }
    }

    #[test]
    fn node_placement_homes_everything_on_that_node() {
        let mut a = GlobalAlloc::new(8);
        let p = a.alloc(10 * PAGE_SIZE, 8, Placement::Node(5));
        for i in 0..10 {
            assert_eq!(a.map().home_of(p + i * PAGE_SIZE, 0), 5);
        }
    }

    #[test]
    fn round_robin_rotates_homes() {
        let mut a = GlobalAlloc::new(4);
        let p = a.alloc(8 * PAGE_SIZE, 8, Placement::RoundRobin);
        let homes: Vec<usize> = (0..8)
            .map(|i| a.map().home_of(p + i * PAGE_SIZE, 0))
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn blocked_placement_chunks() {
        let mut a = GlobalAlloc::new(2);
        let p = a.alloc(8 * PAGE_SIZE, 8, Placement::Blocked { chunk_pages: 2 });
        let homes: Vec<usize> = (0..8)
            .map(|i| a.map().home_of(p + i * PAGE_SIZE, 0))
            .collect();
        assert_eq!(homes, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn first_touch_sticks() {
        let mut a = GlobalAlloc::new(4);
        let p = a.alloc(2 * PAGE_SIZE, 8, Placement::FirstTouch);
        assert_eq!(a.map().home_of(p, 3), 3);
        assert_eq!(a.map().home_of(p, 1), 3, "first touch must stick");
        assert_eq!(a.map().home_of(p + PAGE_SIZE, 2), 2);
    }

    #[test]
    fn distinct_policies_never_share_a_page() {
        let mut a = GlobalAlloc::new(4);
        let p1 = a.alloc(100, 8, Placement::Node(1));
        let p2 = a.alloc(100, 8, Placement::Node(2));
        assert_ne!(page_of(p1), page_of(p2));
        assert_eq!(a.map().home_of(p1, 0), 1);
        assert_eq!(a.map().home_of(p2, 0), 2);
    }

    #[test]
    fn same_node_small_allocs_can_share_a_page() {
        let mut a = GlobalAlloc::new(4);
        let p1 = a.alloc(64, 8, Placement::Node(1));
        let p2 = a.alloc(64, 8, Placement::Node(1));
        assert_eq!(page_of(p1), page_of(p2));
    }
}
