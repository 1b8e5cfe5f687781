//! Cost model for the SVM platform.
//!
//! Cycle counts are at the paper's 200 MHz node clock (1 cycle = 5 ns).
//! The paper's communication parameters: Myrinet-class interconnect,
//! 400 MB/s memory buses, 100 MB/s I/O buses (through which network packets
//! flow), 4 KB pages, 8 KB direct-mapped L1 + 512 KB 2-way L2 with 32-byte
//! lines. The derived unloaded page-fetch cost is ≈ 20 K cycles ≈ 100 µs,
//! in the range reported for mid-90s SVM systems.

use sim_core::CacheGeom;

/// All tunable parameters of the HLRC SVM platform.
#[derive(Clone, Debug)]
pub struct SvmConfig {
    /// Number of processors in total.
    pub nprocs: usize,
    /// Processors per SVM node (1 = the paper's configuration; >1 models
    /// the paper's future-work platform of SMP nodes connected by SVM:
    /// processors within a node share page frames hardware-coherently and
    /// exchange protocol messages at intra-node cost).
    pub procs_per_node: usize,
    /// Cycles for an intra-node protocol interaction (bus transaction
    /// class, replacing the wire+I/O path between co-located processors).
    pub intra_node_cost: u64,
    /// First-level cache geometry (paper: 8 KB direct-mapped, 32 B lines).
    pub l1: CacheGeom,
    /// Second-level cache geometry (paper: 512 KB 2-way, 32 B lines).
    pub l2: CacheGeom,
    /// Stall cycles for an L1 miss that hits in L2.
    pub l2_hit: u64,
    /// Stall cycles for an L2 miss serviced from local memory.
    pub mem_latency: u64,
    /// Protocol page size in bytes (4 KB in the paper; powers of two from
    /// 1 KB to 16 KB are supported for the page-size ablation study —
    /// coherence units larger than the allocator's 4 KB placement pages
    /// take the home of their first placement page).
    pub page_size: u64,

    /// Cycles to take a page fault / protection trap and enter the handler.
    pub fault_trap: u64,
    /// Cycles of protocol handler processing per incoming/outgoing message.
    pub handler_cost: u64,
    /// Wire latency of one network hop.
    pub wire_latency: u64,
    /// I/O bus occupancy in cycles per byte (100 MB/s at 200 MHz = 2 cy/B).
    pub io_cyc_per_byte: u64,
    /// Memory-bus copy cost in cycles per byte (400 MB/s = 0.5 cy/B; we use
    /// cycles per 2 bytes to stay in integers).
    pub memcpy_cyc_per_2bytes: u64,
    /// Control-message payload bytes (requests, lock grants, barrier msgs).
    pub ctrl_msg_bytes: u64,

    /// Cycles to compare one 4-byte word when creating a diff.
    pub diff_scan_per_word: u64,
    /// Cycles to apply one 4-byte word of a diff at the home.
    pub diff_apply_per_word: u64,
    /// Cycles to mprotect/invalidate one page mapping.
    pub inval_per_page: u64,
    /// Per-processor bookkeeping cycles when the barrier manager merges
    /// interval information.
    pub barrier_merge_per_proc: u64,
    /// Base offset added to barrier ids when choosing the manager node, so
    /// the manager of the application's main barrier is not always node 0
    /// (the paper's LU discussion: "processor 10 is chosen as the manager of
    /// the most important barrier").
    pub barrier_manager_salt: u32,
}

impl SvmConfig {
    /// The paper's configuration for `nprocs` processors.
    pub fn paper(nprocs: usize) -> Self {
        Self {
            nprocs,
            procs_per_node: 1,
            intra_node_cost: 120,
            l1: CacheGeom {
                size: 8 << 10,
                line: 32,
                ways: 1,
            },
            l2: CacheGeom {
                size: 512 << 10,
                line: 32,
                ways: 2,
            },
            l2_hit: 8,
            mem_latency: 30,
            page_size: sim_core::PAGE_SIZE,
            fault_trap: 1_000,
            handler_cost: 400,
            wire_latency: 200,
            io_cyc_per_byte: 2,
            memcpy_cyc_per_2bytes: 1,
            ctrl_msg_bytes: 64,
            diff_scan_per_word: 1,
            diff_apply_per_word: 2,
            inval_per_page: 150,
            barrier_merge_per_proc: 200,
            barrier_manager_salt: 10,
        }
    }

    /// Diff words (4-byte) per page.
    pub fn words_per_page(&self) -> u64 {
        self.page_size / 4
    }

    /// log2 of the protocol page size.
    pub fn page_shift(&self) -> u32 {
        self.page_size.trailing_zeros()
    }

    /// Check the node-grouping parameters for consistency. Platform
    /// constructors call this so a bad configuration fails at build time
    /// with a named message instead of a bare divide-by-zero or a
    /// misassigned last node deep inside the protocol.
    ///
    /// # Panics
    /// If `procs_per_node` is zero, or does not evenly divide `nprocs`
    /// (a remainder would leave the last node with fewer processors than
    /// the home/manager arithmetic assumes).
    pub fn validate(&self) {
        assert!(
            self.nprocs >= 1,
            "SvmConfig: nprocs must be at least 1, got {}",
            self.nprocs
        );
        assert!(
            self.procs_per_node >= 1,
            "SvmConfig: procs_per_node must be at least 1, got 0 \
             (use 1 for the paper's uniprocessor-node configuration)"
        );
        assert!(
            self.nprocs.is_multiple_of(self.procs_per_node),
            "SvmConfig: procs_per_node = {} does not divide nprocs = {} \
             (the last node would be left with {} processors)",
            self.procs_per_node,
            self.nprocs,
            self.nprocs % self.procs_per_node
        );
    }

    /// Number of SVM nodes.
    pub fn nnodes(&self) -> usize {
        assert_eq!(self.nprocs % self.procs_per_node, 0);
        self.nprocs / self.procs_per_node
    }

    /// SVM node hosting a processor.
    #[inline]
    pub fn node_of(&self, pid: usize) -> usize {
        // Asked once per bulk run, so the paper's uniprocessor nodes skip
        // the division.
        if self.procs_per_node == 1 {
            pid
        } else {
            pid / self.procs_per_node
        }
    }

    /// Manager node for a lock.
    pub fn lock_manager(&self, lock: u32) -> usize {
        (lock as usize) % self.nnodes()
    }

    /// Manager node for a barrier.
    pub fn barrier_manager(&self, barrier: u32) -> usize {
        ((barrier + self.barrier_manager_salt) as usize) % self.nnodes()
    }

    /// The paper's future-work configuration: `nprocs` processors grouped
    /// into SMP nodes of `ppn`.
    pub fn paper_smp_nodes(nprocs: usize, ppn: usize) -> Self {
        let mut c = Self::paper(nprocs);
        c.procs_per_node = ppn;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_sane() {
        let c = SvmConfig::paper(16);
        assert_eq!(c.l1.sets(), 256);
        assert_eq!(c.l2.sets(), 8192);
        assert_eq!(c.words_per_page(), 1024);
        assert_eq!(c.lock_manager(17), 1);
        // Unloaded page fetch should land in the tens-of-microseconds range
        // (> 10k cycles, < 60k cycles at 200 MHz).
        let fetch = c.fault_trap
            + 2 * c.handler_cost
            + 2 * c.wire_latency
            + 2 * c.page_size * c.io_cyc_per_byte
            + c.page_size / 2;
        assert!(fetch > 10_000 && fetch < 60_000, "fetch = {fetch}");
    }

    #[test]
    fn validate_accepts_boundary_groupings() {
        SvmConfig::paper(1).validate(); // uniprocessor
        SvmConfig::paper_smp_nodes(16, 1).validate(); // the paper's config
        SvmConfig::paper_smp_nodes(16, 16).validate(); // one big SMP node
        SvmConfig::paper_smp_nodes(12, 4).validate(); // non-power-of-two
    }

    #[test]
    #[should_panic(expected = "procs_per_node must be at least 1, got 0")]
    fn validate_rejects_zero_procs_per_node() {
        SvmConfig::paper_smp_nodes(8, 0).validate();
    }

    #[test]
    #[should_panic(expected = "procs_per_node = 3 does not divide nprocs = 8")]
    fn validate_rejects_non_divisible_grouping() {
        SvmConfig::paper_smp_nodes(8, 3).validate();
    }

    #[test]
    #[should_panic(expected = "does not divide nprocs")]
    fn validate_rejects_groups_larger_than_the_machine() {
        // 32 does not divide 16: one "node" would need more processors
        // than the run has.
        SvmConfig::paper_smp_nodes(16, 32).validate();
    }

    #[test]
    #[should_panic(expected = "nprocs must be at least 1")]
    fn validate_rejects_zero_procs() {
        SvmConfig::paper(0).validate();
    }
}
