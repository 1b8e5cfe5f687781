//! Radix — parallel radix sort (SPLASH-2).
//!
//! Each pass histograms a digit, computes global rank offsets from the
//! all-processor histogram matrix, then permutes keys into a destination
//! array. The permutation's writes are scattered across the whole
//! destination array — the induced pattern at page granularity is
//! multiple-producer/one-consumer with massive false sharing and contention,
//! which is why Radix is the suite's hardest case on SVM (and poor even on
//! the bus-based SMP).
//!
//! ## Versions (paper §4.2.5)
//!
//! * [`RadixVersion::Orig`] — SPLASH-2: direct scattered remote writes.
//!   The paper found padding/alignment and data-structure reorganization
//!   impractical for Radix ("very difficult ... due to the highly scattered
//!   and unpredictable remote writes"), so the `P/A` and `DS` classes map
//!   to the original version.
//! * [`RadixVersion::LocalBuffer`] — the algorithmic change: gather keys
//!   into digit-grouped runs in a locally-homed buffer first, then write
//!   each run contiguously into the global array. Better, but still poor —
//!   as in the paper.

use crate::common::{share_evenly, AppResult, Bcast, Platform, Scale};
use crate::OptClass;
use sim_core::util::XorShift64;
use sim_core::{run as sim_run, Placement, RunConfig, PAGE_SIZE};

/// Number of buckets per pass (SPLASH-2 default radix).
pub const RADIX: usize = 1024;
const RBITS: u32 = 10;

/// Radix sort parameters.
#[derive(Clone, Copy, Debug)]
pub struct RadixParams {
    /// Number of keys.
    pub n: usize,
    /// Number of digit passes (keys are < 2^(RBITS*passes)).
    pub passes: u32,
    /// Workload seed.
    pub seed: u64,
}

impl RadixParams {
    /// Parameters for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                n: 4 << 10,
                passes: 2,
                seed: 99,
            },
            Scale::Default => Self {
                n: 256 << 10,
                passes: 2,
                seed: 99,
            },
            Scale::Paper => Self {
                n: 4 << 20,
                passes: 2,
                seed: 99,
            },
        }
    }

    /// Maximum key value + 1.
    pub fn key_space(&self) -> u64 {
        1u64 << (RBITS * self.passes)
    }
}

/// The versions of Radix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RadixVersion {
    /// SPLASH-2: scattered remote writes in the permutation.
    Orig,
    /// Locally gather digit runs, then write contiguously.
    LocalBuffer,
}

/// Map the paper's optimization class to a Radix version.
pub fn version_for(class: OptClass) -> RadixVersion {
    match class {
        // P/A and DS are explicitly not applicable per the paper.
        OptClass::Orig | OptClass::PadAlign | OptClass::DataStruct => RadixVersion::Orig,
        OptClass::Algorithm => RadixVersion::LocalBuffer,
    }
}

/// Deterministic input keys.
pub fn generate_keys(params: &RadixParams) -> Vec<u32> {
    let mut rng = XorShift64::new(params.seed);
    (0..params.n)
        .map(|_| (rng.next_u64() % params.key_space()) as u32)
        .collect()
}

/// Sequential reference: the sorted key vector.
pub fn reference(params: &RadixParams) -> Vec<u32> {
    let mut keys = generate_keys(params);
    keys.sort_unstable();
    keys
}

/// Run Radix on a platform; panics unless the output is exactly the sorted
/// input.
pub fn run_params(
    platform: Platform,
    nprocs: usize,
    params: &RadixParams,
    version: RadixVersion,
) -> AppResult {
    run_params_cfg(platform, nprocs, params, version, RunConfig::new(nprocs))
}

/// Like [`run_params`] with an explicit scheduler configuration (quantum,
/// race detection, run label).
pub fn run_params_cfg(
    platform: Platform,
    nprocs: usize,
    params: &RadixParams,
    version: RadixVersion,
    cfg: RunConfig,
) -> AppResult {
    let n = params.n;
    share_evenly(n, "keys", nprocs).unwrap_or_else(|e| panic!("Radix: {e}"));
    let chunk = n / nprocs;
    let layout_bc: Bcast<(u64, u64, u64, u64)> = Bcast::new();
    let result = std::sync::Mutex::new(Vec::new());
    let input = generate_keys(params);

    let stats = sim_run(platform.boxed(nprocs), cfg, |p| {
        let me = p.pid();
        let np = p.nprocs();
        if me == 0 {
            let chunk_pages = ((chunk * 4) as u64).div_ceil(PAGE_SIZE);
            let a = p.alloc_shared_labeled(
                "keys_a",
                (n * 4) as u64,
                PAGE_SIZE,
                Placement::Blocked { chunk_pages },
            );
            let b = p.alloc_shared_labeled(
                "keys_b",
                (n * 4) as u64,
                PAGE_SIZE,
                Placement::Blocked { chunk_pages },
            );
            // Histogram matrix: one row (RADIX u32 = 4 KB = 1 page) per proc.
            let hist = p.alloc_shared_labeled(
                "hist",
                (np * RADIX * 4) as u64,
                PAGE_SIZE,
                Placement::Blocked {
                    chunk_pages: ((RADIX * 4) as u64).div_ceil(PAGE_SIZE),
                },
            );
            p.write_u32_slice(a, 4, &input);
            layout_bc.put((a, b, hist, 0));
        }
        p.barrier(100);
        let (mut src, mut dst, hist, _) = layout_bc.get();
        p.start_timing();

        for pass in 0..params.passes {
            let shift = RBITS * pass;
            let mask = (RADIX - 1) as u64;
            // Phase 1: local histogram. The key reads are a contiguous
            // sweep over this processor's chunk — one bulk read, then the
            // (unshared) binning charged as fused compute.
            let mut keys = vec![0u32; chunk];
            p.read_u32_slice(src + (me * chunk * 4) as u64, 4, &mut keys);
            let mut local_hist = vec![0u32; RADIX];
            for &k in &keys {
                local_hist[((k as u64 >> shift) & mask) as usize] += 1;
            }
            p.work_fused(2, chunk as u64);
            p.write_u32_slice(hist + (me * RADIX * 4) as u64, 4, &local_hist);
            p.barrier(0);
            // Phase 2: every processor reads the full histogram matrix and
            // computes its own per-digit base offsets.
            let mut matrix = vec![0u32; np * RADIX];
            p.read_u32_slice(hist, 4, &mut matrix);
            let mut offsets = vec![0u64; RADIX];
            let mut running = 0u64;
            for d in 0..RADIX {
                let mut mine = running;
                for q in 0..np {
                    if q < me {
                        mine += matrix[q * RADIX + d] as u64;
                    }
                    running += matrix[q * RADIX + d] as u64;
                }
                offsets[d] = mine;
            }
            p.work_fused(np as u64, RADIX as u64);
            // Phase 3: permutation.
            match version {
                RadixVersion::Orig => {
                    // Keys are re-read in bulk (`keys` still holds this
                    // chunk, but SPLASH-2 reloads in the permutation loop and
                    // so do we); the scattered destination writes are the
                    // point of this version and stay word-at-a-time.
                    p.read_u32_slice(src + (me * chunk * 4) as u64, 4, &mut keys);
                    for &k in &keys {
                        let d = ((k as u64 >> shift) & mask) as usize;
                        let pos = offsets[d];
                        offsets[d] += 1;
                        p.store(dst + (pos * 4) as u64, 4, k as u64);
                        p.work(4);
                    }
                }
                RadixVersion::LocalBuffer => {
                    // Gather into digit-grouped runs in a process-private
                    // buffer (unshared memory: charged as compute, as in
                    // the SPLASH-2 variant), then write each run
                    // contiguously into the global array — the same bytes
                    // land in the same places, but sequentially rather than
                    // scattered.
                    let mut lstart = vec![0u64; RADIX];
                    let mut acc = 0u64;
                    for d in 0..RADIX {
                        lstart[d] = acc;
                        acc += local_hist[d] as u64;
                    }
                    let group_base = lstart.clone();
                    let mut buf = vec![0u32; chunk];
                    p.read_u32_slice(src + (me * chunk * 4) as u64, 4, &mut keys);
                    for &k in &keys {
                        let d = ((k as u64 >> shift) & mask) as usize;
                        buf[lstart[d] as usize] = k;
                        lstart[d] += 1;
                    }
                    p.work_fused(4, chunk as u64);
                    // Stagger the starting digit per processor so the
                    // sequential sweeps do not convoy on one home node.
                    let start = me * RADIX / np;
                    for dd in 0..RADIX {
                        let d = (start + dd) % RADIX;
                        let len = local_hist[d] as usize;
                        if len == 0 {
                            continue;
                        }
                        let run = &buf[group_base[d] as usize..group_base[d] as usize + len];
                        p.write_u32_slice(dst + (offsets[d] * 4) as u64, 4, run);
                        p.work_fused(2, len as u64);
                    }
                }
            }
            p.barrier(1);
            std::mem::swap(&mut src, &mut dst);
        }

        p.stop_timing();
        if me == 0 {
            let mut out = vec![0u32; n];
            p.read_u32_slice(src, 4, &mut out);
            *result.lock().unwrap() = out;
        }
    });

    let out = result.into_inner().unwrap();
    let want = reference(params);
    assert_eq!(out, want, "Radix output is not sorted correctly");
    AppResult {
        stats,
        checksum: out
            .iter()
            .fold(0u64, |h, &k| (h ^ k as u64).wrapping_mul(0x100_0000_01b3)),
    }
}

/// Run Radix at a scale preset.
pub fn run(platform: Platform, nprocs: usize, scale: Scale, version: RadixVersion) -> AppResult {
    run_params(platform, nprocs, &RadixParams::at(scale), version)
}

/// Run Radix at a scale preset with an explicit scheduler configuration.
pub fn run_cfg(
    platform: Platform,
    nprocs: usize,
    scale: Scale,
    version: RadixVersion,
    cfg: RunConfig,
) -> AppResult {
    run_params_cfg(platform, nprocs, &RadixParams::at(scale), version, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RadixParams {
        RadixParams {
            n: 1 << 10,
            passes: 2,
            seed: 5,
        }
    }

    #[test]
    fn both_versions_sort_on_svm() {
        for v in [RadixVersion::Orig, RadixVersion::LocalBuffer] {
            let r = run_params(Platform::Svm, 4, &tiny(), v);
            assert!(r.stats.total_cycles() > 0, "{v:?}");
        }
    }

    #[test]
    fn sorts_on_all_platforms() {
        let a = run_params(Platform::Svm, 2, &tiny(), RadixVersion::Orig);
        let b = run_params(Platform::Dsm, 2, &tiny(), RadixVersion::Orig);
        let c = run_params(Platform::Smp, 2, &tiny(), RadixVersion::LocalBuffer);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
    }

    #[test]
    fn uniprocessor_sorts() {
        let r = run_params(Platform::Svm, 1, &tiny(), RadixVersion::Orig);
        assert!(r.stats.total_cycles() > 0);
    }

    #[test]
    fn keys_cover_the_digit_space() {
        let params = RadixParams {
            n: 1 << 14,
            passes: 2,
            seed: 1,
        };
        let keys = generate_keys(&params);
        let mut seen = vec![false; RADIX];
        for k in keys {
            seen[(k as usize) & (RADIX - 1)] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > RADIX / 2);
    }
}
