//! LU — blocked dense LU factorization (SPLASH-2), without pivoting.
//!
//! The matrix is factored in `B x B` blocks with the standard 2-D scatter
//! decomposition: block `(I, J)` is owned by processor
//! `(I mod pr) * pc + (J mod pc)`. Each step `k` factors the diagonal block,
//! updates the perimeter row and column, then the interior — with barriers
//! between phases. The inherent pattern is one-producer/multiple-consumer.
//!
//! ## Versions (paper §4.1.1)
//!
//! * [`LuVersion::Orig2d`] — the "non-contiguous" 2-d array. A page spans
//!   sub-rows of several blocks owned by different processors: false
//!   sharing and fragmentation.
//! * [`LuVersion::PadAlign`] — every sub-row of every block padded out to
//!   its own page. Kills false sharing but wastes memory, does nothing for
//!   fragmentation, and the paper found it unhelpful.
//! * [`LuVersion::Contig4d`] — the "contiguous" 4-d layout: each block
//!   contiguous in the address space, but blocks packed tightly so blocks
//!   of *different* owners can share a page (the residual bottleneck of
//!   Figure 3).
//! * [`LuVersion::Contig4dAligned`] — blocks grouped by owning processor,
//!   each group page-aligned and homed on its owner. The paper's final LU,
//!   reaching superlinear speedup. (The paper found further algorithmic
//!   change unnecessary for LU, so the `Alg` class maps here too.)

use crate::common::{
    assert_close_slice, checksum_f64s, read_f64_runs, read_f64_seg, write_f64_runs, write_f64_seg,
    AppResult, Bcast, Platform, Scale,
};
use crate::OptClass;
use sim_core::util::XorShift64;
use sim_core::{run as sim_run, Placement, Proc, RunConfig, PAGE_SIZE};

/// Phase indices for per-phase statistics.
pub mod phase {
    /// Diagonal block factorization.
    pub const DIAG: usize = 0;
    /// Perimeter block updates.
    pub const PERIMETER: usize = 1;
    /// Interior block updates.
    pub const INTERIOR: usize = 2;
    /// Names, indexed by phase id (registered on the run's `RunConfig` so
    /// figures and traces print "diag" instead of "phase 0").
    pub const NAMES: [&str; 3] = ["diag", "perimeter", "interior"];
}

/// LU problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct LuParams {
    /// Matrix dimension (divisible by `block`).
    pub n: usize,
    /// Block size.
    pub block: usize,
    /// Workload seed.
    pub seed: u64,
}

impl LuParams {
    /// Parameters for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                n: 48,
                block: 8,
                seed: 12345,
            },
            Scale::Default => Self {
                n: 512,
                block: 32,
                seed: 12345,
            },
            Scale::Paper => Self {
                n: 1024,
                block: 32,
                seed: 12345,
            },
        }
    }
}

/// The restructured versions of LU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuVersion {
    /// SPLASH-2 "non-contiguous": natural 2-d array.
    Orig2d,
    /// Each block sub-row padded to a page.
    PadAlign,
    /// 4-d blocked layout, unaligned, round-robin homes.
    Contig4d,
    /// 4-d blocked layout, owner-grouped, page-aligned, owner-homed.
    Contig4dAligned,
}

/// Map the paper's optimization class to an LU version.
pub fn version_for(class: OptClass) -> LuVersion {
    match class {
        OptClass::Orig => LuVersion::Orig2d,
        OptClass::PadAlign => LuVersion::PadAlign,
        OptClass::DataStruct => LuVersion::Contig4d,
        // The paper: algorithmic repartitioning "turns out to be not
        // beneficial"; the best LU is the aligned data structure.
        OptClass::Algorithm => LuVersion::Contig4dAligned,
    }
}

/// Address layout of the matrix, parameterized by version.
#[derive(Clone)]
enum Layout {
    /// Row-major 2-d array: `addr = base + (r*n + c)*8`.
    G2 { base: u64, n: usize },
    /// Padded sub-rows: each (row, block-column) sub-row padded out to the
    /// platform's coherence grain (page on SVM, cache line on hardware).
    Pad {
        base: u64,
        nbc: usize,
        b: usize,
        stride: u64,
    },
    /// Blocked row-major: block (I,J) at `(I*nbc + J) * B*B*8`.
    G4 { base: u64, nbc: usize, b: usize },
    /// Owner-grouped blocks: per-block base table.
    Own {
        bases: std::sync::Arc<Vec<u64>>,
        nbc: usize,
        b: usize,
    },
}

impl Layout {
    /// The layout of `version` for an `n` x `n` matrix in `b` x `b` blocks
    /// on `nprocs` processors with coherence grain `grain`, its memory taken
    /// from `alloc(label, bytes, placement)` (page-aligned shared memory).
    fn new(
        version: LuVersion,
        n: usize,
        b: usize,
        grain: u64,
        nprocs: usize,
        mut alloc: impl FnMut(&'static str, u64, Placement) -> u64,
    ) -> Self {
        let nb = n / b;
        match version {
            LuVersion::Orig2d => Layout::G2 {
                base: alloc("matrix", (n * n * 8) as u64, Placement::RoundRobin),
                n,
            },
            LuVersion::PadAlign => {
                let stride = ((b * 8) as u64).div_ceil(grain) * grain;
                Layout::Pad {
                    base: alloc("", (n * nb) as u64 * stride, Placement::RoundRobin),
                    nbc: nb,
                    b,
                    stride,
                }
            }
            LuVersion::Contig4d => {
                // Emulate a malloc header: the blocked array does NOT start
                // on a page boundary, so blocks of different owners
                // straddle shared pages — the residual bottleneck the paper
                // fixes by page-aligning (Figure 3).
                let raw = alloc("", (n * n * 8) as u64 + PAGE_SIZE, Placement::RoundRobin);
                Layout::G4 {
                    base: raw + 1024,
                    nbc: nb,
                    b,
                }
            }
            LuVersion::Contig4dAligned => {
                // Group each owner's blocks into one page-aligned,
                // owner-homed region.
                let (pr, pc) = proc_grid(nprocs);
                let mut bases = vec![0u64; nb * nb];
                for o in 0..nprocs {
                    let mine: Vec<(usize, usize)> = (0..nb)
                        .flat_map(|bi| (0..nb).map(move |bj| (bi, bj)))
                        .filter(|&(bi, bj)| owner(bi, bj, pr, pc) == o)
                        .collect();
                    if mine.is_empty() {
                        continue;
                    }
                    let bytes = (mine.len() * b * b * 8) as u64;
                    let base = alloc("", bytes, Placement::Node(o));
                    for (idx, &(bi, bj)) in mine.iter().enumerate() {
                        bases[bi * nb + bj] = base + (idx * b * b * 8) as u64;
                    }
                }
                Layout::Own {
                    bases: std::sync::Arc::new(bases),
                    nbc: nb,
                    b,
                }
            }
        }
    }

    /// The distance in bytes from `(r, c)` to `(r + 1, c)` when both lie in
    /// one block: every layout is affine inside a block, with this column
    /// step and a row step (`(r, c)` to `(r, c + 1)`) of 8.
    fn col_step(&self) -> u64 {
        match self {
            Layout::G2 { n, .. } => *n as u64 * 8,
            Layout::Pad { nbc, stride, .. } => *nbc as u64 * stride,
            Layout::G4 { b, .. } | Layout::Own { b, .. } => *b as u64 * 8,
        }
    }

    #[inline(always)]
    fn addr(&self, r: usize, c: usize) -> u64 {
        match self {
            Layout::G2 { base, n } => base + ((r * n + c) as u64) * 8,
            Layout::Pad {
                base,
                nbc,
                b,
                stride,
            } => {
                let (bj, cj) = (c / b, c % b);
                base + ((r * nbc + bj) as u64) * stride + (cj as u64) * 8
            }
            Layout::G4 { base, nbc, b } => {
                let (bi, ri) = (r / b, r % b);
                let (bj, cj) = (c / b, c % b);
                base + ((bi * nbc + bj) * b * b) as u64 * 8 + ((ri * b + cj) as u64) * 8
            }
            Layout::Own { bases, nbc, b } => {
                let (bi, ri) = (r / b, r % b);
                let (bj, cj) = (c / b, c % b);
                bases[bi * nbc + bj] + ((ri * b + cj) as u64) * 8
            }
        }
    }

    #[inline(always)]
    fn get(&self, p: &mut Proc, r: usize, c: usize) -> f64 {
        f64::from_bits(p.load(self.addr(r, c), 8))
    }

    #[inline(always)]
    fn set(&self, p: &mut Proc, r: usize, c: usize, v: f64) {
        p.store(self.addr(r, c), 8, v.to_bits());
    }
}

/// Processor grid: as square as possible.
fn proc_grid(nprocs: usize) -> (usize, usize) {
    let mut pr = (nprocs as f64).sqrt() as usize;
    while !nprocs.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr, nprocs / pr)
}

#[inline]
fn owner(bi: usize, bj: usize, pr: usize, pc: usize) -> usize {
    (bi % pr) * pc + (bj % pc)
}

/// Deterministic diagonally-dominant matrix (row-major order).
pub fn generate_matrix(params: &LuParams) -> Vec<f64> {
    let n = params.n;
    let mut rng = XorShift64::new(params.seed);
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = rng.f64();
        }
        a[i * n + i] += n as f64;
    }
    a
}

/// Sequential blocked LU with exactly the parallel versions' arithmetic
/// order — outputs are bitwise comparable.
pub fn reference(params: &LuParams) -> Vec<f64> {
    let n = params.n;
    let b = params.block;
    let nb = n / b;
    let mut a = generate_matrix(params);
    let idx = |r: usize, c: usize| r * n + c;
    for k in 0..nb {
        let k0 = k * b;
        // Diagonal factorization.
        for j in 0..b {
            let jj = k0 + j;
            for i in (j + 1)..b {
                let ii = k0 + i;
                a[idx(ii, jj)] /= a[idx(jj, jj)];
                let lij = a[idx(ii, jj)];
                for l in (j + 1)..b {
                    a[idx(ii, k0 + l)] -= lij * a[idx(jj, k0 + l)];
                }
            }
        }
        // Perimeter row: A[k][j>k] <- L(k,k)^-1 A[k][j].
        for bj in (k + 1)..nb {
            let j0 = bj * b;
            for jj in 0..b {
                for i in 1..b {
                    let mut v = a[idx(k0 + i, j0 + jj)];
                    for l in 0..i {
                        v -= a[idx(k0 + i, k0 + l)] * a[idx(k0 + l, j0 + jj)];
                    }
                    a[idx(k0 + i, j0 + jj)] = v;
                }
            }
        }
        // Perimeter column: A[i>k][k] <- A[i][k] U(k,k)^-1.
        for bi in (k + 1)..nb {
            let i0 = bi * b;
            for i in 0..b {
                for j in 0..b {
                    let mut v = a[idx(i0 + i, k0 + j)];
                    for l in 0..j {
                        v -= a[idx(i0 + i, k0 + l)] * a[idx(k0 + l, k0 + j)];
                    }
                    a[idx(i0 + i, k0 + j)] = v / a[idx(k0 + j, k0 + j)];
                }
            }
        }
        // Interior: A[i][j] -= A[i][k] * A[k][j].
        for bi in (k + 1)..nb {
            for bj in (k + 1)..nb {
                let (i0, j0) = (bi * b, bj * b);
                for i in 0..b {
                    for j in 0..b {
                        let mut v = a[idx(i0 + i, j0 + j)];
                        for l in 0..b {
                            v -= a[idx(i0 + i, k0 + l)] * a[idx(k0 + l, j0 + j)];
                        }
                        a[idx(i0 + i, j0 + j)] = v;
                    }
                }
            }
        }
    }
    a
}

// The block kernels stream whole `b`-length row/column segments through the
// bulk API (one scheduler entry per run instead of per word). Every segment
// lies inside one block, so it is a base address plus the layout's row step
// (8) or `col_step`. The arithmetic order per element is unchanged, so
// outputs stay bitwise comparable to the sequential reference.

fn diag_factor(p: &mut Proc, m: &Layout, k0: usize, b: usize) {
    let mut rowi = vec![0.0f64; b];
    let mut rowj = vec![0.0f64; b];
    for j in 0..b {
        let jj = k0 + j;
        let d = m.get(p, jj, jj);
        for i in (j + 1)..b {
            let ii = k0 + i;
            let lij = m.get(p, ii, jj) / d;
            m.set(p, ii, jj, lij);
            p.work(8); // divide
            let w = b - j - 1;
            // Column `jj + 1` is in the block: `i > j` leaves `j < b - 1`.
            let (at_i, at_j) = (m.addr(ii, jj + 1), m.addr(jj, jj + 1));
            read_f64_seg(p, at_i, 8, &mut rowi[..w]);
            read_f64_seg(p, at_j, 8, &mut rowj[..w]);
            for l in 0..w {
                rowi[l] -= lij * rowj[l];
            }
            write_f64_seg(p, at_i, 8, &rowi[..w]);
            p.work(2 * w as u64);
        }
    }
}

fn perim_row(p: &mut Proc, m: &Layout, k0: usize, j0: usize, b: usize) {
    let mut row = vec![0.0f64; b];
    let mut col = vec![0.0f64; b];
    let step = m.col_step();
    for jj in 0..b {
        let col_at = m.addr(k0, j0 + jj);
        for i in 1..b {
            let mut v = m.get(p, k0 + i, j0 + jj);
            read_f64_seg(p, m.addr(k0 + i, k0), 8, &mut row[..i]);
            read_f64_seg(p, col_at, step, &mut col[..i]);
            for l in 0..i {
                v -= row[l] * col[l];
            }
            m.set(p, k0 + i, j0 + jj, v);
            p.work(2 * i as u64);
        }
    }
}

fn perim_col(p: &mut Proc, m: &Layout, k0: usize, i0: usize, b: usize) {
    let mut row = vec![0.0f64; b];
    let mut col = vec![0.0f64; b];
    let step = m.col_step();
    for i in 0..b {
        let row_at = m.addr(i0 + i, k0);
        for j in 0..b {
            let mut v = m.get(p, i0 + i, k0 + j);
            read_f64_seg(p, row_at, 8, &mut row[..j]);
            read_f64_seg(p, m.addr(k0, k0 + j), step, &mut col[..j]);
            for l in 0..j {
                v -= row[l] * col[l];
            }
            let d = m.get(p, k0 + j, k0 + j);
            m.set(p, i0 + i, k0 + j, v / d);
            p.work(2 * j as u64 + 8);
        }
    }
}

fn interior(p: &mut Proc, m: &Layout, k0: usize, i0: usize, j0: usize, b: usize) {
    let mut row = vec![0.0f64; b];
    let mut col = vec![0.0f64; b];
    let step = m.col_step();
    for i in 0..b {
        let row_at = m.addr(i0 + i, k0);
        for j in 0..b {
            let mut v = m.get(p, i0 + i, j0 + j);
            read_f64_seg(p, row_at, 8, &mut row);
            read_f64_seg(p, m.addr(k0, j0 + j), step, &mut col);
            for l in 0..b {
                v -= row[l] * col[l];
            }
            m.set(p, i0 + i, j0 + j, v);
            p.work(2 * b as u64);
        }
    }
}

/// Run LU on `platform` with `nprocs` processors; panics if the result does
/// not match the sequential reference.
pub fn run_params(
    platform: Platform,
    nprocs: usize,
    params: &LuParams,
    version: LuVersion,
) -> AppResult {
    run_params_cfg(platform, nprocs, params, version, RunConfig::new(nprocs))
}

/// Like [`run_params`] with an explicit scheduler configuration (quantum,
/// race detection, run label).
pub fn run_params_cfg(
    platform: Platform,
    nprocs: usize,
    params: &LuParams,
    version: LuVersion,
    cfg: RunConfig,
) -> AppResult {
    let cfg = if cfg.phase_names.is_empty() {
        cfg.with_phase_names(phase::NAMES)
    } else {
        cfg
    };
    let n = params.n;
    let b = params.block;
    assert_eq!(n % b, 0, "matrix dim must be a multiple of block size");
    let nb = n / b;
    let (pr, pc) = proc_grid(nprocs);
    let grain = platform.grain();
    let layout_bc: Bcast<Layout> = Bcast::new();
    let result = std::sync::Mutex::new(Vec::new());
    let input = generate_matrix(params);

    let stats = sim_run(platform.boxed(nprocs), cfg, |p| {
        if p.pid() == 0 {
            let layout = Layout::new(version, n, b, grain, nprocs, |label, bytes, at| {
                p.alloc_shared_labeled(label, bytes, PAGE_SIZE, at)
            });
            // Serial initialization (untimed, as in SPLASH-2).
            for i in 0..n {
                write_f64_runs(p, &input[i * n..(i + 1) * n], |j| layout.addr(i, j));
            }
            layout_bc.put(layout);
        }
        p.barrier(100);
        let m = layout_bc.get();
        let me = p.pid();
        p.start_timing();

        for k in 0..nb {
            let k0 = k * b;
            p.set_phase(phase::DIAG);
            if owner(k, k, pr, pc) == me {
                diag_factor(p, &m, k0, b);
            }
            p.barrier(0);
            p.set_phase(phase::PERIMETER);
            for bj in (k + 1)..nb {
                if owner(k, bj, pr, pc) == me {
                    perim_row(p, &m, k0, bj * b, b);
                }
            }
            for bi in (k + 1)..nb {
                if owner(bi, k, pr, pc) == me {
                    perim_col(p, &m, k0, bi * b, b);
                }
            }
            p.barrier(1);
            p.set_phase(phase::INTERIOR);
            for bi in (k + 1)..nb {
                for bj in (k + 1)..nb {
                    if owner(bi, bj, pr, pc) == me {
                        interior(p, &m, k0, bi * b, bj * b, b);
                    }
                }
            }
            p.barrier(2);
        }

        p.stop_timing();
        if me == 0 {
            let mut out = vec![0.0f64; n * n];
            for i in 0..n {
                read_f64_runs(p, &mut out[i * n..(i + 1) * n], |j| m.addr(i, j));
            }
            *result.lock().unwrap() = out;
        }
    });

    let out = result.into_inner().unwrap();
    let want = reference(params);
    assert_close_slice(&out, &want, 1e-9, "LU result");
    AppResult {
        stats,
        checksum: checksum_f64s(out.into_iter()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LuParams {
        LuParams {
            n: 32,
            block: 8,
            seed: 7,
        }
    }

    #[test]
    fn reference_actually_factors() {
        // Check A = L*U reconstruction against the generated matrix.
        let params = tiny();
        let n = params.n;
        let a0 = generate_matrix(&params);
        let lu = reference(&params);
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * n + k] };
                    let u = lu[k * n + j];
                    if k <= j && k <= i {
                        v += if i == k { u } else { l * u };
                    }
                }
                // Reconstruct: sum_{k<=min(i,j)} L[i][k]*U[k][j], L unit diag.
                let mut r = 0.0;
                for k in 0..=i.min(j) {
                    let lik = if k == i { 1.0 } else { lu[i * n + k] };
                    r += lik * lu[k * n + j];
                }
                let _ = v;
                assert!(
                    (r - a0[i * n + j]).abs() < 1e-6 * (1.0 + a0[i * n + j].abs()),
                    "LU reconstruction mismatch at ({i},{j}): {r} vs {}",
                    a0[i * n + j]
                );
            }
        }
    }

    #[test]
    fn all_versions_match_reference_on_svm() {
        for v in [
            LuVersion::Orig2d,
            LuVersion::PadAlign,
            LuVersion::Contig4d,
            LuVersion::Contig4dAligned,
        ] {
            let r = run_params(Platform::Svm, 4, &tiny(), v);
            assert!(r.stats.total_cycles() > 0, "{v:?} ran");
        }
    }

    #[test]
    fn versions_agree_across_platforms() {
        let a = run_params(Platform::Svm, 2, &tiny(), LuVersion::Contig4dAligned);
        let b = run_params(Platform::Dsm, 2, &tiny(), LuVersion::Contig4dAligned);
        let c = run_params(Platform::Smp, 2, &tiny(), LuVersion::Orig2d);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
    }

    #[test]
    fn uniprocessor_works() {
        let r = run_params(Platform::Svm, 1, &tiny(), LuVersion::Orig2d);
        assert!(r.stats.total_cycles() > 0);
    }

    #[test]
    fn layouts_are_affine_inside_every_block() {
        // The block kernels read in-block segments as a base plus a step.
        for scale in [Scale::Test, Scale::Default] {
            let LuParams { n, block: b, .. } = LuParams::at(scale);
            for version in [
                LuVersion::Orig2d,
                LuVersion::PadAlign,
                LuVersion::Contig4d,
                LuVersion::Contig4dAligned,
            ] {
                for grain in [PAGE_SIZE, 64] {
                    let mut next = 0x1000_0000;
                    let m = Layout::new(version, n, b, grain, 4, |_, bytes, _| {
                        let at = next;
                        next += bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
                        at
                    });
                    let step = m.col_step();
                    for (r, c) in (0..n).flat_map(|r| (0..n).map(move |c| (r, c))) {
                        let at = m.addr(r, c);
                        for l in 0..b - c % b {
                            assert!(
                                at + 8 * l as u64 == m.addr(r, c + l),
                                "{version:?} n {n} grain {grain}: row from ({r},{c}) + {l}"
                            );
                        }
                        for l in 0..b - r % b {
                            assert!(
                                at + step * l as u64 == m.addr(r + l, c),
                                "{version:?} n {n} grain {grain}: column from ({r},{c}) + {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn layouts_are_bijective() {
        let b = 4;
        let nb = 3;
        let n = b * nb;
        let layouts = [
            Layout::G2 {
                base: 0x1000_0000,
                n,
            },
            Layout::Pad {
                base: 0x1000_0000,
                nbc: nb,
                b,
                stride: PAGE_SIZE,
            },
            Layout::G4 {
                base: 0x1000_0000,
                nbc: nb,
                b,
            },
            Layout::Own {
                bases: std::sync::Arc::new(
                    (0..nb * nb)
                        .map(|i| 0x1000_0000 + (i * b * b * 8) as u64)
                        .collect(),
                ),
                nbc: nb,
                b,
            },
        ];
        for (li, l) in layouts.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for r in 0..n {
                for c in 0..n {
                    assert!(
                        seen.insert(l.addr(r, c)),
                        "layout {li}: duplicate address at ({r},{c})"
                    );
                }
            }
        }
    }
}
