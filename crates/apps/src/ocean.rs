//! Ocean — regular-grid nearest-neighbour PDE solver (SPLASH-2 style).
//!
//! The computation preserves the structure the paper studies: multiple
//! `n x n` grids, a stencil phase, red-black Gauss-Seidel relaxation sweeps
//! with barriers after every half-sweep, and a lock-accumulated global
//! residual — many barriers per time-step, one-producer/one-consumer
//! near-neighbour communication that is coarse-grained along row-oriented
//! partition boundaries but fine-grained (fragmented) along column-oriented
//! ones. (The full SPLASH-2 Ocean is a deeper multigrid solver; the reduced
//! solver keeps the same grids/phases/communication geometry, which is what
//! the paper's analysis rests on. See DESIGN.md §1.)
//!
//! ## Versions (paper §4.1.2)
//!
//! * [`OceanVersion::Orig2d`] — 2-d arrays, square sub-grid partitions:
//!   partitions are not contiguous in the address space.
//! * [`OceanVersion::PadAlign`] — rows padded to page multiples. The paper:
//!   "simply padding and aligning each sub-row within a sub-grid does not
//!   reduce fragmentation".
//! * [`OceanVersion::Contig4d`] — 4-d arrays: each square partition
//!   contiguous, page-aligned, homed on its owner. Speedup improves a lot
//!   but barriers and column-boundary communication remain.
//! * [`OceanVersion::RowWise`] — the algorithmic change: partition into
//!   blocks of whole rows. Worse inherent communication/computation ratio,
//!   but all communication is coarse-grained on row boundaries; partitions
//!   are contiguous even in a plain 2-d array. The paper's winner on SVM —
//!   while square 4-d stays best on hardware-coherent machines.

use crate::common::{
    assert_close_slice, checksum_f64s, read_f64_runs, write_f64_runs, AppResult, Bcast, Platform,
    Scale,
};
use crate::OptClass;
use sim_core::{run as sim_run, Placement, Proc, RunConfig, PAGE_SIZE};

/// Ocean problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct OceanParams {
    /// Grid dimension (including the fixed boundary ring). Must be divisible
    /// by the square-partition grid.
    pub n: usize,
    /// Time-steps.
    pub steps: usize,
    /// Red-black relaxation sweeps per step.
    pub sweeps: usize,
}

impl OceanParams {
    /// Parameters for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                n: 32,
                steps: 1,
                sweeps: 2,
            },
            Scale::Default => Self {
                n: 256,
                steps: 2,
                sweeps: 4,
            },
            Scale::Paper => Self {
                n: 512,
                steps: 4,
                sweeps: 6,
            },
        }
    }
}

/// The restructured versions of Ocean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OceanVersion {
    /// 2-d arrays, square partitions, round-robin pages.
    Orig2d,
    /// 2-d arrays with page-padded rows, square partitions.
    PadAlign,
    /// 4-d arrays: page-aligned, owner-homed square partitions.
    Contig4d,
    /// Row-wise partitions on plain 2-d arrays (first-touch homes).
    RowWise,
}

/// Map the paper's optimization class to an Ocean version.
pub fn version_for(class: OptClass) -> OceanVersion {
    match class {
        OptClass::Orig => OceanVersion::Orig2d,
        OptClass::PadAlign => OceanVersion::PadAlign,
        OptClass::DataStruct => OceanVersion::Contig4d,
        OptClass::Algorithm => OceanVersion::RowWise,
    }
}

/// Grid layout: 2-d (with pitch) or 4-d blocked.
#[derive(Clone, Copy)]
enum GL {
    G2 { base: u64, pitch: usize },
    G4 { base: u64, bdim: usize, bpr: usize },
}

impl GL {
    #[inline(always)]
    fn addr(&self, r: usize, c: usize) -> u64 {
        match *self {
            GL::G2 { base, pitch } => base + ((r * pitch + c) as u64) * 8,
            GL::G4 { base, bdim, bpr } => {
                let (bi, ri) = (r / bdim, r % bdim);
                let (bj, cj) = (c / bdim, c % bdim);
                let bsz = ((bdim * bdim * 8) as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;
                base + (bi * bpr + bj) as u64 * bsz + ((ri * bdim + cj) as u64) * 8
            }
        }
    }
}

/// Initial condition (deterministic, smooth + boundary ring).
fn init_val(i: usize, j: usize, n: usize) -> f64 {
    let x = i as f64 / n as f64;
    let y = j as f64 / n as f64;
    x * (1.0 - x) * y * (1.0 - y) * 4.0 + 0.1 * ((i * 31 + j * 17) % 13) as f64 / 13.0
}

/// Source-term grid value.
fn rhs_val(i: usize, j: usize, n: usize) -> f64 {
    let x = i as f64 / n as f64;
    let y = j as f64 / n as f64;
    (x - 0.5) * (y - 0.5) * 0.01
}

/// Sequential reference: identical arithmetic order (within each colour,
/// element updates are independent, so results are bitwise comparable).
pub fn reference(params: &OceanParams) -> Vec<f64> {
    let n = params.n;
    let mut psi: Vec<f64> = (0..n * n).map(|k| init_val(k / n, k % n, n)).collect();
    let rhs: Vec<f64> = (0..n * n).map(|k| rhs_val(k / n, k % n, n)).collect();
    let mut tmp = vec![0.0f64; n * n];
    for _step in 0..params.steps {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                tmp[i * n + j] = psi[(i - 1) * n + j]
                    + psi[(i + 1) * n + j]
                    + psi[i * n + j - 1]
                    + psi[i * n + j + 1]
                    - 4.0 * psi[i * n + j];
            }
        }
        for _sweep in 0..params.sweeps {
            for colour in 0..2usize {
                for i in 1..n - 1 {
                    let jstart = 1 + ((colour + i + 1) % 2);
                    let mut j = jstart;
                    while j <= n - 2 {
                        let nb = psi[(i - 1) * n + j]
                            + psi[(i + 1) * n + j]
                            + psi[i * n + j - 1]
                            + psi[i * n + j + 1];
                        let target = 0.25 * (nb - (rhs[i * n + j] + 0.1 * tmp[i * n + j]));
                        psi[i * n + j] += 0.9 * (target - psi[i * n + j]);
                        j += 2;
                    }
                }
            }
        }
    }
    psi
}

fn square_grid(nprocs: usize) -> usize {
    (nprocs as f64).sqrt().round() as usize
}

/// Whether `version` partitions the grid over `nprocs` processors: every
/// version but row-wise needs a square count whose side divides the grid.
pub(crate) fn check_nprocs(
    params: &OceanParams,
    version: OceanVersion,
    nprocs: usize,
) -> Result<(), String> {
    let (n, sp) = (params.n, square_grid(nprocs));
    if version == OceanVersion::RowWise {
        Ok(())
    } else if sp * sp != nprocs {
        Err("square partitions need a square processor count".into())
    } else if n % sp != 0 {
        Err(format!(
            "the {n}-point grid does not divide into {sp}x{sp} partitions"
        ))
    } else {
        Ok(())
    }
}

/// Per-processor iteration space: inclusive row/col ranges of owned interior
/// points.
#[derive(Clone, Copy, Debug)]
struct Part {
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
}

fn partition(version: OceanVersion, n: usize, nprocs: usize, pid: usize) -> Part {
    match version {
        OceanVersion::RowWise => {
            let rows = n - 2;
            let per = rows / nprocs;
            let extra = rows % nprocs;
            let r0 = 1 + pid * per + pid.min(extra);
            let mine = per + usize::from(pid < extra);
            Part {
                r0,
                r1: r0 + mine - 1,
                c0: 1,
                c1: n - 2,
            }
        }
        _ => {
            let sp = square_grid(nprocs);
            let bdim = n / sp;
            let (pi, pj) = (pid / sp, pid % sp);
            let r0 = (pi * bdim).max(1);
            let r1 = ((pi + 1) * bdim - 1).min(n - 2);
            let c0 = (pj * bdim).max(1);
            let c1 = ((pj + 1) * bdim - 1).min(n - 2);
            Part { r0, r1, c0, c1 }
        }
    }
}

/// Run Ocean on a platform; panics if the result diverges from the
/// sequential reference.
pub fn run_params(
    platform: Platform,
    nprocs: usize,
    params: &OceanParams,
    version: OceanVersion,
) -> AppResult {
    run_params_cfg(platform, nprocs, params, version, RunConfig::new(nprocs))
}

/// Like [`run_params`] with an explicit scheduler configuration (quantum,
/// race detection, run label).
pub fn run_params_cfg(
    platform: Platform,
    nprocs: usize,
    params: &OceanParams,
    version: OceanVersion,
    cfg: RunConfig,
) -> AppResult {
    let n = params.n;
    check_nprocs(params, version, nprocs).unwrap_or_else(|e| panic!("Ocean: {e}"));
    let layout_bc: Bcast<(GL, GL, GL, u64)> = Bcast::new();
    let result = std::sync::Mutex::new(Vec::new());

    let stats = sim_run(platform.boxed(nprocs), cfg, |p| {
        let me = p.pid();
        if me == 0 {
            let nprocs = p.nprocs();
            let mk = |p: &mut Proc, label: &'static str| -> GL {
                match version {
                    OceanVersion::Orig2d => GL::G2 {
                        base: p.alloc_shared_labeled(
                            label,
                            (n * n * 8) as u64,
                            PAGE_SIZE,
                            Placement::RoundRobin,
                        ),
                        pitch: n,
                    },
                    OceanVersion::PadAlign => {
                        let grain = platform.grain();
                        let pitch = (((n * 8) as u64).div_ceil(grain) * grain / 8) as usize;
                        GL::G2 {
                            base: p.alloc_shared_labeled(
                                label,
                                (n * pitch * 8) as u64,
                                PAGE_SIZE,
                                Placement::RoundRobin,
                            ),
                            pitch,
                        }
                    }
                    OceanVersion::Contig4d => {
                        let sp = square_grid(nprocs);
                        let bdim = n / sp;
                        let bsz = ((bdim * bdim * 8) as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;
                        let chunk = bsz / PAGE_SIZE;
                        GL::G4 {
                            base: p.alloc_shared_labeled(
                                label,
                                bsz * (sp * sp) as u64,
                                PAGE_SIZE,
                                Placement::Blocked { chunk_pages: chunk },
                            ),
                            bdim,
                            bpr: sp,
                        }
                    }
                    OceanVersion::RowWise => GL::G2 {
                        base: p.alloc_shared_labeled(
                            label,
                            (n * n * 8) as u64,
                            PAGE_SIZE,
                            Placement::FirstTouch,
                        ),
                        pitch: n,
                    },
                }
            };
            let psi = mk(p, "psi");
            let rhs = mk(p, "rhs");
            let tmp = mk(p, "tmp");
            let resid = p.alloc_shared_labeled("resid", 8, 8, Placement::Node(0));
            layout_bc.put((psi, rhs, tmp, resid));
        }
        p.barrier(100);
        let (psi, rhs, tmp, resid) = layout_bc.get();

        // Parallel initialization (untimed): each processor touches its own
        // partition first — the "data distribution" step; under FirstTouch
        // it also homes the pages.
        let part = partition(version, n, p.nprocs(), me);
        let full_r0 = if part.r0 == 1 { 0 } else { part.r0 };
        let full_r1 = if part.r1 == n - 2 { n - 1 } else { part.r1 };
        let full_c0 = if part.c0 == 1 { 0 } else { part.c0 };
        let full_c1 = if part.c1 == n - 2 { n - 1 } else { part.c1 };
        let fw = full_c1 - full_c0 + 1;
        let mut buf = vec![0.0f64; fw];
        for i in full_r0..=full_r1 {
            for (l, b) in buf.iter_mut().enumerate() {
                *b = init_val(i, full_c0 + l, n);
            }
            write_f64_runs(p, &buf, |l| psi.addr(i, full_c0 + l));
            for (l, b) in buf.iter_mut().enumerate() {
                *b = rhs_val(i, full_c0 + l, n);
            }
            write_f64_runs(p, &buf, |l| rhs.addr(i, full_c0 + l));
            buf.fill(0.0);
            write_f64_runs(p, &buf, |l| tmp.addr(i, full_c0 + l));
        }
        p.barrier(101);
        p.start_timing();

        // Per-row staging buffers for the bulk fast path. Within a half-sweep
        // the four stencil neighbours of an updated cell all have the
        // opposite colour (and the stencil/residual phases only read psi), so
        // hoisting a whole row of reads ahead of the row's writes reads
        // exactly the values the per-point loop would.
        let w = part.c1 - part.c0 + 1;
        let (mut north, mut south) = (vec![0.0f64; w], vec![0.0f64; w]);
        let (mut west, mut east) = (vec![0.0f64; w], vec![0.0f64; w]);
        let (mut centre, mut aux) = (vec![0.0f64; w], vec![0.0f64; w]);
        let mut out_row = vec![0.0f64; w];

        for _step in 0..params.steps {
            // Stencil phase.
            for i in part.r0..=part.r1 {
                read_f64_runs(p, &mut north, |l| psi.addr(i - 1, part.c0 + l));
                read_f64_runs(p, &mut south, |l| psi.addr(i + 1, part.c0 + l));
                read_f64_runs(p, &mut west, |l| psi.addr(i, part.c0 - 1 + l));
                read_f64_runs(p, &mut east, |l| psi.addr(i, part.c0 + 1 + l));
                read_f64_runs(p, &mut centre, |l| psi.addr(i, part.c0 + l));
                for l in 0..w {
                    out_row[l] = north[l] + south[l] + west[l] + east[l] - 4.0 * centre[l];
                }
                write_f64_runs(p, &out_row, |l| tmp.addr(i, part.c0 + l));
                p.work_fused(6, w as u64);
            }
            p.barrier(0);
            // Red-black relaxation.
            for _sweep in 0..params.sweeps {
                for colour in 0..2u32 {
                    for i in part.r0..=part.r1 {
                        let jstart = part.c0 + ((colour as usize + i + part.c0) % 2);
                        if jstart > part.c1 {
                            continue;
                        }
                        let k = (part.c1 - jstart) / 2 + 1;
                        read_f64_runs(p, &mut north[..k], |l| psi.addr(i - 1, jstart + 2 * l));
                        read_f64_runs(p, &mut south[..k], |l| psi.addr(i + 1, jstart + 2 * l));
                        read_f64_runs(p, &mut west[..k], |l| psi.addr(i, jstart - 1 + 2 * l));
                        read_f64_runs(p, &mut east[..k], |l| psi.addr(i, jstart + 1 + 2 * l));
                        read_f64_runs(p, &mut aux[..k], |l| rhs.addr(i, jstart + 2 * l));
                        read_f64_runs(p, &mut out_row[..k], |l| tmp.addr(i, jstart + 2 * l));
                        read_f64_runs(p, &mut centre[..k], |l| psi.addr(i, jstart + 2 * l));
                        for l in 0..k {
                            let nb = north[l] + south[l] + west[l] + east[l];
                            let target = 0.25 * (nb - (aux[l] + 0.1 * out_row[l]));
                            centre[l] += 0.9 * (target - centre[l]);
                        }
                        write_f64_runs(p, &centre[..k], |l| psi.addr(i, jstart + 2 * l));
                        p.work_fused(10, k as u64);
                    }
                    p.barrier(1 + colour);
                }
            }
            // Residual reduction (lock-accumulated, as in SPLASH).
            let mut local = 0.0f64;
            for i in part.r0..=part.r1 {
                read_f64_runs(p, &mut aux, |l| rhs.addr(i, part.c0 + l));
                read_f64_runs(p, &mut centre, |l| psi.addr(i, part.c0 + l));
                for l in 0..w {
                    let d = aux[l] - centre[l];
                    local += d * d;
                }
                p.work_fused(3, w as u64);
            }
            p.lock(0);
            let g = p.read_f64(resid);
            p.write_f64(resid, g + local);
            p.unlock(0);
            p.barrier(3);
        }

        p.stop_timing();
        if me == 0 {
            let mut out = vec![0.0f64; n * n];
            for i in 0..n {
                read_f64_runs(p, &mut out[i * n..(i + 1) * n], |j| psi.addr(i, j));
            }
            *result.lock().unwrap() = out;
        }
    });

    let out = result.into_inner().unwrap();
    let want = reference(params);
    assert_close_slice(&out, &want, 1e-12, "Ocean psi");
    AppResult {
        stats,
        checksum: checksum_f64s(out.into_iter()),
    }
}

/// Run Ocean at a scale preset.
pub fn run(platform: Platform, nprocs: usize, scale: Scale, version: OceanVersion) -> AppResult {
    run_params(platform, nprocs, &OceanParams::at(scale), version)
}

/// Run Ocean at a scale preset with an explicit scheduler configuration.
pub fn run_cfg(
    platform: Platform,
    nprocs: usize,
    scale: Scale,
    version: OceanVersion,
    cfg: RunConfig,
) -> AppResult {
    run_params_cfg(platform, nprocs, &OceanParams::at(scale), version, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OceanParams {
        OceanParams {
            n: 16,
            steps: 1,
            sweeps: 2,
        }
    }

    #[test]
    fn colours_partition_interior() {
        // Every interior cell is updated exactly once per half-sweep pair.
        let n = 10;
        let mut count = vec![0u32; n * n];
        for colour in 0..2usize {
            for i in 1..n - 1 {
                let c0 = 1;
                let jstart = c0 + ((colour + i + c0) % 2);
                let mut j = jstart;
                while j <= n - 2 {
                    count[i * n + j] += 1;
                    j += 2;
                }
            }
        }
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                assert_eq!(count[i * n + j], 1, "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn all_versions_match_reference_on_svm() {
        for v in [
            OceanVersion::Orig2d,
            OceanVersion::PadAlign,
            OceanVersion::Contig4d,
            OceanVersion::RowWise,
        ] {
            let r = run_params(Platform::Svm, 4, &tiny(), v);
            assert!(r.stats.total_cycles() > 0, "{v:?}");
        }
    }

    #[test]
    fn rowwise_matches_on_all_platforms() {
        let a = run_params(Platform::Svm, 2, &tiny(), OceanVersion::RowWise);
        let b = run_params(Platform::Dsm, 2, &tiny(), OceanVersion::RowWise);
        let c = run_params(Platform::Smp, 2, &tiny(), OceanVersion::RowWise);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
    }

    #[test]
    fn uniprocessor_works() {
        let r = run_params(Platform::Svm, 1, &tiny(), OceanVersion::Orig2d);
        assert!(r.stats.total_cycles() > 0);
    }

    #[test]
    fn partitions_tile_the_interior() {
        for version in [OceanVersion::Orig2d, OceanVersion::RowWise] {
            let n = 32;
            let nprocs = 4;
            let mut seen = vec![false; n * n];
            for pid in 0..nprocs {
                let pt = partition(version, n, nprocs, pid);
                for i in pt.r0..=pt.r1 {
                    for j in pt.c0..=pt.c1 {
                        assert!(!seen[i * n + j], "{version:?}: overlap at ({i},{j})");
                        seen[i * n + j] = true;
                    }
                }
            }
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    assert!(seen[i * n + j], "{version:?}: hole at ({i},{j})");
                }
            }
        }
    }
}
