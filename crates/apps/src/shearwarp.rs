//! Shear-Warp — two-phase volume renderer (Lacroute factorization).
//!
//! The viewing transformation is factored into a *shear* (composite the
//! run-length-encoded volume slice by slice, with per-slice integer shifts,
//! into a distorted intermediate image) and a *warp* (resample the
//! intermediate image into the final image). Compositing walks RLE runs —
//! coarse-grained reads — and writes intermediate scanlines exclusively;
//! the warp is a per-row remap. (We use integer shears and a per-row
//! horizontal warp: a simplification of the paper's general affine warp
//! that preserves exactly the communication structure under study — who
//! writes which scanlines, and which phase reads whose data. See
//! DESIGN.md §1.)
//!
//! ## Versions (paper §4.2.2)
//!
//! * [`ShearWarpVersion::Orig`] — intermediate scanlines dealt to
//!   processors in small interleaved chunks (load balance); the warp uses a
//!   *different* partition (contiguous blocks of final rows). Between the
//!   phases the intermediate image must be redistributed — most of what a
//!   processor warps was composited by others — behind an expensive
//!   barrier, with heavy contention.
//! * [`ShearWarpVersion::PadAlign`] — intermediate scanlines padded to page
//!   boundaries: kills scanline-level false sharing, worth ~10% (paper).
//! * [`ShearWarpVersion::Repartitioned`] — the algorithmic change:
//!   *contiguous* blocks of scanlines, sized by a per-scanline cost profile
//!   derived from the RLE structure, and the *same* partition for both
//!   phases. A processor warps exactly the rows it composited, so the
//!   inter-phase barrier disappears and redistribution drops to zero
//!   (paper: 3.47 → 9.21).

use crate::common::{AppResult, Bcast, Platform, Scale};
use crate::volrend::generate_volume;
use crate::OptClass;
use sim_core::{run as sim_run, Placement, RunConfig, PAGE_SIZE};

/// Phase indices.
pub mod phase {
    /// RLE compositing into the intermediate image.
    pub const COMPOSITE: usize = 0;
    /// Warping the intermediate image into the final image.
    pub const WARP: usize = 1;
    /// Names, indexed by phase id (registered on the run's `RunConfig` so
    /// figures and traces print "composite" instead of "phase 0").
    pub const NAMES: [&str; 2] = ["composite", "warp"];
}

/// Shear-Warp problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct ShearWarpParams {
    /// Volume edge (voxels).
    pub v: usize,
    /// Frames rendered in the timed region.
    pub frames: usize,
    /// Early-termination opacity threshold.
    pub term: f32,
    /// Workload seed (volume generation).
    pub seed: u64,
}

impl ShearWarpParams {
    /// Parameters for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                v: 24,
                frames: 2,
                term: 0.95,
                seed: 11,
            },
            Scale::Default => Self {
                v: 64,
                frames: 3,
                term: 0.95,
                seed: 11,
            },
            Scale::Paper => Self {
                v: 128,
                frames: 4,
                term: 0.95,
                seed: 11,
            },
        }
    }
}

/// The versions of Shear-Warp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShearWarpVersion {
    /// Interleaved scanline chunks; block-partitioned warp; barrier between
    /// phases.
    Orig,
    /// Orig plus page-padded intermediate scanlines.
    PadAlign,
    /// Profile-balanced contiguous blocks shared by both phases; no
    /// inter-phase barrier.
    Repartitioned,
}

/// Map the paper's optimization class to a Shear-Warp version.
pub fn version_for(class: OptClass) -> ShearWarpVersion {
    match class {
        OptClass::Orig => ShearWarpVersion::Orig,
        OptClass::PadAlign => ShearWarpVersion::PadAlign,
        // The paper used no data-structure reorganization for Shear-Warp.
        OptClass::DataStruct => ShearWarpVersion::PadAlign,
        OptClass::Algorithm => ShearWarpVersion::Repartitioned,
    }
}

const SHX: f64 = 0.30;
const SHY: f64 = 0.20;

/// Derived geometry: margins and intermediate-image dimensions.
#[derive(Clone, Copy, Debug)]
pub struct Geom {
    /// Volume edge.
    pub v: usize,
    /// Horizontal margin.
    pub mx: usize,
    /// Vertical margin.
    pub my: usize,
    /// Intermediate/final image width.
    pub ix: usize,
    /// Intermediate/final image height.
    pub iy: usize,
}

impl Geom {
    /// Geometry for a volume edge.
    pub fn new(v: usize) -> Self {
        let mx = (SHX * v as f64 / 2.0).ceil() as usize + 1;
        let my = (SHY * v as f64 / 2.0).ceil() as usize + 1;
        Self {
            v,
            mx,
            my,
            ix: v + 2 * mx,
            iy: v + 2 * my,
        }
    }

    /// Per-slice integer shear shifts.
    pub fn shift(&self, z: usize) -> (i64, i64) {
        let zc = z as f64 - self.v as f64 / 2.0;
        ((SHX * zc).round() as i64, (SHY * zc).round() as i64)
    }

    /// Per-row warp shift for the final image.
    pub fn warp_shift(&self, y: usize) -> i64 {
        (0.25 * (y as f64 - self.iy as f64 / 2.0)).round() as i64
    }
}

/// Run-length encoding of a volume: per (slice, scanline) a list of
/// (skip, literal-length) pairs plus the packed opaque voxel bytes.
pub struct Rle {
    /// (skip << 16) | len, per run.
    pub runs: Vec<u32>,
    /// Per (z*v + y): (first run index, run count, first voxel index).
    pub index: Vec<(u32, u32, u32)>,
    /// Packed non-transparent voxel values.
    pub vox: Vec<u8>,
}

/// Build the RLE from a raw volume.
pub fn encode(vol: &[u8], v: usize) -> Rle {
    let mut runs = Vec::new();
    let mut index = Vec::with_capacity(v * v);
    let mut vox = Vec::new();
    for z in 0..v {
        for y in 0..v {
            let first_run = runs.len() as u32;
            let first_vox = vox.len() as u32;
            let row = &vol[(z * v + y) * v..(z * v + y) * v + v];
            let mut x = 0usize;
            while x < v {
                let skip_start = x;
                while x < v && row[x] == 0 {
                    x += 1;
                }
                let skip = x - skip_start;
                let lit_start = x;
                while x < v && row[x] != 0 {
                    x += 1;
                }
                let len = x - lit_start;
                if skip > 0 || len > 0 {
                    runs.push(((skip as u32) << 16) | len as u32);
                    vox.extend_from_slice(&row[lit_start..lit_start + len]);
                }
            }
            index.push((first_run, runs.len() as u32 - first_run, first_vox));
        }
    }
    Rle { runs, index, vox }
}

#[inline]
fn transfer(d: u8) -> (f32, f32) {
    let x = d as f32 / 255.0;
    (x * x * 0.4, x)
}

/// Sequential reference: the final image, row-major f32.
pub fn reference(params: &ShearWarpParams) -> Vec<f32> {
    let g = Geom::new(params.v);
    let vol = generate_volume(&crate::volrend::VolrendParams {
        v: params.v,
        frames: 1,
        term: params.term,
        seed: params.seed,
    });
    let rle = encode(&vol, params.v);
    let mut inter = vec![(0.0f32, 0.0f32); g.ix * g.iy];
    for u in 0..g.iy {
        for z in 0..params.v {
            let (sx, sy) = g.shift(z);
            let yv = u as i64 - g.my as i64 - sy;
            if yv < 0 || yv >= params.v as i64 {
                continue;
            }
            let (r0, rc, v0) = rle.index[z * params.v + yv as usize];
            let mut x = 0i64;
            let mut vi = v0 as usize;
            for r in r0..r0 + rc {
                let run = rle.runs[r as usize];
                x += (run >> 16) as i64;
                for _ in 0..(run & 0xffff) {
                    let d = rle.vox[vi];
                    vi += 1;
                    let xi = x + g.mx as i64 + sx;
                    x += 1;
                    let px = &mut inter[u * g.ix + xi as usize];
                    if px.1 > params.term {
                        continue;
                    }
                    let (op, it) = transfer(d);
                    let w = (1.0 - px.1) * op;
                    px.0 += w * it;
                    px.1 += w;
                }
            }
        }
    }
    // Warp.
    let mut fin = vec![0.0f32; g.ix * g.iy];
    for y in 0..g.iy {
        let ws = g.warp_shift(y);
        for x in 0..g.ix {
            let sxp = x as i64 - ws;
            if sxp >= 0 && (sxp as usize) < g.ix {
                fin[y * g.ix + x] = inter[y * g.ix + sxp as usize].0;
            }
        }
    }
    fin
}

/// Scanline → owner for the composite phase.
fn scan_owner(version: ShearWarpVersion, bounds: &[usize], nprocs: usize, u: usize) -> usize {
    match version {
        ShearWarpVersion::Repartitioned => {
            // Contiguous cost-balanced blocks: bounds[p] .. bounds[p+1].
            match bounds.binary_search(&u) {
                Ok(p) => p.min(nprocs - 1),
                Err(p) => p - 1,
            }
        }
        _ => (u / 2) % nprocs, // interleaved chunks of 2 scanlines
    }
}

/// Run Shear-Warp; panics unless the final image matches the reference
/// bit-for-bit.
pub fn run_params(
    platform: Platform,
    nprocs: usize,
    params: &ShearWarpParams,
    version: ShearWarpVersion,
) -> AppResult {
    run_params_cfg(platform, nprocs, params, version, RunConfig::new(nprocs))
}

/// Like [`run_params`] with an explicit scheduler configuration (quantum,
/// race detection, run label).
pub fn run_params_cfg(
    platform: Platform,
    nprocs: usize,
    params: &ShearWarpParams,
    version: ShearWarpVersion,
    cfg: RunConfig,
) -> AppResult {
    let cfg = if cfg.phase_names.is_empty() {
        cfg.with_phase_names(phase::NAMES)
    } else {
        cfg
    };
    let g = Geom::new(params.v);
    let v = params.v;
    let vol = generate_volume(&crate::volrend::VolrendParams {
        v,
        frames: 1,
        term: params.term,
        seed: params.seed,
    });
    let rle = encode(&vol, v);
    // Cost profile: opaque voxels landing on each intermediate scanline.
    let mut cost = vec![0u64; g.iy];
    for z in 0..v {
        let (_, sy) = g.shift(z);
        for y in 0..v {
            let (r0, rc, _) = rle.index[z * v + y];
            let lit: u64 = (r0..r0 + rc)
                .map(|r| (rle.runs[r as usize] & 0xffff) as u64)
                .sum();
            let u = (y as i64 + g.my as i64 + sy) as usize;
            cost[u] += lit;
        }
    }
    // Cost-balanced contiguous partition bounds (Repartitioned).
    let total: u64 = cost.iter().sum();
    let mut bounds = vec![0usize; nprocs + 1];
    bounds[nprocs] = g.iy;
    {
        let mut acc = 0u64;
        let mut p = 1;
        for (u, c) in cost.iter().enumerate() {
            acc += c;
            while p < nprocs && acc * nprocs as u64 >= total * p as u64 && bounds[p] == 0 {
                bounds[p] = u + 1;
                p += 1;
            }
        }
        for p in 1..nprocs {
            if bounds[p] == 0 {
                bounds[p] = bounds[p - 1].max(1);
            }
        }
    }

    // Intermediate scanline stride in bytes (8 per pixel: colour + alpha).
    let row_bytes = (g.ix * 8) as u64;
    let row_stride = if matches!(version, ShearWarpVersion::Orig) {
        row_bytes
    } else {
        // Scanlines padded to the platform's coherence grain.
        let grain = platform.grain();
        row_bytes.div_ceil(grain) * grain
    };
    let layout_bc: Bcast<(u64, u64, u64, u64, u64, u64)> = Bcast::new();
    let result = std::sync::Mutex::new(Vec::new());

    let stats = sim_run(platform.boxed(nprocs), cfg, |p| {
        let me = p.pid();
        let np = p.nprocs();
        if me == 0 {
            // Read-only RLE structures.
            let runs_a = p.alloc_shared(
                (rle.runs.len().max(1) * 4) as u64,
                PAGE_SIZE,
                Placement::RoundRobin,
            );
            p.write_u32_slice(runs_a, 4, &rle.runs);
            let index_a = p.alloc_shared(
                (rle.index.len() * 12) as u64,
                PAGE_SIZE,
                Placement::RoundRobin,
            );
            // One strided bulk store per field of the (r0, rc, v0) triples.
            for (off, field) in [
                (0u64, rle.index.iter().map(|t| t.0).collect::<Vec<u32>>()),
                (4, rle.index.iter().map(|t| t.1).collect()),
                (8, rle.index.iter().map(|t| t.2).collect()),
            ] {
                p.write_u32_slice(index_a + off, 12, &field);
            }
            let vox_a = p.alloc_shared(
                rle.vox.len().max(1) as u64,
                PAGE_SIZE,
                Placement::RoundRobin,
            );
            let mut vb = [0u64; 256];
            for (ci, ch) in rle.vox.chunks(256).enumerate() {
                for (s, &d) in vb.iter_mut().zip(ch) {
                    *s = d as u64;
                }
                p.store_slice(vox_a + (ci * 256) as u64, 1, 1, &vb[..ch.len()]);
            }
            // Intermediate and final images. FirstTouch + parallel init
            // homes scanlines at their composite-phase owners.
            let inter_a =
                p.alloc_shared(g.iy as u64 * row_stride, PAGE_SIZE, Placement::FirstTouch);
            let fin_a = p.alloc_shared((g.iy * g.ix * 4) as u64, PAGE_SIZE, Placement::FirstTouch);
            layout_bc.put((runs_a, index_a, vox_a, inter_a, fin_a, 0));
        }
        p.barrier(100);
        let (runs_a, index_a, vox_a, inter_a, fin_a, _) = layout_bc.get();
        let ipix = |u: usize, x: usize| inter_a + u as u64 * row_stride + (x * 8) as u64;
        // Bulk staging buffers (a literal run spans at most one volume edge).
        let mut vox_buf = vec![0u64; v];
        let mut alpha_buf = vec![0u64; v];
        let mut row_buf = vec![0u64; g.ix];

        // Untimed parallel init: zero my intermediate scanlines and final
        // rows (first touch).
        for u in 0..g.iy {
            if scan_owner(version, &bounds, np, u) == me {
                p.fill(ipix(u, 0), 4, 2 * g.ix as u64, 0);
            }
            // Final image: warp partition (contiguous blocks for Orig/P-A,
            // composite partition for Repartitioned).
            let warp_owner = if matches!(version, ShearWarpVersion::Repartitioned) {
                scan_owner(version, &bounds, np, u)
            } else {
                (u * np / g.iy).min(np - 1)
            };
            if warp_owner == me {
                p.fill(fin_a + (u * g.ix * 4) as u64, 4, g.ix as u64, 0);
            }
        }
        p.barrier(101);

        // One untimed warm-up frame (SPLASH-2 methodology): cold page
        // faults on the read-only RLE structures happen here, so the timed
        // region measures steady-state behaviour.
        for frame in 0..params.frames + 1 {
            if frame == 1 {
                p.start_timing();
            }
            // Clear my intermediate scanlines (each frame recomposites).
            p.set_phase(phase::COMPOSITE);
            for u in 0..g.iy {
                if scan_owner(version, &bounds, np, u) == me {
                    p.fill(ipix(u, 0), 4, 2 * g.ix as u64, 0);
                    p.work(2 * g.ix as u64);
                }
            }

            // --- Composite phase ---
            for u in 0..g.iy {
                if scan_owner(version, &bounds, np, u) != me {
                    continue;
                }
                for z in 0..v {
                    let (sx, sy) = g.shift(z);
                    let yv = u as i64 - g.my as i64 - sy;
                    if yv < 0 || yv >= v as i64 {
                        continue;
                    }
                    let ib = index_a + ((z * v + yv as usize) * 12) as u64;
                    let mut tri = [0u64; 3];
                    p.load_slice(ib, 4, 4, &mut tri);
                    let (r0, rc, v0) = (tri[0] as u32, tri[1] as u32, tri[2] as u32);
                    p.work(6);
                    let mut x = 0i64;
                    let mut vi = v0 as u64;
                    for r in r0..r0 + rc {
                        let run = p.load(runs_a + (r as u64) * 4, 4) as u32;
                        x += (run >> 16) as i64;
                        p.work(3);
                        let len = (run & 0xffff) as usize;
                        if len == 0 {
                            continue;
                        }
                        // A literal run touches `len` *distinct* pixels, so
                        // hoisting the voxel bytes and current alphas ahead
                        // of the run's read-modify-writes reads exactly what
                        // the per-voxel loop would.
                        let xi0 = (x + g.mx as i64 + sx) as usize;
                        p.load_slice(vox_a + vi, 1, 1, &mut vox_buf[..len]);
                        p.load_slice(ipix(u, xi0) + 4, 8, 4, &mut alpha_buf[..len]);
                        p.work_fused(4, len as u64);
                        for k in 0..len {
                            let a = f32::from_bits(alpha_buf[k] as u32);
                            if a > params.term {
                                continue;
                            }
                            let (op, it) = transfer(vox_buf[k] as u8);
                            let w = (1.0 - a) * op;
                            let xi = xi0 + k;
                            let c = f32::from_bits(p.load(ipix(u, xi), 4) as u32);
                            p.store(ipix(u, xi), 4, (c + w * it).to_bits() as u64);
                            p.store(ipix(u, xi) + 4, 4, (a + w).to_bits() as u64);
                            p.work(6);
                        }
                        vi += len as u64;
                        x += len as i64;
                    }
                }
            }
            // The original algorithm must redistribute the intermediate image
            // before warping; the repartitioned algorithm warps its own data.
            if !matches!(version, ShearWarpVersion::Repartitioned) {
                p.barrier(0);
            }

            // --- Warp phase ---
            p.set_phase(phase::WARP);
            for y in 0..g.iy {
                let warp_owner = if matches!(version, ShearWarpVersion::Repartitioned) {
                    scan_owner(version, &bounds, np, y)
                } else {
                    (y * np / g.iy).min(np - 1)
                };
                if warp_owner != me {
                    continue;
                }
                let ws = g.warp_shift(y);
                // Valid source pixels exist for x in [x0, x1); outside that
                // the final row gets zeros.
                let x0 = ws.clamp(0, g.ix as i64) as usize;
                let x1 = (g.ix as i64 + ws).clamp(0, g.ix as i64) as usize;
                row_buf.fill(0);
                if x1 > x0 {
                    p.load_slice(
                        ipix(y, (x0 as i64 - ws) as usize),
                        8,
                        4,
                        &mut row_buf[x0..x1],
                    );
                }
                p.store_slice(fin_a + (y * g.ix * 4) as u64, 4, 4, &row_buf);
                p.work_fused(3, g.ix as u64);
            }
            p.barrier(1);
        } // frames

        p.stop_timing();
        if me == 0 {
            let mut raw = vec![0u32; g.iy * g.ix];
            p.read_u32_slice(fin_a, 4, &mut raw);
            *result.lock().unwrap() = raw.iter().map(|&b| f32::from_bits(b)).collect();
        }
    });

    let out = result.into_inner().unwrap();
    let want = reference(params);
    assert_eq!(out.len(), want.len());
    for (i, (gt, w)) in out.iter().zip(&want).enumerate() {
        assert!(gt == w, "Shear-Warp pixel {i} differs: got {gt}, want {w}");
    }
    AppResult {
        stats,
        checksum: crate::common::checksum_f64s(out.iter().map(|&f| f as f64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ShearWarpParams {
        ShearWarpParams {
            v: 16,
            frames: 2,
            term: 0.95,
            seed: 11,
        }
    }

    #[test]
    fn rle_round_trips() {
        let params = tiny();
        let vol = generate_volume(&crate::volrend::VolrendParams {
            v: params.v,
            frames: 1,
            term: params.term,
            seed: params.seed,
        });
        let rle = encode(&vol, params.v);
        // Decode and compare.
        for z in 0..params.v {
            for y in 0..params.v {
                let (r0, rc, v0) = rle.index[z * params.v + y];
                let mut row = vec![0u8; params.v];
                let mut x = 0usize;
                let mut vi = v0 as usize;
                for r in r0..r0 + rc {
                    let run = rle.runs[r as usize];
                    x += (run >> 16) as usize;
                    for _ in 0..(run & 0xffff) {
                        row[x] = rle.vox[vi];
                        x += 1;
                        vi += 1;
                    }
                }
                assert_eq!(
                    &row[..],
                    &vol[(z * params.v + y) * params.v..(z * params.v + y + 1) * params.v],
                    "scanline ({z},{y})"
                );
            }
        }
    }

    #[test]
    fn reference_image_is_nontrivial() {
        let img = reference(&tiny());
        assert!(img.iter().filter(|&&c| c > 0.0).count() > 20);
    }

    #[test]
    fn all_versions_match_reference_on_svm() {
        for ver in [
            ShearWarpVersion::Orig,
            ShearWarpVersion::PadAlign,
            ShearWarpVersion::Repartitioned,
        ] {
            let r = run_params(Platform::Svm, 4, &tiny(), ver);
            assert!(r.stats.total_cycles() > 0, "{ver:?}");
        }
    }

    #[test]
    fn works_on_all_platforms() {
        let a = run_params(Platform::Svm, 2, &tiny(), ShearWarpVersion::Orig);
        let b = run_params(Platform::Dsm, 2, &tiny(), ShearWarpVersion::Repartitioned);
        let c = run_params(Platform::Smp, 2, &tiny(), ShearWarpVersion::PadAlign);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
    }

    #[test]
    fn uniprocessor_works() {
        let r = run_params(Platform::Svm, 1, &tiny(), ShearWarpVersion::Orig);
        assert!(r.stats.total_cycles() > 0);
    }

    #[test]
    fn cost_partition_covers_all_rows() {
        // Construct bounds like run_params does and check they tile 0..iy.
        let g = Geom::new(32);
        let nprocs = 4;
        let cost: Vec<u64> = (0..g.iy).map(|u| (u % 7) as u64 + 1).collect();
        let total: u64 = cost.iter().sum();
        let mut bounds = vec![0usize; nprocs + 1];
        bounds[nprocs] = g.iy;
        let mut acc = 0u64;
        let mut p = 1;
        for (u, c) in cost.iter().enumerate() {
            acc += c;
            while p < nprocs && acc * nprocs as u64 >= total * p as u64 && bounds[p] == 0 {
                bounds[p] = u + 1;
                p += 1;
            }
        }
        for w in bounds.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[nprocs], g.iy);
    }
}
