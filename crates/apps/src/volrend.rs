//! Volrend — ray-casting volume renderer (SPLASH-2).
//!
//! A parallel-projection ray caster: for every image pixel a ray marches
//! through a read-only density volume, compositing opacity-weighted
//! intensity with early ray termination. Work per pixel is highly
//! non-uniform (dense regions terminate early; empty regions march the full
//! depth), so the application uses distributed task queues of pixel tiles
//! with task stealing.
//!
//! ## Versions (paper §4.2.1)
//!
//! * [`VolrendVersion::Orig`] — SPLASH-2: the image is divided into `P`
//!   contiguous blocks of tiles; per-processor task queues with stealing.
//!   Queues are packed (false-shared) and the small image's partition pages
//!   interleave owners.
//! * [`VolrendVersion::PadQueues`] — every queue entry padded to a page:
//!   false sharing goes away but fragmentation up, prefetching lost; "not
//!   very beneficial" (paper).
//! * [`VolrendVersion::Image4d`] — the image as a 4-d array (partition
//!   blocks contiguous, page-aligned, owner-homed). **Hurts** performance:
//!   pixel addressing costs more and interacts with stealing (the paper
//!   measured 7.09 → 6.27).
//! * [`VolrendVersion::Balanced`] — the algorithmic fix: many small tile
//!   blocks assigned round-robin (better initial balance), stealing kept.
//! * [`VolrendVersion::BalancedNoSteal`] — same initial assignment, no
//!   stealing: trades barrier imbalance for lock traffic; slightly better
//!   still on SVM (11.42 → 11.70 in the paper).

use crate::common::{read_u32_runs, AppResult, Bcast, Platform, Scale};
use crate::OptClass;
use sim_core::util::XorShift64;
use sim_core::{run as sim_run, Placement, RunConfig, PAGE_SIZE};

/// Tile edge in pixels.
pub const TILE: usize = 8;

/// Volrend problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct VolrendParams {
    /// Volume edge (voxels); the image is `2v x 2v` pixels (two rays per
    /// voxel, as the paper's 256x225 image over a 256-voxel head).
    pub v: usize,
    /// Frames rendered in the timed region (cold page faults on the
    /// read-only volume amortize over frames, as in the paper's runs).
    pub frames: usize,
    /// Opacity threshold for early ray termination.
    pub term: f32,
    /// Workload seed.
    pub seed: u64,
}

impl VolrendParams {
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
                v: 80,
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

/// The restructured versions of Volrend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolrendVersion {
    /// SPLASH-2 blocks + stealing.
    Orig,
    /// Page-padded task-queue entries.
    PadQueues,
    /// 4-d partition-contiguous image (the pessimization).
    Image4d,
    /// Fine-grained round-robin initial assignment + stealing.
    Balanced,
    /// Fine-grained round-robin initial assignment, no stealing.
    BalancedNoSteal,
}

/// Map the paper's optimization class to a Volrend version.
pub fn version_for(class: OptClass) -> VolrendVersion {
    match class {
        OptClass::Orig => VolrendVersion::Orig,
        OptClass::PadAlign => VolrendVersion::PadQueues,
        OptClass::DataStruct => VolrendVersion::Image4d,
        OptClass::Algorithm => VolrendVersion::BalancedNoSteal,
    }
}

/// Procedural density volume: nested ellipsoid shells + sparse noise,
/// mimicking the run-length structure of the paper's CT head.
pub fn generate_volume(params: &VolrendParams) -> Vec<u8> {
    let v = params.v;
    let c = v as f64 / 2.0;
    let mut rng = XorShift64::new(params.seed);
    let mut vol = vec![0u8; v * v * v];
    for z in 0..v {
        for y in 0..v {
            for x in 0..v {
                let dx = (x as f64 - c) / c;
                let dy = (y as f64 - c) / (0.8 * c);
                let dz = (z as f64 - c) / (0.9 * c);
                let r = (dx * dx + dy * dy + dz * dz).sqrt();
                let mut d = 0.0f64;
                if (r - 0.55).abs() < 0.06 {
                    d = 220.0; // outer shell ("skull")
                } else if r < 0.38 {
                    d = 90.0 + 60.0 * ((x / 3 + y / 3 + z / 3) % 2) as f64; // interior
                } else if r < 0.52 && rng.f64() < 0.02 {
                    d = 40.0; // sparse wisps
                }
                vol[(z * v + y) * v + x] = d as u8;
            }
        }
    }
    vol
}

/// Per-column (vy, vx) occupancy range: (zmin, zmax_exclusive). The SPLASH-2
/// Volrend skips empty space with a min-max octree; a per-column range map
/// captures the same effect for axis-aligned rays: rays outside the object
/// cost almost nothing, which is precisely what makes the original block
/// partition so imbalanced.
pub fn zrange_map(vol: &[u8], v: usize) -> Vec<(u8, u8)> {
    let mut map = vec![(255u8, 0u8); v * v];
    for z in 0..v {
        for y in 0..v {
            for x in 0..v {
                if vol[(z * v + y) * v + x] != 0 {
                    let e = &mut map[y * v + x];
                    e.0 = e.0.min(z as u8);
                    e.1 = e.1.max(z as u8 + 1);
                }
            }
        }
    }
    map
}

#[inline]
fn transfer(d: u8) -> (f32, f32) {
    // (opacity, intensity)
    let x = d as f32 / 255.0;
    (x * x * 0.22, x)
}

/// Cast the ray for image pixel (x, y) of the `2v x 2v` image; identical
/// math for reference and parallel versions. `vol` indexes the volume;
/// gradient-based shading reads the two z-neighbours of every
/// non-transparent sample (as SPLASH-2 Volrend shades with gradients).
fn cast(
    mut vol: impl FnMut(usize) -> u8,
    range: (u8, u8),
    v: usize,
    x: usize,
    y: usize,
    term: f32,
) -> f32 {
    let (vx, vy) = (x / 2, y / 2);
    let mut alpha = 0.0f32;
    let mut colour = 0.0f32;
    for z in range.0 as usize..range.1 as usize {
        let d = vol((z * v + vy) * v + vx);
        if d == 0 {
            continue;
        }
        let zm = vol((z.saturating_sub(1) * v + vy) * v + vx);
        let zp = vol(((z + 1).min(v - 1) * v + vy) * v + vx);
        let grad = ((zp as f32 - zm as f32) / 255.0).abs();
        let (op, it) = transfer(d);
        let w = (1.0 - alpha) * op;
        colour += w * it * (0.6 + 0.4 * grad);
        alpha += w;
        if alpha > term {
            break;
        }
    }
    colour
}

/// Sequential reference image (row-major f32, `2v x 2v`).
pub fn reference(params: &VolrendParams) -> Vec<f32> {
    let v = params.v;
    let n = 2 * v;
    let vol = generate_volume(params);
    let zr = zrange_map(&vol, v);
    let mut img = vec![0.0f32; n * n];
    for y in 0..n {
        for x in 0..n {
            img[y * n + x] = cast(|i| vol[i], zr[(y / 2) * v + x / 2], v, x, y, params.term);
        }
    }
    img
}

/// Image layout (2-d row-major or 4-d partition blocks).
#[derive(Clone, Copy)]
enum Img {
    G2 {
        base: u64,
        n: usize,
    },
    G4 {
        base: u64,
        brows: usize,
        bcols: usize,
        bpr: usize,
        bsz: u64,
    },
}

impl Img {
    #[inline(always)]
    fn addr(&self, x: usize, y: usize) -> u64 {
        match *self {
            Img::G2 { base, n } => base + ((y * n + x) as u64) * 4,
            Img::G4 {
                base,
                brows,
                bcols,
                bpr,
                bsz,
            } => {
                let (bi, ri) = (y / brows, y % brows);
                let (bj, cj) = (x / bcols, x % bcols);
                base + (bi * bpr + bj) as u64 * bsz + ((ri * bcols + cj) as u64) * 4
            }
        }
    }
}

/// Whether `version` lays the image out over `nprocs` processors: the 4-d
/// image's blocks must tile its edge exactly.
pub(crate) fn check_nprocs(
    params: &VolrendParams,
    version: VolrendVersion,
    nprocs: usize,
) -> Result<(), String> {
    let (n, (pr, pc)) = (2 * params.v, proc_grid(nprocs));
    if version != VolrendVersion::Image4d || (n % pr == 0 && n % pc == 0) {
        return Ok(());
    }
    Err(format!(
        "the {n}-pixel image edge does not divide into a {pr}x{pc} block grid"
    ))
}

fn proc_grid(nprocs: usize) -> (usize, usize) {
    let mut pr = (nprocs as f64).sqrt() as usize;
    while !nprocs.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr, nprocs / pr)
}

/// Initial tile→processor assignment.
fn tile_owner(
    version: VolrendVersion,
    tiles_x: usize,
    tiles_y: usize,
    nprocs: usize,
    tx: usize,
    ty: usize,
) -> usize {
    match version {
        VolrendVersion::Balanced | VolrendVersion::BalancedNoSteal => {
            // Small 2x2-tile groups dealt round-robin.
            let gx = tx / 2;
            let gy = ty / 2;
            let groups_x = tiles_x.div_ceil(2);
            (gy * groups_x + gx) % nprocs
        }
        _ => {
            // P contiguous blocks of tiles.
            let (pr, pc) = proc_grid(nprocs);
            let bi = (ty * pr / tiles_y).min(pr - 1);
            let bj = (tx * pc / tiles_x).min(pc - 1);
            bi * pc + bj
        }
    }
}

const LOCK_QUEUE_BASE: u32 = 500;

/// Run Volrend on a platform; panics unless the image matches the
/// sequential reference bit-for-bit.
pub fn run_params(
    platform: Platform,
    nprocs: usize,
    params: &VolrendParams,
    version: VolrendVersion,
) -> AppResult {
    run_params_cfg(platform, nprocs, params, version, RunConfig::new(nprocs))
}

/// Like [`run_params`] with an explicit scheduler configuration (quantum,
/// race detection, run label).
pub fn run_params_cfg(
    platform: Platform,
    nprocs: usize,
    params: &VolrendParams,
    version: VolrendVersion,
    cfg: RunConfig,
) -> AppResult {
    check_nprocs(params, version, nprocs).unwrap_or_else(|e| panic!("Volrend: {e}"));
    let v = params.v;
    let n = 2 * v; // image edge
    assert_eq!(n % TILE, 0);
    let tiles = n / TILE;
    let total_tiles = tiles * tiles;
    let vol = generate_volume(params);
    let layout_bc: Bcast<(u64, u64, u64, Img, u64, u64)> = Bcast::new();
    let result = std::sync::Mutex::new(Vec::new());
    let steal = !matches!(version, VolrendVersion::BalancedNoSteal);
    // Queue entry stride: packed u32 or one page per entry (PadQueues).
    let estride: u64 = if matches!(version, VolrendVersion::PadQueues) {
        platform.grain()
    } else {
        4
    };

    let stats = sim_run(platform.boxed(nprocs), cfg, |p| {
        let me = p.pid();
        let np = p.nprocs();
        if me == 0 {
            // Read-only volume, round-robin pages (all share it).
            let volume = p.alloc_shared_labeled(
                "volume",
                (v * v * v) as u64,
                PAGE_SIZE,
                Placement::RoundRobin,
            );
            let mut bb = [0u64; 256];
            for (ci, ch) in vol.chunks(256).enumerate() {
                for (s, &d) in bb.iter_mut().zip(ch) {
                    *s = d as u64;
                }
                p.store_slice(volume + (ci * 256) as u64, 1, 1, &bb[..ch.len()]);
            }
            // Min-max skip map (read-only): (lo, hi) byte pairs are
            // contiguous, so flatten and bulk-store.
            let zr = zrange_map(&vol, v);
            let zmap = p.alloc_shared((v * v * 2) as u64, PAGE_SIZE, Placement::RoundRobin);
            let zflat: Vec<u8> = zr.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
            for (ci, ch) in zflat.chunks(256).enumerate() {
                for (s, &d) in bb.iter_mut().zip(ch) {
                    *s = d as u64;
                }
                p.store_slice(zmap + (ci * 256) as u64, 1, 1, &bb[..ch.len()]);
            }
            // Transfer tables (read-only, small): (op, it) f32 pairs are one
            // contiguous word stream.
            let table = p.alloc_shared(256 * 8, PAGE_SIZE, Placement::Node(0));
            let twords: Vec<u32> = (0..256usize)
                .flat_map(|d| {
                    let (op, it) = transfer(d as u8);
                    [op.to_bits(), it.to_bits()]
                })
                .collect();
            p.write_u32_slice(table, 4, &twords);
            // Image.
            let img = match version {
                VolrendVersion::Image4d => {
                    let (pr, pc) = proc_grid(np);
                    let brows = n / pr;
                    let bcols = n / pc;
                    let bsz = ((brows * bcols * 4) as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;
                    Img::G4 {
                        base: p.alloc_shared(
                            bsz * (pr * pc) as u64,
                            PAGE_SIZE,
                            Placement::Blocked {
                                chunk_pages: bsz / PAGE_SIZE,
                            },
                        ),
                        brows,
                        bcols,
                        bpr: pc,
                        bsz,
                    }
                }
                _ => Img::G2 {
                    base: p.alloc_shared((n * n * 4) as u64, PAGE_SIZE, Placement::RoundRobin),
                    n,
                },
            };
            // Task queues: one contiguous [count | pad | entries...] record
            // per processor, packed back to back (as the SPLASH array-of-
            // structs layout) so neighbouring queues share pages — the
            // false sharing the P/A version attacks by padding entries.
            let qstride = 64 + total_tiles as u64 * estride;
            let queues = p.alloc_shared(np as u64 * qstride, PAGE_SIZE, Placement::RoundRobin);
            layout_bc.put((volume, zmap, table, img, queues, qstride));
        }
        p.barrier(100);
        let (volume, zmap, table, img, queues, qstride) = layout_bc.get();
        let qcount = |q: usize| queues + (q as u64) * qstride;
        let qentry = |q: usize, i: u64| queues + (q as u64) * qstride + 64 + i * estride;
        // My initial tile assignment (fixed across frames).
        let mut mine = Vec::new();
        for ty in 0..tiles {
            for tx in 0..tiles {
                if tile_owner(version, tiles, tiles, np, tx, ty) == me {
                    mine.push((ty * tiles + tx) as u32);
                }
            }
        }
        let mine_u64: Vec<u64> = mine.iter().map(|&t| t as u64).collect();
        for frame in 0..params.frames + 1 {
            // Frame 0 is an untimed warm-up (SPLASH-2 methodology): it faults
            // in the read-only volume so the timed frames measure steady state.
            if frame == 1 {
                p.start_timing();
            }
            p.lock(LOCK_QUEUE_BASE + me as u32);
            p.store_slice(qentry(me, 0), estride, 4, &mine_u64);
            p.write_u32(qcount(me), mine.len() as u32);
            p.unlock(LOCK_QUEUE_BASE + me as u32);
            p.barrier(0);

            // Render loop: pop own queue, then steal.
            let mut victim = me;
            loop {
                // Try to pop from `victim`'s queue.
                p.lock(LOCK_QUEUE_BASE + victim as u32);
                let c = p.read_u32(qcount(victim));
                let task = if c > 0 {
                    let t = p.load(qentry(victim, (c - 1) as u64), 4) as u32;
                    p.write_u32(qcount(victim), c - 1);
                    Some(t)
                } else {
                    None
                };
                p.unlock(LOCK_QUEUE_BASE + victim as u32);
                match task {
                    Some(t) => {
                        let (ty, tx) = ((t as usize) / tiles, (t as usize) % tiles);
                        for py in 0..TILE {
                            for px in 0..TILE {
                                let (x, y) = (tx * TILE + px, ty * TILE + py);
                                let (vx, vy) = (x / 2, y / 2);
                                // Empty-space skip: per-column occupancy range.
                                let mut zpair = [0u64; 2];
                                p.load_slice(zmap + ((vy * v + vx) * 2) as u64, 1, 1, &mut zpair);
                                let (zlo, zhi) = (zpair[0] as usize, zpair[1] as usize);
                                p.work(4);
                                // March the ray through the occupied range.
                                let mut alpha = 0.0f32;
                                let mut colour = 0.0f32;
                                for z in zlo..zhi {
                                    let d =
                                        p.load(volume + ((z * v + vy) * v + vx) as u64, 1) as u8;
                                    p.work(6);
                                    if d == 0 {
                                        continue;
                                    }
                                    // Gradient shading: two neighbour samples.
                                    let zm = p.load(
                                        volume + ((z.saturating_sub(1) * v + vy) * v + vx) as u64,
                                        1,
                                    ) as u8;
                                    let zp = p.load(
                                        volume + (((z + 1).min(v - 1) * v + vy) * v + vx) as u64,
                                        1,
                                    ) as u8;
                                    let grad = ((zp as f32 - zm as f32) / 255.0).abs();
                                    let op =
                                        f32::from_bits(p.load(table + (d as u64) * 8, 4) as u32);
                                    let it = f32::from_bits(
                                        p.load(table + (d as u64) * 8 + 4, 4) as u32
                                    );
                                    let w = (1.0 - alpha) * op;
                                    colour += w * it * (0.6 + 0.4 * grad);
                                    alpha += w;
                                    p.work(30); // interpolation, gradient, shading
                                    if alpha > params.term {
                                        break;
                                    }
                                }
                                if matches!(version, VolrendVersion::Image4d) {
                                    p.work(8); // extra 4-d addressing arithmetic
                                }
                                p.store(img.addr(x, y), 4, colour.to_bits() as u64);
                            }
                        }
                        // After a stolen task, return to the own queue first
                        // (steal one at a time, as SPLASH does).
                        victim = me;
                    }
                    None => {
                        if !steal && victim == me {
                            break; // no stealing: done when own queue drains
                        }
                        // Steal scan: next victim; give up after a full circle.
                        victim = (victim + 1) % np;
                        if victim == me {
                            break;
                        }
                    }
                }
            }
            p.barrier(1);
        } // frames

        p.stop_timing();
        if me == 0 {
            let mut raw = vec![0u32; n * n];
            for y in 0..n {
                read_u32_runs(p, &mut raw[y * n..(y + 1) * n], |x| img.addr(x, y));
            }
            *result.lock().unwrap() = raw.iter().map(|&b| f32::from_bits(b)).collect();
        }
    });

    let out = result.into_inner().unwrap();
    let want = reference(params);
    assert_eq!(out.len(), want.len());
    for (i, (g, w)) in out.iter().zip(&want).enumerate() {
        assert!(
            g == w,
            "Volrend pixel {i} differs: got {g}, want {w} (x={}, y={})",
            i % (2 * v),
            i / (2 * v)
        );
    }
    AppResult {
        stats,
        checksum: crate::common::checksum_f64s(out.iter().map(|&f| f as f64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> VolrendParams {
        VolrendParams {
            v: 16,
            frames: 2,
            term: 0.95,
            seed: 11,
        }
    }

    #[test]
    fn reference_image_is_nontrivial() {
        let img = reference(&tiny());
        let lit = img.iter().filter(|&&c| c > 0.0).count();
        assert!(lit > img.len() / 10, "too few lit pixels: {lit}");
        assert!(img.iter().all(|c| c.is_finite() && *c >= 0.0));
    }

    #[test]
    fn all_versions_match_reference_on_svm() {
        for ver in [
            VolrendVersion::Orig,
            VolrendVersion::PadQueues,
            VolrendVersion::Image4d,
            VolrendVersion::Balanced,
            VolrendVersion::BalancedNoSteal,
        ] {
            let r = run_params(Platform::Svm, 4, &tiny(), ver);
            assert!(r.stats.total_cycles() > 0, "{ver:?}");
        }
    }

    #[test]
    fn works_on_all_platforms() {
        let a = run_params(Platform::Svm, 2, &tiny(), VolrendVersion::Orig);
        let b = run_params(Platform::Dsm, 2, &tiny(), VolrendVersion::Orig);
        let c = run_params(Platform::Smp, 2, &tiny(), VolrendVersion::Balanced);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
    }

    #[test]
    fn uniprocessor_works() {
        let r = run_params(Platform::Svm, 1, &tiny(), VolrendVersion::Orig);
        assert!(r.stats.total_cycles() > 0);
    }

    #[test]
    fn transfer_function_is_monotonic() {
        let mut prev = (0.0f32, 0.0f32);
        for d in 0..=255u8 {
            let (op, it) = transfer(d);
            assert!(op >= prev.0 && it >= prev.1, "non-monotonic at {d}");
            assert!((0.0..=1.0).contains(&op));
            prev = (op, it);
        }
    }

    #[test]
    fn early_termination_shortens_dense_rays() {
        // A fully dense column terminates before the far side.
        let v = 32;
        let dense = vec![255u8; v * v * v];
        let mut samples = 0usize;
        let c = cast(
            |i| {
                samples += 1;
                dense[i]
            },
            (0, v as u8),
            v,
            v,
            v,
            0.95,
        );
        assert!(c > 0.0);
        // 3 reads per sample (value + 2 gradient); the ray crosses the 0.95
        // opacity threshold in ~13 samples and must stop well short of the
        // 32-sample full march.
        assert!(samples < 3 * 16, "no early termination: {samples} reads");
    }

    #[test]
    fn empty_columns_cost_nothing_with_skip_map() {
        let v = 16;
        let vol = vec![0u8; v * v * v];
        let zr = zrange_map(&vol, v);
        assert!(zr.iter().all(|&(lo, hi)| lo == 255 && hi == 0));
        let mut reads = 0usize;
        let c = cast(
            |i| {
                reads += 1;
                vol[i]
            },
            zr[0],
            v,
            0,
            0,
            0.95,
        );
        assert_eq!(c, 0.0);
        assert_eq!(reads, 0, "skip map must avoid all volume reads");
    }

    #[test]
    fn tile_owners_cover_all_procs() {
        for ver in [VolrendVersion::Orig, VolrendVersion::Balanced] {
            let tiles = 16;
            let np = 16;
            let mut counts = vec![0usize; np];
            for ty in 0..tiles {
                for tx in 0..tiles {
                    counts[tile_owner(ver, tiles, tiles, np, tx, ty)] += 1;
                }
            }
            assert!(counts.iter().all(|&c| c > 0), "{ver:?}: {counts:?}");
            assert_eq!(counts.iter().sum::<usize>(), tiles * tiles);
        }
    }

    #[test]
    fn balanced_assignment_interleaves() {
        // Adjacent 2x2 tile groups go to different processors.
        let o1 = tile_owner(VolrendVersion::Balanced, 16, 16, 4, 0, 0);
        let o2 = tile_owner(VolrendVersion::Balanced, 16, 16, 4, 2, 0);
        assert_ne!(o1, o2);
    }
}
