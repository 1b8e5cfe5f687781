//! Raytrace — recursive ray tracer (SPLASH-2 style).
//!
//! A procedural sphere-flake scene over a checkered ground plane, rendered
//! with shadow rays and specular reflection bounces. Tiles of pixels are
//! dealt round-robin into per-processor task queues with stealing; ray
//! behaviour is far less predictable than Volrend's, so load can still
//! become imbalanced.
//!
//! ## Versions (paper §4.2.3)
//!
//! * [`RaytraceVersion::Orig`] — SPLASH-2: global ray/primitive statistics
//!   counters protected by a lock, **taken once per ray**. Harmless on
//!   hardware coherence; on SVM the lock's protocol traffic and the page
//!   faults dilating the tiny critical section produce the paper's
//!   headline "speedup" of 0.5. Padding and data-structure classes were
//!   judged unhelpful/impractical by the paper, so `P/A` and `DS` map here.
//! * [`RaytraceVersion::NoStatsLock`] — statistics kept per-processor and
//!   merged once at the end: 0.5 → 11.05 in the paper.
//! * [`RaytraceVersion::SplitQueues`] — additionally split each processor's
//!   queue into a lock-free local part refilled in batches from a shared,
//!   steal-able part: 11.05 → 11.72 in the paper.

use crate::common::{AppResult, Bcast, Platform, Scale};
use crate::OptClass;
use sim_core::{run as sim_run, Placement, Proc, RunConfig, PAGE_SIZE};

/// Tile edge in pixels.
pub const TILE: usize = 4;
const MAX_DEPTH: u32 = 3;

/// Raytrace problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct RaytraceParams {
    /// Image edge (pixels).
    pub img: usize,
    /// Sphere-flake recursion depth (0 = one sphere).
    pub flake_depth: u32,
}

impl RaytraceParams {
    /// Parameters for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                img: 16,
                flake_depth: 1,
            },
            Scale::Default => Self {
                img: 64,
                flake_depth: 3,
            },
            Scale::Paper => Self {
                img: 128,
                flake_depth: 3,
            },
        }
    }
}

/// The versions of Raytrace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaytraceVersion {
    /// Global statistics lock taken per ray.
    Orig,
    /// Statistics privatized; merged once at the end.
    NoStatsLock,
    /// Privatized statistics + split local/steal task queues.
    SplitQueues,
}

/// Map the paper's optimization class to a Raytrace version.
pub fn version_for(class: OptClass) -> RaytraceVersion {
    match class {
        OptClass::Orig | OptClass::PadAlign | OptClass::DataStruct => RaytraceVersion::Orig,
        OptClass::Algorithm => RaytraceVersion::SplitQueues,
    }
}

/// A sphere: center, radius, reflectivity, diffuse shade.
#[derive(Clone, Copy, Debug)]
pub struct Sphere {
    /// Center.
    pub c: [f64; 3],
    /// Radius.
    pub r: f64,
    /// Reflectivity in \[0,1\].
    pub refl: f64,
    /// Diffuse shade in \[0,1\].
    pub shade: f64,
}

impl Sphere {
    /// The record as stored in simulated memory: six words, `SPHERE_STRIDE` bytes.
    fn words(&self) -> [f64; 6] {
        let [x, y, z] = self.c;
        [x, y, z, self.r, self.refl, self.shade]
    }

    fn from_words([x, y, z, r, refl, shade]: [f64; 6]) -> Self {
        Self {
            c: [x, y, z],
            r,
            refl,
            shade,
        }
    }
}

/// Build the sphere-flake scene.
pub fn generate_scene(params: &RaytraceParams) -> Vec<Sphere> {
    let mut out = Vec::new();
    fn flake(out: &mut Vec<Sphere>, c: [f64; 3], r: f64, depth: u32) {
        out.push(Sphere {
            c,
            r,
            refl: 0.45,
            shade: 0.7,
        });
        if depth == 0 {
            return;
        }
        let d = r + r / 2.5;
        for (axis, sign) in [
            (0, 1.0),
            (0, -1.0),
            (1, 1.0),
            (2, 1.0),
            (2, -1.0),
            (1, -1.0),
        ] {
            let mut cc = c;
            cc[axis] += sign * d;
            flake(out, cc, r / 2.5, depth - 1);
        }
    }
    flake(&mut out, [0.0, 0.4, 0.0], 1.0, params.flake_depth);
    out
}

const LIGHT: [f64; 3] = [0.5773502691896258, 0.5773502691896258, -0.5773502691896258];
const PLANE_Y: f64 = -1.0;

fn dot(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn norm(a: &[f64; 3]) -> [f64; 3] {
    let l = dot(a, a).sqrt();
    [a[0] / l, a[1] / l, a[2] / l]
}

/// Abstract scene access so the same tracer serves the reference (plain
/// slice) and the parallel version (simulated shared memory with cost
/// accounting).
trait SceneAccess {
    fn nspheres(&mut self) -> usize;
    fn sphere(&mut self, i: usize) -> Sphere;
    fn count_ray(&mut self);
}

struct SliceScene<'a> {
    spheres: &'a [Sphere],
    rays: u64,
}

impl SceneAccess for SliceScene<'_> {
    fn nspheres(&mut self) -> usize {
        self.spheres.len()
    }
    fn sphere(&mut self, i: usize) -> Sphere {
        self.spheres[i]
    }
    fn count_ray(&mut self) {
        self.rays += 1;
    }
}

/// Nearest intersection: (t, normal, refl, shade) if any.
fn intersect(
    sc: &mut dyn SceneAccess,
    orig: &[f64; 3],
    dir: &[f64; 3],
) -> Option<(f64, [f64; 3], f64, f64)> {
    let mut best: Option<(f64, [f64; 3], f64, f64)> = None;
    let n = sc.nspheres();
    for i in 0..n {
        let s = sc.sphere(i);
        let oc = [orig[0] - s.c[0], orig[1] - s.c[1], orig[2] - s.c[2]];
        let b = dot(&oc, dir);
        let c = dot(&oc, &oc) - s.r * s.r;
        let disc = b * b - c;
        if disc <= 0.0 {
            continue;
        }
        let t = -b - disc.sqrt();
        if t > 1e-6 && best.is_none_or(|(bt, ..)| t < bt) {
            let hp = [
                orig[0] + t * dir[0],
                orig[1] + t * dir[1],
                orig[2] + t * dir[2],
            ];
            let nn = norm(&[hp[0] - s.c[0], hp[1] - s.c[1], hp[2] - s.c[2]]);
            best = Some((t, nn, s.refl, s.shade));
        }
    }
    // Ground plane.
    if dir[1] < -1e-9 {
        let t = (PLANE_Y - orig[1]) / dir[1];
        if t > 1e-6 && best.is_none_or(|(bt, ..)| t < bt) {
            let hx = orig[0] + t * dir[0];
            let hz = orig[2] + t * dir[2];
            let check = ((hx.floor() as i64 + hz.floor() as i64) & 1) as f64;
            best = Some((t, [0.0, 1.0, 0.0], 0.15, 0.4 + 0.4 * check));
        }
    }
    best
}

fn occluded(sc: &mut dyn SceneAccess, orig: &[f64; 3], dir: &[f64; 3]) -> bool {
    sc.count_ray();
    let n = sc.nspheres();
    for i in 0..n {
        let s = sc.sphere(i);
        let oc = [orig[0] - s.c[0], orig[1] - s.c[1], orig[2] - s.c[2]];
        let b = dot(&oc, dir);
        let c = dot(&oc, &oc) - s.r * s.r;
        let disc = b * b - c;
        if disc > 0.0 && -b - disc.sqrt() > 1e-6 {
            return true;
        }
    }
    false
}

fn trace(sc: &mut dyn SceneAccess, orig: &[f64; 3], dir: &[f64; 3], depth: u32) -> f64 {
    sc.count_ray();
    match intersect(sc, orig, dir) {
        None => 0.08 + 0.12 * (dir[1].max(0.0)), // sky
        Some((t, n, refl, shade)) => {
            let hp = [
                orig[0] + t * dir[0],
                orig[1] + t * dir[1],
                orig[2] + t * dir[2],
            ];
            let lift = [
                hp[0] + n[0] * 1e-6,
                hp[1] + n[1] * 1e-6,
                hp[2] + n[2] * 1e-6,
            ];
            let lambert = dot(&n, &LIGHT).max(0.0);
            let shadow = if lambert > 0.0 && occluded(sc, &lift, &LIGHT) {
                0.25
            } else {
                1.0
            };
            let mut col = shade * (0.15 + 0.85 * lambert * shadow);
            if refl > 0.0 && depth < MAX_DEPTH {
                let d = dot(dir, &n);
                let rd = [
                    dir[0] - 2.0 * d * n[0],
                    dir[1] - 2.0 * d * n[1],
                    dir[2] - 2.0 * d * n[2],
                ];
                col = col * (1.0 - refl) + refl * trace(sc, &hp, &norm(&rd), depth + 1);
            }
            col
        }
    }
}

/// Primary ray for pixel (x, y).
fn primary(img: usize, x: usize, y: usize) -> ([f64; 3], [f64; 3]) {
    const EYE: [f64; 3] = [0.0, 1.0, -4.5];
    let fx = (x as f64 + 0.5) / img as f64 * 2.0 - 1.0;
    let fy = 1.0 - (y as f64 + 0.5) / img as f64 * 2.0;
    (EYE, norm(&[fx * 1.2, fy * 1.2 - 0.2, 1.0]))
}

/// Sequential reference image (row-major f32) and total ray count.
pub fn reference(params: &RaytraceParams) -> (Vec<f32>, u64) {
    let spheres = generate_scene(params);
    let mut sc = SliceScene {
        spheres: &spheres,
        rays: 0,
    };
    let n = params.img;
    let mut out = vec![0.0f32; n * n];
    for y in 0..n {
        for x in 0..n {
            let (o, d) = primary(n, x, y);
            out[y * n + x] = trace(&mut sc, &o, &d, 0) as f32;
        }
    }
    (out, sc.rays)
}

/// Scene access through the simulated memory system, with the per-ray
/// statistics-lock behaviour of the version under test.
struct SimScene<'a> {
    p: &'a mut Proc,
    spheres: u64,
    n: usize,
    stats_addr: u64,
    /// Lock per ray (Orig) or privatize (optimized versions).
    lock_stats: bool,
    local_rays: u64,
}

const LOCK_STATS: u32 = 499;
const SPHERE_STRIDE: u64 = 48;

impl SceneAccess for SimScene<'_> {
    fn nspheres(&mut self) -> usize {
        self.n
    }

    fn sphere(&mut self, i: usize) -> Sphere {
        let mut w = [0.0f64; 6];
        self.p
            .read_f64_slice(self.spheres + i as u64 * SPHERE_STRIDE, 8, &mut w);
        self.p.work(30); // intersection arithmetic
        Sphere::from_words(w)
    }

    fn count_ray(&mut self) {
        if self.lock_stats {
            // The SPLASH-2 sin: a global counter behind a lock, per ray.
            self.p.lock(LOCK_STATS);
            let v = self.p.load(self.stats_addr, 8);
            self.p.store(self.stats_addr, 8, v + 1);
            self.p.unlock(LOCK_STATS);
        } else {
            self.local_rays += 1;
        }
    }
}

const LOCK_QUEUE_BASE: u32 = 600;

/// Run Raytrace; panics unless the image matches the sequential reference
/// bit-for-bit and the ray statistics are exact.
pub fn run_params(
    platform: Platform,
    nprocs: usize,
    params: &RaytraceParams,
    version: RaytraceVersion,
) -> AppResult {
    run_params_cfg(platform, nprocs, params, version, RunConfig::new(nprocs))
}

/// Like [`run_params`] with an explicit scheduler configuration (quantum,
/// race detection, run label).
pub fn run_params_cfg(
    platform: Platform,
    nprocs: usize,
    params: &RaytraceParams,
    version: RaytraceVersion,
    cfg: RunConfig,
) -> AppResult {
    let img = params.img;
    assert_eq!(img % TILE, 0);
    let tiles = img / TILE;
    let total_tiles = tiles * tiles;
    let spheres = generate_scene(params);
    let layout_bc: Bcast<(u64, u64, u64, u64)> = Bcast::new();
    let result = std::sync::Mutex::new((Vec::new(), 0u64));

    let stats = sim_run(platform.boxed(nprocs), cfg, |p| {
        let me = p.pid();
        let np = p.nprocs();
        if me == 0 {
            // Scene (read-only after init; serial init by proc 0 gives it
            // local copies of all scene pages — the paper's locality
            // artifact).
            let sbase = p.alloc_shared(
                spheres.len() as u64 * SPHERE_STRIDE,
                PAGE_SIZE,
                Placement::RoundRobin,
            );
            for (i, s) in spheres.iter().enumerate() {
                p.write_f64_slice(sbase + i as u64 * SPHERE_STRIDE, 8, &s.words());
            }
            let image = p.alloc_shared((img * img * 4) as u64, PAGE_SIZE, Placement::RoundRobin);
            let stats_addr = p.alloc_shared(64, PAGE_SIZE, Placement::Node(0));
            // Queues: per-proc count (64B stride) + entries.
            let queues = p.alloc_shared(
                (np * 64 + np * total_tiles * 4) as u64,
                PAGE_SIZE,
                Placement::RoundRobin,
            );
            layout_bc.put((sbase, image, stats_addr, queues));
        }
        p.barrier(100);
        let (sbase, image, stats_addr, queues) = layout_bc.get();
        let qcount = |q: usize| queues + (q as u64) * 64;
        let qentries = queues + (np as u64) * 64;
        let qentry = |q: usize, i: u64| qentries + ((q * total_tiles) as u64 + i) * 4;
        p.start_timing();

        // Round-robin initial tile assignment (SPLASH-2 raytrace).
        let mut mine: Vec<u32> = (0..total_tiles as u32)
            .filter(|t| (*t as usize) % np == me)
            .collect();
        p.lock(LOCK_QUEUE_BASE + me as u32);
        for (i, t) in mine.iter().enumerate() {
            p.store(qentry(me, i as u64), 4, *t as u64);
        }
        p.write_u32(qcount(me), mine.len() as u32);
        p.unlock(LOCK_QUEUE_BASE + me as u32);
        mine.clear();
        p.barrier(0);

        let split_queues = matches!(version, RaytraceVersion::SplitQueues);
        let lock_stats = matches!(version, RaytraceVersion::Orig);
        let mut local: Vec<u32> = Vec::new(); // lock-free local queue
        let mut local_rays = 0u64;
        let mut victim = me;
        loop {
            // Local queue first (SplitQueues only).
            let task = if let Some(t) = local.pop() {
                Some(t)
            } else {
                // Pop or batch-refill from `victim`'s shared queue.
                p.lock(LOCK_QUEUE_BASE + victim as u32);
                let c = p.read_u32(qcount(victim));
                let take = if victim == me && split_queues {
                    c.min(8) // refill a batch into the local queue
                } else {
                    c.min(1)
                };
                let mut got = None;
                if take > 0 {
                    for k in 0..take {
                        let t = p.load(qentry(victim, (c - 1 - k) as u64), 4) as u32;
                        if got.is_none() {
                            got = Some(t);
                        } else {
                            local.push(t);
                        }
                    }
                    p.write_u32(qcount(victim), c - take);
                }
                p.unlock(LOCK_QUEUE_BASE + victim as u32);
                got
            };
            match task {
                Some(t) => {
                    let (ty, tx) = ((t as usize) / tiles, (t as usize) % tiles);
                    for py in 0..TILE {
                        for px in 0..TILE {
                            let (x, y) = (tx * TILE + px, ty * TILE + py);
                            let (o, d) = primary(img, x, y);
                            let mut sc = SimScene {
                                p,
                                spheres: sbase,
                                n: spheres.len(),
                                stats_addr,
                                lock_stats,
                                local_rays: 0,
                            };
                            let col = trace(&mut sc, &o, &d, 0) as f32;
                            local_rays += sc.local_rays;
                            p.store(image + ((y * img + x) * 4) as u64, 4, col.to_bits() as u64);
                        }
                    }
                    // Steal one task at a time; drain the own queue first.
                    victim = me;
                }
                None => {
                    victim = (victim + 1) % np;
                    if victim == me {
                        break;
                    }
                }
            }
        }
        // Merge privatized statistics once.
        if !lock_stats {
            p.lock(LOCK_STATS);
            let v = p.load(stats_addr, 8);
            p.store(stats_addr, 8, v + local_rays);
            p.unlock(LOCK_STATS);
        }
        p.barrier(1);

        p.stop_timing();
        if me == 0 {
            let mut out = vec![0.0f32; img * img];
            for (i, o) in out.iter_mut().enumerate() {
                *o = f32::from_bits(p.load(image + (i * 4) as u64, 4) as u32);
            }
            let rays = p.load(stats_addr, 8);
            *result.lock().unwrap() = (out, rays);
        }
    });

    let (out, rays) = result.into_inner().unwrap();
    let (want, want_rays) = reference(params);
    assert_eq!(out.len(), want.len());
    for (i, (g, w)) in out.iter().zip(&want).enumerate() {
        assert!(g == w, "Raytrace pixel {i} differs: got {g}, want {w}");
    }
    assert_eq!(rays, want_rays, "ray statistics mismatch");
    AppResult {
        stats,
        checksum: crate::common::checksum_f64s(out.iter().map(|&f| f as f64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RaytraceParams {
        RaytraceParams {
            img: 16,
            flake_depth: 1,
        }
    }

    #[test]
    fn reference_image_has_structure() {
        let (img, rays) = reference(&tiny());
        assert!(rays > (16 * 16) as u64, "primary rays at least");
        let distinct: std::collections::HashSet<u32> = img.iter().map(|f| f.to_bits()).collect();
        assert!(distinct.len() > 10, "image too flat");
    }

    #[test]
    fn scene_size_grows_with_depth() {
        assert_eq!(
            generate_scene(&RaytraceParams {
                img: 16,
                flake_depth: 0
            })
            .len(),
            1
        );
        assert_eq!(generate_scene(&tiny()).len(), 7);
        assert_eq!(
            generate_scene(&RaytraceParams {
                img: 16,
                flake_depth: 2
            })
            .len(),
            43
        );
    }

    #[test]
    fn all_versions_match_reference_on_svm() {
        for ver in [
            RaytraceVersion::Orig,
            RaytraceVersion::NoStatsLock,
            RaytraceVersion::SplitQueues,
        ] {
            let r = run_params(Platform::Svm, 4, &tiny(), ver);
            assert!(r.stats.total_cycles() > 0, "{ver:?}");
        }
    }

    #[test]
    fn works_on_all_platforms() {
        let a = run_params(Platform::Svm, 2, &tiny(), RaytraceVersion::Orig);
        let b = run_params(Platform::Dsm, 2, &tiny(), RaytraceVersion::SplitQueues);
        let c = run_params(Platform::Smp, 2, &tiny(), RaytraceVersion::NoStatsLock);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
    }

    #[test]
    fn uniprocessor_works() {
        let r = run_params(Platform::Svm, 1, &tiny(), RaytraceVersion::Orig);
        assert!(r.stats.total_cycles() > 0);
    }

    #[test]
    fn sphere_intersection_geometry() {
        // A ray straight at a unit sphere hits at distance (d - r).
        let spheres = vec![Sphere {
            c: [0.0, 0.0, 5.0],
            r: 1.0,
            refl: 0.0,
            shade: 1.0,
        }];
        let mut sc = SliceScene {
            spheres: &spheres,
            rays: 0,
        };
        let hit = intersect(&mut sc, &[0.0, 0.0, 0.0], &[0.0, 0.0, 1.0]).unwrap();
        assert!((hit.0 - 4.0).abs() < 1e-9, "t = {}", hit.0);
        // Normal points back toward the origin.
        assert!((hit.1[2] + 1.0).abs() < 1e-9);
        // A ray that misses.
        assert!(intersect(&mut sc, &[3.0, 0.0, 0.0], &[0.0, 0.0, 1.0])
            .map(|h| h.1[1] == 1.0) // could still hit the ground plane
            .unwrap_or(true));
    }

    #[test]
    fn shadows_darken_lit_surfaces() {
        // A sphere hovering over the plane casts a shadow: the pixel under
        // the sphere along the light direction is darker than open floor.
        let spheres = vec![Sphere {
            c: [0.0, 0.0, 2.0],
            r: 0.8,
            refl: 0.0,
            shade: 0.9,
        }];
        let mut sc = SliceScene {
            spheres: &spheres,
            rays: 0,
        };
        // Point on the plane directly "anti-light" from the sphere center.
        let shadow_pt = [
            spheres[0].c[0] - LIGHT[0] * 2.0,
            PLANE_Y + 1e-5,
            spheres[0].c[2] - LIGHT[2] * 2.0,
        ];
        let open_pt = [8.0, PLANE_Y + 1e-5, 8.0];
        assert!(occluded(&mut sc, &shadow_pt, &LIGHT));
        assert!(!occluded(&mut sc, &open_pt, &LIGHT));
    }

    #[test]
    fn reflection_depth_is_bounded() {
        // Two mirrors facing each other must still terminate.
        let spheres = vec![
            Sphere {
                c: [0.0, 0.0, 3.0],
                r: 1.0,
                refl: 1.0,
                shade: 0.1,
            },
            Sphere {
                c: [0.0, 0.0, -3.0],
                r: 1.0,
                refl: 1.0,
                shade: 0.1,
            },
        ];
        let mut sc = SliceScene {
            spheres: &spheres,
            rays: 0,
        };
        let v = trace(&mut sc, &[0.0, 0.0, 0.0], &[0.0, 0.0, 1.0], 0);
        assert!(v.is_finite());
        assert!(sc.rays < 100, "runaway recursion: {} rays", sc.rays);
    }

    #[test]
    fn orig_takes_many_more_locks() {
        let a = run_params(Platform::Svm, 2, &tiny(), RaytraceVersion::Orig);
        let b = run_params(Platform::Svm, 2, &tiny(), RaytraceVersion::NoStatsLock);
        let la = a.stats.sum_counters().lock_acquires;
        let lb = b.stats.sum_counters().lock_acquires;
        assert!(la > 10 * lb, "orig={la} nostats={lb}");
    }
}
