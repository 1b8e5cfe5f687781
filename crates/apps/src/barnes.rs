//! Barnes — hierarchical N-body simulation (Barnes-Hut).
//!
//! Each time-step: compute the bounding box (lock-accumulated reduction),
//! build an octree over the bodies, then compute forces by tree traversal
//! with the opening criterion `cell_size / distance < θ`, and advance the
//! bodies. The octree's *shape* is position-determined (insertion-order
//! independent), which is what makes the four build algorithms comparable.
//!
//! ## Versions (paper §4.2.4)
//!
//! * [`BarnesVersion::SharedTree`] — the SPLASH algorithm: all processors
//!   insert their bodies into one shared tree, locking each visited cell
//!   and allocating cells from a lock-protected global pool. Enormous
//!   fine-grained lock traffic: the paper counts ~66 K remote locks for
//!   16 K particles in 2 steps.
//! * [`BarnesVersion::LocalHeaps`] — SPLASH-2's data-structure change:
//!   identical algorithm, but cells come from per-processor, locally-homed
//!   pools. Barely helps on SVM (2.76 → 2.94 in the paper).
//! * [`BarnesVersion::Partree`] — build a lock-free local tree per
//!   processor over its own bodies, then merge the trees into the global
//!   root under locks. Merging is highly imbalanced: the first processor
//!   transplants into an empty root; later ones do successively deeper,
//!   lockier merges.
//! * [`BarnesVersion::Spatial`] — the winner: partition *space* into equal
//!   sub-octants (two octree levels = 64), build each sub-octant's subtree
//!   without any synchronization, and link the disjoint subtrees into a
//!   pre-built skeleton. Only the skeleton's center-of-mass pass touches
//!   shared state.

use crate::common::{share_evenly, AppResult, Bcast, Platform, Scale};
use crate::OptClass;
use sim_core::util::XorShift64;
use sim_core::{run as sim_run, Placement, Proc, RunConfig, PAGE_SIZE};

/// Phase indices for per-phase statistics (Figure 13/14 and the paper's
/// "tree building takes 43% of the time" claim).
pub mod phase {
    /// Bounding-box reduction + octree construction.
    pub const TREE_BUILD: usize = 0;
    /// Force computation by tree traversal.
    pub const FORCE: usize = 1;
    /// Position/velocity update.
    pub const UPDATE: usize = 2;
    /// Names, indexed by phase id (registered on the run's `RunConfig` so
    /// figures and traces print "tree-build" instead of "phase 0").
    pub const NAMES: [&str; 3] = ["tree-build", "force", "update"];
}

/// Barnes problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct BarnesParams {
    /// Number of bodies (divisible by the processor count).
    pub n: usize,
    /// Time-steps.
    pub steps: usize,
    /// Opening criterion θ.
    pub theta: f64,
    /// Time-step size.
    pub dt: f64,
    /// Workload seed.
    pub seed: u64,
}

impl BarnesParams {
    /// Parameters for a scale preset.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                n: 64,
                steps: 2,
                theta: 0.9,
                dt: 0.025,
                seed: 42,
            },
            Scale::Default => Self {
                n: 2048,
                steps: 2,
                theta: 0.8,
                dt: 0.025,
                seed: 42,
            },
            Scale::Paper => Self {
                n: 16384,
                steps: 2,
                theta: 1.0,
                dt: 0.025,
                seed: 42,
            },
        }
    }
}

/// The tree-building algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarnesVersion {
    /// SPLASH: shared tree, global locked cell pool.
    SharedTree,
    /// SPLASH-2: shared tree, per-processor locally-homed cell pools.
    LocalHeaps,
    /// Incremental: keep the tree between steps, remove and re-insert only
    /// the bodies that crossed their leaf-cell boundary (paper: 5.56).
    UpdateTree,
    /// Local trees merged under locks.
    Partree,
    /// Space-partitioned lock-free build (Barnes-Spatial).
    Spatial,
}

/// Map the paper's optimization class to a Barnes version.
pub fn version_for(class: OptClass) -> BarnesVersion {
    match class {
        OptClass::Orig => BarnesVersion::SharedTree,
        // Padding individual particles/cells is a "huge waste of memory"
        // (paper) and was rejected; P/A therefore maps to the original.
        OptClass::PadAlign => BarnesVersion::SharedTree,
        OptClass::DataStruct => BarnesVersion::LocalHeaps,
        OptClass::Algorithm => BarnesVersion::Spatial,
    }
}

const EPS2: f64 = 0.0025; // softening² for force singularities
const BODY_STRIDE: u64 = 128; // bytes per body record
const CELL_STRIDE: u64 = 128; // bytes per cell record

// Body record offsets (f64 fields).
const B_POS: u64 = 0; // 3 f64
const B_VEL: u64 = 24; // 3 f64
const B_ACC: u64 = 48; // 3 f64
const B_MASS: u64 = 72;

// Cell record offsets.
const C_CHILD: u64 = 0; // 8 u32
const C_MASS: u64 = 32;
const C_MOM: u64 = 40; // 3 f64
const C_CENTER: u64 = 64; // 3 f64 (cube centre; used by Update-Tree)
const C_HALF: u64 = 88; // f64 (cube half-extent)

// Child slot encoding.
const EMPTY: u32 = 0;

// Lock namespace.
const LOCK_POOL: u32 = 1;
const LOCK_BBOX: u32 = 2;
const LOCK_CELL_BASE: u32 = 64;

/// Node reference: empty, body index, or cell index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ref {
    Empty,
    Body(u32),
    Cell(u32),
}

fn enc(r: Ref, n: u32) -> u32 {
    match r {
        Ref::Empty => EMPTY,
        Ref::Body(i) => 1 + i,
        Ref::Cell(c) => 1 + n + c,
    }
}

fn dec(v: u32, n: u32) -> Ref {
    if v == EMPTY {
        Ref::Empty
    } else if v <= n {
        Ref::Body(v - 1)
    } else {
        Ref::Cell(v - 1 - n)
    }
}

/// Plummer-like body distribution (deterministic).
pub fn generate_bodies(params: &BarnesParams) -> Vec<[f64; 7]> {
    // [x,y,z, vx,vy,vz, mass]
    let mut rng = XorShift64::new(params.seed);
    let n = params.n;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Plummer radius with cutoff.
        let u = rng.f64().max(1e-9);
        let r = 1.0 / (u.powf(-2.0 / 3.0) - 1.0).max(1e-9).sqrt();
        if r > 8.0 {
            continue;
        }
        // Random direction.
        let ct = rng.range_f64(-1.0, 1.0);
        let st = (1.0 - ct * ct).sqrt();
        let ph = rng.range_f64(0.0, std::f64::consts::TAU);
        let pos = [r * st * ph.cos(), r * st * ph.sin(), r * ct];
        let vel = [
            rng.range_f64(-0.1, 0.1),
            rng.range_f64(-0.1, 0.1),
            rng.range_f64(-0.1, 0.1),
        ];
        out.push([
            pos[0],
            pos[1],
            pos[2],
            vel[0],
            vel[1],
            vel[2],
            1.0 / n as f64,
        ]);
    }
    out
}

// ---------------------------------------------------------------------------
// Sequential reference
// ---------------------------------------------------------------------------

struct SeqTree {
    child: Vec<[u32; 8]>,
    mass: Vec<f64>,
    mom: Vec<[f64; 3]>,
}

impl SeqTree {
    fn alloc(&mut self) -> u32 {
        self.child.push([EMPTY; 8]);
        self.mass.push(0.0);
        self.mom.push([0.0; 3]);
        (self.child.len() - 1) as u32
    }
}

fn octant(center: &[f64; 3], pos: &[f64; 3]) -> usize {
    (usize::from(pos[0] > center[0]) << 2)
        | (usize::from(pos[1] > center[1]) << 1)
        | usize::from(pos[2] > center[2])
}

fn sub_center(center: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
    let q = half / 2.0;
    [
        center[0] + if oct & 4 != 0 { q } else { -q },
        center[1] + if oct & 2 != 0 { q } else { -q },
        center[2] + if oct & 1 != 0 { q } else { -q },
    ]
}

/// Sequential reference for the Update-Tree algorithm: the tree persists
/// between steps with the same removal/re-insertion rules as the parallel
/// version (fixed padded root cube, husk cells left in place), so outputs
/// are comparable within floating-point reassociation tolerance.
pub fn reference_update(params: &BarnesParams) -> Vec<f64> {
    let n = params.n;
    let mut bodies = generate_bodies(params);

    struct UTree {
        child: Vec<[u32; 8]>,
        center: Vec<[f64; 3]>,
        half: Vec<f64>,
        mass: Vec<f64>,
        mom: Vec<[f64; 3]>,
    }
    impl UTree {
        fn alloc(&mut self, center: [f64; 3], half: f64) -> u32 {
            self.child.push([EMPTY; 8]);
            self.center.push(center);
            self.half.push(half);
            self.mass.push(0.0);
            self.mom.push([0.0; 3]);
            (self.child.len() - 1) as u32
        }
    }
    let mut t = UTree {
        child: Vec::new(),
        center: Vec::new(),
        half: Vec::new(),
        mass: Vec::new(),
        mom: Vec::new(),
    };
    let mut bparent = vec![0u32; n];

    // Fixed padded root cube from the initial distribution.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for b in &bodies {
        for d in 0..3 {
            lo[d] = lo[d].min(b[d]);
            hi[d] = hi[d].max(b[d]);
        }
    }
    let root_center = [
        (lo[0] + hi[0]) / 2.0,
        (lo[1] + hi[1]) / 2.0,
        (lo[2] + hi[2]) / 2.0,
    ];
    let mut root_half = 0.0f64;
    for d in 0..3 {
        root_half = root_half.max((hi[d] - lo[d]) / 2.0);
    }
    root_half = root_half * 1.5 + 1e-9;
    let root = t.alloc(root_center, root_half);

    #[allow(clippy::too_many_arguments)]
    fn ins(
        t: &mut UTree,
        bparent: &mut [u32],
        bodies: &[[f64; 7]],
        n: u32,
        i: u32,
        pos: [f64; 3],
        mut cur: u32,
        mut center: [f64; 3],
        mut half: f64,
    ) {
        loop {
            let oct = octant(&center, &pos);
            match dec(t.child[cur as usize][oct], n) {
                Ref::Cell(cc) => {
                    center = sub_center(&center, half, oct);
                    half /= 2.0;
                    cur = cc;
                }
                Ref::Empty => {
                    t.child[cur as usize][oct] = enc(Ref::Body(i), n);
                    bparent[i as usize] = cur * 8 + oct as u32;
                    return;
                }
                Ref::Body(j) => {
                    let bj = &bodies[j as usize];
                    let pj = [bj[0], bj[1], bj[2]];
                    let ncc = sub_center(&center, half, oct);
                    let nc = t.alloc(ncc, half / 2.0);
                    let so = octant(&ncc, &pj);
                    t.child[nc as usize][so] = enc(Ref::Body(j), n);
                    bparent[j as usize] = nc * 8 + so as u32;
                    t.child[cur as usize][oct] = enc(Ref::Cell(nc), n);
                    center = ncc;
                    half /= 2.0;
                    cur = nc;
                }
            }
        }
    }

    for i in 0..n {
        let pos = [bodies[i][0], bodies[i][1], bodies[i][2]];
        ins(
            &mut t,
            &mut bparent,
            &bodies,
            n as u32,
            i as u32,
            pos,
            root,
            root_center,
            root_half,
        );
    }

    fn com(t: &mut UTree, bodies: &[[f64; 7]], n: u32, node: u32) -> (f64, [f64; 3]) {
        match dec(node, n) {
            Ref::Empty => (0.0, [0.0; 3]),
            Ref::Body(j) => {
                let b = &bodies[j as usize];
                (b[6], [b[6] * b[0], b[6] * b[1], b[6] * b[2]])
            }
            Ref::Cell(c) => {
                let mut mass = 0.0;
                let mut mom = [0.0f64; 3];
                for oct in 0..8 {
                    let ch = t.child[c as usize][oct];
                    let (m, mm) = com(t, bodies, n, ch);
                    mass += m;
                    for d in 0..3 {
                        mom[d] += mm[d];
                    }
                }
                t.mass[c as usize] = mass;
                t.mom[c as usize] = mom;
                (mass, mom)
            }
        }
    }

    for step in 0..params.steps {
        if step > 0 {
            // Remove all moved bodies first, then re-insert them.
            let mut moved = Vec::new();
            for i in 0..n {
                let pos = [bodies[i][0], bodies[i][1], bodies[i][2]];
                let bp = bparent[i];
                let (cell, oct) = ((bp / 8) as usize, (bp % 8) as usize);
                let scc = sub_center(&t.center[cell], t.half[cell], oct);
                let sh = t.half[cell] / 2.0;
                if (0..3).all(|d| (pos[d] - scc[d]).abs() <= sh) {
                    continue;
                }
                t.child[cell][oct] = EMPTY;
                moved.push((i as u32, pos));
            }
            for (i, pos) in moved {
                ins(
                    &mut t,
                    &mut bparent,
                    &bodies,
                    n as u32,
                    i,
                    pos,
                    root,
                    root_center,
                    root_half,
                );
            }
        }
        com(&mut t, &bodies, n as u32, enc(Ref::Cell(root), n as u32));
        let snapshot = bodies.clone();
        for (i, b) in bodies.iter_mut().enumerate() {
            let pos = [b[0], b[1], b[2]];
            let mut acc = [0.0f64; 3];
            let mut stack = vec![(enc(Ref::Cell(root), n as u32), root_center, root_half)];
            while let Some((nd, c, h)) = stack.pop() {
                match dec(nd, n as u32) {
                    Ref::Empty => {}
                    Ref::Body(j) => {
                        if j as usize != i {
                            let bj = &snapshot[j as usize];
                            interact(&pos, &[bj[0], bj[1], bj[2]], bj[6], &mut acc);
                        }
                    }
                    Ref::Cell(cc) => {
                        let m = t.mass[cc as usize];
                        if m == 0.0 {
                            continue;
                        }
                        let com = [
                            t.mom[cc as usize][0] / m,
                            t.mom[cc as usize][1] / m,
                            t.mom[cc as usize][2] / m,
                        ];
                        let dx = com[0] - pos[0];
                        let dy = com[1] - pos[1];
                        let dz = com[2] - pos[2];
                        let dist = (dx * dx + dy * dy + dz * dz).sqrt();
                        if 2.0 * h / dist.max(1e-12) < params.theta {
                            interact(&pos, &com, m, &mut acc);
                        } else {
                            for oct in 0..8 {
                                let ch = t.child[cc as usize][oct];
                                if ch != EMPTY {
                                    stack.push((ch, sub_center(&c, h, oct), h / 2.0));
                                }
                            }
                        }
                    }
                }
            }
            for d in 0..3 {
                b[3 + d] += acc[d] * params.dt;
                b[d] += b[3 + d] * params.dt;
            }
        }
    }
    bodies.iter().flat_map(|b| b[..6].iter().copied()).collect()
}

/// Sequential reference: body states after `steps` steps, flattened
/// `[x,y,z,vx,vy,vz]` per body.
pub fn reference(params: &BarnesParams) -> Vec<f64> {
    let n = params.n;
    let mut bodies = generate_bodies(params);
    for _ in 0..params.steps {
        // Bounding cube.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for b in &bodies {
            for d in 0..3 {
                lo[d] = lo[d].min(b[d]);
                hi[d] = hi[d].max(b[d]);
            }
        }
        let center = [
            (lo[0] + hi[0]) / 2.0,
            (lo[1] + hi[1]) / 2.0,
            (lo[2] + hi[2]) / 2.0,
        ];
        let mut half = 0.0f64;
        for d in 0..3 {
            half = half.max((hi[d] - lo[d]) / 2.0);
        }
        half = half * 1.001 + 1e-9;
        // Build.
        let mut t = SeqTree {
            child: Vec::new(),
            mass: Vec::new(),
            mom: Vec::new(),
        };
        let root = t.alloc();
        for (i, b) in bodies.iter().enumerate() {
            let pos = [b[0], b[1], b[2]];
            let m = b[6];
            let mut cur = root;
            let mut c = center;
            let mut h = half;
            loop {
                t.mass[cur as usize] += m;
                for d in 0..3 {
                    t.mom[cur as usize][d] += m * pos[d];
                }
                let oct = octant(&c, &pos);
                match dec(t.child[cur as usize][oct], n as u32) {
                    Ref::Empty => {
                        t.child[cur as usize][oct] = enc(Ref::Body(i as u32), n as u32);
                        break;
                    }
                    Ref::Cell(cc) => {
                        c = sub_center(&c, h, oct);
                        h /= 2.0;
                        cur = cc;
                    }
                    Ref::Body(j) => {
                        let bj = &bodies[j as usize];
                        let pj = [bj[0], bj[1], bj[2]];
                        let mj = bj[6];
                        let nc = t.alloc();
                        let ncc = sub_center(&c, h, oct);
                        let so = octant(&ncc, &pj);
                        t.child[nc as usize][so] = enc(Ref::Body(j), n as u32);
                        t.mass[nc as usize] = mj;
                        for d in 0..3 {
                            t.mom[nc as usize][d] = mj * pj[d];
                        }
                        t.child[cur as usize][oct] = enc(Ref::Cell(nc), n as u32);
                        c = ncc;
                        h /= 2.0;
                        cur = nc;
                    }
                }
            }
        }
        // Force + update.
        let snapshot = bodies.clone();
        for (i, b) in bodies.iter_mut().enumerate() {
            let pos = [b[0], b[1], b[2]];
            let mut acc = [0.0f64; 3];
            let mut stack = vec![(enc(Ref::Cell(root), n as u32), center, half)];
            while let Some((nd, c, h)) = stack.pop() {
                match dec(nd, n as u32) {
                    Ref::Empty => {}
                    Ref::Body(j) => {
                        if j as usize != i {
                            let bj = &snapshot[j as usize];
                            interact(&pos, &[bj[0], bj[1], bj[2]], bj[6], &mut acc);
                        }
                    }
                    Ref::Cell(cc) => {
                        let m = t.mass[cc as usize];
                        let com = [
                            t.mom[cc as usize][0] / m,
                            t.mom[cc as usize][1] / m,
                            t.mom[cc as usize][2] / m,
                        ];
                        let dx = com[0] - pos[0];
                        let dy = com[1] - pos[1];
                        let dz = com[2] - pos[2];
                        let dist = (dx * dx + dy * dy + dz * dz).sqrt();
                        if 2.0 * h / dist.max(1e-12) < params.theta {
                            interact(&pos, &com, m, &mut acc);
                        } else {
                            for oct in 0..8 {
                                let ch = t.child[cc as usize][oct];
                                if ch != EMPTY {
                                    stack.push((ch, sub_center(&c, h, oct), h / 2.0));
                                }
                            }
                        }
                    }
                }
            }
            for d in 0..3 {
                b[3 + d] += acc[d] * params.dt;
                b[d] += b[3 + d] * params.dt;
            }
        }
    }
    bodies.iter().flat_map(|b| b[..6].iter().copied()).collect()
}

fn interact(pos: &[f64; 3], other: &[f64; 3], m: f64, acc: &mut [f64; 3]) {
    let dx = other[0] - pos[0];
    let dy = other[1] - pos[1];
    let dz = other[2] - pos[2];
    let r2 = dx * dx + dy * dy + dz * dz + EPS2;
    let inv = 1.0 / (r2 * r2.sqrt());
    acc[0] += m * dx * inv;
    acc[1] += m * dy * inv;
    acc[2] += m * dz * inv;
}

// ---------------------------------------------------------------------------
// Parallel implementation
// ---------------------------------------------------------------------------

/// Shared-memory layout published by processor 0.
#[derive(Clone, Copy)]
struct Mem {
    bodies: u64,
    cells: u64,
    /// Global pool next-index (SharedTree only).
    pool_next: u64,
    /// Bounding box: six f64 (lo[3], hi[3]).
    bbox: u64,
    /// Root cell index (u32).
    root: u64,
    /// Body -> (leaf cell * 8 + octant) map (Update-Tree only; 0 = unset).
    bparent: u64,
    /// Per-processor pool base index (cells are one array; proc p allocates
    /// in [pool_lo[p], pool_lo[p+1]) for local-pool versions).
    pool_quota: u32,
    /// Byte stride between consecutive processors' pool regions. Padded by
    /// one page beyond `pool_quota * CELL_STRIDE` so the (hot) fronts of
    /// the per-processor pools do not alias into the same L2 sets — the
    /// classic power-of-two-stride conflict SPLASH-2 warns about.
    pool_stride: u64,
    ncells: u32,
}

impl Mem {
    /// Byte address of cell `c`.
    #[inline]
    fn cell_addr(&self, c: u32) -> u64 {
        let pool = (c / self.pool_quota) as u64;
        let off = (c % self.pool_quota) as u64;
        self.cells + pool * self.pool_stride + off * CELL_STRIDE
    }
}

impl Mem {
    #[inline]
    fn body_f64(&self, p: &mut Proc, i: u32, off: u64) -> f64 {
        f64::from_bits(p.load(self.bodies + i as u64 * BODY_STRIDE + off, 8))
    }

    #[inline]
    fn set_body_f64(&self, p: &mut Proc, i: u32, off: u64, v: f64) {
        p.store(self.bodies + i as u64 * BODY_STRIDE + off, 8, v.to_bits());
    }

    #[inline]
    fn body_pos(&self, p: &mut Proc, i: u32) -> [f64; 3] {
        [
            self.body_f64(p, i, B_POS),
            self.body_f64(p, i, B_POS + 8),
            self.body_f64(p, i, B_POS + 16),
        ]
    }

    #[inline]
    fn child(&self, p: &mut Proc, c: u32, oct: usize) -> u32 {
        p.load(self.cell_addr(c) + C_CHILD + 4 * oct as u64, 4) as u32
    }

    #[inline]
    fn set_child(&self, p: &mut Proc, c: u32, oct: usize, v: u32) {
        p.store(self.cell_addr(c) + C_CHILD + 4 * oct as u64, 4, v as u64);
    }

    #[inline]
    fn cell_mass(&self, p: &mut Proc, c: u32) -> f64 {
        f64::from_bits(p.load(self.cell_addr(c) + C_MASS, 8))
    }

    #[inline]
    fn set_cell_mass(&self, p: &mut Proc, c: u32, v: f64) {
        p.store(self.cell_addr(c) + C_MASS, 8, v.to_bits());
    }

    #[inline]
    fn cell_mom(&self, p: &mut Proc, c: u32, d: u64) -> f64 {
        f64::from_bits(p.load(self.cell_addr(c) + C_MOM + 8 * d, 8))
    }

    #[inline]
    fn set_cell_mom(&self, p: &mut Proc, c: u32, d: u64, v: f64) {
        p.store(self.cell_addr(c) + C_MOM + 8 * d, 8, v.to_bits());
    }

    /// Store a cell's cube bounds (centre + half extent).
    fn set_cell_bounds(&self, p: &mut Proc, c: u32, center: &[f64; 3], half: f64) {
        for d in 0..3u64 {
            p.store(
                self.cell_addr(c) + C_CENTER + 8 * d,
                8,
                center[d as usize].to_bits(),
            );
        }
        p.store(self.cell_addr(c) + C_HALF, 8, half.to_bits());
    }

    /// Load a cell's cube bounds.
    fn cell_bounds(&self, p: &mut Proc, c: u32) -> ([f64; 3], f64) {
        let mut center = [0.0f64; 3];
        for d in 0..3u64 {
            center[d as usize] = f64::from_bits(p.load(self.cell_addr(c) + C_CENTER + 8 * d, 8));
        }
        let half = f64::from_bits(p.load(self.cell_addr(c) + C_HALF, 8));
        (center, half)
    }

    /// Zero a freshly-allocated cell.
    fn init_cell(&self, p: &mut Proc, c: u32) {
        for oct in 0..8 {
            self.set_child(p, c, oct, EMPTY);
        }
        self.set_cell_mass(p, c, 0.0);
        for d in 0..3 {
            self.set_cell_mom(p, c, d, 0.0);
        }
    }
}

/// Per-processor cell allocator.
struct CellAlloc {
    /// Next index for lock-free local pools; `None` means use the locked
    /// global pool.
    local_next: Option<u32>,
    local_end: u32,
}

impl CellAlloc {
    fn alloc(&mut self, p: &mut Proc, mem: &Mem) -> u32 {
        let c = match self.local_next {
            Some(next) => {
                assert!(next < self.local_end, "local cell pool exhausted");
                self.local_next = Some(next + 1);
                next
            }
            None => {
                p.lock(LOCK_POOL);
                let c = p.read_u32(mem.pool_next);
                p.write_u32(mem.pool_next, c + 1);
                p.unlock(LOCK_POOL);
                assert!(c < mem.ncells, "global cell pool exhausted");
                c
            }
        };
        mem.init_cell(p, c);
        c
    }
}

/// Insert body `i` into the subtree rooted at `cur` (covering `center`,
/// `half`). In the shared-tree versions (`locked`), the cell being examined
/// is locked for the whole level — under lazy release consistency the
/// acquire is also what makes the cell's page contents causally fresh, so
/// reading child slots without the lock would be a data race (stale page
/// copies can survive a fetch of the parent). This per-level locking is the
/// SPLASH discipline and costs a few lock acquires per body. Mass is
/// accumulated by the separate lock-free pass ([`com_subtree`]) after the
/// build barrier.
#[allow(clippy::too_many_arguments)]
fn insert(
    p: &mut Proc,
    mem: &Mem,
    alloc: &mut CellAlloc,
    n: u32,
    i: u32,
    pos: [f64; 3],
    mut cur: u32,
    mut center: [f64; 3],
    mut half: f64,
    locked: bool,
    track: bool,
) {
    let mut depth = 0u32;
    loop {
        depth += 1;
        assert!(depth < 128, "runaway octree insertion (coincident bodies?)");
        p.work(10);
        if locked {
            p.lock(LOCK_CELL_BASE + cur);
        }
        let oct = octant(&center, &pos);
        match dec(mem.child(p, cur, oct), n) {
            Ref::Cell(cc) => {
                if locked {
                    p.unlock(LOCK_CELL_BASE + cur);
                }
                center = sub_center(&center, half, oct);
                half /= 2.0;
                cur = cc;
            }
            Ref::Empty => {
                mem.set_child(p, cur, oct, enc(Ref::Body(i), n));
                if track {
                    p.store(mem.bparent + i as u64 * 4, 4, (cur * 8 + oct as u32) as u64);
                }
                if locked {
                    p.unlock(LOCK_CELL_BASE + cur);
                }
                return;
            }
            Ref::Body(j) => {
                // Split: move j into a fresh cell (initialized while the
                // parent lock is held, so the link and the new cell's
                // contents land in the same release interval), then keep
                // descending.
                let pj = mem.body_pos(p, j);
                let nc = alloc.alloc(p, mem);
                let ncc = sub_center(&center, half, oct);
                mem.set_cell_bounds(p, nc, &ncc, half / 2.0);
                let so = octant(&ncc, &pj);
                mem.set_child(p, nc, so, enc(Ref::Body(j), n));
                if track {
                    p.store(mem.bparent + j as u64 * 4, 4, (nc * 8 + so as u32) as u64);
                }
                mem.set_child(p, cur, oct, enc(Ref::Cell(nc), n));
                if locked {
                    p.unlock(LOCK_CELL_BASE + cur);
                }
                center = ncc;
                half /= 2.0;
                cur = nc;
            }
        }
    }
}

/// Merge the subtree rooted at local cell `l` into global cell `g`
/// (both covering `center`/`half`), Partree-style, under cell locks.
#[allow(clippy::too_many_arguments)]
fn merge(
    p: &mut Proc,
    mem: &Mem,
    alloc: &mut CellAlloc,
    n: u32,
    g: u32,
    l: u32,
    center: [f64; 3],
    half: f64,
) {
    p.lock(LOCK_CELL_BASE + g);
    p.work(10);
    for oct in 0..8 {
        let lc = dec(mem.child(p, l, oct), n);
        if lc == Ref::Empty {
            continue;
        }
        let gc = dec(mem.child(p, g, oct), n);
        let sc = sub_center(&center, half, oct);
        match (gc, lc) {
            (Ref::Empty, any) => {
                // Transplant the whole local subtree/body.
                mem.set_child(p, g, oct, enc(any, n));
            }
            (Ref::Cell(gcc), Ref::Cell(lcc)) => {
                // Recurse without holding the parent lock.
                p.unlock(LOCK_CELL_BASE + g);
                merge(p, mem, alloc, n, gcc, lcc, sc, half / 2.0);
                p.lock(LOCK_CELL_BASE + g);
            }
            (Ref::Cell(gcc), Ref::Body(j)) => {
                let pj = mem.body_pos(p, j);
                p.unlock(LOCK_CELL_BASE + g);
                insert(p, mem, alloc, n, j, pj, gcc, sc, half / 2.0, true, false);
                p.lock(LOCK_CELL_BASE + g);
            }
            (Ref::Body(j), Ref::Cell(lcc)) => {
                // Replace with the local cell, then insert the body into it.
                mem.set_child(p, g, oct, enc(Ref::Cell(lcc), n));
                let pj = mem.body_pos(p, j);
                p.unlock(LOCK_CELL_BASE + g);
                insert(p, mem, alloc, n, j, pj, lcc, sc, half / 2.0, true, false);
                p.lock(LOCK_CELL_BASE + g);
            }
            (_, Ref::Empty) => unreachable!("empty local child was skipped above"),
            (Ref::Body(j), Ref::Body(k)) => {
                // Both bodies: make a fresh cell holding j, link it, then
                // insert k through the normal path.
                let pj = mem.body_pos(p, j);
                let nc = alloc.alloc(p, mem);
                let so = octant(&sc, &pj);
                mem.set_child(p, nc, so, enc(Ref::Body(j), n));
                mem.set_child(p, g, oct, enc(Ref::Cell(nc), n));
                let pk = mem.body_pos(p, k);
                p.unlock(LOCK_CELL_BASE + g);
                insert(p, mem, alloc, n, k, pk, nc, sc, half / 2.0, true, false);
                p.lock(LOCK_CELL_BASE + g);
            }
        }
    }
    p.unlock(LOCK_CELL_BASE + g);
}

/// Recursively compute and store mass and first moment for the subtree at
/// `node`; returns `(mass, moment)`.
fn com_subtree(p: &mut Proc, mem: &Mem, n: u32, node: Ref) -> (f64, [f64; 3]) {
    match node {
        Ref::Empty => (0.0, [0.0; 3]),
        Ref::Body(j) => {
            let m = mem.body_f64(p, j, B_MASS);
            let pos = mem.body_pos(p, j);
            p.work(4);
            (m, [m * pos[0], m * pos[1], m * pos[2]])
        }
        Ref::Cell(c) => {
            let mut mass = 0.0f64;
            let mut mom = [0.0f64; 3];
            for oct in 0..8 {
                let ch = dec(mem.child(p, c, oct), n);
                let (m, mm) = com_subtree(p, mem, n, ch);
                mass += m;
                for d in 0..3 {
                    mom[d] += mm[d];
                }
            }
            mem.set_cell_mass(p, c, mass);
            for d in 0..3 {
                mem.set_cell_mom(p, c, d as u64, mom[d]);
            }
            p.work(12);
            (mass, mom)
        }
    }
}

/// Compute the force on body `i` by tree traversal.
#[allow(clippy::too_many_arguments)]
fn force_on(
    p: &mut Proc,
    mem: &Mem,
    n: u32,
    i: u32,
    pos: [f64; 3],
    root: u32,
    center: [f64; 3],
    half: f64,
    theta: f64,
) -> [f64; 3] {
    let mut acc = [0.0f64; 3];
    let mut stack = vec![(enc(Ref::Cell(root), n), center, half)];
    while let Some((nd, c, h)) = stack.pop() {
        p.work(8);
        match dec(nd, n) {
            Ref::Empty => {}
            Ref::Body(j) => {
                if j != i {
                    let pj = mem.body_pos(p, j);
                    let mj = mem.body_f64(p, j, B_MASS);
                    interact(&pos, &pj, mj, &mut acc);
                    p.work(60);
                }
            }
            Ref::Cell(cc) => {
                let m = mem.cell_mass(p, cc);
                if m == 0.0 {
                    continue; // husk left behind by Update-Tree removal
                }
                let com = [
                    mem.cell_mom(p, cc, 0) / m,
                    mem.cell_mom(p, cc, 1) / m,
                    mem.cell_mom(p, cc, 2) / m,
                ];
                let dx = com[0] - pos[0];
                let dy = com[1] - pos[1];
                let dz = com[2] - pos[2];
                let dist = (dx * dx + dy * dy + dz * dz).sqrt();
                if 2.0 * h / dist.max(1e-12) < theta {
                    interact(&pos, &com, m, &mut acc);
                    p.work(60);
                } else {
                    for oct in 0..8 {
                        let ch = mem.child(p, cc, oct);
                        if ch != EMPTY {
                            stack.push((ch, sub_center(&c, h, oct), h / 2.0));
                        }
                    }
                }
            }
        }
    }
    acc
}

/// Run Barnes on a platform; panics if final body states diverge from the
/// sequential reference beyond floating-point reassociation tolerance.
pub fn run_params(
    platform: Platform,
    nprocs: usize,
    params: &BarnesParams,
    version: BarnesVersion,
) -> AppResult {
    run_params_cfg(platform, nprocs, params, version, RunConfig::new(nprocs))
}

/// Like [`run_params`] with an explicit scheduler configuration (quantum,
/// race detection, run label).
pub fn run_params_cfg(
    platform: Platform,
    nprocs: usize,
    params: &BarnesParams,
    version: BarnesVersion,
    cfg: RunConfig,
) -> AppResult {
    let cfg = if cfg.phase_names.is_empty() {
        cfg.with_phase_names(phase::NAMES)
    } else {
        cfg
    };
    let n = params.n;
    share_evenly(n, "bodies", nprocs).unwrap_or_else(|e| panic!("Barnes: {e}"));
    let input = generate_bodies(params);
    let ncells_total: u32 = (8 * n).max(1024) as u32;
    let mem_bc: Bcast<Mem> = Bcast::new();
    let result = std::sync::Mutex::new(Vec::new());

    let stats = sim_run(platform.boxed(nprocs), cfg, |p| {
        let me = p.pid();
        let np = p.nprocs();
        let chunk = n / np;
        let nb = n as u32;
        if me == 0 {
            let body_pages = ((chunk as u64 * BODY_STRIDE).div_ceil(PAGE_SIZE)).max(1);
            let bodies = p.alloc_shared_labeled(
                "bodies",
                n as u64 * BODY_STRIDE,
                PAGE_SIZE,
                Placement::Blocked {
                    chunk_pages: body_pages,
                },
            );
            let (pool_quota, pool_stride, cells) = match version {
                BarnesVersion::SharedTree => {
                    // One global pool: no staggering needed.
                    let quota = ncells_total;
                    let stride = ncells_total as u64 * CELL_STRIDE;
                    let cells = p.alloc_shared(stride, PAGE_SIZE, Placement::RoundRobin);
                    (quota, stride, cells)
                }
                _ => {
                    // Per-processor pools, locally homed, staggered by one
                    // page to break L2 set aliasing between pool fronts.
                    let quota = ncells_total / np as u32;
                    let quota_pages = ((quota as u64 * CELL_STRIDE).div_ceil(PAGE_SIZE)).max(1) + 1;
                    let stride = quota_pages * PAGE_SIZE;
                    let cells = p.alloc_shared(
                        np as u64 * stride,
                        PAGE_SIZE,
                        Placement::Blocked {
                            chunk_pages: quota_pages,
                        },
                    );
                    (quota, stride, cells)
                }
            };
            let pool_next = p.alloc_shared(8, 8, Placement::Node(0));
            let bparent = p.alloc_shared(
                (n * 4) as u64,
                PAGE_SIZE,
                Placement::Blocked {
                    chunk_pages: ((chunk as u64 * 4).div_ceil(PAGE_SIZE)).max(1),
                },
            );
            let bbox = p.alloc_shared(64, PAGE_SIZE, Placement::Node(0));
            let root = p.alloc_shared(8, 8, Placement::Node(0));
            let mem = Mem {
                bodies,
                cells,
                pool_next,
                bparent,
                bbox,
                root,
                pool_quota,
                pool_stride,
                ncells: ncells_total,
            };
            // Initialize bodies (untimed). Each field write is 8 bytes.
            for (i, b) in input.iter().enumerate() {
                for d in 0..3 {
                    mem.set_body_f64(p, i as u32, B_POS + 8 * d, b[d as usize]);
                    mem.set_body_f64(p, i as u32, B_VEL + 8 * d, b[3 + d as usize]);
                    mem.set_body_f64(p, i as u32, B_ACC + 8 * d, 0.0);
                }
                mem.set_body_f64(p, i as u32, B_MASS, b[6]);
            }
            mem_bc.put(mem);
        }
        p.barrier(100);
        let mem = mem_bc.get();
        let my_lo = (me * chunk) as u32;
        let my_hi = ((me + 1) * chunk) as u32;
        // Cell allocator: reset per step for rebuild algorithms; persistent
        // for Update-Tree (the tree survives between steps).
        let mut alloc = match version {
            BarnesVersion::SharedTree => CellAlloc {
                local_next: None,
                local_end: 0,
            },
            _ => CellAlloc {
                local_next: Some(me as u32 * mem.pool_quota),
                local_end: (me as u32 + 1) * mem.pool_quota,
            },
        };
        // Update-Tree: (root, centre, half) fixed after the first build.
        let mut fixed: Option<(u32, [f64; 3], f64)> = None;
        p.start_timing();

        for _step in 0..params.steps {
            p.set_phase(phase::TREE_BUILD);
            let incremental = matches!(version, BarnesVersion::UpdateTree) && fixed.is_some();
            if !incremental && !matches!(version, BarnesVersion::UpdateTree) {
                // Rebuild algorithms: fresh pool each step.
                alloc = match version {
                    BarnesVersion::SharedTree => CellAlloc {
                        local_next: None,
                        local_end: 0,
                    },
                    _ => CellAlloc {
                        local_next: Some(me as u32 * mem.pool_quota),
                        local_end: (me as u32 + 1) * mem.pool_quota,
                    },
                };
            }
            // --- Bounding box reduction (skipped by incremental steps) ---
            let (center, half);
            if !incremental {
                if me == 0 {
                    for d in 0..3u64 {
                        p.write_f64(mem.bbox + 8 * d, f64::INFINITY);
                        p.write_f64(mem.bbox + 24 + 8 * d, f64::NEG_INFINITY);
                    }
                    // Reset global pool / root for the new tree.
                    p.write_u32(mem.pool_next, 0);
                    p.write_u32(mem.root, u32::MAX);
                }
                p.barrier(0);
                let mut lo = [f64::INFINITY; 3];
                let mut hi = [f64::NEG_INFINITY; 3];
                for i in my_lo..my_hi {
                    let pos = mem.body_pos(p, i);
                    for d in 0..3 {
                        lo[d] = lo[d].min(pos[d]);
                        hi[d] = hi[d].max(pos[d]);
                    }
                    p.work(6);
                }
                p.lock(LOCK_BBOX);
                for d in 0..3u64 {
                    let gl = p.read_f64(mem.bbox + 8 * d);
                    let gh = p.read_f64(mem.bbox + 24 + 8 * d);
                    p.write_f64(mem.bbox + 8 * d, gl.min(lo[d as usize]));
                    p.write_f64(mem.bbox + 24 + 8 * d, gh.max(hi[d as usize]));
                }
                p.unlock(LOCK_BBOX);
                p.barrier(1);
                let mut glo = [0.0f64; 3];
                let mut ghi = [0.0f64; 3];
                for d in 0..3usize {
                    glo[d] = p.read_f64(mem.bbox + 8 * d as u64);
                    ghi[d] = p.read_f64(mem.bbox + 24 + 8 * d as u64);
                }
                center = [
                    (glo[0] + ghi[0]) / 2.0,
                    (glo[1] + ghi[1]) / 2.0,
                    (glo[2] + ghi[2]) / 2.0,
                ];
                let mut h = 0.0f64;
                for d in 0..3 {
                    h = h.max((ghi[d] - glo[d]) / 2.0);
                }
                // Update-Tree keeps the root cube across steps: pad it so
                // bodies stay inside for the whole run.
                half = if matches!(version, BarnesVersion::UpdateTree) {
                    h * 1.5 + 1e-9
                } else {
                    h * 1.001 + 1e-9
                };
            } else {
                let (_, c, hf) = fixed.unwrap();
                center = c;
                half = hf;
            }

            // --- Tree build ---
            let root = match version {
                BarnesVersion::SharedTree | BarnesVersion::LocalHeaps => {
                    // Processor 0 creates the root; everyone inserts with
                    // cell locking.
                    if me == 0 {
                        let r = alloc.alloc(p, &mem);
                        p.write_u32(mem.root, r);
                    }
                    p.barrier(2);
                    let root = p.read_u32(mem.root);
                    for i in my_lo..my_hi {
                        let pos = mem.body_pos(p, i);
                        insert(
                            p, &mem, &mut alloc, nb, i, pos, root, center, half, true, false,
                        );
                    }
                    p.barrier(3);
                    root
                }
                BarnesVersion::UpdateTree => {
                    if !incremental {
                        // First step: build like LocalHeaps, with tracking.
                        if me == 0 {
                            let r = alloc.alloc(p, &mem);
                            mem.set_cell_bounds(p, r, &center, half);
                            p.write_u32(mem.root, r);
                        }
                        p.barrier(2);
                        let root = p.read_u32(mem.root);
                        for i in my_lo..my_hi {
                            let pos = mem.body_pos(p, i);
                            insert(
                                p, &mem, &mut alloc, nb, i, pos, root, center, half, true, true,
                            );
                        }
                        p.barrier(3);
                        fixed = Some((root, center, half));
                        root
                    } else {
                        // Incremental step, in two phases so that one
                        // processor's re-insertion can never displace a
                        // body another processor is still about to remove:
                        // (1) everyone removes its moved bodies; barrier;
                        // (2) everyone re-inserts them.
                        let (root, _, _) = fixed.unwrap();
                        let mut moved = Vec::new();
                        for i in my_lo..my_hi {
                            let pos = mem.body_pos(p, i);
                            let bp = p.load(mem.bparent + i as u64 * 4, 4) as u32;
                            let (cell, oct) = (bp / 8, (bp % 8) as usize);
                            let (cc, ch) = mem.cell_bounds(p, cell);
                            p.work(8);
                            let scc = sub_center(&cc, ch, oct);
                            let sh = ch / 2.0;
                            let inside = (0..3).all(|d| (pos[d] - scc[d]).abs() <= sh);
                            if inside {
                                continue;
                            }
                            p.lock(LOCK_CELL_BASE + cell);
                            debug_assert_eq!(dec(mem.child(p, cell, oct), nb), Ref::Body(i));
                            mem.set_child(p, cell, oct, EMPTY);
                            p.unlock(LOCK_CELL_BASE + cell);
                            moved.push((i, pos));
                        }
                        p.barrier(2);
                        for (i, pos) in moved {
                            insert(
                                p, &mem, &mut alloc, nb, i, pos, root, center, half, true, true,
                            );
                        }
                        p.barrier(3);
                        root
                    }
                }
                BarnesVersion::Partree => {
                    // Lock-free local tree over my bodies, then merge.
                    if me == 0 {
                        let r = alloc.alloc(p, &mem);
                        p.write_u32(mem.root, r);
                    }
                    let lroot = alloc.alloc(p, &mem);
                    for i in my_lo..my_hi {
                        let pos = mem.body_pos(p, i);
                        insert(
                            p, &mem, &mut alloc, nb, i, pos, lroot, center, half, false, false,
                        );
                    }
                    p.barrier(2); // local trees done; root published
                    let root = p.read_u32(mem.root);
                    merge(p, &mem, &mut alloc, nb, root, lroot, center, half);
                    p.barrier(3);
                    root
                }
                BarnesVersion::Spatial => {
                    // Two-level skeleton: root + 8 children; 64 sub-octants
                    // are built lock-free by their owners.
                    if me == 0 {
                        let r = alloc.alloc(p, &mem);
                        for oct in 0..8 {
                            let c = alloc.alloc(p, &mem);
                            mem.set_child(p, r, oct, enc(Ref::Cell(c), nb));
                        }
                        p.write_u32(mem.root, r);
                    }
                    p.barrier(2);
                    let root = p.read_u32(mem.root);
                    // Sub-octant so = o1*8 + o2 is owned by proc so % np.
                    // One scan over all bodies; insert those in my
                    // sub-octants into their (lock-free) subtrees.
                    let mut sub_root = vec![u32::MAX; 64];
                    for i in 0..nb {
                        let pos = mem.body_pos(p, i);
                        p.work(6);
                        let o1 = octant(&center, &pos);
                        let c1 = sub_center(&center, half, o1);
                        let o2 = octant(&c1, &pos);
                        let so = o1 * 8 + o2;
                        if so % np != me {
                            continue;
                        }
                        let c2 = sub_center(&c1, half / 2.0, o2);
                        if sub_root[so] == u32::MAX {
                            sub_root[so] = alloc.alloc(p, &mem);
                        }
                        insert(
                            p,
                            &mem,
                            &mut alloc,
                            nb,
                            i,
                            pos,
                            sub_root[so],
                            c2,
                            half / 4.0,
                            false,
                            false,
                        );
                    }
                    // Link my subtrees into the skeleton (disjoint slots).
                    for (so, &local_root) in sub_root.iter().enumerate() {
                        if local_root != u32::MAX {
                            if let Ref::Cell(l1c) = dec(mem.child(p, root, so / 8), nb) {
                                mem.set_child(p, l1c, so % 8, enc(Ref::Cell(local_root), nb));
                            }
                        }
                    }
                    p.barrier(3);
                    root
                }
            };

            // --- Centre-of-mass pass (lock-free) ---
            // Level-2 subtrees are distributed (o1*8+o2 mod P); processor 0
            // folds the top two levels afterwards. This is the SPLASH-style
            // separate cofm pass: no locks, each cell written once.
            for o1 in 0..8usize {
                if let Ref::Cell(c1) = dec(mem.child(p, root, o1), nb) {
                    for o2 in 0..8usize {
                        if (o1 * 8 + o2) % np == me {
                            let ch = dec(mem.child(p, c1, o2), nb);
                            com_subtree(p, &mem, nb, ch);
                        }
                    }
                }
            }
            p.barrier(7);
            if me == 0 {
                let mut rm = 0.0f64;
                let mut rmom = [0.0f64; 3];
                for o1 in 0..8usize {
                    match dec(mem.child(p, root, o1), nb) {
                        Ref::Cell(c1) => {
                            let mut m1 = 0.0f64;
                            let mut mom1 = [0.0f64; 3];
                            for o2 in 0..8usize {
                                match dec(mem.child(p, c1, o2), nb) {
                                    Ref::Cell(sc) => {
                                        m1 += mem.cell_mass(p, sc);
                                        for d in 0..3 {
                                            mom1[d] += mem.cell_mom(p, sc, d as u64);
                                        }
                                    }
                                    Ref::Body(j) => {
                                        let mj = mem.body_f64(p, j, B_MASS);
                                        let pj = mem.body_pos(p, j);
                                        m1 += mj;
                                        for d in 0..3 {
                                            mom1[d] += mj * pj[d];
                                        }
                                    }
                                    Ref::Empty => {}
                                }
                                p.work(6);
                            }
                            mem.set_cell_mass(p, c1, m1);
                            for d in 0..3 {
                                mem.set_cell_mom(p, c1, d as u64, mom1[d]);
                            }
                            rm += m1;
                            for d in 0..3 {
                                rmom[d] += mom1[d];
                            }
                        }
                        Ref::Body(j) => {
                            let mj = mem.body_f64(p, j, B_MASS);
                            let pj = mem.body_pos(p, j);
                            rm += mj;
                            for d in 0..3 {
                                rmom[d] += mj * pj[d];
                            }
                        }
                        Ref::Empty => {}
                    }
                }
                mem.set_cell_mass(p, root, rm);
                for d in 0..3 {
                    mem.set_cell_mom(p, root, d as u64, rmom[d]);
                }
            }
            p.barrier(8);

            // --- Force computation ---
            p.set_phase(phase::FORCE);
            for i in my_lo..my_hi {
                let pos = mem.body_pos(p, i);
                let acc = force_on(p, &mem, nb, i, pos, root, center, half, params.theta);
                for d in 0..3u64 {
                    mem.set_body_f64(p, i, B_ACC + 8 * d, acc[d as usize]);
                }
            }
            p.barrier(5);

            // --- Update ---
            p.set_phase(phase::UPDATE);
            for i in my_lo..my_hi {
                for d in 0..3u64 {
                    let a = mem.body_f64(p, i, B_ACC + 8 * d);
                    let v = mem.body_f64(p, i, B_VEL + 8 * d) + a * params.dt;
                    mem.set_body_f64(p, i, B_VEL + 8 * d, v);
                    let x = mem.body_f64(p, i, B_POS + 8 * d) + v * params.dt;
                    mem.set_body_f64(p, i, B_POS + 8 * d, x);
                    p.work(4);
                }
            }
            p.barrier(6);
        }

        p.stop_timing();
        if me == 0 {
            let mut out = Vec::with_capacity(n * 6);
            for i in 0..nb {
                for d in 0..3u64 {
                    out.push(mem.body_f64(p, i, B_POS + 8 * d));
                }
                for d in 0..3u64 {
                    out.push(mem.body_f64(p, i, B_VEL + 8 * d));
                }
            }
            *result.lock().unwrap() = out;
        }
    });

    let out = result.into_inner().unwrap();
    let want = if version == BarnesVersion::UpdateTree {
        reference_update(params)
    } else {
        reference(params)
    };
    assert_eq!(out.len(), want.len());
    let mut worst = 0.0f64;
    for (g, w) in out.iter().zip(&want) {
        let e = (g - w).abs() / (1.0 + w.abs());
        worst = worst.max(e);
    }
    assert!(
        worst < 1e-6,
        "Barnes diverged from reference: worst rel err {worst}"
    );
    AppResult {
        stats,
        checksum: crate::common::checksum_f64s(out.into_iter()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BarnesParams {
        BarnesParams {
            n: 64,
            steps: 2,
            theta: 0.9,
            dt: 0.025,
            seed: 42,
        }
    }

    #[test]
    fn reference_conserves_reasonable_state() {
        let r = reference(&tiny());
        assert_eq!(r.len(), 64 * 6);
        assert!(r.iter().all(|v| v.is_finite()));
        // Bodies should stay roughly bounded for small dt and 2 steps.
        assert!(r.iter().take(3).all(|v| v.abs() < 100.0));
    }

    #[test]
    fn all_versions_match_reference_on_svm() {
        for v in [
            BarnesVersion::SharedTree,
            BarnesVersion::LocalHeaps,
            BarnesVersion::UpdateTree,
            BarnesVersion::Partree,
            BarnesVersion::Spatial,
        ] {
            let r = run_params(Platform::Svm, 4, &tiny(), v);
            assert!(r.stats.total_cycles() > 0, "{v:?}");
        }
    }

    #[test]
    fn versions_work_on_all_platforms() {
        for pf in [Platform::Dsm, Platform::Smp] {
            let r = run_params(pf, 4, &tiny(), BarnesVersion::SharedTree);
            assert!(r.stats.total_cycles() > 0);
        }
    }

    #[test]
    fn uniprocessor_works() {
        let r = run_params(Platform::Svm, 1, &tiny(), BarnesVersion::SharedTree);
        assert!(r.stats.total_cycles() > 0);
    }

    #[test]
    fn shared_tree_uses_many_more_locks_than_spatial() {
        let a = run_params(Platform::Svm, 4, &tiny(), BarnesVersion::SharedTree);
        let b = run_params(Platform::Svm, 4, &tiny(), BarnesVersion::Spatial);
        let la = a.stats.sum_counters().lock_acquires;
        let lb = b.stats.sum_counters().lock_acquires;
        assert!(
            la > 5 * lb,
            "expected lock reduction: shared={la} spatial={lb}"
        );
    }

    #[test]
    fn update_tree_moves_fewer_bodies_than_it_keeps() {
        // With a small dt, most bodies stay inside their leaf cube: the
        // incremental steps must use far fewer lock acquires than a full
        // rebuild of the same problem.
        let params = tiny();
        let full = run_params(Platform::Svm, 4, &params, BarnesVersion::LocalHeaps);
        let upd = run_params(Platform::Svm, 4, &params, BarnesVersion::UpdateTree);
        let lf = full.stats.sum_counters().lock_acquires;
        let lu = upd.stats.sum_counters().lock_acquires;
        assert!(
            lu < lf,
            "update-tree should lock less: update={lu} full={lf}"
        );
    }

    #[test]
    fn plummer_distribution_is_centered_and_bounded() {
        let params = BarnesParams {
            n: 512,
            steps: 1,
            theta: 0.8,
            dt: 0.01,
            seed: 9,
        };
        let bodies = generate_bodies(&params);
        assert_eq!(bodies.len(), 512);
        let mut com = [0.0f64; 3];
        for b in &bodies {
            assert!(b[..3].iter().all(|x| x.abs() <= 8.0), "radius cutoff");
            for d in 0..3 {
                com[d] += b[d] / 512.0;
            }
        }
        // Center of mass near the origin for a symmetric distribution.
        assert!(com.iter().all(|c| c.abs() < 0.5), "{com:?}");
        // Total mass normalized.
        let m: f64 = bodies.iter().map(|b| b[6]).sum();
        assert!((m - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gravity_attracts() {
        // Two bodies accelerate toward each other.
        let mut acc = [0.0f64; 3];
        interact(&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], 1.0, &mut acc);
        assert!(acc[0] > 0.0 && acc[1] == 0.0 && acc[2] == 0.0);
        // Closer pairs pull harder (softened).
        let mut near = [0.0f64; 3];
        interact(&[0.0, 0.0, 0.0], &[0.5, 0.0, 0.0], 1.0, &mut near);
        assert!(near[0] > acc[0]);
    }

    #[test]
    fn reference_update_matches_reference_on_step_one() {
        // With a single step no body has moved yet; the only difference is
        // the padded root cube (x1.5 vs x1.001), which shifts the theta
        // approximation slightly — results agree to approximation accuracy.
        let params = BarnesParams {
            n: 128,
            steps: 1,
            theta: 0.9,
            dt: 0.025,
            seed: 42,
        };
        let a = reference(&params);
        let b = reference_update(&params);
        // Different root cubes mean slightly different theta pruning; the
        // two approximations must agree statistically, not bitwise.
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (x, y) in a.iter().zip(&b) {
            num += (x - y) * (x - y);
            den += y * y + 1e-12;
        }
        let rms = (num / den).sqrt();
        assert!(rms < 0.02, "update-tree physics diverged: rms {rms}");
    }

    #[test]
    fn octant_roundtrip() {
        let c = [0.0, 0.0, 0.0];
        for oct in 0..8 {
            let sc = sub_center(&c, 1.0, oct);
            assert_eq!(octant(&c, &sc), oct);
        }
    }

    #[test]
    fn ref_encoding_roundtrip() {
        let n = 100;
        for r in [
            Ref::Empty,
            Ref::Body(0),
            Ref::Body(99),
            Ref::Cell(0),
            Ref::Cell(500),
        ] {
            assert_eq!(dec(enc(r, n), n), r);
        }
    }
}
