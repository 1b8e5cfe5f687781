//! Shared infrastructure for the application suite: platform selection,
//! problem scales, result containers, and the `Bcast` side channel used to
//! publish shared-memory layouts from the initializing processor to the
//! rest (the analogue of SPLASH-2's C globals).

use cc_numa::{DsmConfig, DsmPlatform};
use sim_core::{Platform as PlatformTrait, RunStats};
use smp_bus::{SmpConfig, SmpPlatform};
use svm_hlrc::{SvmConfig, SvmPlatform, TmkPlatform};

/// The three platforms of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Page-grained shared virtual memory (HLRC).
    Svm,
    /// Directory-based hardware CC-NUMA.
    Dsm,
    /// Bus-based centralized-memory SMP.
    Smp,
    /// TreadMarks-style non-home-based LRC shared virtual memory (the
    /// protocol HLRC was designed to improve on; same machine parameters).
    Tmk,
    /// The paper's future-work platform: SMP nodes of `ppn` processors
    /// connected by the HLRC SVM (intra-node hardware coherence, inter-node
    /// page-grained software coherence).
    SvmSmpNodes {
        /// Processors per node.
        ppn: u8,
    },
    /// SVM with modified parameters, for ablation studies: protocol page
    /// size `1 << page_shift` and network costs (wire latency and I/O bus
    /// occupancy) scaled to `net_scale_pct` percent of the paper's values.
    SvmTuned {
        /// log2 of the protocol page size (10..=14).
        page_shift: u8,
        /// Network cost scale, percent (100 = paper).
        net_scale_pct: u16,
    },
}

impl Platform {
    /// All platforms, in the paper's ordering.
    pub const ALL: [Platform; 3] = [Platform::Svm, Platform::Smp, Platform::Dsm];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Svm => "SVM",
            Platform::Dsm => "DSM",
            Platform::Smp => "SMP",
            Platform::Tmk => "TMK",
            Platform::SvmSmpNodes { .. } => "SVM-SMP",
            Platform::SvmTuned { .. } => "SVM*",
        }
    }

    /// Coherence granularity in bytes: the unit the paper's P/A class pads
    /// to — "cache line size for hardware cache-coherent machines and page
    /// size for SVM systems" (§3).
    pub fn grain(self) -> u64 {
        match self {
            Platform::Svm | Platform::Tmk | Platform::SvmSmpNodes { .. } => sim_core::PAGE_SIZE,
            Platform::Dsm => 64,
            Platform::Smp => 128,
            Platform::SvmTuned { page_shift, .. } => 1u64 << page_shift,
        }
    }

    /// Instantiate the platform model with the paper's parameters.
    pub fn boxed(self, nprocs: usize) -> Box<dyn PlatformTrait> {
        match self {
            Platform::Svm => SvmPlatform::boxed(SvmConfig::paper(nprocs)),
            Platform::Dsm => DsmPlatform::boxed(DsmConfig::paper(nprocs)),
            Platform::Smp => SmpPlatform::boxed(SmpConfig::paper(nprocs)),
            Platform::Tmk => TmkPlatform::boxed(SvmConfig::paper(nprocs)),
            Platform::SvmSmpNodes { ppn } => {
                // Degrade gracefully for processor counts the grouping does
                // not divide (e.g. uniprocessor baselines).
                let mut ppn = (ppn as usize).clamp(1, nprocs);
                while !nprocs.is_multiple_of(ppn) {
                    ppn -= 1;
                }
                SvmPlatform::boxed(SvmConfig::paper_smp_nodes(nprocs, ppn))
            }
            Platform::SvmTuned {
                page_shift,
                net_scale_pct,
            } => {
                let mut cfg = SvmConfig::paper(nprocs);
                cfg.page_size = 1u64 << page_shift;
                let pct = net_scale_pct as u64;
                cfg.wire_latency = (cfg.wire_latency * pct / 100).max(1);
                cfg.io_cyc_per_byte = (cfg.io_cyc_per_byte * pct / 100).max(1);
                SvmPlatform::boxed(cfg)
            }
        }
    }
}

/// Problem-size presets. Simulation is 3–5 orders of magnitude slower than
/// native execution, so figure sweeps default to [`Scale::Default`];
/// [`Scale::Paper`] selects the paper's original sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for unit/integration tests (seconds per full sweep).
    Test,
    /// Reduced inputs preserving all qualitative regimes (default).
    Default,
    /// The paper's published problem sizes.
    Paper,
}

/// Outcome of one application run.
pub struct AppResult {
    /// Verified per-processor statistics of the timed region.
    pub stats: RunStats,
    /// A checksum of the application output (useful for cross-version
    /// comparisons in tests).
    pub checksum: u64,
}

/// One-shot broadcast cell: the initializing processor `put`s a value before
/// a barrier, everyone else `get`s it after. This carries *metadata only*
/// (base addresses, sizes) — the analogue of C globals in SPLASH-2 — never
/// application data, which always lives in simulated shared memory.
pub struct Bcast<T> {
    cell: std::sync::Mutex<Option<T>>,
}

impl<T: Clone> Bcast<T> {
    /// Empty cell.
    pub fn new() -> Self {
        Self {
            cell: std::sync::Mutex::new(None),
        }
    }

    /// Publish the value (call once, before the synchronizing barrier).
    pub fn put(&self, v: T) {
        let mut g = self.cell.lock().unwrap();
        assert!(g.is_none(), "Bcast::put called twice");
        *g = Some(v);
    }

    /// Read the value (call after the synchronizing barrier).
    pub fn get(&self) -> T {
        self.cell
            .lock()
            .unwrap()
            .clone()
            .expect("Bcast::get before put")
    }
}

impl<T: Clone> Default for Bcast<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// `Err` unless `n` `items` divide evenly among `nprocs` processors.
pub(crate) fn share_evenly(n: usize, items: &str, nprocs: usize) -> Result<(), String> {
    match n % nprocs {
        0 => Ok(()),
        _ => Err(format!(
            "{n} {items} do not divide evenly among {nprocs} processors"
        )),
    }
}

/// The runs [`read_f64_runs`] and its twins issue one call per, over the
/// addresses `addr_of(0..n)`: `(start, end, base, stride)` with `base =
/// addr_of(start)`. Greedy from each start: a run takes the next index and
/// the stride to it, then every further index at that same stride. A
/// descending step ends the run at its start (a one-index run, whose stride
/// means nothing). `addr_of` is called once per index; the previous address
/// is carried, not recomputed.
struct Runs<F> {
    addr_of: F,
    n: usize,
    /// The next run's start, and its address.
    s: usize,
    base: sim_core::Addr,
}

impl<F: Fn(usize) -> sim_core::Addr> Runs<F> {
    fn new(n: usize, addr_of: F) -> Self {
        let base = if n > 0 { addr_of(0) } else { 0 };
        Self {
            addr_of,
            n,
            s: 0,
            base,
        }
    }
}

impl<F: Fn(usize) -> sim_core::Addr> Iterator for Runs<F> {
    type Item = (usize, usize, sim_core::Addr, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let (s, base) = (self.s, self.base);
        if s + 1 >= self.n {
            self.s = self.n;
            return (s < self.n).then_some((s, s + 1, base, 0));
        }
        let mut prev = (self.addr_of)(s + 1);
        let Some(stride) = prev.checked_sub(base) else {
            (self.s, self.base) = (s + 1, prev);
            return Some((s, s + 1, base, 0));
        };
        let mut e = s + 2;
        while e < self.n {
            let a = (self.addr_of)(e);
            if a.checked_sub(prev) != Some(stride) {
                self.base = a;
                break;
            }
            (prev, e) = (a, e + 1);
        }
        self.s = e;
        Some((s, e, base, stride))
    }
}

/// Read `out.len()` `f64`s spaced `step` bytes apart from `base`, as the one
/// run [`read_f64_runs`] finds over such addresses: nothing for no words, a
/// scalar [`sim_core::Proc::read_f64`] for one, one bulk
/// [`sim_core::Proc::read_f64_slice`] otherwise. For callers that know
/// their segment is affine (LU's in-block rows and columns).
pub fn read_f64_seg(p: &mut sim_core::Proc, base: sim_core::Addr, step: u64, out: &mut [f64]) {
    match out {
        [] => {}
        [one] => *one = p.read_f64(base),
        run => p.read_f64_slice(base, step, run),
    }
}

/// Store-side twin of [`read_f64_seg`].
pub fn write_f64_seg(p: &mut sim_core::Proc, base: sim_core::Addr, step: u64, vals: &[f64]) {
    match vals {
        [] => {}
        [one] => p.write_f64(base, *one),
        run => p.write_f64_slice(base, step, run),
    }
}

/// Read `out.len()` `f64`s at addresses `addr_of(0..n)`, splitting the index
/// range into maximal constant-stride runs and issuing one bulk
/// [`sim_core::Proc::read_f64_slice`] per run. Blocked layouts (4-d arrays,
/// grain padding) are piecewise-affine, so blind stride inference over the
/// whole range would be wrong at block boundaries; this helper finds the
/// boundaries instead of assuming them away. Access order (and thus timing)
/// is identical to a scalar `for j { read_f64(addr_of(j)) }` loop.
pub fn read_f64_runs(
    p: &mut sim_core::Proc,
    out: &mut [f64],
    addr_of: impl Fn(usize) -> sim_core::Addr,
) {
    for (s, e, base, stride) in Runs::new(out.len(), addr_of) {
        read_f64_seg(p, base, stride, &mut out[s..e]);
    }
}

/// Store-side twin of [`read_f64_runs`].
pub fn write_f64_runs(
    p: &mut sim_core::Proc,
    vals: &[f64],
    addr_of: impl Fn(usize) -> sim_core::Addr,
) {
    for (s, e, base, stride) in Runs::new(vals.len(), addr_of) {
        write_f64_seg(p, base, stride, &vals[s..e]);
    }
}

/// u32 twin of [`read_f64_runs`].
pub fn read_u32_runs(
    p: &mut sim_core::Proc,
    out: &mut [u32],
    addr_of: impl Fn(usize) -> sim_core::Addr,
) {
    for (s, e, base, stride) in Runs::new(out.len(), addr_of) {
        match &mut out[s..e] {
            [one] => *one = p.read_u32(base),
            run => p.read_u32_slice(base, stride, run),
        }
    }
}

/// Accumulate a u64 checksum from f64 outputs with a tolerance-insensitive
/// quantization (used to compare versions to each other, not to verify —
/// verification always compares against the sequential reference directly).
pub fn checksum_f64s(values: impl Iterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        let q = (v * 1e6).round() as i64 as u64;
        h ^= q;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Relative-error comparison for verifying floating-point outputs.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

/// Assert two f64 slices are element-wise close; panics with context.
pub fn assert_close_slice(got: &[f64], want: &[f64], tol: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            close(*g, *w, tol),
            "{what}: mismatch at {i}: got {g}, want {w}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_round_trip() {
        let b: Bcast<(u64, usize)> = Bcast::new();
        b.put((42, 7));
        assert_eq!(b.get(), (42, 7));
        assert_eq!(b.get(), (42, 7));
    }

    #[test]
    #[should_panic(expected = "before put")]
    fn bcast_get_before_put_panics() {
        let b: Bcast<u64> = Bcast::new();
        b.get();
    }

    #[test]
    fn runs_split_piecewise_affine_addresses() {
        // (addresses, expected runs).
        type Run = (usize, usize, u64, u64); // (start, end, base, stride)
        let cases: [(&[u64], &[Run]); 9] = [
            (&[], &[]),
            (&[100], &[(0, 1, 100, 0)]),
            (&[100, 108], &[(0, 2, 100, 8)]),
            (&[108, 100], &[(0, 1, 108, 0), (1, 2, 100, 0)]),
            // Two 4-d blocks of a row: each block is one run.
            (
                &[
                    0x1000, 0x1008, 0x1010, 0x1018, 0x2000, 0x2008, 0x2010, 0x2018,
                ],
                &[(0, 4, 0x1000, 8), (4, 8, 0x2000, 8)],
            ),
            // Greedy: the first two indices fix the stride, whatever follows.
            (&[0, 50, 58, 66], &[(0, 2, 0, 50), (2, 4, 58, 8)]),
            // A descending step falls back to one scalar, then resumes.
            (&[300, 200, 208, 216], &[(0, 1, 300, 0), (1, 4, 200, 8)]),
            (&[0, 8, 16, 4], &[(0, 3, 0, 8), (3, 4, 4, 0)]),
            // A zero stride is a run like any other.
            (&[40, 40, 40, 48], &[(0, 3, 40, 0), (3, 4, 48, 0)]),
        ];
        for (addrs, want) in cases {
            let calls = std::cell::Cell::new(0);
            let addr_of = |i: usize| {
                calls.set(calls.get() + 1);
                addrs[i]
            };
            let got: Vec<_> = Runs::new(addrs.len(), addr_of).collect();
            assert_eq!(got, want, "{addrs:?}");
            assert_eq!(calls.get(), addrs.len(), "{addrs:?}: one call per index");
        }
    }

    #[test]
    fn close_comparisons() {
        assert!(close(1.0, 1.0 + 1e-9, 1e-6));
        assert!(!close(1.0, 1.1, 1e-6));
        assert!(close(0.0, 1e-9, 1e-6)); // absolute floor at small scale
    }

    #[test]
    fn checksum_distinguishes_outputs() {
        let a = checksum_f64s([1.0, 2.0, 3.0].into_iter());
        let b = checksum_f64s([1.0, 2.0, 3.000001].into_iter());
        let a2 = checksum_f64s([1.0, 2.0, 3.0].into_iter());
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn platforms_instantiate() {
        for p in Platform::ALL {
            let b = p.boxed(4);
            assert_eq!(b.nprocs(), 4);
        }
    }
}
