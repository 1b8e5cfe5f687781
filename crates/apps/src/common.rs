//! Shared infrastructure for the application suite: platform selection,
//! problem scales, result containers, and the `Bcast` side channel used to
//! publish shared-memory layouts from the initializing processor to the
//! rest (the analogue of SPLASH-2's C globals).

use cc_numa::{DsmConfig, DsmPlatform};
use lrc_tmk::TmkPlatform;
use sim_core::{Platform as PlatformTrait, RunStats};
use smp_bus::{SmpConfig, SmpPlatform};
use svm_hlrc::{SvmConfig, SvmPlatform};

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
    let n = out.len();
    let mut s = 0;
    while s < n {
        let base = addr_of(s);
        if s + 1 == n {
            out[s] = p.read_f64(base);
            break;
        }
        let Some(stride) = addr_of(s + 1).checked_sub(base) else {
            out[s] = p.read_f64(base);
            s += 1;
            continue;
        };
        let mut e = s + 2;
        while e < n && addr_of(e).checked_sub(addr_of(e - 1)) == Some(stride) {
            e += 1;
        }
        p.read_f64_slice(base, stride, &mut out[s..e]);
        s = e;
    }
}

/// Store-side twin of [`read_f64_runs`].
pub fn write_f64_runs(
    p: &mut sim_core::Proc,
    vals: &[f64],
    addr_of: impl Fn(usize) -> sim_core::Addr,
) {
    let n = vals.len();
    let mut s = 0;
    while s < n {
        let base = addr_of(s);
        if s + 1 == n {
            p.write_f64(base, vals[s]);
            break;
        }
        let Some(stride) = addr_of(s + 1).checked_sub(base) else {
            p.write_f64(base, vals[s]);
            s += 1;
            continue;
        };
        let mut e = s + 2;
        while e < n && addr_of(e).checked_sub(addr_of(e - 1)) == Some(stride) {
            e += 1;
        }
        p.write_f64_slice(base, stride, &vals[s..e]);
        s = e;
    }
}

/// u32 twin of [`read_f64_runs`].
pub fn read_u32_runs(
    p: &mut sim_core::Proc,
    out: &mut [u32],
    addr_of: impl Fn(usize) -> sim_core::Addr,
) {
    let n = out.len();
    let mut s = 0;
    while s < n {
        let base = addr_of(s);
        if s + 1 == n {
            out[s] = p.read_u32(base);
            break;
        }
        let Some(stride) = addr_of(s + 1).checked_sub(base) else {
            out[s] = p.read_u32(base);
            s += 1;
            continue;
        };
        let mut e = s + 2;
        while e < n && addr_of(e).checked_sub(addr_of(e - 1)) == Some(stride) {
            e += 1;
        }
        p.read_u32_slice(base, stride, &mut out[s..e]);
        s = e;
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
