//! # apps — the paper's seven applications, in every restructured version
//!
//! Six SPLASH/SPLASH-2 codes (LU, Ocean, Volrend, Raytrace, Barnes, Radix)
//! plus the shear-warp volume renderer, re-implemented against the
//! `sim-core` shared-address-space API. Each application module provides:
//!
//! * a deterministic workload generator,
//! * a plain-Rust **sequential reference** used for correctness checking,
//! * one parallel body per **version** — the paper's `Orig`, `P/A`
//!   (padding/alignment), `DS` (data-structure reorganization) and `Alg`
//!   (algorithmic change) optimization classes,
//! * a verifier comparing parallel output against the reference.
//!
//! The applications really compute their results *through* the platform's
//! coherence machinery (page diffs under SVM), so a passing verifier
//! simultaneously validates the app and the protocol.

// Indexed loops over fixed coordinate dimensions are clearer than
// iterator adaptors in this numeric code.
#![allow(clippy::needless_range_loop)]
pub mod barnes;
pub mod common;
pub mod kvstore;
pub mod lu;
pub mod ocean;
pub mod radix;
pub mod raytrace;
pub mod shearwarp;
pub mod volrend;

pub use common::{AppResult, Bcast, Platform, Scale};

use sim_core::{RunConfig, RunStats};

/// Identifies one application for generic harness code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    /// Blocked dense LU factorization.
    Lu,
    /// Regular-grid nearest-neighbour solver (Ocean).
    Ocean,
    /// Ray-casting volume renderer (Volrend).
    Volrend,
    /// Shear-warp volume renderer.
    ShearWarp,
    /// Recursive ray tracer.
    Raytrace,
    /// Hierarchical N-body (Barnes-Hut).
    Barnes,
    /// Radix sort.
    Radix,
    /// Sharded key-value store serving Zipf request traffic.
    Kv,
}

impl App {
    /// All applications in the paper's presentation order, followed by the
    /// repo's server-shaped extension workload.
    pub const ALL: [App; 8] = [
        App::Lu,
        App::Ocean,
        App::Volrend,
        App::ShearWarp,
        App::Raytrace,
        App::Barnes,
        App::Radix,
        App::Kv,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            App::Lu => "LU",
            App::Ocean => "Ocean",
            App::Volrend => "Volrend",
            App::ShearWarp => "Shear-Warp",
            App::Raytrace => "Raytrace",
            App::Barnes => "Barnes",
            App::Radix => "Radix",
            App::Kv => "KV",
        }
    }
}

/// The paper's optimization classes (Figure 16's x-axis groups).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptClass {
    /// The original program.
    Orig,
    /// Padding and alignment.
    PadAlign,
    /// Data-structure reorganization.
    DataStruct,
    /// Algorithmic change.
    Algorithm,
}

impl OptClass {
    /// All classes in order of increasing effort.
    pub const ALL: [OptClass; 4] = [
        OptClass::Orig,
        OptClass::PadAlign,
        OptClass::DataStruct,
        OptClass::Algorithm,
    ];

    /// Short label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            OptClass::Orig => "Orig",
            OptClass::PadAlign => "P/A",
            OptClass::DataStruct => "DS",
            OptClass::Algorithm => "Alg",
        }
    }
}

/// Whether `app`'s `class` version runs on `nprocs` processors at `scale`
/// (the run panics where this is `Err`): one line naming the application,
/// the class and the constraint.
pub fn check_nprocs(app: App, class: OptClass, nprocs: usize, scale: Scale) -> Result<(), String> {
    match app {
        App::Ocean => ocean::check_nprocs(
            &ocean::OceanParams::at(scale),
            ocean::version_for(class),
            nprocs,
        ),
        App::Volrend => volrend::check_nprocs(
            &volrend::VolrendParams::at(scale),
            volrend::version_for(class),
            nprocs,
        ),
        App::Barnes => common::share_evenly(barnes::BarnesParams::at(scale).n, "bodies", nprocs),
        App::Radix => common::share_evenly(radix::RadixParams::at(scale).n, "keys", nprocs),
        App::Kv => common::share_evenly(kvstore::KvParams::at(scale).nbuckets(), "buckets", nprocs),
        App::Lu | App::ShearWarp | App::Raytrace => Ok(()),
    }
    .map_err(|e| format!("{} {}: {e}", app.name(), class.label()))
}

/// A fully-specified experiment: application + optimization class.
///
/// `run` executes it on `platform` with `nprocs` processors at `scale` and
/// returns verified statistics. Panics if the application's output does not
/// match its sequential reference — a correctness failure is never silent.
#[derive(Clone, Copy, Debug)]
pub struct AppSpec {
    /// Which application.
    pub app: App,
    /// Which optimization class to run.
    pub class: OptClass,
}

impl AppSpec {
    /// Display label, `App/Class` — used to tag race reports.
    pub fn label(&self) -> String {
        format!("{}/{}", self.app.name(), self.class.label())
    }

    /// Run this experiment and return verified run statistics.
    pub fn run(&self, platform: Platform, nprocs: usize, scale: Scale) -> RunStats {
        self.run_cfg(platform, nprocs, scale, RunConfig::new(nprocs))
    }

    /// Like [`AppSpec::run`] with an explicit scheduler configuration —
    /// e.g. `RunConfig::new(n).with_race_detection()` to assert the run is
    /// data-race-free. An empty `cfg.label` defaults to [`AppSpec::label`].
    pub fn run_cfg(
        &self,
        platform: Platform,
        nprocs: usize,
        scale: Scale,
        mut cfg: RunConfig,
    ) -> RunStats {
        if cfg.label.is_empty() {
            cfg.label = self.label();
        }
        let (pf, n, c) = (platform, nprocs, self.class);
        let result = match self.app {
            App::Lu => lu::run_params_cfg(pf, n, &lu::LuParams::at(scale), lu::version_for(c), cfg),
            App::Ocean => {
                let params = ocean::OceanParams::at(scale);
                ocean::run_params_cfg(pf, n, &params, ocean::version_for(c), cfg)
            }
            App::Volrend => {
                let params = volrend::VolrendParams::at(scale);
                volrend::run_params_cfg(pf, n, &params, volrend::version_for(c), cfg)
            }
            App::ShearWarp => {
                let params = shearwarp::ShearWarpParams::at(scale);
                shearwarp::run_params_cfg(pf, n, &params, shearwarp::version_for(c), cfg)
            }
            App::Raytrace => {
                let params = raytrace::RaytraceParams::at(scale);
                raytrace::run_params_cfg(pf, n, &params, raytrace::version_for(c), cfg)
            }
            App::Barnes => {
                let params = barnes::BarnesParams::at(scale);
                barnes::run_params_cfg(pf, n, &params, barnes::version_for(c), cfg)
            }
            App::Radix => {
                let params = radix::RadixParams::at(scale);
                radix::run_params_cfg(pf, n, &params, radix::version_for(c), cfg)
            }
            App::Kv => {
                let params = kvstore::KvParams::at(scale);
                kvstore::run_params_cfg(pf, n, &params, kvstore::version_for(c), cfg)
            }
        };
        result.stats
    }
}
