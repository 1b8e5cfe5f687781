//! # sim-core — deterministic direct-execution multiprocessor simulation
//!
//! This crate is the execution vehicle for the PPoPP'97 reproduction of
//! *Application Restructuring and Performance Portability on Shared Virtual
//! Memory and Hardware-Coherent Multiprocessors* (Jiang, Shan & Singh).
//!
//! Applications are ordinary Rust code. Every access to the simulated shared
//! address space, and every synchronization operation, goes through a
//! [`Proc`] handle, which charges virtual cycles according to a pluggable
//! [`Platform`] model (SVM, CC-NUMA, or bus-based SMP — implemented in
//! sibling crates).
//!
//! ## Execution model
//!
//! Each simulated processor is a stackful coroutine on the calling host
//! thread, and **exactly one runs at a time**: a cooperative scheduler hands
//! the "turn" to the runnable processor with the minimum virtual clock. Cache hits advance only the
//! local clock without a hand-off; a run-ahead quantum bounds virtual-time
//! skew. Because all supported applications are data-race-free at the word
//! level, bounded skew can only perturb timings (never results), and the
//! scheduler itself is deterministic, so repeated runs produce identical
//! statistics.
//!
//! ## Main entry point
//!
//! ```no_run
//! use sim_core::{run, RunConfig, NullPlatform};
//!
//! let cfg = RunConfig::new(4);
//! let stats = run(Box::new(NullPlatform::new(4)), cfg, |p| {
//!     let a = p.alloc_shared(4096, 8, sim_core::Placement::Node(0));
//!     p.barrier(0);
//!     p.write_f64(a + 8 * p.pid() as u64, p.pid() as f64);
//!     p.barrier(0);
//! });
//! println!("total cycles: {}", stats.total_cycles());
//! ```

// Indexed loops over fixed coordinate dimensions are clearer than
// iterator adaptors in this numeric code.
#![allow(clippy::needless_range_loop)]
pub mod addr;
pub mod advisor;
pub mod alloc;
pub mod cache;
pub mod coherence;
mod config;
pub(crate) mod coro;
pub mod critpath;
pub mod detector;
pub(crate) mod fused;
mod inner;
pub mod mem;
pub mod metrics;
pub mod platform;
pub mod probe;
mod proc;
pub mod resource;
mod run;
mod shard;
pub mod sharing;
pub mod stats;
pub mod trace;
pub mod util;

pub use addr::{Addr, HEAP_BASE, PAGE_SHIFT, PAGE_SIZE};
pub use advisor::{
    advise, Action, AdvisorReport, Evidence, Family, FamilyBound, Recommendation, Severity,
};
pub use alloc::{GlobalAlloc, Placement, PlacementMap};
pub use cache::{Cache, CacheGeom, LineState, Lookup};
pub use config::{RunConfig, MAX_SHARD_BATCH};
pub use critpath::{analyze, what_if, what_if_report, CritPath, PathCat, PathStep, WhatIf};
pub use detector::{RaceKind, RaceReport};
pub use mem::FlatMem;
pub use metrics::{
    EventSeries, LockSeries, MetricsReport, PageInterval, PageSeries, PageTrajectory, ProcSample,
    ProcSeries,
};
pub use platform::{Extent, NullPlatform, Platform, Timing};
pub use probe::{Probe, ProbeHandle, ProtoEvent};
pub use proc::Proc;
pub use resource::Resource;
pub use run::run;
pub use sharing::{LabelSharing, PageSharing, SharingClass, SharingProfile};
pub use stats::{Bucket, Counter, ProcStats, RunStats, MAX_PHASES};
pub use trace::{AllocSpan, Event, EventKind, ProcTrace, RunTrace, WaitHist};
