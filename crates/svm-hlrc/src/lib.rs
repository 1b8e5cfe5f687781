//! # svm-hlrc — all-software lazy release consistency SVM, home-based and homeless
//!
//! A faithful implementation of the protocol the paper's SVM platform
//! simulates (Zhou, Iftode & Li's HLRC): a page-grained, multiple-writer
//! shared virtual memory over commodity messaging.
//!
//! * Every page has a **home** node (from the allocator's placement map);
//!   the home copy is kept up to date by applying **diffs** at releases.
//! * A node's first write to a page in an interval creates a **twin**; at a
//!   release, the dirty page is compared against the twin and the resulting
//!   word-granularity diff is sent to the home.
//! * Intervals carry **write notices**; vector timestamps order them. An
//!   acquiring processor invalidates every page written in intervals that
//!   causally precede the acquire; the next access faults and fetches the
//!   whole page from its home.
//! * Locks are manager-queued with a 3-hop grant path; barriers are
//!   centralized at a manager node that serializes arrival processing and
//!   release broadcasts — making barriers expensive, as the paper stresses.
//!
//! The same crate holds TreadMarks' homeless LRC, the protocol the paper's
//! §2.1.1 contrasts HLRC against: the two are one platform (`lrc.rs`) over
//! one machine (`machine.rs`) and differ only in its policy. [`SvmPlatform`]
//! runs HLRC's (`hlrc.rs`), [`TmkPlatform`] TreadMarks' (`tmk.rs`).
//!
//! This is a *real* protocol, not a timing approximation: application data
//! actually lives in per-node page frames, flows home as diffs, and is
//! re-fetched after invalidation. Data-race-free applications therefore
//! compute correct results **through** the protocol, which the workspace's
//! integration tests exploit by checking application output against
//! sequential references.

mod config;
mod hlrc;
mod lrc;
mod machine;
mod page;
mod tmk;

pub use config::SvmConfig;
pub use page::Diff;

/// The home-based lazy release consistency platform.
pub type SvmPlatform = lrc::LrcPlatform<hlrc::Hlrc>;

/// The TreadMarks-style, non-home-based lazy release consistency platform:
/// the same machine and configuration as [`SvmPlatform`], with no homes.
/// Its nodes host one processor each; `new` panics otherwise.
pub type TmkPlatform = lrc::LrcPlatform<tmk::Tmk>;
