//! # lrc-tmk — a TreadMarks-style, non-home-based lazy release consistency SVM
//!
//! The baseline protocol the paper's §2.1.1 contrasts HLRC against (Keleher
//! et al.'s TreadMarks; the comparison is Zhou, Iftode & Li, OSDI'96). It
//! lives in `svm-hlrc`, as the homeless policy of the one LRC platform both
//! protocols are; this crate re-exports it for `simbench`, whose manifest
//! depends on it by path, and holds its integration tests.

pub use svm_hlrc::TmkPlatform;
