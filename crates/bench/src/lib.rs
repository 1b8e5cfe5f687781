//! Benchmark support crate. Its one benchmark is the `perfjson` binary
//! (`src/bin/perfjson.rs`): simulator throughput per application ×
//! platform cell — scalar vs bulk path, sequential vs sharded engines,
//! each diagnostic layer on — written to `BENCH_simulator.json`.
//!
//! The per-layer micro-costs the old `benches/` harnesses printed (diff
//! create/apply, cache tag lookups, resource arbitration, scheduler
//! hand-offs, lock and barrier round-trips per platform, small end-to-end
//! runs) are rows of the `simbench` ledger at the repository root
//! (`svm-hlrc.diff_*`, `cache.*`, `resource.serve_ns`, `sched.seq_*`,
//! `<platform>.lock_handoff_ns` / `barrier16_ns`, `apps.*`).
