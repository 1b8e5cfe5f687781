//! The paper's core narrative on one application: walk Ocean through the
//! optimization classes (original 2-d arrays → padding → 4-d arrays →
//! row-wise partitioning) on the SVM platform and watch the speedup move.
//!
//! ```text
//! cargo run --release --example optimization_journey
//! ```

use apps::ocean::{self, OceanParams, OceanVersion};
use apps::{Platform, Scale};
use sim_core::Bucket;

fn main() {
    let params = OceanParams::at(Scale::Default);
    let nprocs = 16;

    println!("Ocean on SVM, {nprocs} processors (default scale; ~1 min)\n");
    let base = ocean::run_params(Platform::Svm, 1, &params, OceanVersion::Orig2d)
        .stats
        .total_cycles();
    println!("uniprocessor (original 2-d): {base} cycles\n");

    for (version, note) in [
        (OceanVersion::Orig2d, "square partitions on 2-d arrays"),
        (OceanVersion::PadAlign, "page-padded rows (P/A)"),
        (OceanVersion::Contig4d, "4-d arrays, owner-homed (DS)"),
        (OceanVersion::RowWise, "row-wise partitions (Alg)"),
    ] {
        let stats = ocean::run_params(Platform::Svm, nprocs, &params, version).stats;
        let t = stats.total_cycles();
        println!(
            "{:<12} speedup {:>5.2}  (barrier {:>4.1}%, data wait {:>4.1}%)   <- {note}",
            format!("{version:?}"),
            base as f64 / t as f64,
            100.0 * stats.sum(Bucket::BarrierWait) as f64 / (nprocs as u64 * t) as f64,
            100.0 * stats.sum(Bucket::DataWait) as f64 / (nprocs as u64 * t) as f64,
        );
    }
    println!(
        "\nThe paper's result at 16 processors and full scale: 8.5 with the\n\
         4-d data structure, 13.2 with row-wise partitioning — interactions\n\
         with page granularity matter more than the inherent communication-\n\
         to-computation ratio."
    );
}
