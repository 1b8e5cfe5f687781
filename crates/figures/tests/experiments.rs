//! The experiment table against itself and against its index: every row
//! runs (test scale, four processors — the fewest Ocean's square
//! partitions take beyond one), names are unique, and each name is
//! listed in DESIGN.md §4, so the table and the document cannot drift.

use figures::experiments::{run_args, TABLE};

#[test]
fn every_row_runs_and_is_indexed_in_design_md() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the repository root");
    let index = design
        .split("\n## 4. Experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a section 4, the experiment index");
    for (i, e) in TABLE.iter().enumerate() {
        assert!(
            TABLE[..i].iter().all(|other| other.name != e.name),
            "{} is in the table twice",
            e.name
        );
        assert!(
            index.contains(&format!("`{}`", e.name)),
            "{} is missing from DESIGN.md section 4",
            e.name
        );
        let args: Vec<String> = [e.name, "--scale", "test", "--procs", "4"]
            .into_iter()
            .map(String::from)
            .collect();
        run_args(&args).unwrap_or_else(|err| panic!("{}: {err}", e.name));
    }
}
