//! End-to-end smoke test: `simbench all --scale test --reps 1` prints every
//! workload and metric `BENCHMARK.json` declares, exactly once per
//! workload, with a finite value and the declared unit, and two
//! invocations with the same seed agree on every simulated count.

use simbench::json::{parse, Value};
use std::path::PathBuf;
use std::process::Command;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The string field `field` of every entry of BENCHMARK.json's `key` list.
fn fields(bench: &Value, key: &str, field: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| m.get(field).and_then(Value::as_str).unwrap().to_string())
        .collect()
}

/// Run `simbench all` at test scale and return the document it writes.
fn run_all(seed: u64, tag: &str) -> Value {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["all", "--scale", "test", "--reps", "1"])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(&out)
        .status()
        .expect("simbench starts");
    assert!(status.success(), "simbench all exited with {status}");
    parse(&std::fs::read_to_string(&out).expect("result file written")).expect("valid JSON")
}

#[test]
fn every_declared_metric_is_printed_once_per_workload_and_counts_repeat() {
    let bench = parse(&std::fs::read_to_string(BENCHMARK_JSON).unwrap()).unwrap();
    let workloads = fields(&bench, "workloads", "name");
    assert_eq!(workloads.len(), 5);

    let first = run_all(7, "a");
    let second = run_all(7, "b");
    for w in &workloads {
        for section in ["end_to_end", "per_layer"] {
            let declared: Vec<(String, String)> = fields(&bench, section, "name")
                .into_iter()
                .zip(fields(&bench, section, "unit"))
                .collect();
            let result = |doc: &Value| {
                doc.get("workloads")
                    .and_then(|ws| ws.get(w))
                    .and_then(|s| s.get(section))
                    .unwrap_or_else(|| panic!("{w}: no {section} section"))
                    .clone()
            };
            let r = result(&first);
            assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{w} {section}");
            assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(r.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert!(r.get("manifest").and_then(|m| m.get("rustc")).is_some());

            // Exactly the declared names: none missing, none extra, none
            // twice (the reader keeps duplicates, so a repeat would show).
            let printed = r.get("metrics").and_then(Value::as_obj).unwrap();
            let mut printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            let mut declared_names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
            printed_names.sort_unstable();
            declared_names.sort_unstable();
            assert_eq!(printed_names, declared_names, "{w} {section}");

            for (name, unit) in &declared {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                let m = r.get("metrics").and_then(|m| m.get(name)).unwrap();
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{w}: {name} = {v:?}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                if name.starts_with("sim.") {
                    let again = result(&second);
                    let v2 = again
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64);
                    assert_eq!(v, v2, "{w}: {name} differs between equal-seed runs");
                }
            }
        }
    }
}

#[test]
fn a_bad_workload_name_is_a_usage_error_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("simbench starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
