//! `simbench compare <a.json> <b.json>`: is result set *b* a regression
//! against result set *a*?
//!
//! Both files are what `simbench all --out` writes. For every workload
//! and end-to-end metric named in `BENCHMARK.json` it prints both values,
//! the ratio b/a, and the bound; *b* fails when it is worse than *a* by
//! more than the bound, when either side had a failed cell, or — at equal
//! seeds — when any `sim.*` count differs (a simulator-speed change must
//! leave the simulated machine alone).

use crate::json::Value;
use std::fmt::Write as _;

/// Outcome of a comparison: the table to print, and whether *b* passes.
pub struct Report {
    pub text: String,
    pub pass: bool,
}

fn metric(run: &Value, workload: &str, section: &str, name: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn count(run: &Value, workload: &str, section: &str, key: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(key)?
        .as_f64()
}

fn seed(run: &Value) -> Option<f64> {
    run.get("manifest")?.get("seed")?.as_f64()
}

/// Compare result sets `a` (base) and `b` under the metric declarations of
/// `bench` (a parsed `BENCHMARK.json`).
pub fn compare(a: &Value, b: &Value, bench: &Value) -> Result<Report, String> {
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` array"))
    };
    fn name_of(v: &Value) -> Result<&str, String> {
        v.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "BENCHMARK.json: entry without a name".to_string())
    }
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut text = String::new();
    let mut pass = true;
    let _ = writeln!(
        text,
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for w in list("workloads")? {
        let w = name_of(w)?;
        for section in ["end_to_end", "per_layer"] {
            for side in [a, b] {
                // A section that was never run is not a failure; a run
                // that reported failed cells is.
                if count(side, w, section, "failed").is_some_and(|f| f != 0.0) {
                    let _ = writeln!(text, "{w:<18} {section}: failed cells reported");
                    pass = false;
                }
            }
        }
        for m in list("end_to_end")? {
            let name = name_of(m)?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
            let lower_is_better = m.get("better").and_then(Value::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (
                metric(a, w, "end_to_end", name),
                metric(b, w, "end_to_end", name),
            ) else {
                let _ = writeln!(text, "{w:<18} {name:<24} missing from a result file");
                pass = false;
                continue;
            };
            let ratio = vb / va;
            let worse_by = if lower_is_better {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            // NaN (a zero or missing base) must not pass.
            let ok = worse_by <= bound;
            pass &= ok;
            let _ = writeln!(
                text,
                "{w:<18} {name:<24} {va:>14.4} {vb:>14.4} {ratio:>9.4} {bound:>7.2}  {}",
                if ok { "ok" } else { "REGRESSION" }
            );
        }
        if same_seed {
            for m in list("per_layer")? {
                let name = name_of(m)?;
                if !name.starts_with("sim.") {
                    continue;
                }
                let (va, vb) = (
                    metric(a, w, "per_layer", name),
                    metric(b, w, "per_layer", name),
                );
                if va != vb {
                    let _ = writeln!(
                        text,
                        "{w:<18} {name:<24} {va:?} != {vb:?}  SIMULATED COUNT DIFFERS"
                    );
                    pass = false;
                }
            }
        }
    }
    let _ = writeln!(
        text,
        "sim.* counts {}; b {} (ratios are b/a, base a)",
        if same_seed {
            "compared (equal seeds)"
        } else {
            "not compared (seeds differ)"
        },
        if pass { "passes" } else { "FAILS" }
    );
    Ok(Report { text, pass })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const BENCH: &str = r#"{
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "host_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "sim.cycles", "unit": "cycles", "better": "lower"}]}"#;

    fn run(seed: u64, host_s: f64, rate: f64, cycles: u64, failed: u64) -> Value {
        parse(&format!(
            r#"{{"manifest": {{"seed": {seed}}}, "workloads": {{"w": {{
                "end_to_end": {{"correct": true, "attempted": 3, "failed": {failed}, "metrics": {{
                    "host_s": {{"value": {host_s}, "unit": "s"}},
                    "rate": {{"value": {rate}, "unit": "1/s"}}}}}},
                "per_layer": {{"correct": true, "attempted": 3, "failed": 0, "metrics": {{
                    "sim.cycles": {{"value": {cycles}, "unit": "cycles"}}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn passes(a: &Value, b: &Value) -> bool {
        compare(a, b, &parse(BENCH).unwrap()).unwrap().pass
    }

    #[test]
    fn within_bounds_passes_and_direction_matters() {
        let a = run(1, 10.0, 100.0, 5, 0);
        assert!(passes(&a, &run(1, 10.9, 91.0, 5, 0)));
        assert!(
            passes(&a, &run(1, 5.0, 200.0, 5, 0)),
            "better is never worse"
        );
        assert!(!passes(&a, &run(1, 11.1, 100.0, 5, 0)), "slower past bound");
        assert!(
            !passes(&a, &run(1, 10.0, 89.0, 5, 0)),
            "lower rate past bound"
        );
    }

    #[test]
    fn sim_counts_must_match_only_at_equal_seeds() {
        let a = run(1, 10.0, 100.0, 5, 0);
        assert!(!passes(&a, &run(1, 10.0, 100.0, 6, 0)));
        assert!(passes(&a, &run(2, 10.0, 100.0, 6, 0)));
    }

    #[test]
    fn failed_cells_and_missing_metrics_fail() {
        let a = run(1, 10.0, 100.0, 5, 0);
        assert!(!passes(&a, &run(1, 10.0, 100.0, 5, 1)));
        let empty = parse(r#"{"manifest": {"seed": 1}, "workloads": {}}"#).unwrap();
        assert!(!passes(&a, &empty));
    }
}
