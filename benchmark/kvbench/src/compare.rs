//! `--compare A.json B.json`: is B worse than A, metric by metric, by
//! the bounds of [`crate::catalog`]? Simulated metrics and counts are
//! also held to exact equality, because a host-only change must leave
//! every one of them as it was. Host-clock rows are judged the same way
//! but only reported: two single runs on a shared machine differ by more
//! than their own repetitions show, so they gate nothing here.

use crate::catalog::{self, Better, Clock, EndToEnd};
use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Pass,
    /// Worse than the base by more than the bound.
    Worse,
    /// The repetitions of one side spread wider than the bound, so a
    /// regression of that size could hide in them.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// One side's measurement of one metric: the median with the extremes
/// and quartiles of its repetitions (all equal for an exact value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
}

impl Side {
    #[cfg(test)]
    fn exact(value: f64) -> Side {
        Side {
            value,
            min: value,
            q1: value,
            q3: value,
            max: value,
        }
    }

    fn from_json(entry: &Value) -> Option<Side> {
        let value = entry.get("value")?.as_f64()?;
        let field = |key: &str| entry.get(key).and_then(Value::as_f64).unwrap_or(value);
        Some(Side {
            value,
            min: field("min"),
            q1: field("q1"),
            q3: field("q3"),
            max: field("max"),
        })
    }
}

pub fn verdict(spec: &EndToEnd, base: &Side, new: &Side) -> Verdict {
    let allowed = spec.bound * base.value.abs();
    let (worse_by, all_better) = match spec.better {
        Better::Lower => (new.value - base.value, new.max < base.min),
        Better::Higher => (base.value - new.value, new.min > base.max),
    };
    let spread = (base.q3 - base.q1).max(new.q3 - new.q1);
    if spread > allowed {
        if all_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Pass
    }
}

/// A raw count is compared as it is.
fn itself(count: &Value) -> Option<&Value> {
    Some(count)
}

/// A per-layer metric is compared by value, unless the host clock made it.
fn exact_value(entry: &Value) -> Option<&Value> {
    match entry.get("clock").and_then(Value::as_str) {
        Some("host") => None,
        _ => entry.get("value"),
    }
}

/// Keys of objects `a` and `b` whose picked values differ or that only
/// one side has.
fn changed_keys(a: &Value, b: &Value, pick: fn(&Value) -> Option<&Value>) -> Vec<String> {
    let mut changed = Vec::new();
    for (key, va) in a.entries() {
        if pick(va) != b.get(key).and_then(pick) {
            changed.push(key.clone());
        }
    }
    for (key, _) in b.entries() {
        if a.get(key).is_none() {
            changed.push(key.clone());
        }
    }
    changed
}

/// WORSE and UNRESOLVED rows of one kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub worse: usize,
    pub unresolved: usize,
}

impl Tally {
    fn add(&mut self, v: Verdict) {
        self.worse += usize::from(v == Verdict::Worse);
        self.unresolved += usize::from(v == Verdict::Unresolved);
    }
}

/// Prints the comparison; returns the tally of the gated rows — simulated
/// metrics, memory, `failed_share` — which is what the exit status goes by.
pub fn run(a: &Value, b: &Value) -> Result<Tally, String> {
    let workloads = |doc: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(doc
            .get("workloads")
            .ok_or("not a merged kvbench result: no \"workloads\"")?
            .entries()
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let (mut gated, mut host_clock) = (Tally::default(), Tally::default());
    let mut exact_changes: Vec<String> = Vec::new();

    println!(
        "{:<18} {:<26} {:<7} {:>14} {:>14} {:>8}  {:<12} exact",
        "workload", "metric", "better", "A (base)", "B", "B/A", "verdict"
    );
    for (name, doc_a) in &wa {
        let Some((_, doc_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<18} only in A");
            continue;
        };
        let none = Value::obj();
        let e2e_a = doc_a.get("end_to_end").unwrap_or(&none);
        let e2e_b = doc_b.get("end_to_end").unwrap_or(&none);
        for spec in &catalog::END_TO_END {
            let sides = (
                e2e_a.get(spec.name).and_then(Side::from_json),
                e2e_b.get(spec.name).and_then(Side::from_json),
            );
            let (base, new) = match sides {
                (Some(base), Some(new)) => (base, new),
                (None, None) => continue,
                _ => {
                    println!("{name:<18} {:<26} measured on one side only", spec.name);
                    gated.unresolved += 1;
                    continue;
                }
            };
            let v = verdict(spec, &base, &new);
            let label = match spec.clock {
                Clock::Host => {
                    host_clock.add(v);
                    format!("({})", v.label().to_lowercase())
                }
                _ => {
                    gated.add(v);
                    v.label().to_string()
                }
            };
            let exact = match spec.clock {
                Clock::Sim if base.value == new.value => "IDENTICAL",
                Clock::Sim => {
                    exact_changes.push(format!("{name}/{}", spec.name));
                    "CHANGED"
                }
                _ => "",
            };
            // Every ratio with its base: B ÷ A, A printed beside it.
            let ratio = if base.value != 0.0 {
                format!("{:.4}", new.value / base.value)
            } else {
                "-".to_string()
            };
            println!(
                "{name:<18} {:<26} {:<7} {:>14.4} {:>14.4} {ratio:>8}  {label:<12} {exact}",
                spec.name,
                spec.better.label(),
                base.value,
                new.value,
            );
        }

        // T1: raw counts, then the count-derived per-layer metrics.
        let counts = changed_keys(
            doc_a.get("counts").unwrap_or(&none),
            doc_b.get("counts").unwrap_or(&none),
            itself,
        );
        let layers = changed_keys(
            doc_a.get("per_layer").unwrap_or(&none),
            doc_b.get("per_layer").unwrap_or(&none),
            exact_value,
        );
        let total = doc_a.get("counts").map_or(0, |c| c.entries().len());
        if counts.is_empty() && layers.is_empty() {
            println!("{name:<18} T1 counts ({total}) and count-derived layer metrics: IDENTICAL");
        } else {
            println!(
                "{name:<18} T1 CHANGED: {}",
                counts
                    .iter()
                    .chain(&layers)
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            exact_changes.extend(counts.iter().chain(&layers).map(|k| format!("{name}/{k}")));
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            println!("{name:<18} only in B");
        }
    }

    println!();
    if exact_changes.is_empty() {
        println!(
            "Every simulated metric and every T1 count is IDENTICAL on all {} workloads: \
             B differs from A on the host clock only.",
            wa.len()
        );
    } else {
        println!(
            "{} simulated metrics or T1 counts CHANGED: B is not a host-only change of A.",
            exact_changes.len()
        );
    }
    println!(
        "gated (simulated, memory, failures): {} WORSE, {} UNRESOLVED",
        gated.worse, gated.unresolved
    );
    println!(
        "host clock, reported only: {} (worse), {} (unresolved) — on a shared machine two \
         single runs cannot tell; a host-clock claim takes alternating pairs",
        host_clock.worse, host_clock.unresolved
    );
    Ok(gated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_metric() -> &'static EndToEnd {
        catalog::end_to_end("host_ns_per_query").unwrap() // lower is better, 10 %
    }

    fn runs(value: f64, half_spread: f64) -> Side {
        Side {
            value,
            min: value - 2.0 * half_spread,
            q1: value - half_spread,
            q3: value + half_spread,
            max: value + 2.0 * half_spread,
        }
    }

    #[test]
    fn inside_the_bound_passes_either_way() {
        let base = runs(1000.0, 10.0);
        assert_eq!(
            verdict(host_metric(), &base, &runs(1090.0, 10.0)),
            Verdict::Pass
        );
        assert_eq!(
            verdict(host_metric(), &base, &runs(700.0, 10.0)),
            Verdict::Pass
        );
    }

    #[test]
    fn outside_the_bound_is_worse() {
        let base = runs(1000.0, 10.0);
        assert_eq!(
            verdict(host_metric(), &base, &runs(1110.0, 10.0)),
            Verdict::Worse
        );
        let qps = catalog::end_to_end("sim_throughput_qps").unwrap(); // higher, 5 %
        assert_eq!(
            verdict(qps, &Side::exact(10_000.0), &Side::exact(9_400.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(qps, &Side::exact(10_000.0), &Side::exact(9_600.0)),
            Verdict::Pass
        );
        assert_eq!(
            verdict(qps, &Side::exact(10_000.0), &Side::exact(12_000.0)),
            Verdict::Pass
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = runs(1000.0, 60.0); // IQR 120 > the 100 allowed
        assert_eq!(
            verdict(host_metric(), &base, &runs(1000.0, 5.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(host_metric(), &runs(1000.0, 5.0), &runs(1000.0, 60.0)),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            verdict(host_metric(), &base, &runs(500.0, 60.0)),
            Verdict::Pass
        );
    }

    #[test]
    fn a_zero_bound_is_strict() {
        let failed = catalog::end_to_end("failed_share").unwrap();
        assert_eq!(
            verdict(failed, &Side::exact(0.0), &Side::exact(0.0)),
            Verdict::Pass
        );
        assert_eq!(
            verdict(failed, &Side::exact(0.0), &Side::exact(1e-6)),
            Verdict::Worse
        );
    }

    /// A merged document of one workload with the given end-to-end values.
    fn document(metrics: &[(&str, f64)]) -> Value {
        let mut end_to_end = Value::obj();
        for &(name, value) in metrics {
            let mut entry = Value::obj();
            entry.set("value", Value::Num(value));
            end_to_end.set(name, entry);
        }
        let mut workload = Value::obj();
        workload.set("end_to_end", end_to_end);
        let mut workloads = Value::obj();
        workloads.set("ycsb_a_remap", workload);
        let mut doc = Value::obj();
        doc.set("workloads", workloads);
        doc
    }

    #[test]
    fn the_host_clock_is_reported_and_gates_nothing() {
        let a = document(&[
            ("sim_cp_mean_ms", 13.0),
            ("host_ns_per_query", 1000.0),
            ("setup_s", 0.05),
            ("host_peak_rss_mb", 346.0),
        ]);
        let slower_host = document(&[
            ("sim_cp_mean_ms", 13.0),
            ("host_ns_per_query", 1500.0),
            ("setup_s", 0.09),
            ("host_peak_rss_mb", 346.5),
        ]);
        assert_eq!(run(&a, &slower_host), Ok(Tally::default()));
        let slower_model = document(&[("sim_cp_mean_ms", 13.5), ("host_peak_rss_mb", 380.0)]);
        let tally = run(&a, &slower_model).unwrap();
        // Two WORSE, and two metrics measured on one side only.
        assert_eq!((tally.worse, tally.unresolved), (2, 2));
    }

    #[test]
    fn changed_keys_sees_differences_and_absences() {
        let mut a = Value::obj();
        a.set("x", Value::Int(1));
        a.set("y", Value::Int(2));
        let mut b = Value::obj();
        b.set("x", Value::Int(1));
        b.set("y", Value::Int(3));
        b.set("z", Value::Int(4));
        assert_eq!(changed_keys(&a, &b, itself), ["y", "z"]);
        assert!(changed_keys(&a, &a, itself).is_empty());
    }
}
