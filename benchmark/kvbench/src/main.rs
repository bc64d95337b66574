//! `kvbench`: the repository's benchmark — five named workloads, both
//! clocks, per-layer ladder. `benchmark/README.md` says what each
//! number means; `benchmark/run.sh` is the one command that runs it all.
//!
//! It calls only public functions of the product crates and reads only
//! their public counters; it changes no product code and claims no gain.

mod catalog;
mod compare;
mod doc;
mod json;
mod measure;
mod probes;
mod protocol;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

use doc::Metrics;
use json::Value;
use protocol::Outcome;
use workloads::Workload;

const USAGE: &str = "usage:
  kvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  kvbench --merge OUT [key=value ...] FILE ...
  kvbench --compare A.json B.json
  kvbench --benchmark-json
  kvbench --list";

/// Decimal or `0x` hexadecimal.
fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed {text}: not a whole number"))
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("-- {title}");
    for m in metrics.iter() {
        print!(
            "{:<44} {:>16.4} {:<10} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
        if let Some(s) = m.summary {
            print!("  n={} min={:.4} q1={:.4} q3={:.4}", s.n, s.min, s.q1, s.q3);
        }
        println!();
    }
}

fn write_out(path: Option<&str>, doc: &Value) -> Result<(), String> {
    match path {
        Some(path) => {
            std::fs::write(path, doc.to_pretty()).map_err(|e| format!("writing {path}: {e}"))
        }
        None => Ok(()),
    }
}

struct WorkloadArgs<'a> {
    workload: &'a Workload,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<&'a str>,
}

fn run_workload(args: &WorkloadArgs) -> Result<ExitCode, String> {
    let w = args.workload;
    let Outcome {
        end_to_end,
        per_layer,
        counts,
        check,
        protocol,
    } = match (args.trace, w.crash) {
        (true, _) => traced::run(w, args.seed)?,
        (false, true) => protocol::crash(w, args.seed)?,
        (false, false) => protocol::throughput(w, args.seed, args.seconds)?,
    };

    println!(
        "== {} (seed {:#x}, trace {})",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    print_metrics("end to end", &end_to_end);
    print_metrics("per layer", &per_layer);
    println!(
        "-- check: {} attempted, {} failed",
        check.attempted, check.failed
    );
    for note in &check.notes {
        println!("   {note}");
    }

    let mut doc = Value::obj();
    doc.set("schema", Value::str("kvbench/1"));
    doc.set("workload", Value::str(w.name));
    doc.set("why", Value::str(w.why));
    doc.set("seed", Value::Int(args.seed));
    doc.set("trace", Value::Bool(args.trace));
    doc.set("protocol", protocol);
    doc.set("check", check.to_json());
    doc.set("end_to_end", end_to_end.to_json());
    doc.set("per_layer", per_layer.to_json());
    doc.set("counts", counts);
    doc.set("claim", Value::Null);
    write_out(args.out, &doc)?;

    // The driver's line: every metric of the list that matches --trace.
    let metrics = if args.trace {
        per_layer.to_result_line(catalog::listed_per_layer())?
    } else {
        end_to_end.to_result_line(catalog::listed_end_to_end())?
    };
    let mut line = Value::obj();
    line.set("correct", Value::Bool(check.failed == 0));
    line.set("attempted", Value::Int(check.attempted));
    line.set("failed", Value::Int(check.failed));
    line.set("metrics", metrics);
    println!("{}", line.to_line());
    Ok(if check.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Folds per-invocation documents into one: un-traced runs under
/// `workloads.NAME`, traced ones under `workloads.NAME.traced`.
fn merge(out: &str, rest: &[String]) -> Result<ExitCode, String> {
    let mut host = Value::obj();
    host.set(
        "nproc",
        Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    if let Ok(kernel) = std::fs::read_to_string("/proc/sys/kernel/osrelease") {
        host.set("kernel", Value::str(kernel.trim()));
    }
    let mut workloads = Value::obj();
    let mut merged = Value::obj();
    merged.set("schema", Value::str("kvbench/1"));
    for arg in rest {
        if let Some((key, value)) = arg.split_once('=') {
            host.set(key, Value::str(value));
            continue;
        }
        let doc = read_json(arg)?;
        let name = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{arg}: no \"workload\""))?
            .to_string();
        let traced = doc.get("trace") == Some(&Value::Bool(true));
        let keys: &[&str] = if traced {
            &["seed", "protocol", "check", "per_layer"]
        } else {
            &[
                "seed",
                "why",
                "protocol",
                "check",
                "end_to_end",
                "per_layer",
                "counts",
            ]
        };
        let mut section = Value::obj();
        for &key in keys {
            if let Some(v) = doc.get(key) {
                section.set(key, v.clone());
            }
        }
        let mut entry = workloads.get(&name).cloned().unwrap_or_else(Value::obj);
        if traced {
            entry.set("traced", section);
        } else {
            let kept = entry.get("traced").cloned();
            entry = section;
            if let Some(kept) = kept {
                entry.set("traced", kept);
            }
        }
        workloads.set(&name, entry);
    }
    merged.set("host", host);
    merged.set("workloads", workloads);
    merged.set("claim", Value::Null);
    write_out(Some(out), &merged)?;
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let value_of = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    match args.first().map(String::as_str) {
        Some("--list") => {
            for w in &workloads::ALL {
                println!("{:<18} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("--benchmark-json") => {
            print!("{}", catalog::benchmark_json().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("--merge") => match args.get(1) {
            Some(out) => merge(out, &args[2..]),
            None => Err(USAGE.to_string()),
        },
        Some("--compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => {
                let gated = compare::run(&read_json(a)?, &read_json(b)?)?;
                Ok(if gated.worse == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            _ => Err(USAGE.to_string()),
        },
        _ => {
            let name = value_of("--workload").ok_or(USAGE)?;
            let workload = workloads::find(name)
                .ok_or_else(|| format!("unknown workload {name}; see --list"))?;
            let seconds = match value_of("--seconds") {
                Some(s) => Some(
                    s.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds {s}: not a duration"))?,
                ),
                None => None,
            };
            let trace = match value_of("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace {other}: want 0 or 1")),
            };
            run_workload(&WorkloadArgs {
                workload,
                seed: value_of("--seed").map_or(Ok(workloads::DEFAULT_SEED), parse_seed)?,
                seconds,
                trace,
                out: value_of("--out"),
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("kvbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_both_bases() {
        assert_eq!(parse_seed("24301"), Ok(0x5EED));
        assert_eq!(parse_seed("0xC0FFEE"), Ok(0xC0FFEE));
        assert!(parse_seed("seed").is_err());
        assert!(parse_seed("-1").is_err());
    }
}
