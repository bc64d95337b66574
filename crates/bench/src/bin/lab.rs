//! `lab` — runs [`checkin_bench::lab`] and writes `BENCH_perf.json`
//! (`--out PATH` writes elsewhere; there is no other option), then
//! fills the generated tables of `EXPERIMENTS.md`, read from the current
//! directory, and writes the result beside the artifact: a default run
//! rewrites both files in place, `--out target/BENCH_perf.json` writes
//! `target/EXPERIMENTS.md`. Exit status: 0 on PASS, 1 when a gate failed
//! or a file could not be read, filled or written, 2 on bad usage.

use std::path::{Path, PathBuf};

fn main() {
    let mut args = std::env::args().skip(1);
    let out = match (args.next().as_deref(), args.next(), args.next()) {
        (None, ..) => PathBuf::from("BENCH_perf.json"),
        (Some("--out"), Some(path), None) => PathBuf::from(path),
        _ => {
            eprintln!("usage: lab [--out PATH]   (always runs every section)");
            std::process::exit(2);
        }
    };
    let lab = checkin_bench::lab::run();
    write(&out, &lab.render());
    let template = "EXPERIMENTS.md";
    let experiments = std::fs::read_to_string(template)
        .map_err(|e| format!("could not read {template} (run lab from the repository root): {e}"))
        .and_then(|text| {
            lab.experiments(&text)
                .map_err(|e| format!("{template}: {e}"))
        });
    match experiments {
        Ok(text) => write(&out.with_file_name(template), &text),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if !lab.passed {
        std::process::exit(1);
    }
}

/// Writes `text` to `path`, exiting with status 1 when it cannot.
fn write(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}
