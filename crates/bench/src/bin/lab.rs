//! `lab` — runs [`checkin_bench::lab`] and writes `BENCH_perf.json`
//! (`--out PATH` writes elsewhere; there is no other option). Exit
//! status: 0 on PASS, 1 when a gate failed or the file could not be
//! written, 2 on bad usage.

use std::path::PathBuf;

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
    if let Err(e) = std::fs::write(&out, lab.render()) {
        eprintln!("error: could not write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {}", out.display());
    if !lab.passed {
        std::process::exit(1);
    }
}
