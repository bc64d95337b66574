//! `chaos` — runs the whole fault sweep of [`checkin_bench::chaos`]
//! (DESIGN.md §9.3) and reports it as an exit status: 0 on PASS, 1 when
//! any gate failed, 2 on bad usage. It has no options.

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: chaos   (takes no arguments; it always runs the whole sweep)");
        std::process::exit(2);
    }
    if !checkin_bench::chaos::sweep().passed() {
        std::process::exit(1);
    }
}
