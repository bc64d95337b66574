#!/usr/bin/env sh
# One-shot verification: build, test, examples, lab, chaos, docs, formatting, lints.
# Everything runs offline (no network, empty registry cache).
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release (-D warnings)"
# Warnings are denied for the whole script: one flag set means one
# build cache, and nothing below runs against a warning-dirty tree.
RUSTFLAGS="-D warnings"
export RUSTFLAGS
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== cargo test --release (checkin-core, checkin-sim, checkin-ssd, checkin-ftl and checkin-flash libs; zero_alloc, prop_jmt, integration_consistency, prop_ftl, prop_mapping, mapping_alloc, page_store_alloc, prop_flash)"
# Release builds compile `debug_assert!` out: a test that expects one to
# fire must be gated on `debug_assertions`, or this profile goes red.
cargo test --release -p checkin-core -p checkin-sim -p checkin-ssd -p checkin-ftl \
    -p checkin-flash --lib -q
# The benchmark measures release builds, so the hot loop's freedom from
# allocation and the write buffer's ack rule are checked in that
# profile too (about 3 s together), and so are the mapping table's
# bit-index and run arithmetic and the page store's narrowing and
# sign-extending casts, whose overflow checks release turns off.
cargo test --release -p checkin-core --test zero_alloc -q
# Release also compiles out the engine's read-version and byte-coverage
# `debug_assert!`s: the JMT's key indexing, and inserts, deletes and
# revives against the shadow model, are checked in that profile too.
cargo test --release -p checkin-core --test prop_jmt --test integration_consistency -q
cargo test --release -p checkin-ftl --test prop_ftl -q
cargo test --release -p checkin-ftl --test prop_mapping --test mapping_alloc -q
cargo test --release -p checkin-flash --test page_store_alloc --test prop_flash -q

echo "== examples run"
# `cargo test` and clippy only compile the examples. Each runs in well
# under a second; `durability_demo` asserts that a host crash after
# checkpoints loses no committed update, the others that their calls
# succeed. `set -e` fails the script on a non-zero exit.
for example in durability_demo quickstart shopping_cart social_feed; do
    cargo run --release -q -p checkin-core --example "$example" > /dev/null
done

echo "== kvbench builds against the workspace, and its unit tests pass"
# `benchmark/kvbench` is a package of its own (path deps on the
# workspace crates) that `cargo test` above never compiles: a change to
# a type its probes construct, a stale `BENCHMARK.json` or a broken
# probe would only show in `benchmark/run.sh`. Built and tested in
# kvbench's own target directory (`.gitignore`d); the tests take ~2 s.
cargo build --release --offline --manifest-path benchmark/kvbench/Cargo.toml
cargo test --release --offline -q --manifest-path benchmark/kvbench/Cargo.toml

echo "== lab"
# The one measurement run (DESIGN.md §8): three GC-pressured workloads,
# the host bytes of five runs' simulated devices, exact simulated cost of
# a remap vs a copy checkpoint, and every figure and table of the paper
# as rows, each claimed row beside the paper's number and its verdict. No
# options but the output path; about 66 s on one core for its 876 rows, most of it the figures. Beside the artifact
# it writes EXPERIMENTS.md with its generated tables refilled. Exits
# non-zero only on its eleven gates: the ten exact ones of
# `checkin_bench::lab::GATES`, which `cargo test` above already ran as
# the tests of their names, and every claim of the paper earning the
# verdict `figures::CLAIMS` declares for it.
cargo run --release -p checkin-bench --bin lab -- --out target/BENCH_perf.json
# Every row is a simulated quantity: a change that moves one must commit
# the artifact it produces, not leave a stale one — and the diff of the
# committed file is then the list of numbers the change moved.
diff BENCH_perf.json target/BENCH_perf.json || {
    echo "verify: FAIL — lab's rows differ from the committed artifact: regenerate BENCH_perf.json (cargo run --release -p checkin-bench --bin lab)" >&2
    exit 1
}
# EXPERIMENTS.md's tables are lab's rows too: a stale table, or one
# edited by hand, shows here.
diff EXPERIMENTS.md target/EXPERIMENTS.md || {
    echo "verify: FAIL — EXPERIMENTS.md's generated tables differ from lab's rows: regenerate EXPERIMENTS.md (cargo run --release -p checkin-bench --bin lab)" >&2
    exit 1
}

echo "== chaos"
# The fault sweep (DESIGN.md §9.3): power cuts aimed at the remap walk,
# GC and deallocation, batched admission, media noise, torn writes,
# cuts on pages that joined another plane's tPROG on a two-plane device,
# bit-rot in data and OOB, misdirected programs, composed faults, and
# two sabotage self-tests — every key checked against one shadow model.
# No options: the whole sweep takes under a second. `cargo test` above
# already ran it in-process; this is the same sweep from the release
# build. Exits non-zero on any acked-write loss, resurrection, silently
# wrong read or failed impotence gate.
cargo run --release -p checkin-bench --bin chaos > target/CHAOS_report.txt
tail -n 1 target/CHAOS_report.txt
# Every line of the report is deterministic: a change that moves one
# must commit the report it produces, and the diff of the committed file
# is then the list of chaos numbers the change moved.
diff CHAOS_report.txt target/CHAOS_report.txt || {
    echo "verify: FAIL — chaos's report differs from the committed one: regenerate CHAOS_report.txt (cargo run --release -p checkin-bench --bin chaos > CHAOS_report.txt)" >&2
    exit 1
}

echo "== checkin trace smoke run"
# Cross-layer tracing (DESIGN.md §10): a tiny checkpointing run must
# emit JSON-lines events from all six layers.
cargo run --release -p checkin-cli --bin checkin -- \
    trace --queries 4000 --threads 8 --record-count 500 --mix WO \
    --interval-ms 5 --events 200000 > target/trace_smoke.jsonl
for layer in engine journal queue isce ftl flash; do
    grep -q "\"layer\":\"$layer\"" target/trace_smoke.jsonl || {
        echo "verify: FAIL — no trace events from layer '$layer'" >&2
        exit 1
    }
done

echo "== checkin compare --csv: --jobs 1 and --jobs 4 agree"
# A batch runs its configurations on worker threads, and each report must
# be bit-identical to a serial run's. The CSV carries every row of
# `RunReport::rows` per strategy, the counter schema's 99 keys included.
for jobs in 1 4; do
    cargo run --release -p checkin-cli --bin checkin -- \
        compare --csv --jobs "$jobs" --queries 4000 --record-count 800 \
        > "target/compare_jobs$jobs.csv"
done
diff target/compare_jobs1.csv target/compare_jobs4.csv || {
    echo "verify: FAIL — compare --csv differs between --jobs 1 and --jobs 4" >&2
    exit 1
}

echo "== cargo doc (-D warnings)"
# The API docs are the reference for the crate boundaries: an unresolved
# or private intra-doc link is an error, not a warning nobody reads.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy"
# Besides the default lints, three walls, each denied outside tests:
# - determinism (no HashMap, HashSet, Instant, SystemTime, thread_local!):
#   the bans are listed in `clippy.toml`, denied in the lib.rs of sim,
#   flash, ftl, ssd, core, workload and bench;
# - panic / discard (no indexing, unwrap, expect, panic!, unreachable!,
#   todo!, unimplemented!, no panicking macro in a `Result` fn; no
#   `let _ =` on a must-use value, no bare `.ok();`): the one deny block
#   in the lib.rs of flash, ftl and ssd, and on the `mod` lines of
#   `sim::{rng, stats}` and `core::{engine, layout}`;
# - casts (`cast_possible_truncation`): the same block, flash / ftl / ssd.
# Exceptions are `#[expect(clippy::.., reason = "..")]` at the site; one
# that is no longer needed fails this step too (DESIGN.md §11).
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: OK"
