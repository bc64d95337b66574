#!/usr/bin/env bash
# The benchmark's one command. Run from the repository root.
#
#   benchmark/run.sh [--seed N]            kvbench's unit tests, then all five workloads
#                                          and their traced runs -> benchmark/results/<sha>.json
#   benchmark/run.sh --compare A.json B.json
#                                          is B worse than A, by the fixed bounds?
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one invocation; the last line of stdout is
#                                          the result the driver of BENCHMARK.json reads
#
# Every mode builds kvbench (release, offline) first, and exits non-zero
# when the build, a run or an output check fails.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

target=${CARGO_TARGET_DIR:-$root/.bench_build}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path "$here/kvbench/Cargo.toml" >&2
kvbench=$target/release/kvbench

seed=0x5EED
case ${1:-} in
--workload | --compare | --list | --benchmark-json)
	exec "$kvbench" "$@"
	;;
--seed)
	seed=${2:?--seed needs a value}
	;;
"") ;;
*)
	sed -n '2,13p' "${BASH_SOURCE[0]}" >&2
	exit 2
	;;
esac

sha=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo worktree)
[ "$seed" = 0x5EED ] || sha=$sha-seed-$seed
mkdir -p "$here/results"
parts=$(mktemp -d "$here/results/.parts.XXXXXX")
trap 'rm -rf "$parts"' EXIT

# The root `cargo test` does not see this package (it is a workspace of
# its own), so a recorded result starts from its unit tests.
cargo test --release --offline --quiet --manifest-path "$here/kvbench/Cargo.toml" >&2

workloads=$("$kvbench" --list | cut -d' ' -f1)
# One process per workload, so that peak memory is that workload's own.
for w in $workloads; do
	"$kvbench" --workload "$w" --seed "$seed" --trace 0 --out "$parts/$w.json"
done
for w in $workloads; do
	"$kvbench" --workload "$w" --seed "$seed" --trace 1 --out "$parts/$w.traced.json"
done

files=()
for w in $workloads; do
	files+=("$parts/$w.json" "$parts/$w.traced.json")
done
"$kvbench" --merge "$here/results/$sha.json" \
	"rustc=$(rustc --version)" "commit=$sha" "seed=$seed" \
	"${files[@]}"
