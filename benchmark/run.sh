#!/usr/bin/env bash
# Lints and builds the harness, then runs every workload untraced and
# traced. Results go to benchmark/out/ (git-ignored): results.tsv gets
# one line per metric and run, <workload>.trace<0|1>.txt the printed
# report, <workload>.trace.json the Chrome trace of the traced run.
#
#   BENCH_SEED=11 BENCH_SECONDS=13 BENCH_RUNS=1 BENCH_OUT=benchmark/out benchmark/run.sh
#
# Root CI cannot see this package (it is its own workspace), so fmt and
# clippy run here.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
out="${BENCH_OUT:-$here/out}"
seed="${BENCH_SEED:-11}"
seconds="${BENCH_SECONDS:-13}"
runs="${BENCH_RUNS:-1}"

cargo fmt --manifest-path "$manifest" --check
cargo clippy --manifest-path "$manifest" --release --offline --all-targets -- -D warnings
cargo build --manifest-path "$manifest" --release --offline

mkdir -p "$out"
workloads=(reduce-ladder-10k reduce-mesh-10k serve-cold serve-warm serve-churn cluster-warm)
for ((run = 0; run < runs; run++)); do
    for workload in "${workloads[@]}"; do
        for trace in 0 1; do
            echo "== $workload seed $((seed + run)) trace $trace"
            cargo run --manifest-path "$manifest" --release --offline --quiet -- \
                --workload "$workload" --seed "$((seed + run))" --seconds "$seconds" \
                --trace "$trace" --out "$out" | tee "$out/$workload.trace$trace.txt" | grep -v '^{'
        done
    done
done
echo "results in $out/results.tsv; compare two sets with:"
echo "  cargo run --manifest-path $manifest --release --offline --quiet -- compare <base.tsv> <new.tsv>"
