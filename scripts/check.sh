#!/usr/bin/env bash
# Full offline verification: build, test, lint, and a fast property
# pass. This is the hermetic-build gate — it must succeed on a cold
# checkout with no network access (see README "Hermetic builds").
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
# rustfmt may be absent on minimal toolchains; gate when available.
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== benchmark crate build (perfbench, its own workspace) =="
# perfbench is not a workspace member, so the workspace build above never
# compiles it; build it here so an API change cannot break it unnoticed.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== clippy =="
# Clippy may be absent on minimal toolchains; lint when available.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "cargo-clippy not installed; skipping"
fi

echo "== docs (deny warnings) =="
# Every public item documented, every intra-doc link resolving.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== fast property pass (HFTA_PROP_CASES=16) =="
HFTA_PROP_CASES=16 cargo test -q --offline --workspace

echo "== ablation smoke (HFTA_ABLATION_SMOKE=1) =="
# End-to-end sanity of the bench harness + oracle ablation on a tiny
# workload; full numbers come from the release ablation run.
HFTA_ABLATION_SMOKE=1 HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 \
    cargo run -q --offline -p hfta-bench --bin ablation

echo "== parallel smoke + gate (HFTA_PARALLEL_SMOKE=1) =="
# Parallel medians must not regress past serial; the parallel bench
# also asserts bit-identical delays, including under a forced 4-worker
# pool on machines with fewer cores.
GATE_JSON="$(mktemp -t hfta_gate_XXXXXX.json)"
trap 'rm -f "$GATE_JSON"' EXIT
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_ABLATION_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin ablation
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_PARALLEL_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin parallel
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_WARMSTART_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin warm_start
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_SERVE_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin serve_throughput
HFTA_BENCH_JSON="$GATE_JSON" HFTA_BENCH_WARMUP=0 HFTA_BENCH_ITERS=1 HFTA_SERVE_SMOKE=1 \
    cargo run -q --offline --release -p hfta-bench --bin serve_load
cargo run -q --offline --release -p hfta-bench --bin trajectory_gate "$GATE_JSON"

echo "== model-db corpus round-trip =="
# Characterize the checked-in corpus into a fresh database, reload it
# (every model must be reused, none re-solved), then warm-start a
# two-step analysis from disk: zero characterizations, nonzero
# model-reuse hits.
MODELDB="$(mktemp -d -t hfta_modeldb_XXXXXX)"
trap 'rm -f "$GATE_JSON"; rm -rf "$MODELDB"' EXIT
./target/release/hfta characterize tests/corpus/csa_pair.hnl --emit-model "$MODELDB"
./target/release/hfta characterize tests/corpus/c17.bench --emit-model "$MODELDB"
./target/release/hfta characterize tests/corpus/csa_pair.hnl --emit-model "$MODELDB" \
    | grep -F "0 characterized, 3 reused"
./target/release/hfta characterize tests/corpus/c17.bench --emit-model "$MODELDB" \
    | grep -F "0 characterized, 1 reused"
WARM_OUT="$(./target/release/hfta hier tests/corpus/csa_pair.hnl --algo two-step \
    --use-models "$MODELDB" --stats)"
grep -F "0 modules characterized" <<<"$WARM_OUT"
grep -F "model-db: 3 hits, 0 misses" <<<"$WARM_OUT"
./target/release/hfta models "$MODELDB" | grep -F "3 valid record(s), 0 invalid"

echo "== serve end-to-end protocol gate =="
# Start the daemon warm from the corpus-seeded database, pipe the
# checked-in request transcript through it, and diff the response
# stream byte-for-byte against the checked-in golden. A DB-warmed
# daemon must characterize nothing at startup.
SERVEDB="$(mktemp -d -t hfta_servedb_XXXXXX)"
SERVE_OUT="$(mktemp -t hfta_serve_out_XXXXXX.ndjson)"
SERVE_ERR="$(mktemp -t hfta_serve_err_XXXXXX.txt)"
trap 'rm -f "$GATE_JSON" "$SERVE_OUT" "$SERVE_ERR"; rm -rf "$MODELDB" "$SERVEDB"' EXIT
./target/release/hfta characterize tests/corpus/csa_pair.hnl --emit-model "$SERVEDB" >/dev/null
./target/release/hfta serve tests/corpus/csa_pair.hnl --use-models "$SERVEDB" \
    < tests/corpus/serve_transcript.ndjson > "$SERVE_OUT" 2> "$SERVE_ERR"
diff -u tests/corpus/serve_transcript.golden "$SERVE_OUT"
grep -F "0 modules characterized" "$SERVE_ERR"
grep -F "exiting on shutdown request" "$SERVE_ERR"

echo "All checks passed."
