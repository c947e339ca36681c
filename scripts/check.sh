#!/usr/bin/env bash
# Offline-friendly pre-merge gate: formatting, lints, tests.
#
# Everything here runs against the vendored dependency stubs in `vendor/`,
# so no network access is required. Usage:
#
#     scripts/check.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (tier-1: root package) =="
cargo test -q

echo "== cargo test (workspace) =="
cargo test -q --workspace

# The PCR kernels' bit-identity tests depend on codegen (vectorisation,
# the avx512f instantiation), and the test profile builds them at
# opt-level 2 only: run them in the release profile too.
echo "== cargo test (PCR kernels, release profile) =="
cargo test -q --release -p trisolve-tridiag pcr::

# The vendored stand-ins are not workspace members; run their own tests.
for crate in serde serde_json rayon; do
    echo "== cargo test (vendor/$crate) =="
    cargo test -q --offline --manifest-path "vendor/$crate/Cargo.toml"
done

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== kernel sanitizer smoke run =="
cargo run -q --release --bin trisolve -- sanitize --quick

echo "== static analyzer smoke run (nonzero exit on unproven case) =="
cargo run -q --release --bin trisolve -- analyze --quick

echo "== stability certifier smoke run (nonzero exit on unrefuted fixture or false verdict) =="
cargo run -q --release --bin trisolve -- analyze --stability --quick

echo "== schedule certifier smoke run (nonzero exit on unrefuted fixture, uncertified schedule or prover/tracker disagreement) =="
cargo run -q --release --bin trisolve -- analyze --schedule --quick

echo "== chaos / resilience smoke run (nonzero exit on unrecovered case) =="
cargo run -q --release --bin trisolve -- chaos --quick

echo "== solver-service smoke run (nonzero exit on lost request, deadline miss, or breaker deadlock) =="
cargo run -q --release --bin trisolve -- serve-sim --quick --chaos

echo "== autotune demo (nonzero exit unless the plan database reloads every tuned configuration) =="
cargo run -q --release --example autotune_demo

# The gate replays two snapshots: the pinned BENCH_10.json, which only an
# edit here can move, and the newest (highest-numbered) BENCH_<n>.json.
newest="$(ls BENCH_*.json | sort -V | tail -n 1)"
for baseline in $(printf '%s\n' BENCH_10.json "$newest" | sort -uV); do
    echo "== bench-regression gate (nonzero exit on significant regression vs $baseline) =="
    cargo run -q --release --bin trisolve -- report --regress "$baseline" --quick
done

echo "== traced solve smoke run (chrome trace validates) =="
trace_out="$(mktemp)"
trap 'rm -f "$trace_out"' EXIT
# `trisolve trace` parses its own chrome export back and fails on invalid
# or empty JSON; the greps double-check the file landed with events.
cargo run -q --release --bin trisolve -- trace \
    --systems 4 --size 8192 --tuner static --out "$trace_out" >/dev/null
grep -q '"traceEvents"' "$trace_out"
grep -q '"ph":"X"' "$trace_out"

echo "All checks passed."
