#!/usr/bin/env bash
# Byte-identity check of this tree's CLI outputs against another revision.
#
# Builds <rev> (a `git archive` of it, kept under target/parity/<sha> so a
# rerun reuses the build) and this tree, runs each deterministic invocation
# below on both, and compares stdout byte for byte plus the exit status:
#
#   * the six self-checking `--quick` harnesses, in text and `--json`;
#   * `trace --systems 4 --size 8192 --tuner static` in `--format chrome`
#     and `--format jsonl`;
#   * `serve-sim --chaos --requests 6000 --json`.
#
# Prints one line per comparison and exits nonzero on any difference.
# A refactor that must not move any verdict, number or trace event runs it
# against its base commit. Usage:
#
#     scripts/parity.sh <rev>          # e.g. scripts/parity.sh HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
sha="$(git rev-parse --verify "$1^{commit}")"
base="target/parity/$sha"
if [[ ! -e "$base/Cargo.toml" ]]; then
    mkdir -p "$base"
    git archive "$sha" | tar -x -C "$base"
fi
echo "== build $1 ($sha) =="
(cd "$base" && cargo build --release --offline -q --bin trisolve)
echo "== build this tree =="
cargo build --release --offline -q --bin trisolve

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
invocations=()
for args in "sanitize --quick" "analyze --quick" "analyze --stability --quick" \
            "analyze --schedule --quick" "chaos --quick" "serve-sim --quick --chaos"; do
    invocations+=("$args" "$args --json")
done
invocations+=(
    "trace --systems 4 --size 8192 --tuner static --format chrome"
    "trace --systems 4 --size 8192 --tuner static --format jsonl"
    "serve-sim --chaos --requests 6000 --json"
)

differ=0
for args in "${invocations[@]}"; do
    # Word splitting of $args is intended: each is a fixed argument list.
    # shellcheck disable=SC2086
    set +e
    "$base/target/release/trisolve" $args > "$out/a" 2> /dev/null
    a=$?
    # shellcheck disable=SC2086
    ./target/release/trisolve $args > "$out/b" 2> /dev/null
    b=$?
    set -e
    if cmp -s "$out/a" "$out/b" && [[ $a == "$b" ]]; then
        echo "identical (exit $a): $args"
    else
        echo "DIFFERS (exit $a vs $b): $args"
        differ=1
    fi
done
exit "$differ"
