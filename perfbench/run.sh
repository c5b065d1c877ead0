#!/usr/bin/env bash
# Builds the unmodified `portnum-serve` binary and the benchmark from
# source, then runs one workload:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 5 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "perfbench: run from the repository root (no Cargo.toml or crates/serve here)" >&2
    exit 2
fi

cargo build --offline --release --quiet -p portnum-serve --bin portnum-serve >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2

# Where the numbers came from: the commit when this is a git checkout,
# otherwise a digest of the sources the binaries were built from.
source_id="$(git rev-parse HEAD 2>/dev/null || true)"
if [[ -z "$source_id" ]]; then
    source_id="tree:$(find Cargo.toml Cargo.lock crates perfbench -type f \
        \( -name '*.rs' -o -name '*.toml' -o -name '*.lock' -o -name '*.sh' \) \
        -not -path '*/target/*' -print0 | LC_ALL=C sort -z | xargs -0 sha256sum \
        | sha256sum | cut -c1-16)"
fi

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/portnum-serve" \
    --out-dir "$CARGO_TARGET_DIR/perfbench" \
    --source-id "$source_id" \
    "$@"
