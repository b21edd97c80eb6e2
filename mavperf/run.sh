#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash mavperf/run.sh --workload <sweep|missions|service> --seed N --seconds S --trace 0|1
# Timed runs (--trace 0) use the `mavperf` binary; traced runs (--trace 1)
# use `mavperf-trace`, which counts allocations. Run from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# One glibc malloc arena per CPU. With glibc's default (eight per CPU) the
# number of arenas a run opens depends on how its threads happen to
# overlap, and the freed memory each keeps moved peak_rss_mb by up to a
# quarter between runs of the same code.
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-$(nproc)}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
bin=mavperf
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=mavperf-trace
    fi
    prev="$arg"
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
