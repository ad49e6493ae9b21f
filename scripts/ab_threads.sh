#!/usr/bin/env bash
# Multi-worker A/B for the executor and the daemon: times alternating
# `psdacc-sched submit` runs of one mixed hit/miss batch against fresh
# in-memory `psdacc-serve` daemons built from two trees.
#
#   scripts/ab_threads.sh PARENT_BIN_DIR CHANGE_BIN_DIR
#
# Each BIN_DIR holds release builds of `psdacc-serve` and `psdacc-sched`
# (e.g. `target/release` of each checkout). For `--threads 2` and
# `--threads 4` the script runs 10 pairs; each trial starts a fresh daemon
# from its side's binaries, times one submit with its side's coordinator
# (wall time of the submit process, cold cache: the first job of each of
# the batch's 8 cache keys misses, the other 164 hit) and stops the daemon.
# Pairs alternate which side goes first, so drift over the run hits both
# sides alike. It prints, per thread count, each side's median and
# nearest-rank IQR in seconds and the pairs the change won. perfbench
# gates one-worker daemons only; this is the check on the many-slot
# executor. Every submit must exit 0 with one line per job.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_BIN_DIR CHANGE_BIN_DIR" >&2
    exit 2
fi
parent=$1
change=$2
for dir in "$parent" "$change"; do
    for bin in psdacc-serve psdacc-sched; do
        [ -x "$dir/$bin" ] || { echo "$dir/$bin: not an executable" >&2; exit 2; }
    done
done

pairs=10
jobs=172
work=$(mktemp -d)
daemon=
cleanup() {
    if [ -n "$daemon" ]; then
        kill "$daemon" 2>/dev/null || true
        wait "$daemon" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

# 3 + 2 + 1 systems, 160 psd/flat estimates at npsd 256, 2 npsd-1024
# misses, a min-uniform search and a budget report per system.
cat > "$work/mixed.spec" <<'SPEC'
scenario freq-filter
scenario fir-cascade stages=1..2 taps=15
scenario random-sfg nodes=16 seed=3
batch npsd=256 bits=4..23 methods=psd,flat
batch npsd=1024 bits=10 methods=psd
min-uniform npsd=256 budget=1e-6 min=2 max=24
budget npsd=256 bits=9
SPEC

port=17600
# trial BIN_DIR THREADS: sets `ns` to the wall nanoseconds of one submit.
trial() {
    local dir=$1 threads=$2 addr t0 t1 lines
    port=$((port + 1))
    addr=127.0.0.1:$port
    "$dir/psdacc-serve" daemon --addr "$addr" --threads "$threads" 2>/dev/null &
    daemon=$!
    t0=$(date +%s%N)
    "$dir/psdacc-sched" submit --daemons "$addr" "$work/mixed.spec" \
        > "$work/out.jsonl" 2>/dev/null
    t1=$(date +%s%N)
    kill "$daemon"
    wait "$daemon" 2>/dev/null || true
    daemon=
    lines=$(wc -l < "$work/out.jsonl")
    if [ "$lines" -ne "$jobs" ]; then
        echo "$dir: $lines result lines, expected $jobs" >&2
        exit 1
    fi
    ns=$((t1 - t0))
}

for threads in 2 4; do
    : > "$work/pairs"
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            trial "$parent" "$threads"; p=$ns
            trial "$change" "$threads"; c=$ns
        else
            trial "$change" "$threads"; c=$ns
            trial "$parent" "$threads"; p=$ns
        fi
        echo "$p $c" >> "$work/pairs"
    done
    python3 - "$threads" "$work/pairs" <<'PY'
import math, sys

threads, path = sys.argv[1], sys.argv[2]
pairs = [tuple(int(ns) / 1e9 for ns in line.split()) for line in open(path)]

def rank(xs, q):
    """Nearest-rank quantile: the ceil(q*n)-th smallest value."""
    xs = sorted(xs)
    return xs[max(1, math.ceil(q * len(xs))) - 1]

def side(xs):
    return f"median {rank(xs, 0.5):.4f} s IQR [{rank(xs, 0.25):.4f}, {rank(xs, 0.75):.4f}]"

parent = [p for p, _ in pairs]
change = [c for _, c in pairs]
wins = sum(c < p for p, c in pairs)
print(f"--threads {threads}: parent {side(parent)} | change {side(change)} | "
      f"ratio {rank(change, 0.5) / rank(parent, 0.5):.3f} | change faster in {wins}/{len(pairs)}")
print("  pairs (parent, change): " + " ".join(f"({p:.4f},{c:.4f})" for p, c in pairs))
PY
done
