#!/usr/bin/env bash
# A/B on the repository benchmark: BASE against the checked-out tree, on
# this machine, end to end (-trace 0). Each pair runs both sides once,
# alternating which goes first so drift of the box lands on both; the
# verdict is `benchmark compare` applying the bounds of BENCHMARK.json
# (exit 1 when an end-to-end metric is worse beyond its bound). WORKLOAD
# narrows both sides to one workload of BENCHMARK.json — the ten pairs a
# gain on one workload needs, in a quarter of the time.
#
#   scripts/bench_regression.sh BASE [PAIRS=3] [SECONDS=run_seconds of BENCHMARK.json] [WORKLOAD=all]
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:?usage: bench_regression.sh BASE [PAIRS=3] [SECONDS=run_seconds of BENCHMARK.json] [WORKLOAD=all]}
pairs=${2:-3}
secs=${3:-0}
workload=${4:-}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --detach "$tmp/base" "$base" >/dev/null

run() { # run <tree> <side>: one end-to-end pass over every workload, or the one named
	go run -C "$1/benchmark" . ${workload:+-workload "$workload"} -trace 0 -seconds "$secs" -out "$tmp/$2.jsonl"
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run "$tmp/base" base
		run . head
	else
		run . head
		run "$tmp/base" base
	fi
done
go run -C benchmark . compare "$tmp/base.jsonl" "$tmp/head.jsonl"
