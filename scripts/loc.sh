#!/usr/bin/env bash
# Non-test Go line counts: one row per internal/* package, then the whole
# tree. benchmark/ is excluded (it is a module of its own, frozen by
# BENCHMARK.json). This is the definition behind the line-count targets
# in ROADMAP.md — "net lines removed is a reported metric".
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <find args...>: total lines of the non-test .go files found
	find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 -r cat | wc -l
}

for d in internal/*/; do
	printf '%7d  %s\n' "$(count "$d")" "${d%/}"
done
printf '%7d  total (excl. benchmark/)\n' "$(count . -path ./benchmark -prune -o -type f)"
