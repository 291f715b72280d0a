#!/usr/bin/env bash
# End-to-end SAM identity gate: strict SeedEx must map exactly as the
# full-band engine does. Simulates 4000 x 150 bp reads over a 300 kbp
# reference twice — readsim's default error profile, and an error-heavy
# one (-err 0.01 -garbage-tails 0.05 -indel 0.0005) — maps each corpus
# with seedex-align -extender seedex and -extender fullband, and cmps the
# two SAM files. Paired-end identity is TestPairedSAMIdentity in
# cmd/seedex-align. Artifacts land in OUT (default sam-identity/).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-sam-identity}"
mkdir -p "$OUT"

echo "== building readsim and seedex-align =="
go build -o "$OUT/readsim" ./cmd/readsim
go build -o "$OUT/seedex-align" ./cmd/seedex-align

check() { # check <name> <readsim flags...>
	local name=$1
	shift
	"$OUT/readsim" -ref-len 300000 -reads 4000 -read-len 150 "$@" \
		-out-ref "$OUT/$name.fa" -out-reads "$OUT/$name.fq"
	for ext in seedex fullband; do
		"$OUT/seedex-align" -ref "$OUT/$name.fa" -reads "$OUT/$name.fq" -extender "$ext" \
			>"$OUT/$name.$ext.sam" 2>"$OUT/$name.$ext.log"
	done
	cmp "$OUT/$name.seedex.sam" "$OUT/$name.fullband.sam"
	echo "== $name: seedex SAM equals fullband SAM ($(grep -vc '^@' "$OUT/$name.seedex.sam") records); $(cat "$OUT/$name.seedex.log")"
}

check default
check error-heavy -err 0.01 -garbage-tails 0.05 -indel 0.0005
