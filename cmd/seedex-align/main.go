// Command seedex-align is the end-to-end aligner CLI: it maps FASTQ reads
// against a FASTA reference and writes SAM, with a selectable extension
// engine (full-band reference, plain banded heuristic, or the SeedEx
// speculative extender).
//
// Usage:
//
//	seedex-align -ref genome.fa -reads reads.fq -extender seedex -band 20 > out.sam
//	seedex-align -ref genome.fa -reads reads.fq -index genome.rix > out.sam
//
// -index names a reference index container, the one format
// seedex-index build writes and seedex-serve -index-store serves: it is
// loaded when the file exists (and refused when its contigs are not the
// FASTA's), otherwise built from -ref and published atomically there.
package main

import (
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "seedex-align:", err)
		os.Exit(1)
	}
}
