// Command seedex-index builds and checks the checksummed container
// indexes that seedex-serve memory-maps behind /v1/map and
// seedex-align -index loads.
//
// Usage:
//
//	seedex-index build -ref genome.fa -out ref.rix
//	seedex-index verify ref.rix
//	seedex-index info ref.rix
//
// build encodes the reference and its FM-index into one container file
// and publishes it atomically (temp file + fsync + rename), so a crash
// mid-build never leaves a half-written index where a server could find
// it, and a running server re-reading the path on reload always sees
// either the old file or the complete new one. verify re-reads every
// section against the embedded CRCs; info prints the header as JSON.
package main

import (
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "seedex-index:", err)
		os.Exit(1)
	}
}
