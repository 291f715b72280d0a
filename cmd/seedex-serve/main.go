// Command seedex-serve is the network front-end of the SeedEx system: an
// HTTP/JSON alignment service that coalesces concurrent requests into
// dynamic micro-batches and runs them through the packed (SWAR) extension
// kernels with the speculate-check-rerun workflow.
//
// Usage:
//
//	seedex-serve -addr :8844 -extender seedex -band 20
//	seedex-index build -ref genome.fa -out genome.rix
//	seedex-serve -addr :8844 -index-store genome.rix   # enables /v1/map
//	seedex-serve -addr :8844 -shards 4
//
// With -shards N the service runs N independent shard units — each its
// own extension engine, micro-batcher and worker pool — behind a routing
// tier that sends each request to the shard with the fewest jobs in
// flight, fails a full queue over to a peer, and lets idle shards steal
// queued batches.
//
// Endpoints: POST /v1/extend, POST /v1/extend/stream (NDJSON),
// POST /v1/map and POST /admin/reload (with -index-store), GET /metrics,
// GET /healthz. SIGINT/SIGTERM trigger a graceful drain: in-flight and
// queued work completes, new work is refused with 503; SIGHUP reloads the
// index store.
package main

import (
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "seedex-serve:", err)
		os.Exit(1)
	}
}
