package server

import "sync/atomic"

// shard is one independently failing serving unit: its own micro-batcher,
// worker pool, extension engine and (through the engine) circuit breaker.
// Shards are the host-side analog of the paper's replicated extension
// engines behind one batch-formation stage (§V-B): the router spreads
// whole batches across them the way the batch kernels spread problems
// across SWAR lanes.
type shard struct {
	id     int
	engine // the shard's extender, resolved (see resolveEngine)
	ext    *batcher[extJob]
	maps   *batcher[mapJob] // nil without an aligner
	sm     *shardMetrics

	// inflight counts jobs admitted to this shard and not yet delivered
	// or expired — what the router balances on.
	inflight atomic.Int64
}

// degraded reports whether the shard's engine is in host-only mode (open
// or probing breaker). Shards without a health source are always fit.
func (sh *shard) degraded() bool {
	return sh.health != nil && sh.health().Degraded
}

// admit records one job entering the shard.
func (sh *shard) admit() {
	sh.inflight.Add(1)
	sh.sm.n[smAccepted].Add(1)
}

// settleExpired records one admitted job leaving the shard without
// compute (deadline passed in queue).
func (sh *shard) settleExpired() {
	sh.inflight.Add(-1)
	sh.sm.n[smExpired].Add(1)
}

// settleDone records one admitted job leaving the shard with a computed
// result.
func (sh *shard) settleDone() {
	sh.inflight.Add(-1)
	sh.sm.n[smCompleted].Add(1)
}

// shardCount indexes a shard's counters.
type shardCount int

const (
	smAccepted  shardCount = iota // jobs admitted to this shard's queue
	smCompleted                   // jobs computed by (or stolen from) this shard
	smRejected                    // submits this shard's full queue refused
	smExpired                     // admitted jobs that expired before compute
	smBatches                     // batches this shard's collector dispatched
	smRouted                      // requests the router sent here
	smAvoided                     // routing decisions that skipped this degraded shard
	smRerouted                    // jobs landed here after another shard's queue refused them
	smSteals                      // batches this shard's workers took from peers
	smStolen                      // batches peers took from this shard
	numShardCounts
)

// shardMetrics are the job-level counters, kept only per shard: each job
// and batch is recorded once, by the shard that admitted it, and the
// server-wide values are sums taken at scrape time.
type shardMetrics struct {
	n         [numShardCounts]atomic.Int64
	occupancy hist // jobs per dispatched batch
	queueWait hist // ns from admission to worker pickup
}
