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
	// or expired — the least-loaded policy's signal.
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
	sh.sm.accepted.Add(1)
}

// settleExpired records one admitted job leaving the shard without
// compute (deadline passed in queue).
func (sh *shard) settleExpired() {
	sh.inflight.Add(-1)
	sh.sm.expired.Add(1)
}

// settleDone records one admitted job leaving the shard with a computed
// result.
func (sh *shard) settleDone() {
	sh.inflight.Add(-1)
	sh.sm.completed.Add(1)
}

// shardMetrics are one shard's own counters, recorded alongside (never
// instead of) the server-wide Metrics: the aggregate families keep their
// pre-sharding meaning, and the per-shard view rides on top.
type shardMetrics struct {
	accepted  atomic.Int64 // jobs admitted to this shard's queue
	completed atomic.Int64 // jobs computed by (or stolen from) this shard
	rejected  atomic.Int64 // submits this shard's full queue refused
	expired   atomic.Int64 // admitted jobs that expired before compute
	batches   atomic.Int64 // batches this shard's collector dispatched
	occupancy hist         // jobs per dispatched batch
	queueWait hist         // ns from admission to worker pickup

	// Router decisions.
	routed   atomic.Int64 // requests the policy routed here
	avoided  atomic.Int64 // routing decisions that skipped this degraded shard
	rerouted atomic.Int64 // jobs landed here after another shard's queue refused them

	// Work stealing.
	steals atomic.Int64 // batches this shard's workers took from peers
	stolen atomic.Int64 // batches peers took from this shard
}

// ShardSnapshot is one shard's slice of the /metrics document.
type ShardSnapshot struct {
	ID            int     `json:"id"`
	Accepted      int64   `json:"jobs_accepted"`
	Completed     int64   `json:"jobs_completed"`
	Rejected      int64   `json:"jobs_rejected"`
	Expired       int64   `json:"jobs_expired"`
	Batches       int64   `json:"batches"`
	MeanOccupancy float64 `json:"batch_occupancy_mean"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	InFlight      int64   `json:"inflight"`
	Routed        int64   `json:"routed"`
	Avoided       int64   `json:"avoided"`
	Rerouted      int64   `json:"rerouted"`
	Steals        int64   `json:"batches_stolen_from_peers"`
	Stolen        int64   `json:"batches_stolen_by_peers"`
	Degraded      bool    `json:"degraded"`
	Breaker       string  `json:"breaker,omitempty"`
}

func (sh *shard) snapshot() ShardSnapshot {
	occ := sh.sm.occupancy.snapshot()
	out := ShardSnapshot{
		ID:            sh.id,
		Accepted:      sh.sm.accepted.Load(),
		Completed:     sh.sm.completed.Load(),
		Rejected:      sh.sm.rejected.Load(),
		Expired:       sh.sm.expired.Load(),
		Batches:       sh.sm.batches.Load(),
		MeanOccupancy: occ.Mean(),
		QueueDepth:    sh.ext.QueueDepth(),
		QueueCap:      sh.ext.QueueCap(),
		InFlight:      sh.inflight.Load(),
		Routed:        sh.sm.routed.Load(),
		Avoided:       sh.sm.avoided.Load(),
		Rerouted:      sh.sm.rerouted.Load(),
		Steals:        sh.sm.steals.Load(),
		Stolen:        sh.sm.stolen.Load(),
	}
	if sh.health != nil {
		h := sh.health()
		out.Degraded = h.Degraded
		out.Breaker = h.Breaker
	}
	return out
}
