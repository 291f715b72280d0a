package server

import (
	"context"
	"errors"
	"sort"
	"time"

	"seedex/internal/obs"
)

// router is the tier in front of the shard pool: per decision it filters
// out degraded shards (routed around, not through), picks the one with the
// fewest in-flight jobs among the rest — join-shortest-queue — and on a
// full queue fails the job over to the least-backlogged peer before
// surfacing 429 to the client.
type router struct {
	shards []*shard
	// aim, when non-nil, makes every decision instead: tests set it to
	// aim requests at one shard.
	aim func() *shard
}

// pick chooses the shard for one request (or one streamed job). Degraded
// shards are excluded from the candidate set; if that empties it — every
// shard is host-only — the full set is used, because host-only shards
// still serve exact results and refusing the whole pool would turn a slow
// cluster into a down one.
func (r *router) pick() *shard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	var sh *shard
	if r.aim != nil {
		sh = r.aim()
	} else if sh = leastLoaded(r.shards, true); sh == nil {
		sh = leastLoaded(r.shards, false)
	}
	sh.sm.routed.Add(1)
	return sh
}

// leastLoaded returns the shard with the fewest in-flight jobs, the first
// of a tie. With skipDegraded it passes over degraded shards, counting the
// avoidance, and returns nil when that leaves none.
func leastLoaded(shards []*shard, skipDegraded bool) *shard {
	var best *shard
	var bestLoad int64
	for _, sh := range shards {
		if skipDegraded && sh.degraded() {
			sh.sm.avoided.Add(1)
			continue
		}
		if load := sh.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = sh, load
		}
	}
	return best
}

// extPipe and mapPipe select a shard's extension and mapping batcher for
// submit.
func extPipe(sh *shard) *batcher[extJob] { return sh.ext }
func mapPipe(sh *shard) *batcher[mapJob] { return sh.maps }

// submit offers one job to the picked shard's pipe, failing over on a full
// queue: peers are tried healthy-first in ascending backlog order before
// the client sees 429. Draining is global (Close drains all shards), so
// ErrDraining is surfaced immediately.
func submit[P, R any](r *router, pipe func(*shard) *batcher[job[P, R]], sh *shard, j job[P, R]) error {
	j.sh = sh
	err := pipe(sh).Submit(j)
	if err == nil {
		sh.admit()
		return nil
	}
	if !errors.Is(err, ErrQueueFull) || len(r.shards) == 1 {
		return err
	}
	sh.sm.rejected.Add(1)
	for _, alt := range r.failoverOrder(sh) {
		j.sh = alt
		switch aerr := pipe(alt).Submit(j); {
		case aerr == nil:
			alt.admit()
			alt.sm.rerouted.Add(1)
			j.tr.Mark(obs.EvReroute)
			return nil
		case errors.Is(aerr, ErrQueueFull):
			alt.sm.rejected.Add(1)
		default:
			return aerr
		}
	}
	return err
}

// failoverOrder lists the peers of sh, healthy shards before degraded
// ones and ascending queue depth within each class: overflow lands where
// it will wait least, and on a degraded shard only when every healthy
// queue is full too (serving slowly beats rejecting).
func (r *router) failoverOrder(sh *shard) []*shard {
	type cand struct {
		sh       *shard
		degraded bool
		depth    int
	}
	cands := make([]cand, 0, len(r.shards)-1)
	for _, alt := range r.shards {
		if alt == sh {
			continue
		}
		cands = append(cands, cand{sh: alt, degraded: alt.degraded(), depth: alt.ext.QueueDepth()})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].degraded != cands[j].degraded {
			return !cands[i].degraded
		}
		return cands[i].depth < cands[j].depth
	})
	out := make([]*shard, len(cands))
	for i, c := range cands {
		out[i] = c.sh
	}
	return out
}

// submitWaitExt is submit with flow control for streaming clients: a
// cluster-wide full queue blocks the stream reader (bounded by the
// request context) instead of failing the stream — the backpressure a
// pipelined producer wants. Each retry re-picks, so the stream drains
// into whichever shard frees up first.
func (r *router) submitWaitExt(ctx context.Context, job extJob) error {
	for {
		sh := r.pick()
		err := submit(r, extPipe, sh, job)
		if err == nil || !errors.Is(err, ErrQueueFull) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Microsecond):
		}
	}
}
