package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"seedex/internal/obs"
)

// ShardLoad is the routing-relevant view of one shard at decision time:
// everything a policy may weigh, read fresh per pick from lock-free
// counters.
type ShardLoad struct {
	// ID indexes the shard in the server's pool.
	ID int
	// InFlight counts admitted-but-unfinished jobs.
	InFlight int64
	// QueueDepth counts jobs waiting for the shard's collector.
	QueueDepth int
	// MaxBatch is the shard's batch size trigger, so occupancy-aware
	// policies can tell a forming partial batch from a full backlog.
	MaxBatch int
}

// RoutingPolicy picks one shard per routing decision. Pick receives the
// request's routing key (a hash of its reference region) and the live
// loads of every candidate shard — already filtered to healthy shards
// unless the whole pool is degraded — and returns an index into cands.
// Policies must be safe for concurrent Pick calls.
type RoutingPolicy interface {
	Name() string
	Pick(key uint64, cands []ShardLoad) int
}

// policyBuilders registers the named policies; builders receive the shard
// count so stateful policies (the hash ring) can size themselves.
var policyBuilders = map[string]func(shards int) RoutingPolicy{
	"least-loaded": func(int) RoutingPolicy { return leastLoaded{} },
	"occupancy":    func(int) RoutingPolicy { return occupancyAware{} },
	"hash":         newHashRing,
}

// RegisterRoutingPolicy adds a named policy to the registry, replacing
// any previous registration of the same name. Register before New.
func RegisterRoutingPolicy(name string, build func(shards int) RoutingPolicy) {
	policyBuilders[name] = build
}

// RoutingPolicies returns the registered policy names, sorted.
func RoutingPolicies() []string {
	out := make([]string, 0, len(policyBuilders))
	for name := range policyBuilders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// leastLoaded routes to the shard with the fewest in-flight jobs — the
// classic join-shortest-queue balance.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Pick(_ uint64, cands []ShardLoad) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].InFlight < cands[best].InFlight {
			best = i
		}
	}
	return best
}

// occupancyAware prefers the shard whose forming batch is closest to full
// (largest queue depth short of the size trigger), topping off partial
// batches so flushes pack more lanes; with no partial batch anywhere it
// degrades to least-loaded. Queue depths at exact MaxBatch multiples mean
// whole batches are waiting, not forming — nothing to top off.
type occupancyAware struct{}

func (occupancyAware) Name() string { return "occupancy" }

func (occupancyAware) Pick(key uint64, cands []ShardLoad) int {
	best, bestPartial := -1, 0
	for i, c := range cands {
		if c.MaxBatch <= 0 || c.QueueDepth <= 0 {
			continue
		}
		if partial := c.QueueDepth % c.MaxBatch; partial > bestPartial {
			best, bestPartial = i, partial
		}
	}
	if best >= 0 {
		return best
	}
	return leastLoaded{}.Pick(key, cands)
}

// hashRing is consistent hashing by reference region: jobs hashing to the
// same region always land on the same shard (keeping that shard's caches
// and sessions hot on that region), and a shard leaving the candidate set
// only remaps its own arc, not the whole keyspace. Each shard owns
// ringVnodes points for balance.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

const ringVnodes = 64

func newHashRing(shards int) RoutingPolicy {
	r := &hashRing{points: make([]ringPoint, 0, shards*ringVnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnv64(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func (r *hashRing) Name() string { return "hash" }

func (r *hashRing) Pick(key uint64, cands []ShardLoad) int {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for off := 0; off < len(r.points); off++ {
		p := r.points[(start+off)%len(r.points)]
		for ci := range cands {
			if cands[ci].ID == p.shard {
				return ci
			}
		}
	}
	return 0
}

// FNV-1a, the same function the routing key uses, over the vnode coords.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64(s, v int) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range [...]byte{byte(s), byte(s >> 8), 0xd1, byte(v), byte(v >> 8)} {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return mix64(h)
}

// mix64 is a finalizer (MurmurHash3's) over the FNV state: FNV alone
// leaves short inputs clustered in the high bits, and ring ordering
// compares full 64-bit values, so without this one shard's vnodes can
// swallow most of the keyspace.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// routeKey hashes a job's reference-side sequence into the routing
// keyspace. The target prefix stands in for the reference region: jobs
// extending against the same region hash identically, which is what the
// consistent-hash policy keys affinity on. Bounded at 64 bases so the key
// cost stays flat for long targets; the length folds in to separate
// regions sharing a prefix.
func routeKey[S string | []byte](region S) uint64 {
	h := uint64(fnvOffset64)
	n := len(region)
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		h = (h ^ uint64(region[i])) * fnvPrime64
	}
	return mix64((h ^ uint64(len(region))) * fnvPrime64)
}

// router is the tier in front of the shard pool: per decision it filters
// out degraded shards (routed around, not through), asks the policy to
// pick among the rest, and on a full queue fails the job over to the
// least-backlogged peer before surfacing 429 to the client.
type router struct {
	shards []*shard
	policy RoutingPolicy
}

func newRouter(shards []*shard, policyName string) (*router, error) {
	build, ok := policyBuilders[policyName]
	if !ok {
		return nil, fmt.Errorf("server: unknown route policy %q (valid: %s)",
			policyName, strings.Join(RoutingPolicies(), ", "))
	}
	return &router{shards: shards, policy: build(len(shards))}, nil
}

func shardLoad(sh *shard) ShardLoad {
	return ShardLoad{
		ID:         sh.id,
		InFlight:   sh.inflight.Load(),
		QueueDepth: sh.ext.QueueDepth(),
		MaxBatch:   sh.ext.cfg.MaxBatch,
	}
}

// pick chooses the shard for one request (or one streamed job). Degraded
// shards are excluded from the candidate set; if that empties it — every
// shard is host-only — the full set is used, because host-only shards
// still serve exact results and refusing the whole pool would turn a slow
// cluster into a down one.
func (r *router) pick(key uint64) *shard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	cands := make([]ShardLoad, 0, len(r.shards))
	for _, sh := range r.shards {
		if sh.degraded() {
			sh.sm.avoided.Add(1)
			continue
		}
		cands = append(cands, shardLoad(sh))
	}
	if len(cands) == 0 {
		for _, sh := range r.shards {
			cands = append(cands, shardLoad(sh))
		}
	}
	sh := r.shards[cands[r.policy.Pick(key, cands)].ID]
	sh.sm.routed.Add(1)
	return sh
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
func (r *router) submitWaitExt(ctx context.Context, key uint64, job extJob) error {
	for {
		sh := r.pick(key)
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
