// Package server is the network front-end of the repository: an HTTP/JSON
// alignment service that coalesces concurrent requests into dynamic
// micro-batches and dispatches them through the packed (SWAR) batch
// kernels, so independent clients share machine-word lanes the way the
// paper's host batches independent extensions into one FPGA DMA transfer
// (§V-B). The subsystem owns bounded admission queues with backpressure,
// a worker pool of per-worker extension sessions, deadline propagation,
// graceful drain, and a /metrics surface over the core check statistics.
package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// Admission errors. Handlers map ErrQueueFull to 429 (with Retry-After)
// and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("server: admission queue full")
	ErrDraining  = errors.New("server: draining, not accepting work")
)

// FlushOpportunistic, as a FlushInterval, makes the collector never wait:
// each batch takes whatever is queued the moment it is assembled — the
// software analogue of a self-draining input FIFO. Any negative interval
// means the same; zero selects the default interval.
const FlushOpportunistic time.Duration = -1

// BatcherConfig tunes one micro-batching pipeline.
type BatcherConfig struct {
	// MaxBatch flushes a batch when this many jobs are pending (the size
	// trigger). Default 64 — a multiple of the 8-wide SWAR lane count.
	MaxBatch int
	// FlushInterval flushes this long after the first job of a batch
	// arrives (the deadline trigger), bounding the latency a lone request
	// pays for coalescing. Zero means the 200µs default; FlushOpportunistic
	// (any negative value) disables the wait entirely.
	FlushInterval time.Duration
	// QueueCap bounds the admission queue; Submit refuses further work
	// (ErrQueueFull) when it is full. Default 1024.
	QueueCap int
	// Workers is the batch worker pool size. Default GOMAXPROCS.
	Workers int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 200 * time.Microsecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// batcher coalesces individually submitted jobs into micro-batches: a
// collector goroutine assembles batches (size- or deadline-triggered) and
// a worker pool executes them. One batcher instance serves one job type —
// the server runs one for extension jobs and one for mapping jobs.
type batcher[T any] struct {
	cfg BatcherConfig

	mu     sync.RWMutex // guards closed vs. the in-channel close
	closed bool

	in      chan T
	batches chan []T
	free    chan []T // recycled batch backing arrays

	// binOf keys each job into a shape bin (see collect); a batcher
	// without one runs a single bin.
	binOf func(T) int

	// met records admissions, dispatched batches and their occupancy.
	met *Metrics

	collectorDone sync.WaitGroup
	workersDone   sync.WaitGroup
	closeOnce     sync.Once
}

// newBatcher starts the collector and worker pool. work is called once per
// worker and returns that worker's batch processor — the closure owns the
// worker's session state (extension scratch, mapper) for its lifetime.
// With a binOf, collection is shape-aware: binOf keys every job into one of
// numBins bins, and the collector packs batches bin-first, so jobs of like
// kernel shape share a batch (and therefore SWAR lane groups) even when
// they arrived interleaved with other shapes. A nil binOf means one bin.
func newBatcher[T any](cfg BatcherConfig, met *Metrics, numBins int, binOf func(T) int, work func() func([]T)) *batcher[T] {
	cfg = cfg.withDefaults()
	if binOf == nil {
		numBins, binOf = 1, func(T) int { return 0 }
	}
	b := &batcher[T]{
		cfg:     cfg,
		met:     met,
		in:      make(chan T, cfg.QueueCap),
		batches: make(chan []T, cfg.Workers),
		free:    make(chan []T, cfg.Workers*2+numBins),
		binOf:   binOf,
	}
	b.collectorDone.Add(1)
	go b.collect(numBins)
	for w := 0; w < b.cfg.Workers; w++ {
		b.workersDone.Add(1)
		go func() {
			defer b.workersDone.Done()
			proc := work()
			for batch := range b.batches {
				proc(batch)
				b.putBatch(batch[:0])
			}
		}()
	}
	return b
}

// Submit offers one job to the admission queue without blocking: the
// backpressure decision is made here, not after resources are consumed.
func (b *batcher[T]) Submit(job T) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrDraining
	}
	select {
	case b.in <- job:
		b.met.jobs[nAccepted].Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// SubmitWait is Submit with flow control, for streaming clients: a full
// queue blocks the caller until the collector makes room or ctx ends,
// instead of failing. It holds the read lock while it waits, so Close
// cannot close the queue under it; the collector keeps draining the
// queue until Close takes the lock, so the wait always ends.
func (b *batcher[T]) SubmitWait(ctx context.Context, job T) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrDraining
	}
	select {
	case b.in <- job:
		b.met.jobs[nAccepted].Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueueDepth reports the jobs currently waiting for the collector.
func (b *batcher[T]) QueueDepth() int { return len(b.in) }

// QueueCap reports the admission bound.
func (b *batcher[T]) QueueCap() int { return b.cfg.QueueCap }

// Close stops admission, drains every queued job through the workers, and
// waits for them to finish. Safe to call more than once.
func (b *batcher[T]) Close() {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		close(b.in)
		b.mu.Unlock()
		b.collectorDone.Wait()
		close(b.batches)
		b.workersDone.Wait()
	})
}

// collect assembles micro-batches: pending jobs accumulate in per-bin
// slices keyed by binOf, so every dispatch is as shape-homogeneous as the
// arrival mix allows. Three triggers flush work:
//
//   - a bin reaching MaxBatch dispatches that bin alone (a perfectly
//     homogeneous batch) — the size trigger;
//   - total pending reaching 2x MaxBatch dispatches the fullest bin,
//     bounding buffered work under a mixed load that fills no single bin
//     while still letting one busy bin fill completely;
//   - the deadline (FlushInterval after the first job of an idle period)
//     flushes everything, concatenated in bin order into MaxBatch-sized
//     batches — still bin-sorted, so lane groups stay dense.
//
// Every job therefore waits at most one FlushInterval. With a single bin
// this is the plain size-or-deadline collector: the bin is the batch.
func (b *batcher[T]) collect(numBins int) {
	defer b.collectorDone.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	bins := make([][]T, numBins)
	total := 0

	flushBin := func(k int) {
		total -= len(bins[k])
		b.dispatch(bins[k])
		bins[k] = nil
	}
	fullest := func() int {
		best, n := 0, -1
		for k := range bins {
			if len(bins[k]) > n {
				best, n = k, len(bins[k])
			}
		}
		return best
	}
	flushAll := func() {
		// The first non-empty bin becomes the batch under assembly (a bin
		// holds fewer than MaxBatch jobs in a MaxBatch-capacity array), so
		// a flush of one bin copies nothing.
		var out []T
		for k := range bins {
			if len(bins[k]) == 0 {
				continue
			}
			if out == nil {
				out, bins[k] = bins[k], nil
				continue
			}
			for _, job := range bins[k] {
				if len(out) == b.cfg.MaxBatch {
					b.dispatch(out)
					out = b.getBatch()
				}
				out = append(out, job)
			}
			b.putBatch(bins[k][:0])
			bins[k] = nil
		}
		b.dispatch(out)
		total = 0
	}
	add := func(job T) {
		k := b.binOf(job)
		if k < 0 || k >= len(bins) {
			k = len(bins) - 1
		}
		if bins[k] == nil {
			bins[k] = b.getBatch()
		}
		bins[k] = append(bins[k], job)
		total++
		if len(bins[k]) >= b.cfg.MaxBatch {
			flushBin(k)
		} else if total >= 2*b.cfg.MaxBatch {
			flushBin(fullest())
		}
	}

	for {
		first, ok := <-b.in
		if !ok {
			return
		}
		add(first)
		if b.cfg.FlushInterval > 0 {
			if total > 0 {
				timer.Reset(b.cfg.FlushInterval)
				for total > 0 {
					select {
					case job, more := <-b.in:
						if !more {
							flushAll()
							return
						}
						add(job)
					case <-timer.C:
						flushAll()
					}
				}
				// total hit zero — via the timer or a size flush that
				// drained everything. Disarm before blocking again (the
				// timer may have fired concurrently with a size flush).
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
			}
		} else {
			// Opportunistic mode: drain whatever is queued, then flush
			// everything bin-sorted. With more than MaxBatch queued this
			// still yields shape-grouped batches — the cross-batch win.
		greedy:
			for total < b.cfg.QueueCap {
				select {
				case job, more := <-b.in:
					if !more {
						flushAll()
						return
					}
					add(job)
				default:
					break greedy
				}
			}
			flushAll()
		}
	}
}

// dispatch hands one assembled batch to the worker pool and records it in
// the batch and occupancy counters.
func (b *batcher[T]) dispatch(batch []T) {
	if len(batch) == 0 {
		return
	}
	b.met.jobs[nBatches].Add(1)
	b.met.occupancy.observe(int64(len(batch)))
	b.batches <- batch
}

func (b *batcher[T]) getBatch() []T {
	select {
	case batch := <-b.free:
		return batch
	default:
		return make([]T, 0, b.cfg.MaxBatch)
	}
}

// putBatch returns a backing array to the free list: emptied bins from
// the collector, processed batches from the workers.
func (b *batcher[T]) putBatch(batch []T) {
	select {
	case b.free <- batch:
	default:
	}
}
