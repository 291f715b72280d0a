package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatcherBackpressure pins the admission contract deterministically:
// with the single worker blocked, the pipeline's finite capacity (queue +
// collector batch + batch channel) fills and Submit refuses with
// ErrQueueFull instead of blocking.
func TestBatcherBackpressure(t *testing.T) {
	release := make(chan struct{})
	var processed atomic.Int64
	met := &Metrics{}
	b := newBatcher(BatcherConfig{MaxBatch: 2, FlushInterval: 50 * time.Microsecond, QueueCap: 2, Workers: 1}, met, 1, nil,
		func() func([]int) {
			return func(batch []int) {
				<-release
				processed.Add(int64(len(batch)))
			}
		})

	// Fill until refusal; the capacity bound is queue(2) + one assembling
	// batch(2) + one queued batch(2) + the in-flight batch(2).
	accepted := 0
	var err error
	for i := 0; i < 100; i++ {
		if err = b.Submit(i); err != nil {
			break
		}
		accepted++
		time.Sleep(time.Millisecond) // let the collector pull and flush
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull after %d accepts, got %v", accepted, err)
	}
	if accepted > 10 {
		t.Fatalf("pipeline absorbed %d jobs; capacity bound is broken", accepted)
	}

	// Release the worker: Close must drain every accepted job.
	close(release)
	b.Close()
	if got := processed.Load(); got != int64(accepted) {
		t.Fatalf("drained %d jobs, accepted %d", got, accepted)
	}
	if err := b.Submit(1); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Close = %v, want ErrDraining", err)
	}
	if met.jobs[nBatches].Load() == 0 {
		t.Fatal("no batches recorded")
	}
}

// TestBatcherSizeTrigger proves the size trigger flushes without waiting
// for the deadline: MaxBatch jobs submitted at once produce a full batch
// well before the (long) flush interval.
func TestBatcherSizeTrigger(t *testing.T) {
	done := make(chan int, 16)
	b := newBatcher(BatcherConfig{MaxBatch: 8, FlushInterval: time.Hour, QueueCap: 64, Workers: 1}, &Metrics{}, 1, nil,
		func() func([]int) {
			return func(batch []int) { done <- len(batch) }
		})
	defer b.Close()
	for i := 0; i < 8; i++ {
		if err := b.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case n := <-done:
		if n != 8 {
			t.Fatalf("batch size %d, want 8", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("size trigger did not flush")
	}
}

// TestBatcherOpportunistic proves FlushOpportunistic never waits: a lone
// job flushes immediately with both triggers effectively off.
func TestBatcherOpportunistic(t *testing.T) {
	done := make(chan int, 1)
	b := newBatcher(BatcherConfig{MaxBatch: 64, FlushInterval: FlushOpportunistic, QueueCap: 64, Workers: 1}, &Metrics{}, 1, nil,
		func() func([]int) {
			return func(batch []int) { done <- len(batch) }
		})
	defer b.Close()
	if err := b.Submit(1); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("batch size %d, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("opportunistic collector never flushed a lone job")
	}
}

// TestFlushSentinel pins the FlushInterval sentinel scheme: zero selects
// the 200µs default and FlushOpportunistic survives every defaults layer,
// including the MapBatch inheritance in server.Config.
func TestFlushSentinel(t *testing.T) {
	if got := (BatcherConfig{}).withDefaults().FlushInterval; got != 200*time.Microsecond {
		t.Fatalf("zero FlushInterval defaulted to %v, want 200µs", got)
	}
	if got := (BatcherConfig{FlushInterval: FlushOpportunistic}).withDefaults().FlushInterval; got >= 0 {
		t.Fatalf("FlushOpportunistic rewritten to %v", got)
	}
	cfg := Config{Batch: BatcherConfig{FlushInterval: FlushOpportunistic}}.withDefaults()
	if cfg.Batch.FlushInterval >= 0 {
		t.Fatalf("Config rewrote opportunistic Batch flush to %v", cfg.Batch.FlushInterval)
	}
	if cfg.MapBatch.FlushInterval >= 0 {
		t.Fatalf("MapBatch did not inherit the opportunistic flush: %v", cfg.MapBatch.FlushInterval)
	}
}

// TestBatcherDeadlineTrigger proves a lone job flushes after the
// interval, not after MaxBatch.
func TestBatcherDeadlineTrigger(t *testing.T) {
	done := make(chan int, 1)
	b := newBatcher(BatcherConfig{MaxBatch: 64, FlushInterval: 2 * time.Millisecond, QueueCap: 64, Workers: 1}, &Metrics{}, 1, nil,
		func() func([]int) {
			return func(batch []int) { done <- len(batch) }
		})
	defer b.Close()
	if err := b.Submit(1); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("batch size %d, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline trigger did not flush")
	}
}

// TestBinnedBatcherHomogeneousFlush proves the binned collector's size
// trigger: MaxBatch jobs of one shape bin flush together as one
// homogeneous batch even when other bins hold pending work.
func TestBinnedBatcherHomogeneousFlush(t *testing.T) {
	done := make(chan []int, 4)
	b := newBatcher(BatcherConfig{MaxBatch: 8, FlushInterval: time.Hour, QueueCap: 64, Workers: 1}, &Metrics{},
		4, func(j int) int { return j % 4 },
		func() func([]int) {
			return func(batch []int) { done <- append([]int(nil), batch...) }
		})
	defer b.Close()
	// Three stragglers in other bins, then a full bin-2 load.
	for _, j := range []int{1, 3, 5} {
		if err := b.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := b.Submit(2 + 4*i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case batch := <-done:
		if len(batch) != 8 {
			t.Fatalf("batch size %d, want 8", len(batch))
		}
		for _, j := range batch {
			if j%4 != 2 {
				t.Fatalf("bin-2 batch contains job %d from bin %d", j, j%4)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("full bin did not flush")
	}
	if len(done) != 0 {
		t.Fatal("stragglers flushed without a trigger")
	}
}

// TestBinnedBatcherDeadlineFlushAll proves the deadline trigger drains
// every bin, concatenated in bin order: no job waits longer than one
// FlushInterval just because its bin is cold. The interval is wide so the
// five submits land inside it even when a loaded box preempts the
// submitting goroutine.
func TestBinnedBatcherDeadlineFlushAll(t *testing.T) {
	done := make(chan []int, 4)
	b := newBatcher(BatcherConfig{MaxBatch: 64, FlushInterval: 50 * time.Millisecond, QueueCap: 64, Workers: 1}, &Metrics{},
		4, func(j int) int { return j % 4 },
		func() func([]int) {
			return func(batch []int) { done <- append([]int(nil), batch...) }
		})
	defer b.Close()
	for _, j := range []int{3, 0, 2, 1, 7} { // bins 3,0,2,1,3
		if err := b.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case batch := <-done:
		want := []int{0, 1, 2, 3, 7} // bin order 0,1,2,3 with 3 and 7 adjacent
		if len(batch) != len(want) {
			t.Fatalf("batch %v, want %v", batch, want)
		}
		for i := range want {
			if batch[i] != want[i] {
				t.Fatalf("batch %v not in bin order, want %v", batch, want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline did not flush the bins")
	}
}

// TestBinnedBatcherMixedRace hammers the binned collector from many
// producers with jobs spread across every bin while draining through
// several workers — the mixed-bin scheduling race test (run under
// -race via make race). Every submitted job must come out exactly once.
func TestBinnedBatcherMixedRace(t *testing.T) {
	const producers, perProducer, bins = 8, 200, 16
	var got [producers * perProducer]atomic.Int32
	var processed atomic.Int64
	b := newBatcher(BatcherConfig{MaxBatch: 16, FlushInterval: 100 * time.Microsecond, QueueCap: 4096, Workers: 4}, &Metrics{},
		bins, func(j int) int { return j % bins },
		func() func([]int) {
			return func(batch []int) {
				for _, j := range batch {
					got[j].Add(1)
					processed.Add(1)
				}
			}
		})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				j := p*perProducer + i
				for {
					err := b.Submit(j)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("Submit(%d): %v", j, err)
						return
					}
					time.Sleep(10 * time.Microsecond)
				}
				_ = b.QueueDepth() // concurrent depth reads race with the collector
			}
		}(p)
	}
	wg.Wait()
	b.Close()
	if processed.Load() != producers*perProducer {
		t.Fatalf("processed %d jobs, want %d", processed.Load(), producers*perProducer)
	}
	for j := range got {
		if n := got[j].Load(); n != 1 {
			t.Fatalf("job %d processed %d times", j, n)
		}
	}
}

// TestBinnedBatcherOpportunistic proves the opportunistic binned
// collector flushes immediately (no deadline wait) and still bin-sorts
// what it drained.
func TestBinnedBatcherOpportunistic(t *testing.T) {
	done := make(chan []int, 4)
	b := newBatcher(BatcherConfig{MaxBatch: 64, FlushInterval: FlushOpportunistic, QueueCap: 64, Workers: 1}, &Metrics{},
		4, func(j int) int { return j % 4 },
		func() func([]int) {
			return func(batch []int) { done <- append([]int(nil), batch...) }
		})
	defer b.Close()
	if err := b.Submit(1); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-done:
		if len(batch) != 1 || batch[0] != 1 {
			t.Fatalf("batch %v, want [1]", batch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("opportunistic binned collector never flushed a lone job")
	}
}
