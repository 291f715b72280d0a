package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives the SLO engine deterministically.
type fakeClock struct{ now atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.now.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}
func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.now.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.now.Add(int64(d)) }

type counterSource struct{ good, total atomic.Int64 }

func (s *counterSource) read() (int64, int64) { return s.good.Load(), s.total.Load() }
func (s *counterSource) add(good, bad int64)  { s.good.Add(good); s.total.Add(good + bad) }

func newTestSLO(target float64, src *counterSource, clk *fakeClock) *SLO {
	return NewSLO(SLOConfig{Interval: -1, MinGap: time.Second, Now: clk.Now},
		Objective{Name: "avail", Target: target, Source: src.read})
}

// TestSLOBurnMath checks the burn-rate arithmetic over an injected
// sample history: bad rate / (1 - target).
func TestSLOBurnMath(t *testing.T) {
	clk := newFakeClock()
	src := &counterSource{}
	s := NewSLO(SLOConfig{Interval: -1, MinGap: time.Second, Now: clk.Now},
		Objective{Name: "avail", Target: 0.999, Source: src.read})

	// 10 minutes of traffic at a 1.5% bad rate: burn = 0.015/0.001 = 15,
	// above the 14.4 fast-page threshold in both gating windows.
	for i := 0; i < 60; i++ {
		clk.advance(10 * time.Second)
		src.add(9850, 150) // per 10s: 10000 events, 150 bad
		s.Tick()
	}
	snap := s.Snapshot()
	if len(snap.Objectives) != 1 {
		t.Fatalf("objectives = %d, want 1", len(snap.Objectives))
	}
	o := snap.Objectives[0]
	var b5m, b1h float64
	for _, w := range o.Windows {
		switch w.Window {
		case "5m":
			b5m = w.Burn
		case "1h":
			b1h = w.Burn
		}
	}
	if b5m < 14.9 || b5m > 15.1 {
		t.Fatalf("5m burn = %g, want ~15", b5m)
	}
	if b1h < 14.9 || b1h > 15.1 {
		t.Fatalf("1h burn = %g, want ~15", b1h)
	}
	if !o.FastBurn || !snap.FastBurn || !snap.Degraded {
		t.Fatalf("fast burn not firing above threshold: %+v", o)
	}
}

// TestSLOHealthyTrafficNoAlert: clean traffic burns nothing.
func TestSLOHealthyTrafficNoAlert(t *testing.T) {
	clk := newFakeClock()
	src := &counterSource{}
	s := newTestSLO(0.999, src, clk)
	for i := 0; i < 60; i++ {
		clk.advance(10 * time.Second)
		src.add(10000, 0)
		s.Tick()
	}
	snap := s.Snapshot()
	o := snap.Objectives[0]
	if o.FastBurn || o.SlowBurn || snap.Degraded {
		t.Fatalf("clean traffic alerted: %+v", o)
	}
	for _, w := range o.Windows {
		if w.Burn != 0 {
			t.Fatalf("window %s burn = %g, want 0", w.Window, w.Burn)
		}
	}
}

// TestSLOBurnRecovers: a past incident ages out of the fast windows
// while still visible in the slow ones.
func TestSLOBurnRecovers(t *testing.T) {
	clk := newFakeClock()
	src := &counterSource{}
	s := newTestSLO(0.99, src, clk)
	// 5 minutes of 100% failure.
	for i := 0; i < 30; i++ {
		clk.advance(10 * time.Second)
		src.add(0, 100)
		s.Tick()
	}
	if !s.Snapshot().Objectives[0].FastBurn {
		t.Fatal("total outage did not trip the fast burn")
	}
	// 20 minutes of clean traffic: the 5m window is now clean.
	for i := 0; i < 120; i++ {
		clk.advance(10 * time.Second)
		src.add(1000, 0)
		s.Tick()
	}
	o := s.Snapshot().Objectives[0]
	if o.FastBurn {
		t.Fatalf("fast burn still firing 20m after recovery: %+v", o.Windows)
	}
	var b30m float64
	for _, w := range o.Windows {
		if w.Window == "30m" {
			b30m = w.Burn
		}
	}
	if b30m <= 0 {
		t.Fatal("30m window forgot the incident too early")
	}
}

// TestSLOMinGap: on-demand ticks inside MinGap do not flood the ring.
func TestSLOMinGap(t *testing.T) {
	clk := newFakeClock()
	src := &counterSource{}
	s := newTestSLO(0.999, src, clk)
	for i := 0; i < 100; i++ {
		clk.advance(time.Millisecond)
		s.Tick()
	}
	s.mu.Lock()
	n := len(s.samples[0])
	s.mu.Unlock()
	if n != 1 { // the t0 baseline only; every tick fell inside MinGap
		t.Fatalf("samples = %d, want 1 (MinGap suppression)", n)
	}
}

// TestSLOSampleEviction bounds the per-objective ring.
func TestSLOSampleEviction(t *testing.T) {
	clk := newFakeClock()
	src := &counterSource{}
	s := newTestSLO(0.999, src, clk)
	// 8 hours of 10s samples: far beyond the 6h10m retention.
	for i := 0; i < 8*360; i++ {
		clk.advance(10 * time.Second)
		src.add(10, 0)
		s.Tick()
	}
	s.mu.Lock()
	n := len(s.samples[0])
	oldest := s.samples[0][0].t
	s.mu.Unlock()
	if n > sloMaxSamples {
		t.Fatalf("samples = %d, exceeds cap %d", n, sloMaxSamples)
	}
	if age := clk.Now().Sub(oldest); age > sloRetain+time.Minute {
		t.Fatalf("oldest sample is %s old, beyond the retention window", age)
	}
}

// TestSLOCollect renders the Prometheus families.
// TestSLOCloseIdempotent: Close is safe twice and on nil.
func TestSLOCloseIdempotent(t *testing.T) {
	var nilSLO *SLO
	nilSLO.Close() // must not panic
	nilSLO.Tick()
	if snap := nilSLO.Snapshot(); len(snap.Objectives) != 0 {
		t.Fatal("nil SLO snapshot not empty")
	}
	s := newTestSLO(0.999, &counterSource{}, newFakeClock())
	s.Start()
	s.Close()
	s.Close()
}
