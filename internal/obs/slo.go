package obs

import (
	"sync"
	"time"
)

// SLO burn-rate engine. Objectives declare a target good/total ratio and
// a source reading the cumulative counters (derived from the serving
// stack's existing atomic counters and pow2 histograms — no new
// hot-path accounting). A sampler snapshots every objective's (good,
// total) on a cadence; burn rates are then computed over multiple
// trailing windows as
//
//	burn(w) = badRate(w) / (1 - target)
//
// so burn == 1 means the error budget is being consumed exactly at the
// sustainable rate. Alerting follows the standard multi-window
// multi-burn-rate recipe: a fast page when both the 5m and 1h windows
// burn above 14.4 (budget gone in ~2 days), a slow ticket when both the
// 30m and 6h windows burn above 6 (budget gone in ~5 days). Requiring
// the short AND long window to agree makes alerts fire fast on real
// regressions yet reset quickly once the cause clears.

// Objective is one declared service-level objective.
type Objective struct {
	// Name labels the objective in metrics and JSON (e.g.
	// "extend-latency-p99").
	Name string
	// Help describes the objective for humans.
	Help string
	// Target is the good/total fraction the objective promises
	// (e.g. 0.999).
	Target float64
	// Source reads the cumulative good and total event counts. Both must
	// be monotone non-decreasing; good <= total.
	Source func() (good, total int64)
}

// SLOConfig tunes the engine.
type SLOConfig struct {
	// Interval is the background sampling cadence (default 10s; <0
	// disables the background sampler — callers then drive Tick).
	Interval time.Duration
	// MinGap is the minimum spacing between retained samples, protecting
	// the ring from high-frequency on-demand ticks (default Interval/2).
	MinGap time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Burn windows: 5m/1h gate the fast (page) alert, 30m/6h the slow
// (ticket) alert.
var sloWindows = []struct {
	name string
	d    time.Duration
}{
	{"5m", 5 * time.Minute},
	{"30m", 30 * time.Minute},
	{"1h", time.Hour},
	{"6h", 6 * time.Hour},
}

const (
	fastBurnThreshold = 14.4
	slowBurnThreshold = 6.0
	sloRetain         = 6*time.Hour + 10*time.Minute
	sloMaxSamples     = 8192
)

type sloSample struct {
	t           time.Time
	good, total int64
}

// SLO evaluates declared objectives over multi-window burn rates.
type SLO struct {
	cfg  SLOConfig
	objs []Objective

	mu      sync.Mutex
	samples [][]sloSample // per objective, time-ordered
	last    time.Time

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewSLO builds the engine and records the t0 baseline sample. Start
// launches the background sampler; Tick records one sample on demand.
func NewSLO(cfg SLOConfig, objs ...Objective) *SLO {
	if cfg.Interval == 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.MinGap <= 0 {
		cfg.MinGap = cfg.Interval / 2
		if cfg.MinGap <= 0 {
			cfg.MinGap = time.Second
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &SLO{
		cfg:     cfg,
		objs:    objs,
		samples: make([][]sloSample, len(objs)),
		stop:    make(chan struct{}),
	}
	s.tickLocked(s.cfg.Now(), true)
	return s
}

// Start launches the background sampler (no-op when Interval < 0).
func (s *SLO) Start() {
	if s == nil || s.cfg.Interval < 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(s.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.Tick()
			case <-s.stop:
				return
			}
		}
	}()
}

// Close stops the background sampler.
func (s *SLO) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Tick records one sample per objective (skipped when the last retained
// sample is younger than MinGap). Safe from any goroutine.
func (s *SLO) Tick() {
	if s == nil {
		return
	}
	s.tickLocked(s.cfg.Now(), false)
}

func (s *SLO) tickLocked(now time.Time, force bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !force && now.Sub(s.last) < s.cfg.MinGap {
		return
	}
	s.last = now
	for i, o := range s.objs {
		good, total := o.Source()
		s.samples[i] = append(s.samples[i], sloSample{t: now, good: good, total: total})
		// Evict beyond the longest window (+slack) and hard-cap.
		cut := 0
		for cut < len(s.samples[i])-1 && now.Sub(s.samples[i][cut].t) > sloRetain {
			cut++
		}
		if over := len(s.samples[i]) - sloMaxSamples; over > cut {
			cut = over
		}
		if cut > 0 {
			s.samples[i] = append(s.samples[i][:0], s.samples[i][cut:]...)
		}
	}
}

// WindowBurn is one trailing window's burn evaluation.
type WindowBurn struct {
	Window  string  `json:"window"`
	Seconds float64 `json:"seconds"` // actual span covered (may be < window early in life)
	BadRate float64 `json:"bad_rate"`
	Burn    float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's full evaluation.
type ObjectiveStatus struct {
	Name     string       `json:"name"`
	Help     string       `json:"help,omitempty"`
	Target   float64      `json:"target"`
	Good     int64        `json:"good"`
	Total    int64        `json:"total"`
	Windows  []WindowBurn `json:"windows"`
	FastBurn bool         `json:"fast_burn"`
	SlowBurn bool         `json:"slow_burn"`
}

// SLOSnapshot is the engine's full state for /debug/slo and the flight
// recorder.
type SLOSnapshot struct {
	Objectives []ObjectiveStatus `json:"objectives"`
	FastBurn   bool              `json:"fast_burn"`
	Degraded   bool              `json:"degraded"` // any fast or slow alert active
}

// Snapshot evaluates every objective over the burn windows.
func (s *SLO) Snapshot() SLOSnapshot {
	var snap SLOSnapshot
	if s == nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.last
	for i, o := range s.objs {
		ss := s.samples[i]
		st := ObjectiveStatus{Name: o.Name, Help: o.Help, Target: o.Target}
		if n := len(ss); n > 0 {
			st.Good, st.Total = ss[n-1].good, ss[n-1].total
		}
		burns := map[string]float64{}
		for _, w := range sloWindows {
			wb := burnOver(ss, now, w.d, o.Target)
			wb.Window = w.name
			st.Windows = append(st.Windows, wb)
			burns[w.name] = wb.Burn
		}
		st.FastBurn = burns["5m"] >= fastBurnThreshold && burns["1h"] >= fastBurnThreshold
		st.SlowBurn = burns["30m"] >= slowBurnThreshold && burns["6h"] >= slowBurnThreshold
		snap.FastBurn = snap.FastBurn || st.FastBurn
		snap.Degraded = snap.Degraded || st.FastBurn || st.SlowBurn
		snap.Objectives = append(snap.Objectives, st)
	}
	return snap
}

// burnOver computes one window's burn rate from the sample ring: the
// delta between the newest sample and the oldest sample still inside the
// window. With fewer than two samples (or no traffic in the window) the
// burn is zero.
func burnOver(ss []sloSample, now time.Time, w time.Duration, target float64) WindowBurn {
	var wb WindowBurn
	if len(ss) < 2 {
		return wb
	}
	newest := ss[len(ss)-1]
	oldest := ss[0]
	for _, smp := range ss {
		if now.Sub(smp.t) <= w {
			oldest = smp
			break
		}
	}
	span := newest.t.Sub(oldest.t)
	if span <= 0 {
		return wb
	}
	wb.Seconds = span.Seconds()
	dTotal := newest.total - oldest.total
	dGood := newest.good - oldest.good
	if dTotal <= 0 {
		return wb
	}
	bad := float64(dTotal-dGood) / float64(dTotal)
	if bad < 0 {
		bad = 0
	}
	wb.BadRate = bad
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9
	}
	wb.Burn = bad / budget
	return wb
}
