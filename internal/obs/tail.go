package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tail-based trace retention. Head sampling (Config.SampleEvery) keeps a
// statistical baseline, but 1/N sampling misses exactly the rare,
// cross-cutting events that matter operationally: a work steal, a
// failover reroute, an index reload in flight, a breaker trip. Tail
// retention closes that gap: every request records its spans into a
// reusable per-request journey buffer, and a verdict at completion keeps
// the full journey when the request breached its latency budget, failed
// (429/500/503/504/413), or crossed one of the flagged lifecycle events. Kept journeys land in a bounded ring for
// /debug/journeys, flight-recorder dumps, and stitched timeline views.
//
// The hot path stays zero-allocation: journey buffers come from a
// sync.Pool checked out on the handler goroutine at admission; workers
// record by claiming a slot index with one atomic add and storing plain
// fields, publishing each slot with an atomic release flag. Buffers are
// recycled only when the handler observed every job's delivery (the
// pending-done close gives happens-before); requests that time out with
// jobs still in flight detach the buffer to the garbage collector so a
// straggler write can never corrupt a reused buffer.

// Event flags the tail-relevant lifecycle events a request can cross.
// Any marked event makes the verdict keep the journey.
type Event uint32

const (
	// EvSteal: a batch carrying one of the request's jobs executed on a
	// thief shard (work stealing).
	EvSteal Event = 1 << iota
	// EvReroute: admission failed over from the picked shard to a peer.
	EvReroute
	// EvReloadOverlap: the request overlapped a reference-index reload
	// (generation swap observed mid-request, or a reload was in flight).
	EvReloadOverlap
	// EvFault: a device fault, retry exhaustion, or open breaker forced
	// host-side containment for one of the request's batches.
	EvFault
)

// eventNames names the events in bit order, one per Event constant.
var eventNames = [...]string{"steal", "reroute", "reload-overlap", "fault"}

const numEvents = len(eventNames)

// Names expands the event bit set for exports.
func (e Event) Names() []string {
	if e == 0 {
		return nil
	}
	var out []string
	for i := 0; i < numEvents; i++ {
		if e&(1<<i) != 0 {
			out = append(out, eventNames[i])
		}
	}
	return out
}

// TailConfig tunes tail-based retention (Config.Tail).
type TailConfig struct {
	// Enabled turns tail retention on: every request gets a journey
	// buffer and a completion verdict.
	Enabled bool
	// Budget is the per-request latency budget; a request slower than
	// this is kept regardless of status or events (default 100ms).
	Budget time.Duration
	// MaxSpans is each journey buffer's span capacity; spans beyond it
	// are dropped and counted (default 256).
	MaxSpans int
	// Keep is the capacity of the kept-journeys ring (default 256).
	Keep int
}

func (c TailConfig) withDefaults() TailConfig {
	if c.Budget <= 0 {
		c.Budget = 100 * time.Millisecond
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 256
	}
	if c.Keep <= 0 {
		c.Keep = 256
	}
	return c
}

// jslot is one journey buffer slot: plain span fields published by an
// atomic release flag, so a verdict copy racing a straggler writer reads
// only fully-written slots.
type jslot struct {
	sd SpanData
	ok atomic.Bool
}

// journey is one request's reusable span buffer.
type journey struct {
	id       uint64
	n        atomic.Int32  // claimed slots (may exceed len(slots) under overflow)
	events   atomic.Uint32 // Event bit set
	detached atomic.Bool   // in-flight writers at completion: do not recycle
	slots    []jslot
}

// record claims a slot and publishes one span. Zero-allocation.
func (j *journey) record(t *Tracer, sd SpanData) {
	i := int(j.n.Add(1)) - 1
	if i >= len(j.slots) {
		t.tail.spanDrops.Add(1)
		return
	}
	j.slots[i].sd = sd
	j.slots[i].ok.Store(true)
}

// mark sets event bits with a CAS loop (atomic Or needs go1.23+ and the
// module pins go1.22). Zero-allocation.
func (j *journey) mark(e Event) {
	for {
		old := j.events.Load()
		if old&uint32(e) == uint32(e) {
			return
		}
		if j.events.CompareAndSwap(old, old|uint32(e)) {
			return
		}
	}
}

// reset prepares a recycled buffer for the next checkout. Only called on
// buffers with no in-flight writers (not detached).
func (j *journey) reset() {
	n := int(j.n.Load())
	if n > len(j.slots) {
		n = len(j.slots)
	}
	for i := 0; i < n; i++ {
		j.slots[i].ok.Store(false)
		j.slots[i].sd = SpanData{}
	}
	j.n.Store(0)
	j.events.Store(0)
	j.detached.Store(false)
	j.id = 0
}

// JourneyData is one kept journey: the request verdict plus a copy of
// every span the request recorded, start-ordered.
type JourneyData struct {
	Trace   uint64     `json:"-"`
	TraceID string     `json:"trace"`
	Start   int64      `json:"start_ns"` // ns since tracer epoch
	Dur     int64      `json:"dur_ns"`
	Jobs    int64      `json:"jobs"`
	Status  int64      `json:"status"`
	Events  []string   `json:"events,omitempty"`
	Verdict []string   `json:"verdict"`
	Spans   []SpanData `json:"spans"`
}

// tailState is the tracer's tail-retention machinery.
type tailState struct {
	cfg  TailConfig
	pool sync.Pool

	started   atomic.Int64 // journeys checked out
	kept      atomic.Int64 // journeys retained by the verdict
	spanDrops atomic.Int64 // spans dropped on full journey buffers

	mu   sync.Mutex
	ring []JourneyData // kept journeys, ring of cfg.Keep
	pos  int
}

func newTailState(cfg TailConfig) *tailState {
	ts := &tailState{cfg: cfg.withDefaults()}
	ts.pool.New = func() any {
		return &journey{slots: make([]jslot, ts.cfg.MaxSpans)}
	}
	return ts
}

// checkout hands a journey buffer to one request. Runs on the handler
// goroutine at admission; a pool miss allocates there, never on the
// batch-worker hot path.
func (ts *tailState) checkout(id uint64) *journey {
	j := ts.pool.Get().(*journey)
	j.id = id
	ts.started.Add(1)
	return j
}

// finish runs the retention verdict for one completed request and either
// keeps the journey (copying its published spans) or recycles the
// buffer. start is the root span's offset from the tracer epoch.
func (ts *tailState) finish(j *journey, start time.Duration, dur time.Duration, jobs, status int64) {
	events := Event(j.events.Load())
	var verdict []string
	if dur > ts.cfg.Budget {
		verdict = append(verdict, "latency-budget")
	}
	switch status {
	case 413, 429, 500, 503, 504:
		verdict = append(verdict, "status")
	}
	if events != 0 {
		verdict = append(verdict, "event")
	}
	if len(verdict) == 0 {
		if !j.detached.Load() {
			j.reset()
			ts.pool.Put(j)
		}
		return
	}

	n := int(j.n.Load())
	if n > len(j.slots) {
		n = len(j.slots)
	}
	spans := make([]SpanData, 0, n)
	for i := 0; i < n; i++ {
		if j.slots[i].ok.Load() { // acquire: pairs with record's release store
			spans = append(spans, j.slots[i].sd)
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	jd := JourneyData{
		Trace:   j.id,
		TraceID: FormatID(j.id),
		Start:   int64(start),
		Dur:     int64(dur),
		Jobs:    jobs,
		Status:  status,
		Events:  events.Names(),
		Verdict: verdict,
		Spans:   spans,
	}
	ts.kept.Add(1)
	ts.mu.Lock()
	if len(ts.ring) < ts.cfg.Keep {
		ts.ring = append(ts.ring, jd)
	} else {
		ts.ring[ts.pos] = jd
	}
	ts.pos = (ts.pos + 1) % ts.cfg.Keep
	ts.mu.Unlock()

	if !j.detached.Load() {
		j.reset()
		ts.pool.Put(j)
	}
}

func (ts *tailState) retainedLen() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.ring)
}

// snapshot copies the kept journeys, newest first.
func (ts *tailState) snapshot() []JourneyData {
	ts.mu.Lock()
	out := append([]JourneyData(nil), ts.ring...)
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start > out[j].Start })
	return out
}

// TailEnabled reports whether tail retention is on.
func (t *Tracer) TailEnabled() bool { return t != nil && t.tail != nil }

// TailBudget returns the tail latency budget (0 when tail is off).
func (t *Tracer) TailBudget() time.Duration {
	if t == nil || t.tail == nil {
		return 0
	}
	return t.tail.cfg.Budget
}

// Journeys returns the kept journeys, newest first (nil when tail
// retention is off).
func (t *Tracer) Journeys() []JourneyData {
	if t == nil || t.tail == nil {
		return nil
	}
	return t.tail.snapshot()
}

// Journey returns the kept journey for one trace id, if retained.
func (t *Tracer) Journey(id uint64) (JourneyData, bool) {
	if t == nil || t.tail == nil {
		return JourneyData{}, false
	}
	t.tail.mu.Lock()
	defer t.tail.mu.Unlock()
	for i := len(t.tail.ring) - 1; i >= 0; i-- {
		if t.tail.ring[i].Trace == id {
			return t.tail.ring[i], true
		}
	}
	return JourneyData{}, false
}

// Attribution decomposes one request's wall-clock budget across pipeline
// stages. The decomposition is a priority sweep over the journey's spans
// projected onto the root request interval: at every instant the time is
// charged to the deepest active stage (host rerun > check > kernel >
// queue wait > batch wait > admission residue), so the stage durations
// sum exactly to the root duration.
type Attribution struct {
	TotalNs     int64 `json:"total_ns"`
	AdmissionNs int64 `json:"admission_ns"`
	QueueNs     int64 `json:"queue_ns"`
	BatchWaitNs int64 `json:"batch_wait_ns"`
	KernelNs    int64 `json:"kernel_ns"`
	CheckNs     int64 `json:"check_ns"`
	RerunNs     int64 `json:"rerun_ns"`

	AdmissionFrac float64 `json:"admission_frac"`
	QueueFrac     float64 `json:"queue_frac"`
	BatchWaitFrac float64 `json:"batch_wait_frac"`
	KernelFrac    float64 `json:"kernel_frac"`
	CheckFrac     float64 `json:"check_frac"`
	RerunFrac     float64 `json:"rerun_frac"`
}

// stage priority for the attribution sweep (higher wins).
const (
	stageAdmission = iota
	stageBatchWait
	stageQueue
	stageKernel
	stageCheck
	stageRerun
	numStages
)

func stageOf(k Kind) (int, bool) {
	switch k {
	case KindQueueWait:
		return stageQueue, true
	case KindFlush:
		return stageBatchWait, true
	case KindKernel, KindDevice:
		return stageKernel, true
	case KindCheck:
		return stageCheck, true
	case KindRerun, KindRetry:
		return stageRerun, true
	}
	return 0, false
}

// Attribute computes the per-stage budget attribution for one span set
// (typically a kept journey or a /debug/traces?trace= span set). The
// root interval is the KindRequest span when present, else the span
// envelope. Stage durations sum exactly to TotalNs.
func Attribute(spans []SpanData) Attribution {
	var a Attribution
	if len(spans) == 0 {
		return a
	}
	// Root interval.
	var r0, r1 int64
	found := false
	for _, s := range spans {
		if s.Kind == KindRequest {
			r0, r1, found = s.Start, s.Start+s.Dur, true
			break
		}
	}
	if !found {
		r0, r1 = spans[0].Start, spans[0].Start+spans[0].Dur
		for _, s := range spans {
			if s.Start < r0 {
				r0 = s.Start
			}
			if e := s.Start + s.Dur; e > r1 {
				r1 = e
			}
		}
	}
	if r1 <= r0 {
		return a
	}
	a.TotalNs = r1 - r0

	// Sweep events: +1/-1 per stage at clamped span boundaries.
	type edge struct {
		t     int64
		stage int
		d     int
	}
	var edges []edge
	for _, s := range spans {
		st, ok := stageOf(s.Kind)
		if !ok || s.Dur <= 0 {
			continue
		}
		b, e := s.Start, s.Start+s.Dur
		if b < r0 {
			b = r0
		}
		if e > r1 {
			e = r1
		}
		if e <= b {
			continue
		}
		edges = append(edges, edge{b, st, +1}, edge{e, st, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })

	var active [numStages]int
	stageNs := [numStages]int64{}
	cur := r0
	ei := 0
	for cur < r1 {
		next := r1
		if ei < len(edges) {
			// Apply all edges at cur, then advance to the next edge time.
			for ei < len(edges) && edges[ei].t <= cur {
				active[edges[ei].stage] += edges[ei].d
				ei++
			}
			if ei < len(edges) && edges[ei].t < next {
				next = edges[ei].t
			}
		}
		if next <= cur {
			break
		}
		top := stageAdmission
		for s := numStages - 1; s > stageAdmission; s-- {
			if active[s] > 0 {
				top = s
				break
			}
		}
		stageNs[top] += next - cur
		cur = next
	}
	a.AdmissionNs = stageNs[stageAdmission]
	a.BatchWaitNs = stageNs[stageBatchWait]
	a.QueueNs = stageNs[stageQueue]
	a.KernelNs = stageNs[stageKernel]
	a.CheckNs = stageNs[stageCheck]
	a.RerunNs = stageNs[stageRerun]
	tot := float64(a.TotalNs)
	a.AdmissionFrac = float64(a.AdmissionNs) / tot
	a.BatchWaitFrac = float64(a.BatchWaitNs) / tot
	a.QueueFrac = float64(a.QueueNs) / tot
	a.KernelFrac = float64(a.KernelNs) / tot
	a.CheckFrac = float64(a.CheckNs) / tot
	a.RerunFrac = float64(a.RerunNs) / tot
	return a
}
