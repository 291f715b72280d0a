package obs

import (
	"container/heap"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Journeys and the retention verdict. Every recorded request writes its
// spans into its own reusable journey buffer — the only place a span is
// ever written — and one verdict at completion decides whether a copy is
// kept. Its rules:
//
//   - sampled: the request was the 1-in-SampleEvery head pick, a
//     statistical baseline;
//   - latency-budget: it breached the tail latency budget;
//   - status: it failed (413/429/500/503/504);
//   - event: it crossed a flagged lifecycle event (an index reload in
//     flight) — the rare, cross-cutting requests 1/N sampling misses;
//   - slow: it is among the SlowK slowest requests so far. Every request
//     competes; one without a journey buffer keeps its root span alone,
//     so the slow top-K holds the K slowest regardless of sampling.
//
// Kept journeys are immutable copies held in one store of Tail.Keep
// journeys plus the slow top-K; a journey kept by several rules names
// them all and is held once. A full store makes room by evicting its
// oldest journey kept only as sampled, or else its oldest journey — but a
// journey kept only as sampled never evicts one a tail rule kept: it is
// then not stored. The store and the slow top-K back /debug/journeys,
// /debug/traces and the flight-recorder dumps.
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
	// EvReloadOverlap: the request overlapped a reference-index reload
	// (generation swap observed mid-request, or a reload was in flight).
	EvReloadOverlap Event = 1 << iota
)

// eventNames names the events in bit order, one per Event constant.
var eventNames = [...]string{"reload-overlap"}

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

// rule is one verdict rule; a kept journey carries the set that kept it.
type rule uint8

const (
	ruleSampled rule = 1 << iota
	ruleBudget
	ruleStatus
	ruleEvent
	ruleSlow
)

// ruleNames names the rules in bit order, as JourneyData.Verdict lists them.
var ruleNames = [...]string{"sampled", "latency-budget", "status", "event", "slow"}

func (r rule) names() []string {
	var out []string
	for i, name := range ruleNames {
		if r&(1<<i) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// TailConfig tunes tail-based retention (Config.Tail), the journey
// buffers and the kept-journey store.
type TailConfig struct {
	// Enabled turns tail retention on: every request gets a journey buffer
	// (otherwise only head picks do) and a completion verdict.
	Enabled bool
	// Budget is the per-request latency budget; a request slower than
	// this is kept regardless of status or events (default 100ms).
	Budget time.Duration
	// MaxSpans is each journey buffer's span capacity; spans beyond it
	// are dropped and counted (default 256).
	MaxSpans int
	// Keep bounds the kept-journey store (default 256); the slow top-K is
	// held beside it.
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
	t        *Tracer
	id       uint64
	head     bool          // the request is the head-sampling pick
	n        atomic.Int32  // claimed slots (may exceed len(slots) under overflow)
	events   atomic.Uint32 // Event bit set
	detached atomic.Bool   // in-flight writers at completion: do not recycle
	slots    []jslot
}

// record claims a slot and publishes one span. Zero-allocation.
func (j *journey) record(sd SpanData) {
	i := int(j.n.Add(1)) - 1
	if i >= len(j.slots) {
		j.t.spanDrops.Add(1)
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

// spans copies the published spans, start-ordered.
func (j *journey) spans() []SpanData {
	n := min(int(j.n.Load()), len(j.slots))
	out := make([]SpanData, 0, n)
	for i := 0; i < n; i++ {
		if j.slots[i].ok.Load() { // acquire: pairs with record's release store
			out = append(out, j.slots[i].sd)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// recycle returns a buffer with no in-flight writers to the pool.
func (j *journey) recycle() {
	if j.detached.Load() {
		return
	}
	n := min(int(j.n.Load()), len(j.slots))
	for i := 0; i < n; i++ {
		j.slots[i].ok.Store(false)
		j.slots[i].sd = SpanData{}
	}
	j.n.Store(0)
	j.events.Store(0)
	j.id, j.head = 0, false
	j.t.pool.Put(j)
}

// JourneyData is one kept journey: the request verdict plus a copy of
// every span the request recorded, start-ordered (the root span alone
// for a request kept only as slow without a journey buffer).
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

	rules   rule // Verdict as a bit set
	inStore bool // held by the store (guarded by Tracer.mu)
}

// RequestDone closes one request: it records the root span (v1 = the
// request's job count, v2 its HTTP status), runs the verdict, keeps a
// copy when any rule holds, and recycles the journey buffer.
func (t *Tracer) RequestDone(ref Ref, id uint64, start time.Time, dur time.Duration, v1, v2 int64) {
	if t == nil {
		return
	}
	root := SpanData{Trace: id, Kind: KindRequest, Start: int64(start.Sub(t.epoch)), Dur: int64(dur), V1: v1, V2: v2}
	var rules rule
	var events Event
	j := ref.j
	if j != nil {
		j.record(root)
		events = Event(j.events.Load())
		if j.head {
			rules |= ruleSampled
		}
		if dur > t.cfg.Tail.Budget {
			rules |= ruleBudget
		}
		switch v2 {
		case 413, 429, 500, 503, 504:
			rules |= ruleStatus
		}
		if events != 0 {
			rules |= ruleEvent
		}
	}
	// The slow rule is settled under the lock; this read only skips the
	// copy for the requests that cannot enter the top-K.
	maybeSlow := root.Dur > t.slowMin.Load()
	if rules != 0 || maybeSlow {
		jd := &JourneyData{
			Trace: id, TraceID: FormatID(id),
			Start: root.Start, Dur: root.Dur, Jobs: v1, Status: v2,
			Events: events.Names(), rules: rules,
		}
		if j != nil {
			jd.Spans = j.spans()
		} else {
			jd.Spans = []SpanData{root}
		}
		t.keep(jd, maybeSlow)
	}
	if j != nil {
		j.recycle()
	}
}

// keep retains jd when a rule still holds for it: the slow top-K first,
// then the store. jd is unreachable to readers until the lock drops, so
// its verdict is final here.
func (t *Tracer) keep(jd *JourneyData, maybeSlow bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if maybeSlow && (len(t.slow) < t.cfg.SlowK || jd.Dur > t.slow[0].Dur) {
		jd.rules |= ruleSlow
		if len(t.slow) < t.cfg.SlowK {
			heap.Push(&t.slow, jd)
		} else {
			t.slow[0] = jd
			heap.Fix(&t.slow, 0)
		}
		if len(t.slow) == t.cfg.SlowK {
			t.slowMin.Store(t.slow[0].Dur)
		}
	}
	stored := jd.rules&^ruleSlow != 0 && t.storeJourney(jd)
	if !stored && jd.rules&ruleSlow == 0 {
		return
	}
	jd.Verdict = jd.rules.names()
	t.kept.Add(1)
	t.spans.Add(int64(len(jd.Spans)))
}

// storeJourney adds jd to the store, evicting when it is full (in the
// order described above), and reports whether jd was stored.
func (t *Tracer) storeJourney(jd *JourneyData) bool {
	if len(t.store) == t.cfg.Tail.Keep {
		victim := slices.IndexFunc(t.store, sampledOnly)
		if victim < 0 {
			if sampledOnly(jd) {
				return false
			}
			victim = 0
		}
		t.store[victim].inStore = false
		t.store = slices.Delete(t.store, victim, victim+1)
	}
	jd.inStore = true
	t.store = append(t.store, jd)
	return true
}

func sampledOnly(jd *JourneyData) bool { return jd.rules&^ruleSlow == ruleSampled }

// retained lists every kept journey once: the store, oldest first, then
// the slow entries it does not hold. Callers hold t.mu.
func (t *Tracer) retained() []*JourneyData {
	out := append([]*JourneyData(nil), t.store...)
	for _, jd := range t.slow {
		if !jd.inStore {
			out = append(out, jd)
		}
	}
	return out
}

// slowHeap is the slow top-K: a min-heap by duration, so its root is the
// entry a slower request replaces.
type slowHeap []*JourneyData

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(a, b int) bool { return h[a].Dur < h[b].Dur }
func (h slowHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(*JourneyData)) }
func (h *slowHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TailEnabled reports whether tail retention is on.
func (t *Tracer) TailEnabled() bool { return t != nil && t.cfg.Tail.Enabled }

// TailBudget returns the tail latency budget (0 when tail is off).
func (t *Tracer) TailBudget() time.Duration {
	if !t.TailEnabled() {
		return 0
	}
	return t.cfg.Tail.Budget
}

// Journeys returns every retained journey, newest first.
func (t *Tracer) Journeys() []JourneyData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	kept := t.retained()
	out := make([]JourneyData, len(kept))
	for i, jd := range kept {
		out[i] = *jd
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start > out[b].Start })
	return out
}

// Journey returns the newest retained journey of one trace id, so a
// client that retries under the same request id sees its latest attempt.
func (t *Tracer) Journey(id uint64) (JourneyData, bool) {
	if t == nil {
		return JourneyData{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var newest *JourneyData
	for _, jd := range t.retained() {
		if jd.Trace == id && (newest == nil || jd.Start >= newest.Start) {
			newest = jd
		}
	}
	if newest == nil {
		return JourneyData{}, false
	}
	return *newest, true
}

// Snapshot returns the spans of every retained journey, start-ordered.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	var out []SpanData
	t.mu.Lock()
	for _, jd := range t.retained() {
		out = append(out, jd.Spans...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// SlowSnapshot returns the root spans of the slow top-K, slowest first.
func (t *Tracer) SlowSnapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanData, len(t.slow))
	for i, jd := range t.slow {
		out[i] = SpanData{Trace: jd.Trace, Kind: KindRequest, Start: jd.Start, Dur: jd.Dur, V1: jd.Jobs, V2: jd.Status}
	}
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Dur > out[b].Dur })
	return out
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
	case KindKernel:
		return stageKernel, true
	case KindCheck:
		return stageCheck, true
	case KindRerun:
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
