package obs

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// tailTracer is a tail-only tracer whose one-entry slow top-K is already
// held by a request slower than any a test sends, so only the tail rules
// keep the test's requests. The filler (trace id 0) is itself kept
// by its budget breach; tailKept leaves it out.
func tailTracer(cfg TailConfig) *Tracer {
	cfg.Enabled = true
	tr := New(Config{SlowK: 1, Tail: cfg})
	tr.RequestDone(tr.Sample(0), 0, time.Now(), time.Hour, 0, 200)
	return tr
}

// tailKept is the retained journeys but tailTracer's filler.
func tailKept(tr *Tracer) []JourneyData {
	var out []JourneyData
	for _, jd := range tr.Journeys() {
		if jd.Trace != 0 {
			out = append(out, jd)
		}
	}
	return out
}

// TestTailVerdictLatency keeps a journey only when the request breached
// its budget.
func TestTailVerdictLatency(t *testing.T) {
	tr := tailTracer(TailConfig{Budget: 10 * time.Millisecond})
	base := time.Now()

	// Fast and clean: recycled, not kept.
	ref := tr.Sample(1)
	if !ref.Sampled() {
		t.Fatal("tail-enabled tracer did not sample")
	}
	ref.Span(KindQueueWait, base, time.Millisecond, 1, 0)
	tr.RequestDone(ref, 1, base, 5*time.Millisecond, 1, 200)
	if got := len(tailKept(tr)); got != 0 {
		t.Fatalf("fast clean request retained: %d journeys", got)
	}

	// Slow: kept with the latency-budget verdict.
	ref = tr.Sample(2)
	ref.Span(KindQueueWait, base, time.Millisecond, 1, 0)
	tr.RequestDone(ref, 2, base, 50*time.Millisecond, 1, 200)
	js := tailKept(tr)
	if len(js) != 1 {
		t.Fatalf("slow request journeys = %d, want 1", len(js))
	}
	j := js[0]
	if j.Trace != 2 || j.Status != 200 {
		t.Fatalf("kept journey = %+v", j)
	}
	if len(j.Verdict) != 1 || j.Verdict[0] != "latency-budget" {
		t.Fatalf("verdict = %v, want [latency-budget]", j.Verdict)
	}
	// Root request span + queue wait span both present.
	if len(j.Spans) != 2 {
		t.Fatalf("journey spans = %d, want 2 (queue_wait + request)", len(j.Spans))
	}
}

// TestTailVerdictStatus keeps journeys for failure statuses only.
func TestTailVerdictStatus(t *testing.T) {
	tr := tailTracer(TailConfig{Budget: time.Hour})
	base := time.Now()
	cases := []struct {
		status int64
		keep   bool
	}{
		{200, false}, {400, false}, {413, true}, {429, true},
		{500, true}, {503, true}, {504, true},
	}
	var want int
	for i, c := range cases {
		ref := tr.Sample(uint64(100 + i))
		tr.RequestDone(ref, uint64(100+i), base, time.Millisecond, 1, c.status)
		if c.keep {
			want++
		}
	}
	if got := len(tailKept(tr)); got != want {
		t.Fatalf("retained %d journeys, want %d", got, want)
	}
	for _, j := range tailKept(tr) {
		if len(j.Verdict) != 1 || j.Verdict[0] != "status" {
			t.Fatalf("verdict = %v for status %d, want [status]", j.Verdict, j.Status)
		}
	}
}

// TestTailVerdictEvents keeps any journey with a marked lifecycle event
// and names the events in the kept record.
func TestTailVerdictEvents(t *testing.T) {
	tr := tailTracer(TailConfig{Budget: time.Hour})
	base := time.Now()
	ref := tr.Sample(7)
	ref.Mark(EvReloadOverlap)
	ref.Mark(EvReloadOverlap) // idempotent
	tr.RequestDone(ref, 7, base, time.Millisecond, 1, 200)
	js := tailKept(tr)
	if len(js) != 1 {
		t.Fatalf("journeys = %d, want 1", len(js))
	}
	j := js[0]
	if len(j.Verdict) != 1 || j.Verdict[0] != "event" {
		t.Fatalf("verdict = %v, want [event]", j.Verdict)
	}
	if len(j.Events) != 1 || j.Events[0] != "reload-overlap" {
		t.Fatalf("events = %v, want [reload-overlap]", j.Events)
	}
}

// TestEventNames covers the bit-set expansion, and that the names cover
// exactly the Event constants.
func TestEventNames(t *testing.T) {
	if names := Event(0).Names(); names != nil {
		t.Fatalf("zero event names = %v, want nil", names)
	}
	if Event(1)<<numEvents != EvReloadOverlap<<1 {
		t.Fatalf("%d event names for the bits up to EvReloadOverlap = %#x", numEvents, EvReloadOverlap)
	}
	names := EvReloadOverlap.Names()
	want := []string{"reload-overlap"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

// TestTailSpanOverflow drops spans beyond MaxSpans and counts the drops
// instead of growing or corrupting the buffer.
func TestTailSpanOverflow(t *testing.T) {
	tr := tailTracer(TailConfig{Budget: time.Nanosecond, MaxSpans: 4})
	base := time.Now()
	ref := tr.Sample(9)
	for i := 0; i < 10; i++ {
		ref.Span(KindQueueWait, base, time.Millisecond, int64(i), 0)
	}
	tr.RequestDone(ref, 9, base, time.Second, 1, 200)
	js := tailKept(tr)
	if len(js) != 1 {
		t.Fatalf("journeys = %d, want 1", len(js))
	}
	// 4 slots: 3 queue waits survive alongside nothing else (the root
	// request span claimed a slot too late — all 4 were taken), or the
	// first 4 queue waits; either way exactly MaxSpans retained.
	if len(js[0].Spans) != 4 {
		t.Fatalf("retained spans = %d, want 4 (MaxSpans)", len(js[0].Spans))
	}
	st := tr.TraceStats()
	if st.TailSpanDrops != 7 { // 10 queue waits + 1 request span - 4 slots
		t.Fatalf("span drops = %d, want 7", st.TailSpanDrops)
	}
}

// TestTailRingEviction bounds the kept store at Keep journeys. Each
// request is the slowest yet, so the one-entry slow top-K always holds
// the newest, which the store holds too.
func TestTailRingEviction(t *testing.T) {
	tr := New(Config{SlowK: 1, Tail: TailConfig{Enabled: true, Budget: time.Nanosecond, Keep: 3}})
	base := time.Now()
	for i := 0; i < 10; i++ {
		id := uint64(1000 + i)
		ref := tr.Sample(id)
		tr.RequestDone(ref, id, base.Add(time.Duration(i)*time.Millisecond), time.Second+time.Duration(i), 1, 200)
	}
	js := tr.Journeys()
	if len(js) != 3 {
		t.Fatalf("retained = %d, want 3", len(js))
	}
	// Newest first, and only the newest three survive.
	for i, j := range js {
		if want := uint64(1000 + 9 - i); j.Trace != want {
			t.Fatalf("journeys[%d].Trace = %d, want %d", i, j.Trace, want)
		}
	}
	if st := tr.TraceStats(); st.TailKept != 10 || st.TailRetained != 3 {
		t.Fatalf("stats kept=%d retained=%d, want 10/3", st.TailKept, st.TailRetained)
	}
}

// TestTailDetachedNotRecycled: a detached journey is still verdicted and
// kept, but its buffer never returns to the pool (a fresh checkout gets
// a different buffer).
func TestTailDetachedNotRecycled(t *testing.T) {
	tr := tailTracer(TailConfig{Budget: time.Nanosecond})
	base := time.Now()
	ref := tr.Sample(11)
	leaked := ref.j
	ref.Detach()
	tr.RequestDone(ref, 11, base, time.Second, 1, 504)
	if len(tailKept(tr)) != 1 {
		t.Fatal("detached journey was not retained")
	}
	// The pool must not hand the detached buffer back.
	for i := 0; i < 8; i++ {
		next := tr.Sample(uint64(20 + i))
		if next.j == leaked {
			t.Fatal("detached journey buffer was recycled")
		}
	}
	// A straggler write on the detached buffer must not appear anywhere.
	leaked.record(SpanData{Trace: 11, Kind: KindKernel})
}

// TestTailJourneyLookup finds one retained journey by trace id.
func TestTailJourneyLookup(t *testing.T) {
	tr := tailTracer(TailConfig{Budget: time.Nanosecond})
	base := time.Now()
	for i := 0; i < 3; i++ {
		id := uint64(50 + i)
		ref := tr.Sample(id)
		tr.RequestDone(ref, id, base, time.Second, 1, 200)
	}
	jd, ok := tr.Journey(51)
	if !ok || jd.Trace != 51 {
		t.Fatalf("Journey(51) = %+v, %v", jd, ok)
	}
	if _, ok := tr.Journey(999); ok {
		t.Fatal("Journey(999) found a journey that was never retained")
	}
}

// TestTailWithHeadSampling: under tail retention every request gets a
// journey, and the head picks among them carry the sampled rule.
func TestTailWithHeadSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 2, Tail: TailConfig{Enabled: true, Budget: time.Nanosecond}})
	base := time.Now()
	for i := 0; i < 4; i++ {
		id := uint64(70 + i)
		ref := tr.Sample(id)
		if !ref.Sampled() {
			t.Fatalf("request %d not sampled with tail on", i)
		}
		ref.Span(KindQueueWait, base, time.Millisecond, 1, 0)
		tr.RequestDone(ref, id, base, time.Second, 1, 200)
	}
	js := tr.Journeys()
	if len(js) != 4 {
		t.Fatalf("journeys = %d, want 4 (every request)", len(js))
	}
	if st := tr.TraceStats(); st.SampledTotal != 2 {
		t.Fatalf("head-sampled = %d, want 2 (1 in 2)", st.SampledTotal)
	}
	sampled := 0
	for _, jd := range js {
		if len(jd.Verdict) > 0 && jd.Verdict[0] == "sampled" {
			sampled++
		}
	}
	if sampled != 2 {
		t.Fatalf("%d journeys name the sampled rule, want 2", sampled)
	}
}

// TestAttributeSumsToTotal: the stage decomposition is exact.
func TestAttributeSumsToTotal(t *testing.T) {
	// Root request [0, 1000]; queue [0,300]; flush [100,400] (queue wins
	// 100-300, batch-wait 300-400); kernel [400,700]; check at 700
	// (instant, no width); rerun [700,900]; admission residue 900-1000.
	spans := []SpanData{
		{Kind: KindRequest, Start: 0, Dur: 1000},
		{Kind: KindQueueWait, Start: 0, Dur: 300},
		{Kind: KindFlush, Start: 100, Dur: 300},
		{Kind: KindKernel, Start: 400, Dur: 300},
		{Kind: KindCheck, Start: 700, Dur: 0},
		{Kind: KindRerun, Start: 700, Dur: 200},
	}
	a := Attribute(spans)
	if a.TotalNs != 1000 {
		t.Fatalf("TotalNs = %d, want 1000", a.TotalNs)
	}
	sum := a.AdmissionNs + a.QueueNs + a.BatchWaitNs + a.KernelNs + a.CheckNs + a.RerunNs
	if sum != a.TotalNs {
		t.Fatalf("stage sum %d != total %d", sum, a.TotalNs)
	}
	if a.QueueNs != 300 {
		t.Fatalf("QueueNs = %d, want 300 (queue outranks flush)", a.QueueNs)
	}
	if a.BatchWaitNs != 100 {
		t.Fatalf("BatchWaitNs = %d, want 100", a.BatchWaitNs)
	}
	if a.KernelNs != 300 {
		t.Fatalf("KernelNs = %d, want 300", a.KernelNs)
	}
	if a.RerunNs != 200 {
		t.Fatalf("RerunNs = %d, want 200", a.RerunNs)
	}
	if a.AdmissionNs != 100 {
		t.Fatalf("AdmissionNs = %d, want 100 (residue)", a.AdmissionNs)
	}
	fracSum := a.AdmissionFrac + a.QueueFrac + a.BatchWaitFrac + a.KernelFrac + a.CheckFrac + a.RerunFrac
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Fatalf("fraction sum = %g, want 1", fracSum)
	}
}

// TestAttributeClampsToRoot: spans outside the root interval (device
// spans stitched from a different wall window) are clamped, never
// inflating the total.
func TestAttributeClampsToRoot(t *testing.T) {
	spans := []SpanData{
		{Kind: KindRequest, Start: 100, Dur: 100},
		{Kind: KindKernel, Start: 0, Dur: 1000}, // envelopes the root
	}
	a := Attribute(spans)
	if a.TotalNs != 100 || a.KernelNs != 100 || a.AdmissionNs != 0 {
		t.Fatalf("clamped attribution = %+v", a)
	}
}

// TestAttributeEmptyAndDegenerate handles the zero cases.
func TestAttributeEmptyAndDegenerate(t *testing.T) {
	if a := Attribute(nil); a.TotalNs != 0 {
		t.Fatalf("nil spans attribution = %+v", a)
	}
	// Instant-only spans: zero-width root.
	a := Attribute([]SpanData{{Kind: KindCheck, Start: 5, Dur: 0}})
	if a.TotalNs != 0 {
		t.Fatalf("degenerate attribution = %+v", a)
	}
}

// TestJourneyNewestAfterWrap: once the kept store has wrapped, a trace id
// kept twice (a client retrying under the same request id) resolves to
// its newest journey, not to whichever copy sits at the higher index.
func TestJourneyNewestAfterWrap(t *testing.T) {
	tr := New(Config{Tail: TailConfig{Enabled: true, Budget: time.Nanosecond, Keep: 3}})
	base := time.Now()
	const x, a, y = 0x10, 0xa, 0x20
	for i, req := range []struct {
		id     uint64
		status int64
	}{{x, 200}, {a, 429}, {y, 200}, {a, 200}} {
		tr.RequestDone(tr.Sample(req.id), req.id, base.Add(time.Duration(i)*time.Millisecond), time.Second, 1, req.status)
	}
	jd, ok := tr.Journey(a)
	if !ok || jd.Status != 200 {
		t.Fatalf("Journey(a) = status %d (kept %v), want the retry's 200", jd.Status, ok)
	}
}

// TestRetentionRules drives one request per verdict rule through a
// tracer whose one-entry slow top-K starts out held by a filler request
// (trace id 1): slower than the request for every rule but slow, faster
// for slow. Each rule alone keeps its request and names itself; slow
// keeps the full journey with tail retention on and the root span alone
// with it off, and Journey finds either. Then the rules meet in one
// store: a journey kept by several is held once with each span once, and
// head picks never evict what a tail rule kept.
func TestRetentionRules(t *testing.T) {
	tail := func(budget time.Duration) TailConfig { return TailConfig{Enabled: true, Budget: budget} }
	for _, tc := range []struct {
		name   string
		cfg    Config
		filler time.Duration // the filler's duration; the request runs 10ms
		status int64
		event  Event
		spans  []Kind // what the kept journey holds
	}{
		{"sampled", Config{SampleEvery: 1}, time.Hour, 200, 0, []Kind{KindQueueWait, KindRequest}},
		{"slow/tail-off", Config{SampleEvery: 1 << 30}, time.Nanosecond, 200, 0, []Kind{KindRequest}},
		{"slow/tail-on", Config{Tail: tail(time.Hour)}, time.Nanosecond, 200, 0, []Kind{KindQueueWait, KindRequest}},
		{"latency-budget", Config{Tail: tail(time.Millisecond)}, time.Hour, 200, 0, []Kind{KindQueueWait, KindRequest}},
		{"status", Config{Tail: tail(2 * time.Hour)}, time.Hour, 503, 0, []Kind{KindQueueWait, KindRequest}},
		{"event", Config{Tail: tail(2 * time.Hour)}, time.Hour, 200, EvReloadOverlap, []Kind{KindQueueWait, KindRequest}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.SlowK = 1
			tr := New(cfg)
			base := time.Now()
			tr.RequestDone(tr.Sample(1), 1, base, tc.filler, 0, 200)
			ref := tr.Sample(2)
			ref.Span(KindQueueWait, base.Add(time.Millisecond), time.Millisecond, 1, 0)
			ref.Mark(tc.event)
			tr.RequestDone(ref, 2, base.Add(time.Millisecond), 10*time.Millisecond, 1, tc.status)

			// Journey finds the request whatever kept it (slow alone included).
			jd, ok := tr.Journey(2)
			if !ok {
				t.Fatal("request not retained")
			}
			rule, _, _ := strings.Cut(tc.name, "/")
			if len(jd.Verdict) != 1 || jd.Verdict[0] != rule {
				t.Fatalf("verdict %v, want [%s]", jd.Verdict, rule)
			}
			var kinds []Kind
			for _, sd := range jd.Spans {
				kinds = append(kinds, sd.Kind)
			}
			if !slices.Equal(kinds, tc.spans) {
				t.Fatalf("kept spans %v, want %v", kinds, tc.spans)
			}
			if slow := tr.SlowSnapshot(); rule == "slow" && (len(slow) != 1 || slow[0].Trace != 2) {
				t.Fatalf("slow top-1 holds %+v, want trace 2", slow)
			}
		})
	}
	t.Run("stored-once", retentionStoredOnce)
	t.Run("sampled-never-evicts", retentionSampledNeverEvicts)
}

// retentionStoredOnce: a head-sampled request under tail retention that
// three rules keep records each span once, names every rule, and is held
// once although both the store and the slow top-K keep it.
func retentionStoredOnce(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Tail: TailConfig{Enabled: true, Budget: time.Millisecond}})
	base := time.Now()
	ref := tr.Sample(5)
	for i := 0; i < 3; i++ {
		ref.Span(KindQueueWait, base.Add(time.Duration(i)), time.Millisecond, int64(i), 0)
	}
	tr.RequestDone(ref, 5, base, 10*time.Millisecond, 3, 200)

	js := tr.Journeys()
	if len(js) != 1 {
		t.Fatalf("%d journeys retained, want 1", len(js))
	}
	if want := []string{"sampled", "latency-budget", "slow"}; !slices.Equal(js[0].Verdict, want) {
		t.Fatalf("verdict %v, want %v", js[0].Verdict, want)
	}
	if n := len(tr.Snapshot()); n != 4 {
		t.Fatalf("/debug/traces would export %d spans, want 4 (3 queue waits + request)", n)
	}
	if st := tr.TraceStats(); st.SpansTotal != 4 || st.TailRetained != 1 || st.SlowRetained != 1 {
		t.Fatalf("stats %+v, want 4 spans copied once into 1 journey", st)
	}
}

// retentionSampledNeverEvicts: in a full store the oldest journey kept
// only as sampled makes room, and a journey kept only as sampled never
// evicts one a tail rule kept.
func retentionSampledNeverEvicts(t *testing.T) {
	tr := New(Config{SampleEvery: 1, SlowK: 1, Tail: TailConfig{Enabled: true, Budget: time.Millisecond, Keep: 3}})
	base := time.Now()
	// Trace 1 is the slowest and breaches the budget; the rest are kept
	// only as sampled, except trace 6, a second budget breach.
	durs := []time.Duration{time.Hour, time.Microsecond, time.Microsecond, time.Microsecond, time.Microsecond, 10 * time.Millisecond}
	stored := [][]uint64{{1}, {1, 2}, {1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}}
	for i, d := range durs {
		id := uint64(i + 1)
		tr.RequestDone(tr.Sample(id), id, base.Add(time.Duration(i)), d, 1, 200)
		var got []uint64
		for _, jd := range tr.Journeys() {
			got = append(got, jd.Trace)
		}
		slices.Sort(got)
		if !slices.Equal(got, stored[i]) {
			t.Fatalf("after trace %d the store holds %v, want %v", id, got, stored[i])
		}
	}

	// A store full of verdict-kept journeys refuses a head pick.
	tr = New(Config{SampleEvery: 1, SlowK: 1, Tail: TailConfig{Enabled: true, Budget: time.Millisecond, Keep: 2}})
	for i, d := range []time.Duration{time.Hour, 10 * time.Millisecond, time.Microsecond} {
		id := uint64(i + 1)
		tr.RequestDone(tr.Sample(id), id, base.Add(time.Duration(i)), d, 1, 200)
	}
	if _, ok := tr.Journey(3); ok {
		t.Fatal("a head pick evicted a budget-kept journey")
	}
	if len(tr.Journeys()) != 2 {
		t.Fatalf("%d journeys retained, want the 2 budget-kept", len(tr.Journeys()))
	}
}
