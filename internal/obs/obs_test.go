package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ref := tr.Sample(42)
	if ref.Sampled() {
		t.Fatal("nil tracer sampled a request")
	}
	ref.Span(KindKernel, time.Now(), time.Millisecond, 0, 0)
	tr.RequestDone(ref, 42, time.Now(), time.Millisecond, 1, 200)
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if got := tr.Journeys(); got != nil {
		t.Fatalf("nil tracer journeys = %v", got)
	}
	if got := tr.SlowSnapshot(); got != nil {
		t.Fatalf("nil tracer slow snapshot = %v", got)
	}
	if s := tr.TraceStats(); s != (Stats{}) {
		t.Fatalf("nil tracer stats = %+v", s)
	}
	if New(Config{SampleEvery: 0}) != nil {
		t.Fatal("SampleEvery=0 should build a nil tracer")
	}
}

func TestSpanRoundTrip(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ref := tr.Sample(99)
	if !ref.Sampled() {
		t.Fatal("SampleEvery=1 must sample every request")
	}
	start := time.Now()
	ref.Span(KindKernel, start, 3*time.Millisecond, TierSWAR8, 16)
	ref.Span(KindCheck, start.Add(3*time.Millisecond), 0, 2, 1)
	tr.RequestDone(ref, 99, start, 5*time.Millisecond, 4, 200)

	jd, ok := tr.Journey(99)
	spans := jd.Spans
	if !ok || len(spans) != 3 {
		t.Fatalf("got %d spans (kept %v), want 3: %+v", len(spans), ok, spans)
	}
	byKind := map[Kind]SpanData{}
	for _, s := range spans {
		byKind[s.Kind] = s
	}
	k := byKind[KindKernel]
	if k.Dur != int64(3*time.Millisecond) || k.V1 != TierSWAR8 || k.V2 != 16 {
		t.Fatalf("kernel span %+v", k)
	}
	if r := byKind[KindRequest]; r.V1 != 4 || r.V2 != 200 {
		t.Fatalf("request span %+v", r)
	}
}

// TestKindNames: every span kind has its own export name and its own
// argument names. Kinds are an iota, so deleting one renumbers those after
// it; a kind left without a name or an argNames case shows here.
func TestKindNames(t *testing.T) {
	names := map[string]Kind{}
	args := map[[2]string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := names[name]; dup {
			t.Fatalf("kinds %d and %d are both %q", prev, k, name)
		}
		names[name] = k
		n1, n2 := argNames(k)
		if n1 == "v1" && n2 == "v2" {
			t.Fatalf("kind %s has no argNames case", name)
		}
		if prev, dup := args[[2]string{n1, n2}]; dup {
			t.Fatalf("kinds %s and %s share the arg names %q, %q", prev, name, n1, n2)
		}
		args[[2]string{n1, n2}] = k
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 10})
	sampled := 0
	for i := 0; i < 1000; i++ {
		if tr.Sample(uint64(i)).Sampled() {
			sampled++
		}
	}
	if sampled != 100 {
		t.Fatalf("sampled %d of 1000 at 1/10", sampled)
	}
	if s := tr.TraceStats(); s.SampledTotal != 100 {
		t.Fatalf("stats sampled = %d", s.SampledTotal)
	}
}

// TestRingOverwrite: the kept store is bounded, and head picks overwrite
// the oldest head picks. Durations fall, so the one-entry slow top-K
// holds the first request and every later one is kept only as sampled.
func TestRingOverwrite(t *testing.T) {
	tr := New(Config{SampleEvery: 1, SlowK: 1, Tail: TailConfig{Keep: 8}})
	base := time.Now()
	for i := 0; i < 100; i++ {
		ref := tr.Sample(uint64(i + 1))
		ref.Span(KindKernel, base, time.Duration(100-i), int64(i), 0)
		tr.RequestDone(ref, uint64(i+1), base.Add(time.Duration(i)), time.Duration(100-i), 1, 200)
	}
	js := tr.Journeys()
	if len(js) != 9 {
		t.Fatalf("store of 8 plus a slow top-1 held %d journeys", len(js))
	}
	// The survivors are the last 8 recorded, then the slowest.
	for i, jd := range js {
		want := uint64(100 - i)
		if i == 8 {
			want = 1
		}
		if jd.Trace != want {
			t.Fatalf("journeys[%d] is trace %d, want %d", i, jd.Trace, want)
		}
	}
	if n := len(tr.Snapshot()); n != 2*9 {
		t.Fatalf("snapshot holds %d spans, want 18 (kernel + request per journey)", n)
	}
}

func TestSlowRingTopK(t *testing.T) {
	tr := New(Config{SampleEvery: 1 << 30, SlowK: 4})
	start := time.Now()
	for i := 1; i <= 20; i++ {
		// Unsampled requests still compete for the slow ring.
		ref := tr.Sample(uint64(i))
		tr.RequestDone(ref, uint64(i), start, time.Duration(i)*time.Millisecond, 1, 200)
	}
	slow := tr.SlowSnapshot()
	if len(slow) != 4 {
		t.Fatalf("retained %d, want 4", len(slow))
	}
	for i, s := range slow {
		want := time.Duration(20-i) * time.Millisecond
		if s.Dur != int64(want) {
			t.Fatalf("slow[%d] dur %d, want %d", i, s.Dur, want)
		}
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	id, str := NewRequestID()
	if id == 0 || len(str) != 16 {
		t.Fatalf("minted id %d %q", id, str)
	}
	back, echoed := RequestID(str)
	if back != id || echoed != str {
		t.Fatalf("round trip: %d %q -> %d %q", id, str, back, echoed)
	}
	// Short hex parses exactly.
	if v, s := RequestID("ff"); v != 0xff || s != "ff" {
		t.Fatalf("hex parse: %d %q", v, s)
	}
	// Arbitrary client ids echo verbatim and hash deterministically.
	v1, s1 := RequestID("client-abc-123")
	v2, _ := RequestID("client-abc-123")
	if s1 != "client-abc-123" || v1 != v2 || v1 == 0 {
		t.Fatalf("hashed id: %d %q vs %d", v1, s1, v2)
	}
	// Distinct minted ids.
	id2, _ := NewRequestID()
	if id2 == id {
		t.Fatal("minted ids collide")
	}
}

func TestChromeTraceExportIsValidJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ref := tr.Sample(7)
	start := time.Now()
	ref.Span(KindQueueWait, start, time.Millisecond, 4, 0)
	ref.Span(KindKernel, start.Add(time.Millisecond), 2*time.Millisecond, TierSWAR16, 8)
	ref.Span(KindCheck, start.Add(3*time.Millisecond), 0, 2, 1)
	tr.RequestDone(ref, 7, start, 4*time.Millisecond, 1, 200)

	_, epochWall := tr.Epoch()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, epochWall, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		if e.Name == "kernel" && e.Args["tier"] != "swar16" {
			t.Fatalf("kernel args %v", e.Args)
		}
		if e.Name == "check" {
			if e.Args["outcome"] != "pass-checks" || e.Args["pass"] != true {
				t.Fatalf("check args %v", e.Args)
			}
		}
	}
	for _, want := range []string{"queue_wait", "kernel", "check", "request"} {
		if !names[want] {
			t.Fatalf("missing %q event in %v", want, names)
		}
	}
}

func TestNDJSONExport(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ref := tr.Sample(5)
	start := time.Now()
	ref.Span(KindRerun, start.Add(time.Millisecond), time.Millisecond, 3, 1)
	tr.RequestDone(ref, 5, start, 3*time.Millisecond, 1, 200)
	var buf bytes.Buffer
	_, epochWall := tr.Epoch()
	if err := WriteNDJSON(&buf, epochWall, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (request, host_rerun)", len(lines))
	}
	lines = lines[1:]
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("invalid NDJSON line: %v\n%s", err, lines[0])
	}
	if obj["span"] != "host_rerun" || obj["outcome"] != "fail-s1" {
		t.Fatalf("line %v", obj)
	}
	if obj["trace"] != FormatID(5) {
		t.Fatalf("trace arg %v", obj["trace"])
	}
}

// TestConcurrentRecordAndSnapshot drives many writers against live
// readers of every export; under -race this proves the journey buffers,
// the pool and the kept store are clean.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tr := New(Config{SampleEvery: 2, Tail: TailConfig{Enabled: true, Budget: time.Microsecond, Keep: 64}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := uint64(w*10000 + i + 1)
				ref := tr.Sample(id)
				ref.Span(Kind(i%int(numKinds)), time.Now(), time.Duration(i), int64(i), int64(w))
				ref.Mark(Event(1 << (i % numEvents)))
				tr.RequestDone(ref, id, time.Now(), time.Duration(i), 1, 200)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		tr.Snapshot()
		tr.SlowSnapshot()
		tr.Journeys()
		tr.Journey(1)
		tr.TraceStats()
		select {
		case <-done:
			if tr.TraceStats().SpansTotal == 0 {
				t.Error("no spans recorded")
			}
			return
		default:
		}
	}
}

// BenchmarkSpanDisabled pins the disabled-tracer fast path: a zero Ref
// span site must not allocate.
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	ref := tr.Sample(1)
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ref.Span(KindKernel, start, time.Millisecond, 0, 0)
	}
}

// BenchmarkSpanEnabled measures the recording cost of one span into a
// journey buffer.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(Config{SampleEvery: 1})
	ref := tr.Sample(1)
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(ref.j.slots) == 0 {
			ref.j.n.Store(0) // reuse the buffer: time the record, not the overflow drop
		}
		ref.Span(KindKernel, start, time.Millisecond, 0, 0)
	}
}
