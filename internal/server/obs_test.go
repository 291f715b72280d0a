package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/obs"
)

// --- Request-id plumbing ---------------------------------------------------

func TestRequestIDEchoed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jobs := testProblems(2, 80, 11)

	// Client-supplied id is echoed verbatim.
	body, _ := json.Marshal(ExtendRequest{Jobs: jobs})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/extend", strings.NewReader(string(body)))
	req.Header.Set("X-Request-Id", "client-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-supplied-42" {
		t.Fatalf("echoed id %q", got)
	}

	// Absent id mints a canonical 16-hex-digit one.
	resp2 := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs})
	defer resp2.Body.Close()
	rid := resp2.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(rid) {
		t.Fatalf("minted id %q is not 16 hex digits", rid)
	}

	// The stream endpoint echoes too.
	resp3, err := http.Post(ts.URL+"/v1/extend/stream", "application/x-ndjson",
		strings.NewReader(`{"query":"ACGT","target":"ACGT","h0":10}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.Header.Get("X-Request-Id") == "" {
		t.Fatal("stream response missing X-Request-Id")
	}
}

func TestRequestIDInErrorBodies(t *testing.T) {
	// A slow flush plus a 1ms deadline forces the 504 path.
	_, ts := newTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 64, FlushInterval: 200 * time.Millisecond, Workers: 1},
	})
	jobs := testProblems(1, 60, 12)
	body, _ := json.Marshal(ExtendRequest{Jobs: jobs, DeadlineMs: 1})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/extend", strings.NewReader(string(body)))
	req.Header.Set("X-Request-Id", "feed1234")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RequestID != "feed1234" {
		t.Fatalf("504 body request_id %q", eb.RequestID)
	}

	// 400s carry it as well.
	resp2 := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{})
	defer resp2.Body.Close()
	var eb2 errorBody
	if err := json.NewDecoder(resp2.Body).Decode(&eb2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusBadRequest || eb2.RequestID == "" {
		t.Fatalf("400 body %+v (status %d)", eb2, resp2.StatusCode)
	}
}

// --- End-to-end tracing ----------------------------------------------------

// TestTraceEndToEnd drives one request through a band so narrow the
// checks must fail, then asserts its exported trace shows every pipeline
// stage — queue wait, batch flush, kernel tier, check outcome and the
// forced host rerun — sharing the request's id.
func TestTraceEndToEnd(t *testing.T) {
	tracer := obs.New(obs.Config{SampleEvery: 1})
	se := core.New(2) // strict mode, band 2: divergent targets cannot pass
	_, ts := newTestServer(t, Config{
		Extender: se,
		Batch:    BatcherConfig{MaxBatch: 16, FlushInterval: time.Millisecond, Workers: 1},
		Trace:    tracer,
	})

	jobs := testProblems(16, 120, 13)
	body, _ := json.Marshal(ExtendRequest{Jobs: jobs})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/extend", strings.NewReader(string(body)))
	req.Header.Set("X-Request-Id", "deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out ExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	reran := false
	for _, r := range out.Results {
		reran = reran || r.Rerun
	}
	if !reran {
		t.Fatal("band 2 strict served no reruns; the trace cannot show one")
	}

	get, err := http.Get(ts.URL + "/debug/traces?trace=deadbeef&format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	wantTrace := obs.FormatID(0xdeadbeef)
	kinds := map[string]int{}
	sc := bufio.NewScanner(get.Body)
	for sc.Scan() {
		var span map[string]any
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if span["trace"] != wantTrace {
			t.Fatalf("span %v not filtered to trace %s", span, wantTrace)
		}
		kinds[span["span"].(string)]++
	}
	for _, want := range []string{"request", "queue_wait", "batch_flush", "kernel", "check", "host_rerun"} {
		if kinds[want] == 0 {
			t.Fatalf("trace missing %q spans (got %v)", want, kinds)
		}
	}

	// The kernel span names a real tier and the check span a verdict.
	get2, err := http.Get(ts.URL + "/debug/traces?trace=deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer get2.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(get2.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	sawTier, sawOutcome := false, false
	for _, e := range doc.TraceEvents {
		if e.Name == "kernel" {
			switch e.Args["tier"] {
			case "native16", "swar8", "swar16", "scalar":
				sawTier = true
			}
		}
		if e.Name == "check" {
			if s, ok := e.Args["outcome"].(string); ok && s != "" {
				sawOutcome = true
			}
		}
	}
	if !sawTier || !sawOutcome {
		t.Fatalf("chrome export missing tier/outcome args (tier=%v outcome=%v)", sawTier, sawOutcome)
	}

	// The slow top-K retained the request too.
	slow, err := http.Get(ts.URL + "/debug/traces/slow?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Body.Close()
	data, _ := io.ReadAll(slow.Body)
	if !strings.Contains(string(data), wantTrace) {
		t.Fatalf("slow ring missing trace %s:\n%s", wantTrace, data)
	}
}

func TestTracesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when tracing is disabled", resp.StatusCode)
	}
}

// TestTraceLiveReads races span recording against trace and journey
// exports; under -race this proves the export path is clean against live
// writers and a kept store that evicts under them.
func TestTraceLiveReads(t *testing.T) {
	tracer := obs.New(obs.Config{SampleEvery: 2, Tail: obs.TailConfig{Enabled: true, Budget: time.Microsecond, Keep: 16}})
	_, ts := newTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 8, FlushInterval: 100 * time.Microsecond, Workers: 2},
		Trace: tracer,
	})
	jobs := testProblems(4, 60, 14)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs})
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		for _, path := range []string{"/debug/traces", "/debug/traces/slow", "/debug/traces?format=ndjson", "/debug/journeys"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		select {
		case <-done:
			if tracer.TraceStats().SpansTotal == 0 {
				t.Error("no spans recorded")
			}
			return
		default:
		}
	}
}

// --- Prometheus exposition -------------------------------------------------

// promScrape fetches /metrics?format=prometheus and parses it strictly:
// every family has one HELP and one TYPE line and its samples form one
// contiguous group, every sample belongs to a declared family, histogram
// buckets are le-monotone and cum-monotone, and values parse.
type promScrape struct {
	types   map[string]string  // family -> counter|gauge|histogram
	samples map[string]float64 // full series (name+labels) -> value
}

func scrapeProm(t *testing.T, url string) promScrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	sc := promScrape{types: map[string]string{}, samples: map[string]float64{}}
	helped := map[string]bool{}
	// The family whose group is open, and the families whose group ended.
	current, ended := "", map[string]bool{}
	// Histogram bucket monotonicity is tracked per family as lines stream.
	lastLE := map[string]float64{}
	lastCum := map[string]float64{}
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if helped[f[2]] {
				t.Fatalf("second HELP line for %s", f[2])
			}
			helped[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if !helped[f[2]] {
				t.Fatalf("TYPE before HELP for %s", f[2])
			}
			if sc.types[f[2]] != "" {
				t.Fatalf("second TYPE line for %s", f[2])
			}
			if f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram" {
				t.Fatalf("unknown type %q", f[3])
			}
			sc.types[f[2]] = f[3]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && sc.types[strings.TrimSuffix(name, suf)] == "histogram" {
				family = strings.TrimSuffix(name, suf)
			}
		}
		if sc.types[family] == "" {
			t.Fatalf("sample %q has no TYPE declaration", line)
		}
		if family != current {
			if ended[family] {
				t.Fatalf("family %s is split into several groups (sample %q)", family, line)
			}
			ended[current], current = true, family
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "NaN" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if strings.HasSuffix(name, "_bucket") {
			le := leOf(t, labels)
			if prev, ok := lastLE[family]; ok && le <= prev {
				t.Fatalf("%s buckets not le-monotone: %v after %v", family, le, prev)
			}
			if prev, ok := lastCum[family]; ok && val < prev {
				t.Fatalf("%s buckets not cum-monotone: %v after %v", family, val, prev)
			}
			lastLE[family], lastCum[family] = le, val
		}
		sc.samples[name+labels] = val
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	return sc
}

func leOf(t *testing.T, labels string) float64 {
	t.Helper()
	m := regexp.MustCompile(`le="([^"]+)"`).FindStringSubmatch(labels)
	if m == nil {
		t.Fatalf("bucket without le label: %q", labels)
	}
	if m[1] == "+Inf" {
		return float64(1 << 62)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("bad le %q: %v", m[1], err)
	}
	return v
}

func TestPrometheusRoundTrip(t *testing.T) {
	tracer := obs.New(obs.Config{SampleEvery: 2})
	_, ts := newTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 16, FlushInterval: time.Millisecond, Workers: 1},
		Trace: tracer,
	})
	jobs := testProblems(32, 100, 15)
	drive := func() {
		resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	drive()
	first := scrapeProm(t, ts.URL)

	// The exposition must surface the check outcomes, the histograms with
	// quantile estimates, and the kernel telemetry.
	for _, want := range []string{
		"seedex_jobs_accepted_total", "seedex_jobs_completed_total",
		"seedex_check_total",
		"seedex_request_latency_seconds", "seedex_queue_wait_seconds", "seedex_batch_occupancy",
		"seedex_request_latency_quantile_seconds",
		"seedex_codec_seconds_total", "seedex_codec_requests_total",
		"seedex_kernel_jobs_total", "seedex_kernel_lane_occupancy",
		"seedex_kernel_lane_utilization", "seedex_kernel_tier_lane_utilization",
		"seedex_kernel_demoted_total",
		"seedex_trace_spans_total",
	} {
		if _, ok := first.types[want]; !ok {
			t.Errorf("scrape missing family %s", want)
		}
	}
	if _, ok := first.samples[`seedex_check_outcome_total{outcome="pass-s2"}`]; !ok {
		t.Error("scrape missing seedex_check_outcome_total{outcome=\"pass-s2\"}")
	}
	// The per-tier kernel families carry one series per SWAR tier (scalar
	// has no lanes or demotions, so it is skipped), labeled with the tier
	// names the tracer uses.
	for _, tier := range []string{"native16", "swar8", "swar16"} {
		for _, family := range []string{
			"seedex_kernel_demoted_total", "seedex_kernel_tier_lane_utilization",
		} {
			if _, ok := first.samples[family+`{tier="`+tier+`"}`]; !ok {
				t.Errorf("scrape missing %s{tier=%q}", family, tier)
			}
		}
	}
	// Exactly one back end is reported live, and it is the one align probed.
	for _, isa := range []string{"avx2", "none"} {
		want := 0.0
		if isa == align.NativeISA() {
			want = 1
		}
		if got, ok := first.samples[`seedex_kernel_native{isa="`+isa+`"}`]; !ok || got != want {
			t.Errorf("seedex_kernel_native{isa=%q} = %v (present %v), want %v", isa, got, ok, want)
		}
	}
	// Lane utilization is a ratio; a driven server reports it in (0, 1].
	if u := first.samples["seedex_kernel_lane_utilization"]; u <= 0 || u > 1 {
		t.Errorf("seedex_kernel_lane_utilization = %v, want in (0, 1]", u)
	}
	if _, ok := first.samples[`seedex_request_latency_quantile_seconds{quantile="0.99"}`]; !ok {
		t.Error("scrape missing p99 latency quantile")
	}
	// The wire codec reports busy time per stage over the bodies it scanned.
	for _, stage := range []string{"decode", "encode"} {
		if v := first.samples[`seedex_codec_seconds_total{stage="`+stage+`"}`]; v <= 0 {
			t.Errorf("seedex_codec_seconds_total{stage=%q} = %v after a served request, want > 0", stage, v)
		}
	}
	if n := first.samples["seedex_codec_requests_total"]; n != 1 {
		t.Errorf("seedex_codec_requests_total = %v after one request, want 1", n)
	}

	// Counters never decrease across scrapes.
	drive()
	second := scrapeProm(t, ts.URL)
	for series, v1 := range first.samples {
		family := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			family = series[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suf)
		}
		if first.types[family] != "counter" {
			continue
		}
		v2, ok := second.samples[series]
		if !ok {
			t.Errorf("counter series %s disappeared", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s decreased: %v -> %v", series, v1, v2)
		}
	}
	if second.samples["seedex_jobs_completed_total"] <= first.samples["seedex_jobs_completed_total"] {
		t.Error("completed counter did not advance across scrapes")
	}
}

// --- Hot-path allocation guard ---------------------------------------------

// TestExtWorkerZeroAlloc pins the serving hot path: one warmed-up worker
// processing a full batch performs zero allocations per batch — with
// tracing disabled, with every job head-sampled, with tail sampling
// checking out a journey per request, and with both modes combined
// (span recording is atomic stores into a preallocated journey buffer).
// It holds for both kinds of engine the server serves, the checker and a
// plain extender: a bare session of either allocates nothing per batch,
// and the worker adds nothing to it.
func TestExtWorkerZeroAlloc(t *testing.T) {
	probs := testProblems(16, 100, 16)
	reqs := make([]core.Request, len(probs))
	for i, j := range probs {
		reqs[i] = core.Request{Q: []byte(j.Query), T: []byte(j.Target), H0: j.H0, Tag: i}
	}
	engines := []struct {
		name string
		ext  align.Extender
	}{
		{name: "checker", ext: core.New(20)},
		{name: "fullband", ext: core.FullBand{Scoring: align.DefaultScoring()}},
	}
	for _, eng := range engines {
		bare := core.EngineSession(eng.ext)
		dst := bare.ExtendBatchInto(reqs, nil)
		if avg := testing.AllocsPerRun(50, func() { dst = bare.ExtendBatchInto(reqs, dst[:0]) }); avg != 0 {
			t.Fatalf("%s: a bare session allocates %v per batch, want 0", eng.name, avg)
		}
	}
	for _, tc := range []struct {
		name   string
		tracer *obs.Tracer
	}{
		{"tracing-off", nil},
		{"tracing-sampled", obs.New(obs.Config{SampleEvery: 1})},
		{"tracing-tail", obs.New(obs.Config{Tail: obs.TailConfig{Enabled: true}})},
		{"tracing-head-tail", obs.New(obs.Config{SampleEvery: 1, Tail: obs.TailConfig{Enabled: true}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range engines {
				t.Run(eng.name, func(t *testing.T) {
					s := New(Config{
						Extender: eng.ext,
						Batch:    BatcherConfig{MaxBatch: 16, Workers: 1},
						Trace:    tc.tracer,
					})
					defer s.Close()
					worker := s.extWorker()
					// A pending that never completes: remaining stays far above
					// zero, so deliver never closes done and the batch can be
					// replayed indefinitely.
					p := &pending[ExtendResult]{res: make([]ExtendResult, len(probs)), done: make(chan struct{})}
					p.remaining.Store(1 << 30)
					ref := tc.tracer.Sample(1)
					batch := make([]extJob, len(probs))
					for i := range batch {
						batch[i] = extJob{
							ctx:  context.Background(),
							req:  reqs[i],
							out:  p,
							slot: i,
							tr:   ref,
							enq:  time.Now(),
						}
					}
					for i := 0; i < 3; i++ { // warm up grow-only scratch
						worker(batch)
					}
					if avg := testing.AllocsPerRun(50, func() { worker(batch) }); avg != 0 {
						t.Fatalf("%v allocs per batch, want 0", avg)
					}
				})
			}
		})
	}
}

// BenchmarkExtWorker measures the worker batch path, the denominator of
// the tracing-overhead budget (b.ReportAllocs guards the zero-alloc
// claim under `go test -bench`).
func BenchmarkExtWorker(b *testing.B) {
	for _, tc := range []struct {
		name   string
		tracer *obs.Tracer
	}{
		{"tracing-off", nil},
		{"tracing-sampled", obs.New(obs.Config{SampleEvery: 1})},
		{"tracing-tail", obs.New(obs.Config{Tail: obs.TailConfig{Enabled: true}})},
		{"tracing-head-tail", obs.New(obs.Config{SampleEvery: 1, Tail: obs.TailConfig{Enabled: true}})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := New(Config{
				Extender: core.New(20),
				Batch:    BatcherConfig{MaxBatch: 16, Workers: 1},
				Trace:    tc.tracer,
			})
			defer s.Close()
			worker := s.extWorker()
			probs := testProblems(16, 100, 17)
			p := &pending[ExtendResult]{res: make([]ExtendResult, len(probs)), done: make(chan struct{})}
			p.remaining.Store(1 << 30)
			ref := tc.tracer.Sample(1)
			batch := make([]extJob, len(probs))
			for i, j := range probs {
				batch[i] = extJob{
					ctx:  context.Background(),
					req:  core.Request{Q: []byte(j.Query), T: []byte(j.Target), H0: j.H0},
					out:  p,
					slot: i,
					tr:   ref,
					enq:  time.Now(),
				}
			}
			worker(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				worker(batch)
			}
		})
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
