package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/faults"
	"seedex/internal/fmindex"
	"seedex/internal/obs"
	"seedex/internal/refstore"
)

// --- Journey stitching across shards and generations ------------------------

// postTraced posts a JSON body with a client-supplied request id, so the
// trace id is known to the test in advance.
func postTraced(t *testing.T, url, rid string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func hasString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// gatedExtender blocks exactly one extension call — the one that claims
// the armed gate — until released, pinning a worker mid-kernel so a test
// can stage a work steal or an index reload under a live request
// deterministically.
type gatedExtender struct {
	inner   align.Extender
	armed   atomic.Bool
	entered chan struct{} // closed when the claiming call starts blocking
	release chan struct{} // closed by the test to let it continue
}

func newGatedExtender(inner align.Extender) *gatedExtender {
	return &gatedExtender{inner: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedExtender) Extend(q, t []byte, h0 int) align.ExtendResult {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.inner.Extend(q, t, h0)
}

// TestJourneyStealStitching forces a cross-shard work steal and asserts
// the stolen request's tail-retained journey shows it: two shards with
// one worker each, the router aimed at shard 0 for both requests, and the
// first blocks that shard's worker mid-kernel — the second request's batch
// can only complete by a peer steal. The retained journey must carry the
// steal event, a steal span naming victim and thief, and the router's
// steal accounting must agree.
func TestJourneyStealStitching(t *testing.T) {
	gate := newGatedExtender(core.New(20))
	gate.armed.Store(true)
	tracer := obs.New(obs.Config{SampleEvery: 1, Tail: obs.TailConfig{Enabled: true, Budget: 5 * time.Second, Keep: 64}})
	s, ts := newTestServer(t, Config{
		Shards:      2,
		NewExtender: func(int) align.Extender { return gate },
		Batch:       BatcherConfig{MaxBatch: 1, FlushInterval: FlushOpportunistic, Workers: 1},
		Trace:       tracer,
	})
	s.router.aim = func() *shard { return s.shards[0] }

	job := ExtendJob{Query: strings.Repeat("ACGT", 15), Target: strings.Repeat("ACGT", 15), H0: 30}
	post := func(rid string, done chan<- int) {
		resp := postTraced(t, ts.URL+"/v1/extend", rid, ExtendRequest{Jobs: []ExtendJob{job}})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}

	// Request A claims the gate: its home shard's only worker blocks
	// inside the kernel.
	doneA := make(chan int, 1)
	go post("00000000000000aa", doneA)
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated kernel never entered")
	}
	// Request B is aimed at the same shard, so its assembled batch sits on
	// a shard whose worker is pinned: only a peer steal can complete it
	// while A blocks.
	doneB := make(chan int, 1)
	go post("00000000000000bb", doneB)
	select {
	case code := <-doneB:
		if code != http.StatusOK {
			t.Fatalf("stolen request answered %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second request never completed: no peer stole the stranded batch")
	}
	close(gate.release)
	if code := <-doneA; code != http.StatusOK {
		t.Fatalf("gated request answered %d", code)
	}

	// One of the two journeys crossed shards (normally B; A if the peer
	// won the race for A's batch before its home worker did).
	var stolen obs.JourneyData
	found := false
	for _, jd := range tracer.Journeys() {
		if hasString(jd.Events, "steal") {
			stolen, found = jd, true
			break
		}
	}
	if !found {
		t.Fatalf("no retained journey carries the steal event (retained %d)", len(tracer.Journeys()))
	}
	if !hasString(stolen.Verdict, "event") {
		t.Fatalf("stolen journey verdict %v lacks the event reason", stolen.Verdict)
	}

	// The journey holds the full cross-shard timeline: the root request
	// span, the admitting shard's queue wait, and a steal span whose
	// victim and thief differ.
	sawRoot, sawQueue := false, false
	var steal *obs.SpanData
	for i, sd := range stolen.Spans {
		switch sd.Kind {
		case obs.KindRequest:
			sawRoot = true
		case obs.KindQueueWait:
			sawQueue = true
		case obs.KindSteal:
			steal = &stolen.Spans[i]
		}
	}
	if !sawRoot || !sawQueue || steal == nil {
		t.Fatalf("journey spans incomplete: root=%v queue=%v steal=%v", sawRoot, sawQueue, steal != nil)
	}
	if steal.V1 == steal.V2 {
		t.Fatalf("steal span victim=thief=%d: the journey does not cross shards", steal.V1)
	}
	for _, shard := range []int64{steal.V1, steal.V2} {
		if shard != 0 && shard != 1 {
			t.Fatalf("steal span names shard %d outside the pool", shard)
		}
	}

	// The router's accounting saw the same steal.
	snaps := s.ShardSnapshots()
	if snaps[0].Steals+snaps[1].Steals == 0 {
		t.Fatal("journey shows a steal the shard counters never recorded")
	}

	// The journey endpoint serves the same record by trace id.
	var doc struct {
		Trace   string   `json:"trace"`
		Events  []string `json:"events"`
		Verdict []string `json:"verdict"`
	}
	if code := getJSON(t, ts.URL+"/debug/journeys?trace="+stolen.TraceID, &doc); code != http.StatusOK {
		t.Fatalf("journey lookup answered %d", code)
	}
	if doc.Trace != stolen.TraceID || !hasString(doc.Events, "steal") {
		t.Fatalf("journey endpoint returned %+v for trace %s", doc, stolen.TraceID)
	}
}

// TestJourneyReloadStitching drives one mapping request across an index
// generation swap: the request's worker blocks mid-read, a hot reload
// publishes generation 2 under it, and the released request finishes its
// remaining reads on the new generation. The single retained journey
// must span both generations (kernel spans linking -1 and -2), carry the
// reload-overlap event, and its /debug/traces journey view must
// attribute every nanosecond of the total to a stage.
func TestJourneyReloadStitching(t *testing.T) {
	fx := newRefStoreFixture(t, 31)
	store, err := refstore.Open(fx.path, refstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)

	gate := newGatedExtender(core.New(20)) // unarmed: the warmup request flows freely
	tracer := obs.New(obs.Config{SampleEvery: 1, Tail: obs.TailConfig{Enabled: true, Budget: 5 * time.Second, Keep: 64}})
	_, ts := newTestServer(t, Config{
		RefStore: store,
		NewAligner: func(ref *bwamem.Reference, ix *fmindex.Index) *bwamem.Aligner {
			return bwamem.NewWithIndex(ref, ix, gate)
		},
		MapBatch: BatcherConfig{MaxBatch: 1, FlushInterval: FlushOpportunistic, Workers: 1},
		Trace:    tracer,
	})

	// Warmup: the single map worker builds its generation-1 session, so
	// the later generation change is an observed swap, not first use.
	resp := postJSON(t, ts.URL+"/v1/map", fx.req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup map answered %d", resp.StatusCode)
	}

	// The traced request blocks at its first extension...
	gate.armed.Store(true)
	const rid = "00000000000000cd"
	done := make(chan int, 1)
	go func() {
		resp := postTraced(t, ts.URL+"/v1/map", rid, fx.req)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated mapping kernel never entered")
	}

	// ...a reload swaps generations under it...
	rresp := postJSON(t, ts.URL+"/admin/reload", struct{}{})
	var rbody reloadBody
	json.NewDecoder(rresp.Body).Decode(&rbody)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || rbody.Generation != 2 {
		t.Fatalf("mid-request reload: status %d body %+v", rresp.StatusCode, rbody)
	}

	// ...and the released request finishes on generation 2. The gate holds
	// a little longer than the reload took, so the pinned kernel span
	// dominates the timeline on a loaded box too (the assertion at the end).
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("reload-straddling map answered %d", code)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("reload-straddling request never completed")
	}

	jd, ok := tracer.Journey(0xcd)
	if !ok {
		t.Fatal("reload-straddling request was not tail-retained")
	}
	if !hasString(jd.Events, "reload-overlap") {
		t.Fatalf("journey events %v lack reload-overlap", jd.Events)
	}
	// Kernel spans link the index generation each read computed against
	// (negated): one coherent trace spans both generations.
	gens := map[int64]bool{}
	for _, sd := range jd.Spans {
		if sd.Kind == obs.KindKernel && sd.Link < 0 {
			gens[sd.Link] = true
		}
	}
	if !gens[-1] || !gens[-2] {
		t.Fatalf("kernel generation links %v, want both -1 and -2 (request straddles the swap)", gens)
	}

	// The stitched journey view attributes the whole budget: stage
	// nanoseconds sum exactly to the total, fractions to ~1.
	var doc struct {
		Trace       string          `json:"trace"`
		Events      []string        `json:"events"`
		Attribution obs.Attribution `json:"attribution"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces?trace="+rid+"&format=journey", &doc); code != http.StatusOK {
		t.Fatalf("journey trace view answered %d", code)
	}
	if !hasString(doc.Events, "reload-overlap") {
		t.Fatalf("trace view events %v lack reload-overlap", doc.Events)
	}
	a := doc.Attribution
	if a.TotalNs <= 0 {
		t.Fatalf("attribution total %d, want > 0", a.TotalNs)
	}
	sum := a.AdmissionNs + a.QueueNs + a.BatchWaitNs + a.KernelNs + a.CheckNs + a.RerunNs
	if sum != a.TotalNs {
		t.Fatalf("stage attribution sums to %d ns, total is %d ns", sum, a.TotalNs)
	}
	fracSum := a.AdmissionFrac + a.QueueFrac + a.BatchWaitFrac + a.KernelFrac + a.CheckFrac + a.RerunFrac
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Fatalf("stage fractions sum to %g, want ~1", fracSum)
	}
	// The gate held the request inside the kernel; the kernel stage must
	// dominate the timeline.
	if a.KernelFrac < 0.5 {
		t.Fatalf("kernel fraction %g for a kernel-pinned request, want > 0.5", a.KernelFrac)
	}
}

// TestJourneyMapStages: a sampled /v1/map request's journey view shows the
// map path's dataflow at batch granularity. Every read of the request
// carries its batch's interval as the kernel span (live = reads in the
// batch) and the four stage spans — plan, extend_left, extend_right,
// resolve — which tile that interval end to end, and the stage
// attribution still sums to the request's total.
func TestJourneyMapStages(t *testing.T) {
	fx := newRefStoreFixture(t, 32)
	store, err := refstore.Open(fx.path, refstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	tracer := obs.New(obs.Config{SampleEvery: 1})
	_, ts := newTestServer(t, Config{
		RefStore: store,
		NewAligner: func(ref *bwamem.Reference, ix *fmindex.Index) *bwamem.Aligner {
			return bwamem.NewWithIndex(ref, ix, core.New(20))
		},
		MapBatch: BatcherConfig{MaxBatch: 8, FlushInterval: time.Millisecond, Workers: 1},
		Trace:    tracer,
	})
	const rid = "00000000000000ce"
	resp := postTraced(t, ts.URL+"/v1/map", rid, fx.req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map answered %d", resp.StatusCode)
	}

	var doc struct {
		Attribution obs.Attribution `json:"attribution"`
		Spans       []struct {
			Span  string `json:"span"`
			Start int64  `json:"start_ns"`
			Dur   int64  `json:"dur_ns"`
			Stage string `json:"stage"`
			Reads int64  `json:"reads"`
			Live  int64  `json:"live"`
		} `json:"spans"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces?trace="+rid+"&format=journey", &doc); code != http.StatusOK {
		t.Fatalf("journey trace view answered %d", code)
	}
	type interval struct{ start, end int64 }
	kernels := map[interval]int64{} // batch interval -> its live count
	stages := map[interval][]interval{}
	for _, sp := range doc.Spans {
		if sp.Span == "kernel" {
			kernels[interval{sp.Start, sp.Start + sp.Dur}] = sp.Live
		}
	}
	if len(kernels) == 0 {
		t.Fatal("journey has no kernel span")
	}
	order := []string{"plan", "extend_left", "extend_right", "resolve"}
	for _, sp := range doc.Spans {
		if sp.Span != "map_stage" {
			continue
		}
		for k, live := range kernels {
			if sp.Start >= k.start && sp.Start+sp.Dur <= k.end && len(stages[k]) < len(order) {
				if want := order[len(stages[k])]; sp.Stage != want {
					t.Fatalf("batch %v: stage %d is %q, want %q", k, len(stages[k]), sp.Stage, want)
				}
				if sp.Reads != live {
					t.Fatalf("batch %v: stage %s counts %d reads, kernel span %d", k, sp.Stage, sp.Reads, live)
				}
				stages[k] = append(stages[k], interval{sp.Start, sp.Start + sp.Dur})
				break
			}
		}
	}
	for k, st := range stages {
		if len(st) != len(order) {
			t.Fatalf("batch %v shows %d stages, want %d", k, len(st), len(order))
		}
		at := k.start
		for i, iv := range st {
			if iv.start != at {
				t.Fatalf("batch %v: stage %s starts at %d, previous ended at %d", k, order[i], iv.start, at)
			}
			at = iv.end
		}
		if at != k.end {
			t.Fatalf("batch %v: stages end at %d", k, at)
		}
	}
	if len(stages) != len(kernels) {
		t.Fatalf("%d batches with stage spans, %d kernel intervals", len(stages), len(kernels))
	}
	a := doc.Attribution
	if sum := a.AdmissionNs + a.QueueNs + a.BatchWaitNs + a.KernelNs + a.CheckNs + a.RerunNs; sum != a.TotalNs || a.KernelNs <= 0 {
		t.Fatalf("stage attribution sums to %d ns of %d, kernel %d", sum, a.TotalNs, a.KernelNs)
	}
}

// --- Chaos retention (runs under `make chaos`) -------------------------------

// TestTailChaosBreakerRetention is the acceptance drill for fault
// retention: with every device attempt core-failing, the breaker trips,
// and tail sampling must retain full journeys carrying the fault event —
// the requests an operator needs are exactly the ones kept.
func TestTailChaosBreakerRetention(t *testing.T) {
	eng := chaosEngine(faults.Config{Seed: containmentSeed(t), CoreFail: 1})
	tracer := obs.New(obs.Config{Tail: obs.TailConfig{Enabled: true, Keep: 128}})
	_, ts := newTestServer(t, Config{
		Extender: eng,
		Batch:    BatcherConfig{MaxBatch: 32, FlushInterval: time.Millisecond, Workers: 2},
		Trace:    tracer,
	})

	deadline := time.Now().Add(10 * time.Second)
	for round := int64(0); eng.Health().Trips == 0; round++ {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped under sustained core failures")
		}
		resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: testProblems(32, 100, 7000+round)})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	faulted := 0
	for _, jd := range tracer.Journeys() {
		if hasString(jd.Events, "fault") {
			faulted++
			if !hasString(jd.Verdict, "event") {
				t.Fatalf("faulted journey verdict %v lacks the event reason", jd.Verdict)
			}
		}
	}
	if faulted == 0 {
		t.Fatalf("breaker tripped but no retained journey carries the fault event (%d retained)", len(tracer.Journeys()))
	}

	// The retention counters surface on the Prometheus scrape.
	sc := scrapeProm(t, ts.URL)
	if sc.samples["seedex_trace_tail_retained"] <= 0 {
		t.Errorf("seedex_trace_tail_retained = %v with %d journeys held", sc.samples["seedex_trace_tail_retained"], faulted)
	}
	if sc.samples["seedex_trace_tail_retained_total"] <= 0 {
		t.Error("seedex_trace_tail_retained_total not live after retention")
	}
}

// TestTailChaosRollbackRetention covers the other acceptance trigger: a
// reload of a corrupt index rolls back while mapping traffic flows, and
// at least one in-flight request's journey is retained with the
// reload-overlap event.
func TestTailChaosRollbackRetention(t *testing.T) {
	fx := newRefStoreFixture(t, 33)
	// Two retries with a wide backoff keep the store in its reloading
	// window long enough for concurrent traffic to observe the overlap.
	store, err := refstore.Open(fx.path, refstore.Options{MaxAttempts: 3, RetryBackoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	tracer := obs.New(obs.Config{Tail: obs.TailConfig{Enabled: true, Keep: 128}})
	_, url := newStoreServer(t, store, Config{
		MapBatch: BatcherConfig{MaxBatch: 8, FlushInterval: 200 * time.Microsecond, Workers: 2},
		Trace:    tracer,
	})

	// Publish garbage over the index, as a broken publisher would.
	bad := append([]byte{}, fx.refBytes[:len(fx.refBytes)/4]...)
	tmp := fx.path + ".next"
	if err := os.WriteFile(tmp, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, fx.path); err != nil {
		t.Fatal(err)
	}

	// Mapping traffic runs while the reload fails, retries and rolls
	// back; generation 1 keeps serving bit-identical results throughout.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := fx.checkMap(t, url); err != nil {
					t.Errorf("map during rollback: %v", err)
					return
				}
			}
		}()
	}
	resp := postJSON(t, url+"/admin/reload", struct{}{})
	resp.Body.Close()
	stop.Store(true)
	wg.Wait()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt index answered %d, want 500", resp.StatusCode)
	}
	if st := store.Status(); st.Rollbacks != 1 {
		t.Fatalf("store rollbacks = %d, want 1 (%+v)", st.Rollbacks, st)
	}

	overlapped := 0
	for _, jd := range tracer.Journeys() {
		if hasString(jd.Events, "reload-overlap") {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatalf("rollback left no retained journey with the reload-overlap event (%d retained)", len(tracer.Journeys()))
	}
}
