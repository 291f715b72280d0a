package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/genome"
	"seedex/internal/obs"
	"seedex/internal/refstore"
)

// testProblems builds n extension problems: a query plus a mutated target
// with room to extend, the shape the aligner dispatches.
func testProblems(n, qlen int, seed int64) []ExtendJob {
	rng := rand.New(rand.NewSource(seed))
	const bases = "ACGT"
	out := make([]ExtendJob, n)
	for i := range out {
		q := make([]byte, qlen)
		for j := range q {
			q[j] = bases[rng.Intn(4)]
		}
		t := append([]byte(nil), q...)
		for m := 0; m < qlen/25; m++ {
			t[rng.Intn(len(t))] = bases[rng.Intn(4)]
		}
		for m := 0; m < qlen/5; m++ {
			t = append(t, bases[rng.Intn(4)])
		}
		out[i] = ExtendJob{Query: string(q), Target: string(t), H0: 20 + rng.Intn(60)}
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Extender == nil {
		cfg.Extender = core.New(20)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// verifyExtend posts one batch of jobs and asserts every served result is
// bit-identical to the scalar full-band reference.
func verifyExtend(t *testing.T, url string, jobs []ExtendJob) {
	t.Helper()
	resp := postJSON(t, url+"/v1/extend", ExtendRequest{Jobs: jobs})
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("extend status %d", resp.StatusCode)
		return
	}
	var out ExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Error(err)
		return
	}
	sc := align.DefaultScoring()
	for i, j := range jobs {
		want := align.Extend(genome.Encode(j.Query), genome.Encode(j.Target), j.H0, sc)
		got := out.Results[i]
		if got.Local != want.Local || got.LocalT != want.LocalT || got.LocalQ != want.LocalQ ||
			got.Global != want.Global || got.GlobalT != want.GlobalT {
			t.Errorf("job %d: served %+v, kernel %+v", i, got, want)
			return
		}
	}
}

// TestExtendMatchesKernel proves the batched service returns exactly the
// full-band kernel's results (the SeedEx strict-mode guarantee carried
// through admission, coalescing and the worker pool).
func TestExtendMatchesKernel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jobs := testProblems(100, 150, 3)
	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out ExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(out.Results), len(jobs))
	}
	sc := align.DefaultScoring()
	for i, j := range jobs {
		want := align.Extend(genome.Encode(j.Query), genome.Encode(j.Target), j.H0, sc)
		got := out.Results[i]
		if got.Local != want.Local || got.LocalT != want.LocalT || got.LocalQ != want.LocalQ ||
			got.Global != want.Global || got.GlobalT != want.GlobalT {
			t.Fatalf("job %d: served %+v, kernel %+v", i, got, want)
		}
	}
}

// TestExtendCoalescing pins the tentpole behaviour: N concurrent
// single-job requests share device batches — far fewer batches than jobs,
// mean occupancy above one — and each still gets its own job's exact
// result, with every admitted job accounted as completed.
func TestExtendCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 64, FlushInterval: 20 * time.Millisecond, Workers: 2},
	})
	const n = 32
	jobs := testProblems(n, 120, 4)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verifyExtend(t, ts.URL, jobs[i:i+1])
		}(i)
	}
	wg.Wait()
	c := s.scrape()
	if c.jobs[nAccepted] != n || c.jobs[nCompleted] != n {
		t.Fatalf("accepted=%d completed=%d, want %d each", c.jobs[nAccepted], c.jobs[nCompleted], n)
	}
	batches, occ := c.jobs[nBatches], c.occupancy.Mean()
	if batches >= n {
		t.Fatalf("%d single-job requests produced %d batches; no coalescing happened", n, batches)
	}
	if occ <= 1 {
		t.Fatalf("mean occupancy %.2f, want > 1", occ)
	}
	t.Logf("%d requests -> %d batches (mean occupancy %.1f)", n, batches, occ)
}

// TestGracefulShutdown proves the drain contract: a request in flight
// when the drain starts completes with its full results, later requests
// are refused with 503, and Close computes every admitted job.
func TestGracefulShutdown(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 16, FlushInterval: time.Millisecond, Workers: 1},
	})
	jobs := testProblems(400, 400, 5) // heavy enough to still be in flight

	inflight := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs})
		defer resp.Body.Close()
		var out ExtendResponse
		json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode == http.StatusOK && len(out.Results) != len(jobs) {
			t.Errorf("in-flight request returned %d/%d results", len(out.Results), len(jobs))
		}
		inflight <- resp.StatusCode
	}()
	// Wait until the request has passed admission before starting the
	// drain, so it is genuinely in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.scrape().jobs[nAccepted] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never passed admission")
		}
		time.Sleep(time.Millisecond)
	}
	s.StartDrain()

	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs[:1]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", resp.StatusCode)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200", code)
	}
	s.Close()
	c := s.scrape()
	if acc, done := c.jobs[nAccepted], c.jobs[nCompleted]+c.jobs[nExpired]; acc != done {
		t.Fatalf("accepted %d jobs but resolved %d after Close", acc, done)
	}
	// healthz reflects the drain.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", hz.StatusCode)
	}
}

// TestStreamStatusAccounting pins what the counters and the tracer are told
// about a failed stream: a 503 while draining, and a stream cut after its
// 200 header by an admission failure, both count as failed requests and
// reach the tail sampler with their real status (its keep-on-503 rule).
func TestStreamStatusAccounting(t *testing.T) {
	tracer := obs.New(obs.Config{Tail: obs.TailConfig{Enabled: true}})
	s, ts := newTestServer(t, Config{Trace: tracer})
	line, _ := json.Marshal(testProblems(1, 50, 3)[0])
	post := func(rid string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/extend/stream", strings.NewReader(string(line)+"\n"))
		req.Header.Set("X-Request-Id", rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	assertFailed := func(rid string, failed int64) {
		t.Helper()
		if got := s.met.Failed.Load(); got != failed {
			t.Fatalf("requests_failed = %d, want %d", got, failed)
		}
		id, _ := obs.RequestID(rid)
		jd, ok := tracer.Journey(id)
		if !ok || jd.Status != http.StatusServiceUnavailable || !hasString(jd.Verdict, "status") {
			t.Fatalf("journey %s: kept=%v status=%d verdict=%v, want kept on status 503", rid, ok, jd.Status, jd.Verdict)
		}
	}

	// Admission closes under an open stream: the extension pipeline is
	// gone but the server is not draining yet, so the handler is past its
	// drain check when submit refuses the job.
	s.ext.Close()
	resp := post("a1")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"error"`) {
		t.Fatalf("cut stream: status %d body %q, want 200 with a trailing error line", resp.StatusCode, body)
	}
	assertFailed("a1", 1)

	s.StartDrain()
	resp = post("a2")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream while draining: status %d, want 503", resp.StatusCode)
	}
	assertFailed("a2", 2)
}

// TestRequestOutcomeCounters: every refused request moves its outcome
// counter exactly once, whichever endpoint refused it and at which step —
// a stream line that fails to frame or scan, or overruns the body cap, is
// bad input just like a malformed or oversized batch.
func TestRequestOutcomeCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post("/v1/extend/stream", `{"query":"ACGT","target":"AC`)                   // cannot frame: 400
	post("/v1/extend/stream", `{"query":1}`+"\n")                               // cannot scan: 400
	post("/v1/extend/stream", `{"query":"`+strings.Repeat("A", 2048)+`"}`+"\n") // over the cap: 413
	post("/v1/extend", "{not json")                                             // 400
	post("/v1/extend", `{"jobs":[{"query":"`+strings.Repeat("A", 2048)+`"}]}`)  // 413
	s.StartDrain()
	post("/v1/extend/stream", "") // 503
	post("/v1/extend", "{}")      // 503

	var got struct {
		BadInput int64 `json:"requests_bad_input"`
		Rejected int64 `json:"jobs_rejected"`
		Draining int64 `json:"jobs_rejected_draining"`
		Failed   int64 `json:"requests_failed"`
		Requests int64 `json:"requests"`
	}
	getJSON(t, ts.URL+"/metrics", &got)
	if got.BadInput != 5 || got.Rejected != 0 || got.Draining != 2 || got.Failed != 2 || got.Requests != 7 {
		t.Fatalf("outcome counters %+v, want 5 bad input, 0 rejected, 2 draining, 2 failed of 7 requests", got)
	}
}

// TestBackpressure429 overloads a deliberately tiny server and checks the
// refused requests carry 429 + Retry-After while at least one succeeds.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Batch:      BatcherConfig{MaxBatch: 4, FlushInterval: time.Millisecond, QueueCap: 2, Workers: 1},
		RetryAfter: 2 * time.Second,
	})
	jobs := testProblems(2, 2000, 6) // ~multi-ms each: the worker saturates
	const clients = 32
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs})
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	ok, rejected := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			if retryAfter[i] != "2" {
				t.Fatalf("429 without Retry-After: %q", retryAfter[i])
			}
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 || rejected == 0 {
		t.Fatalf("want both successes and rejections, got %d ok / %d rejected", ok, rejected)
	}
	if s.met.Rejected.Load() == 0 {
		t.Fatal("rejection counter not incremented")
	}
}

// TestExtendStream proves the NDJSON endpoint returns one result per
// input line, in order, matching the batch endpoint.
func TestExtendStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jobs := testProblems(50, 130, 7)
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, j := range jobs {
		enc.Encode(j)
	}
	resp, err := http.Post(ts.URL+"/v1/extend/stream", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got []ExtendResult
	dec := json.NewDecoder(resp.Body)
	for {
		var r ExtendResult
		if err := dec.Decode(&r); err != nil {
			break
		}
		got = append(got, r)
	}
	if len(got) != len(jobs) {
		t.Fatalf("stream returned %d results for %d jobs", len(got), len(jobs))
	}
	sc := align.DefaultScoring()
	for i, j := range jobs {
		want := align.Extend(genome.Encode(j.Query), genome.Encode(j.Target), j.H0, sc)
		if got[i].Local != want.Local || got[i].Global != want.Global {
			t.Fatalf("line %d: served %+v, kernel %+v", i, got[i], want)
		}
	}
}

// TestStreamBackpressure pins the stream's flow control on the one
// extension queue: a full queue blocks the stream reader in one admit
// until the pipeline moves, the admit ends with its context, and Close
// during a blocked admit neither deadlocks nor loses an admitted job.
func TestStreamBackpressure(t *testing.T) {
	// A queue of one behind a single pinned worker holds four jobs — the
	// pinned worker's batch, the one waiting on the dispatch channel, the
	// collector's blocked dispatch and the queued one — so the fifth job
	// already waits for admission.
	tight := BatcherConfig{MaxBatch: 1, FlushInterval: FlushOpportunistic, QueueCap: 1, Workers: 1}
	const capacity = 4
	streamBody := func(jobs []ExtendJob) *bytes.Buffer {
		var in bytes.Buffer
		enc := json.NewEncoder(&in)
		for _, j := range jobs {
			enc.Encode(j)
		}
		return &in
	}
	// waitFull waits until the gated worker has stalled a full pipeline:
	// nothing moves until the gate opens.
	waitFull := func(t *testing.T, s *Server, gate *gatedExtender) {
		t.Helper()
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("gated kernel never entered")
		}
		for deadline := time.Now().Add(10 * time.Second); s.met.jobs[nAccepted].Load() < capacity; {
			if time.Now().After(deadline) {
				t.Fatalf("pipeline took %d jobs behind the pinned worker, want %d", s.met.jobs[nAccepted].Load(), capacity)
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("in-order", func(t *testing.T) {
		gate := newGatedExtender(core.New(20))
		gate.armed.Store(true)
		s, ts := newTestServer(t, Config{Extender: gate, Batch: tight})
		release := sync.OnceFunc(func() { close(gate.release) })
		t.Cleanup(release) // before the server's Close, also on a failure
		jobs := testProblems(24, 90, 31)
		type reply struct {
			resp *http.Response
			err  error
		}
		replies := make(chan reply, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/extend/stream", "application/x-ndjson", streamBody(jobs))
			replies <- reply{resp, err}
		}()
		waitFull(t, s, gate)
		release()
		var r reply
		select {
		case r = <-replies:
		case <-time.After(20 * time.Second):
			t.Fatal("stream never answered after the gate opened")
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
		defer r.resp.Body.Close()
		body, err := io.ReadAll(r.resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if r.resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte(`"error"`)) {
			t.Fatalf("stream: status %d body %q", r.resp.StatusCode, body)
		}
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		if len(lines) != len(jobs) {
			t.Fatalf("stream returned %d lines for %d jobs", len(lines), len(jobs))
		}
		sc := align.DefaultScoring()
		for i, j := range jobs {
			var got ExtendResult
			if err := json.Unmarshal(lines[i], &got); err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			want := align.Extend(genome.Encode(j.Query), genome.Encode(j.Target), j.H0, sc)
			if got.Local != want.Local || got.LocalT != want.LocalT || got.Global != want.Global || got.GlobalT != want.GlobalT {
				t.Fatalf("line %d: served %+v, kernel %+v", i, got, want)
			}
		}
		if s.met.Rejected.Load() != 0 {
			t.Fatal("a flow-controlled stream was refused with 429")
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		gate := newGatedExtender(core.New(20))
		gate.armed.Store(true)
		s, _ := newTestServer(t, Config{Extender: gate, Batch: tight})
		t.Cleanup(func() { close(gate.release) }) // before the server's Close
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest("POST", "/v1/extend/stream", streamBody(testProblems(24, 90, 32))).WithContext(ctx)
		returned := make(chan struct{})
		go func() {
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			close(returned)
		}()
		waitFull(t, s, gate)
		// A second admit on the same full queue, under the same context.
		admit := make(chan error, 1)
		go func() {
			admit <- s.ext.SubmitWait(ctx, extJob{ctx: ctx, out: newPending[ExtendResult](1), enq: time.Now()})
		}()
		cancel()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatal("a cancelled stream blocked in admission is still being served")
		}
		select {
		case err := <-admit:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("admit on a full queue with its context cancelled = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an admit on a full queue outlived its context")
		}
	})

	t.Run("close-during-admit", func(t *testing.T) {
		gate := make(chan struct{})
		var processed atomic.Int64
		b := newBatcher(tight, &Metrics{}, 1, nil, func() func([]int) {
			return func(batch []int) {
				<-gate
				processed.Add(int64(len(batch)))
			}
		})
		// Fill the pipeline to its capacity, so nothing moves until the
		// gate opens.
		accepted := 0
		for deadline := time.Now().Add(10 * time.Second); accepted < capacity; {
			if b.Submit(accepted) == nil {
				accepted++
			} else if time.Now().After(deadline) {
				t.Fatalf("pipeline took %d jobs, want %d", accepted, capacity)
			} else {
				time.Sleep(time.Millisecond)
			}
		}
		const waiters = 3
		admits := make(chan error, waiters)
		for i := 0; i < waiters; i++ {
			go func() { admits <- b.SubmitWait(context.Background(), -1) }()
		}
		// A blocked admit holds the read lock: wait until one does.
		for deadline := time.Now().Add(10 * time.Second); b.mu.TryLock(); {
			b.mu.Unlock()
			if len(admits) > 0 || time.Now().After(deadline) {
				t.Fatalf("no admit blocked on the full queue (%d returned)", len(admits))
			}
			time.Sleep(time.Millisecond)
		}
		closed := make(chan struct{})
		go func() {
			b.Close()
			close(closed)
		}()
		time.Sleep(10 * time.Millisecond) // let Close queue up behind the admits
		close(gate)
		for i := 0; i < waiters; i++ {
			select {
			case err := <-admits:
				switch {
				case err == nil:
					accepted++
				case !errors.Is(err, ErrDraining):
					t.Fatalf("blocked admit returned %v, want nil or ErrDraining", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("an admit blocked across Close never returned")
			}
		}
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close deadlocked behind a blocked admit")
		}
		if got := processed.Load(); got != int64(accepted) {
			t.Fatalf("drained %d jobs, admitted %d", got, accepted)
		}
		if err := b.SubmitWait(context.Background(), 0); !errors.Is(err, ErrDraining) {
			t.Fatalf("SubmitWait after Close = %v, want ErrDraining", err)
		}
	})
}

// TestMapEndpoint proves /v1/map serves exactly the records the batch
// pipeline produces for the same reads.
func TestMapEndpoint(t *testing.T) {
	fx := newRefStoreFixture(t, 11)
	store, err := refstore.Open(fx.path, refstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	_, url := newStoreServer(t, store, Config{})
	if err := fx.checkMap(t, url); err != nil {
		t.Fatal(err)
	}
}

// TestMapDisabled pins the 501 for servers started without a reference.
func TestMapDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/map", MapRequest{Reads: []MapRead{{Name: "r", Seq: "ACGT"}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
}

// TestDeadline504 proves a request deadline shorter than the queue wait
// returns 504 and the expired jobs are skipped, not computed.
func TestDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 4, FlushInterval: time.Millisecond, QueueCap: 64, Workers: 1},
	})
	heavy := testProblems(32, 2000, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: heavy})
		resp.Body.Close()
	}()
	// Wait for the heavy jobs to be admitted, not for a fixed time: the
	// worker is then busy with them for a while, and the next request's
	// jobs queue behind them.
	for deadline := time.Now().Add(5 * time.Second); s.scrape().jobs[nAccepted] < int64(len(heavy)); {
		if time.Now().After(deadline) {
			t.Fatal("heavy request never passed admission")
		}
		time.Sleep(time.Millisecond)
	}
	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: heavy[:4], DeadlineMs: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	<-done
}

// TestAbandonPartialAdmission pins the partial-admission accounting: when
// every submitted job has already been delivered before the handler
// discounts the never-submitted tail, the discount itself must close done
// — this deadlocked the handler goroutine before.
func TestAbandonPartialAdmission(t *testing.T) {
	// The racing order: both submitted jobs land before abandon runs.
	p := newPending[ExtendResult](3)
	p.deliver(0, ExtendResult{})
	p.deliver(1, ExtendResult{})
	p.abandon(2, 3)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		t.Fatal("abandon after full delivery did not close done")
	}

	// The usual order: abandon first, the last delivery closes done.
	p = newPending[ExtendResult](3)
	p.abandon(2, 3)
	p.deliver(0, ExtendResult{})
	select {
	case <-p.done:
		t.Fatal("done closed with a submitted job still in flight")
	default:
	}
	p.deliver(1, ExtendResult{})
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		t.Fatal("last delivery did not close done")
	}

	// Expiry counts as delivery in the same arithmetic.
	mp := newPending[MapResult](2)
	mp.expire(0)
	mp.abandon(1, 2)
	select {
	case <-mp.done:
	case <-time.After(5 * time.Second):
		t.Fatal("map abandon after full delivery did not close done")
	}
	if mp.expired.Load() != 1 {
		t.Fatalf("map expired = %d, want 1", mp.expired.Load())
	}
}

// TestExpiredNeverServes200 pins the deadline race: when p.done and
// ctx.Done() are both ready, whichever select arm wins, a request whose
// jobs expired in queue must never be answered 200 with zeroed scores.
// The pre-cancelled context makes every job expire; the opportunistic
// flush resolves the pending quickly so both arms race.
func TestExpiredNeverServes200(t *testing.T) {
	s, _ := newTestServer(t, Config{
		Batch: BatcherConfig{MaxBatch: 4, FlushInterval: FlushOpportunistic, Workers: 1},
	})
	body, err := json.Marshal(ExtendRequest{Jobs: testProblems(4, 100, 13)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest("POST", "/v1/extend", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			t.Fatalf("attempt %d: served 200 for a request whose jobs all expired:\n%s", i, rec.Body)
		}
	}
}

// TestBodyTooLarge pins the request body cap: an oversized body answers
// 413 instead of being decoded whole.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{
		Jobs: []ExtendJob{{Query: strings.Repeat("A", 2048), Target: "ACGT"}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	// A body under the cap still validates normally.
	resp = postJSON(t, ts.URL+"/v1/extend", ExtendRequest{
		Jobs: []ExtendJob{{Query: "ACGT", Target: "ACGT", H0: 10}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", resp.StatusCode)
	}
}

// TestBadInput pins the 400 surface.
func TestBadInput(t *testing.T) {
	store := openRefStore(t, genome.Simulate(genome.SimConfig{Length: 2_000}, rand.New(rand.NewSource(12))))
	_, ts := newTestServer(t, storeConfig(store, Config{MaxSeqLen: 100}))
	read := func(name, qual string) MapRequest {
		return MapRequest{Reads: []MapRead{{Name: "ok", Seq: "ACGT"}, {Name: name, Seq: "ACGT", Qual: qual}}}
	}
	for i, c := range []struct {
		path string
		body any
		want string // substring of the error message
	}{
		{"/v1/extend", ExtendRequest{}, "jobs must hold"},
		{"/v1/extend", ExtendRequest{Jobs: []ExtendJob{{Query: "ACGT"}}}, "job 0: query and target"},
		{"/v1/extend", ExtendRequest{Jobs: []ExtendJob{{Query: strings.Repeat("A", 200), Target: "ACGT"}}}, "job 0: sequence longer"},
		{"/v1/extend", ExtendRequest{Jobs: []ExtendJob{{Query: "ACGT", Target: "ACGT", H0: -1}}}, "job 0: h0"},
		{"/v1/map", MapRequest{}, "reads must hold"},
		{"/v1/map", MapRequest{Reads: []MapRead{{Name: "r"}}}, "read 0: seq must hold"},
		{"/v1/map", MapRequest{Reads: []MapRead{{Name: "r", Seq: "ACGT", Qual: "II"}}}, "read 0: qual length"},
		// Outside bytes that would reach the SAM line: an empty or over-long
		// QNAME, field and record separators, '@', non-printables.
		{"/v1/map", read("", ""), "read 1: name must hold"},
		{"/v1/map", read(strings.Repeat("n", 255), ""), "read 1: name must hold"},
		{"/v1/map", read("r\t4\tchrT", ""), "read 1: name holds byte 0x09"},
		{"/v1/map", read("r\n@SQ\tSN:x", ""), "read 1: name holds byte 0x0a"},
		{"/v1/map", read("r 1", ""), "read 1: name holds byte 0x20"},
		{"/v1/map", read("r@1", ""), "read 1: name holds byte 0x40"},
		{"/v1/map", read("r\x7f", ""), "read 1: name holds byte 0x7f"},
		{"/v1/map", read("r", "II\tI"), "read 1: qual holds byte 0x09"},
		{"/v1/map", read("r", "II I"), "read 1: qual holds byte 0x20"},
	} {
		resp := postJSON(t, ts.URL+c.path, c.body)
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, c.want) {
			t.Fatalf("case %d: status %d error %q, want 400 %q", i, resp.StatusCode, e.Error, c.want)
		}
	}
	// The boundary of the accepted set still maps.
	resp := postJSON(t, ts.URL+"/v1/map", read("!~?A"+strings.Repeat("n", 250), "!~II"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("boundary name and quality: status %d, want 200", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/extend", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestHealthzStates walks /healthz through the states of the one
// pipeline, with the exact body of each: ok; an SLO burning its error
// budget, a note on a 200 (the endpoints still serve); and draining, a
// 503 with nothing else to say. The degraded-reload state is
// TestReloadRollbackDegradedHealthz's.
func TestHealthzStates(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	s, ts := newTestServer(t, Config{SLO: SLOConfig{Interval: -1, LatencyBudget: time.Nanosecond, Now: func() time.Time { return now }}})
	check := func(wantCode int, want map[string]string) {
		t.Helper()
		var body map[string]string
		if code := getJSON(t, ts.URL+"/healthz", &body); code != wantCode || !maps.Equal(body, want) {
			t.Fatalf("healthz = %d %v, want %d %v", code, body, wantCode, want)
		}
	}
	check(http.StatusOK, map[string]string{"status": "ok", "slo": "ok"})

	// Every request breaches a 1 ns budget, so one served request between
	// two samples burns the latency objective at 100x.
	s.slo.Tick()
	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: testProblems(2, 60, 5)})
	resp.Body.Close()
	now = now.Add(10 * time.Second)
	s.slo.Tick()
	check(http.StatusOK, map[string]string{"status": "ok", "slo": "degraded-slo"})

	s.StartDrain()
	check(http.StatusServiceUnavailable, map[string]string{"status": "draining"})
}

// TestMetricsEndpoint checks the /metrics document exposes the check
// statistics (shared core.StatsSnapshot path), batching figures and the
// config echo.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: testProblems(20, 100, 9)})
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs_accepted", "jobs_completed", "batches", "batch_occupancy_mean", "latency_p50_us", "queue_cap", "decode_ns", "encode_ns", "codec_requests", "checks", "config"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, m)
		}
	}
	checks := m["checks"].(map[string]any)
	if checks["total"].(float64) < 20 {
		t.Fatalf("checks.total = %v, want >= 20", checks["total"])
	}
	if _, ok := checks["pass_rate"]; !ok {
		t.Fatal("checks.pass_rate missing")
	}
	if m["batches"].(float64) < 1 {
		t.Fatal("no batches recorded")
	}
	if fmt.Sprint(m["config"].(map[string]any)["max_batch"]) != "64" {
		t.Fatalf("config echo wrong: %v", m["config"])
	}
}
