package main

// trace.go is the traced run: it replays the workload's request bodies
// through each layer's adapter (layers.go) on one goroutine, records a
// span around every call, and turns the spans into the per-layer numbers.
//
// The replay is sequential, so a "child" span is the same work run again
// after its parent, not a part of the parent's interval; a layer's self
// time is its span minus its replayed children, taken per request, where
// it adds up to the parent exactly. Every reported number is the median
// over the replayed requests of that per-request value: on a shared box a
// neighbour's burst lands in single requests, and a mean of differences
// between two 20 ms spans would be mostly that burst. A negative self
// time is a measurement error and is reported as one, not clamped.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one line of the span file.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder's epoch
	EndNs   int64  `json:"end_ns"`
}

// spanTotals is the time per span name within one request.
type spanTotals map[string]time.Duration

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
	cur   spanTotals
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), cur: spanTotals{}}
}

func (r *recorder) begin(name string, parent, request int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name,
		StartNs: int64(time.Since(r.epoch))})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	s := &r.spans[id-1]
	s.EndNs = int64(time.Since(r.epoch))
	r.cur[s.Name] += time.Duration(s.EndNs - s.StartNs)
}

// add records a span that was timed by a wrapper inside the program.
func (r *recorder) add(name string, parent, request int, c callTiming) {
	start := int64(c.start.Sub(r.epoch))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name,
		StartNs: start, EndNs: start + int64(c.dur)})
	r.cur[name] += c.dur
}

// requestDone hands out the finished request's totals.
func (r *recorder) requestDone() spanTotals {
	t := r.cur
	r.cur = spanTotals{}
	return t
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayed is one request of the replay: its span totals and the counts
// the per-job and per-read numbers divide by.
type replayed struct {
	t      spanTotals
	n      int   // jobs or reads in the request
	failed int   // jobs whose check failed
	cells  int64 // DP cells the packed banded kernel swept
	bare   time.Duration
	traced time.Duration
}

// medianOf is the median over requests of f, in microseconds when f
// returns a duration per something.
func medianOf(reqs []replayed, f func(replayed) float64) float64 {
	v := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		v = append(v, f(r))
	}
	return median(v)
}

func usPer(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// traceLimits bounds the two replays: each stops at its time budget or
// its request count, whichever comes first.
type traceLimits struct {
	extendBudget, mapBudget time.Duration
	maxRequests             int
}

type traceResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// errors are the layer self times that came out negative.
	errors   []string
	spanFile string
	firstErr error
}

// tracedRun replays w through every layer. workers is the daemon's
// GOMAXPROCS, so the in-process server has the worker pool the child has.
func tracedRun(ctx context.Context, w *workload, workers int, lim traceLimits, dir string) (traceResult, error) {
	res := traceResult{metrics: map[string]float64{}}
	m := res.metrics
	sp := w.spec
	rec := newRecorder()

	// fmindex, refstore: build, publish, open — the map daemon's set-up.
	ref, ix, buildDur, err := buildIndex(refName, w.ref)
	if err != nil {
		return res, err
	}
	m["fmindex.build_s"] = buildDur.Seconds()
	rix := filepath.Join(dir, "trace.rix")
	t0 := time.Now()
	fileBytes, err := publishIndex(rix, ref, ix)
	if err != nil {
		return res, err
	}
	m["refstore.publish_s"] = time.Since(t0).Seconds()
	m["refstore.file_mb"] = float64(fileBytes) / 1e6
	t0 = time.Now()
	store, gen, release, err := openIndex(rix)
	if err != nil {
		return res, err
	}
	defer release()
	m["refstore.open_s"] = time.Since(t0).Seconds()

	plain := newInprocServer(sp, store, workers, false)
	defer plain.close()
	withObs := newInprocServer(sp, store, workers, true)
	defer withObs.close()
	addr, stopListener := plain.listen()
	defer stopListener()
	loopback, err := dial(addr)
	if err != nil {
		return res, err
	}
	defer loopback.close()

	count := func(bad, ops int, what string, i int) {
		res.attempted += ops
		res.failed += bad
		if bad > 0 && res.firstErr == nil {
			res.firstErr = fmt.Errorf("traced %s %d differs from the oracle", what, i)
		}
	}

	// ---- /v1/extend: server, obs, core, align ----
	var (
		chk       = newCheckerLayer(sp.paper)
		lanes     laneCounter
		check     = w.checker(w.extends)
		extends   []replayed
		failedIdx []int
	)
	handler := func(srv *inprocServer, name string, parent, rid int, body []byte) (int, int, []byte) {
		id := rec.begin(name, parent, rid)
		status, reply := srv.serve(extendPath, body)
		rec.end(id)
		return id, status, reply
	}
	deadline := time.Now().Add(lim.extendBudget)
	for n := 0; ctx.Err() == nil && n < lim.maxRequests && (n < minTracedRequests || time.Now().Before(deadline)); n++ {
		i, rid := n%len(w.extends.bodies), n+1
		body := w.extends.bodies[i]
		var r replayed
		root := rec.begin("loadgen.request", 0, rid)
		status, reply, err := loopback.post(w.extends.wire[i])
		rec.end(root)
		if err != nil {
			return res, fmt.Errorf("in-process loopback request: %w", err)
		}
		count(check(i, status, reply), w.extends.perReq, "/v1/extend over loopback, body", i)

		// The bare call has no recorder around it; the difference to the
		// traced call is what recording costs.
		t0 := time.Now()
		plain.serve(extendPath, body)
		r.bare = time.Since(t0)

		// Alternate which server goes first, so drift inside a request
		// does not read as observability overhead.
		var h int
		if n%2 == 1 {
			handler(withObs, "server.handler_obs", root, rid, body)
		}
		t0 = time.Now()
		h, status, reply = handler(plain, "server.handler", root, rid, body)
		r.traced = time.Since(t0)
		if n%2 == 0 {
			handler(withObs, "server.handler_obs", root, rid, body)
		}
		count(check(i, status, reply), w.extends.perReq, "/v1/extend handler, body", i)

		id := rec.begin("server.decode", h, rid)
		batch, err := decodeExtendBody(body)
		rec.end(id)
		if err != nil {
			return res, err
		}
		eb := rec.begin("core.extend_batch", h, rid)
		resp := chk.extendBatch(batch)
		rec.end(eb)
		cb := rec.begin("core.check_batch", eb, rid)
		failedIdx = chk.checkBatch(batch, failedIdx)
		rec.end(cb)
		lanes.start()
		id = rec.begin("align.banded_batch", cb, rid)
		r.cells = chk.bandedBatch(batch)
		rec.end(id)
		lanes.stop()
		id = rec.begin("align.full", eb, rid)
		chk.fullBand(batch, failedIdx)
		rec.end(id)
		id = rec.begin("server.encode", h, rid)
		_, err = encodeExtendResponse(resp)
		rec.end(id)
		if err != nil {
			return res, err
		}
		r.t, r.n, r.failed = rec.requestDone(), len(batch.reqs), len(failedIdx)
		extends = append(extends, r)
	}
	if len(extends) == 0 {
		return res, fmt.Errorf("traced run replayed no /v1/extend request")
	}
	perReq := func(f func(t spanTotals) time.Duration) float64 {
		return medianOf(extends, func(r replayed) float64 { return usPer(f(r.t), 1) })
	}
	perJob := func(f func(t spanTotals) time.Duration) float64 {
		return medianOf(extends, func(r replayed) float64 { return usPer(f(r.t), r.n) })
	}
	m["server.transport_us_per_req"] = perReq(func(t spanTotals) time.Duration { return t["loadgen.request"] - t["server.handler"] })
	m["server.handler_us_per_req"] = perReq(func(t spanTotals) time.Duration { return t["server.handler"] })
	m["server.self_us_per_req"] = perReq(func(t spanTotals) time.Duration { return t["server.handler"] - t["core.extend_batch"] })
	m["server.decode_us_per_req"] = perReq(func(t spanTotals) time.Duration { return t["server.decode"] })
	m["server.encode_us_per_req"] = perReq(func(t spanTotals) time.Duration { return t["server.encode"] })
	m["obs.overhead_us_per_req"] = perReq(func(t spanTotals) time.Duration { return t["server.handler_obs"] - t["server.handler"] })
	m["obs.spans_per_req"] = float64(withObs.spansRecorded()) / float64(len(extends))
	m["core.check_batch_us_per_job"] = perJob(func(t spanTotals) time.Duration { return t["core.check_batch"] })
	m["core.check_self_us_per_job"] = perJob(func(t spanTotals) time.Duration { return t["core.check_batch"] - t["align.banded_batch"] })
	m["core.rerun_us_per_job"] = perJob(func(t spanTotals) time.Duration { return t["core.extend_batch"] - t["core.check_batch"] })
	m["align.banded_batch_us_per_job"] = perJob(func(t spanTotals) time.Duration { return t["align.banded_batch"] })
	m["align.banded_batch_mcells_per_s"] = medianOf(extends, func(r replayed) float64 {
		return float64(r.cells) / r.t["align.banded_batch"].Seconds() / 1e6
	})
	var withFailed []replayed
	for _, r := range extends {
		if r.failed > 0 {
			withFailed = append(withFailed, r)
		}
	}
	m["align.full_us_per_job"] = medianOf(withFailed, func(r replayed) float64 { return usPer(r.t["align.full"], r.failed) })
	m["align.lane_utilization"] = lanes.utilization()
	m["loadgen.trace_overhead_pct"] = medianOf(extends, func(r replayed) float64 { return 100 * float64(r.traced-r.bare) / float64(r.bare) })

	// ---- /v1/map: server, bwamem, fmindex, chain, sam ----
	probe := newMapProbe(gen.Ref(), gen.Index(), sp.paper)
	checkMapBody := w.checker(w.maps)
	var maps []replayed
	extensions := 0
	deadline = time.Now().Add(lim.mapBudget)
	for n := 0; ctx.Err() == nil && n < lim.maxRequests && (n < minTracedRequests || time.Now().Before(deadline)); n++ {
		i, rid := n%len(w.maps.bodies), len(extends)+n+1
		h := rec.begin("server.map_handler", 0, rid)
		status, reply := plain.serve(mapPath, w.maps.bodies[i])
		rec.end(h)
		count(checkMapBody(i, status, reply), w.maps.perReq, "/v1/map handler, body", i)

		for k := i * w.maps.perReq; k < (i+1)*w.maps.perReq; k++ {
			rd := w.reads[k]
			mp := rec.begin("bwamem.map", h, rid)
			_, got := probe.mapRead(rd.Name, rd.Seq, rd.Qual)
			rec.end(mp)
			if got != w.mapExpects[k] {
				count(1, 0, "Mapper.Map, read", k)
			}
			for _, c := range probe.seeder.calls {
				rec.add("fmindex.seed", mp, rid, c)
			}
			for _, c := range probe.ext.calls {
				rec.add("bwamem.extend", mp, rid, c)
			}
			extensions += probe.ext.jobs
			id := rec.begin("chain.build", mp, rid)
			probe.replayChain()
			rec.end(id)
			id = rec.begin("sam.render", mp, rid)
			probe.replaySAM()
			rec.end(id)
		}
		maps = append(maps, replayed{t: rec.requestDone(), n: w.maps.perReq})
	}
	if len(maps) == 0 {
		return res, fmt.Errorf("traced run replayed no /v1/map request")
	}
	perRead := func(f func(t spanTotals) time.Duration) float64 {
		return medianOf(maps, func(r replayed) float64 { return usPer(f(r.t), r.n) })
	}
	m["server.map_self_us_per_read"] = perRead(func(t spanTotals) time.Duration { return t["server.map_handler"] - t["bwamem.map"] })
	m["bwamem.map_us_per_read"] = perRead(func(t spanTotals) time.Duration { return t["bwamem.map"] })
	m["fmindex.seed_us_per_read"] = perRead(func(t spanTotals) time.Duration { return t["fmindex.seed"] })
	m["chain.build_us_per_read"] = perRead(func(t spanTotals) time.Duration { return t["chain.build"] })
	m["bwamem.extend_us_per_read"] = perRead(func(t spanTotals) time.Duration { return t["bwamem.extend"] })
	m["bwamem.extensions_per_read"] = float64(extensions) / float64(len(maps)*w.maps.perReq)
	m["sam.render_us_per_read"] = perRead(func(t spanTotals) time.Duration { return t["sam.render"] })
	m["bwamem.self_us_per_read"] = perRead(func(t spanTotals) time.Duration {
		return t["bwamem.map"] - t["fmindex.seed"] - t["chain.build"] - t["bwamem.extend"] - t["sam.render"]
	})
	m["bwamem.true_pos_share"] = w.truePosShare

	// The self times that, with their replayed children, add up to the
	// loopback request and to the Mapper.Map span. One of them below zero
	// means the replay did not reproduce its parent's work.
	for _, name := range []string{"server.transport_us_per_req", "server.self_us_per_req", "core.check_self_us_per_job",
		"core.rerun_us_per_job", "server.map_self_us_per_read", "bwamem.self_us_per_read"} {
		if m[name] < 0 {
			res.errors = append(res.errors, fmt.Sprintf("%s = %.3f: negative self time is a measurement error", name, m[name]))
		}
	}
	// One file per workload, overwritten: the last traced run's spans.
	res.spanFile = filepath.Join(dir, fmt.Sprintf("spans-%s.jsonl", sp.name))
	return res, rec.writeFile(res.spanFile)
}

// minTracedRequests is replayed whatever the time budget says, so that a
// slow machine still gets a number from more than one request.
const minTracedRequests = 8
