package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"io"

	"seedex/internal/core"
	"seedex/internal/faults"
	"seedex/internal/obs"
	"seedex/internal/refstore"
)

// ExtendJob is one extension problem in the request JSON: align query
// against target (ASCII bases) starting from seed score h0.
type ExtendJob struct {
	Query  string `json:"query"`
	Target string `json:"target"`
	H0     int    `json:"h0"`
}

// ExtendRequest is the POST /v1/extend body.
type ExtendRequest struct {
	Jobs []ExtendJob `json:"jobs"`
	// DeadlineMs, when positive, bounds this request's service time; jobs
	// still queued when it passes are skipped and the request answers 504.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// ExtendResult mirrors align.ExtendResult over the wire, plus the SeedEx
// rerun flag.
type ExtendResult struct {
	Local   int   `json:"local"`
	LocalT  int   `json:"local_t"`
	LocalQ  int   `json:"local_q"`
	Global  int   `json:"global"`
	GlobalT int   `json:"global_t"`
	Cells   int64 `json:"cells"`
	// Rerun reports that the banded result could not be proven optimal and
	// the response came from the host rerun (checked engines only).
	Rerun bool `json:"rerun,omitempty"`
}

// ExtendResponse is the POST /v1/extend reply.
type ExtendResponse struct {
	Results []ExtendResult `json:"results"`
}

// MapRead is one read in the POST /v1/map body (ASCII bases; qual
// optional).
type MapRead struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
	Qual string `json:"qual,omitempty"`
}

// MapRequest is the POST /v1/map body.
type MapRequest struct {
	Reads      []MapRead `json:"reads"`
	DeadlineMs int       `json:"deadline_ms,omitempty"`
}

// MapResult is one mapped read in the reply.
type MapResult struct {
	Name   string `json:"name"`
	Mapped bool   `json:"mapped"`
	RName  string `json:"rname,omitempty"`
	Pos    int    `json:"pos,omitempty"` // 1-based, SAM convention
	Rev    bool   `json:"rev,omitempty"`
	MapQ   int    `json:"mapq"`
	Score  int    `json:"score"`
	Cigar  string `json:"cigar,omitempty"`
	Sam    string `json:"sam"`
}

// MapResponse is the POST /v1/map reply.
type MapResponse struct {
	Results []MapResult `json:"results"`
}

type errorBody struct {
	Error string `json:"error"`
	// RequestID echoes the request's X-Request-Id, so a 429/504 line in a
	// client log correlates with the server's trace of the same request.
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/extend", s.handleExtend)
	s.mux.HandleFunc("POST /v1/extend/stream", s.handleExtendStream)
	s.mux.HandleFunc("POST /v1/map", s.handleMap)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/slow", s.handleTracesSlow)
	s.mux.HandleFunc("GET /debug/journeys", s.handleJourneys)
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
}

// requestID resolves the request's id (client-supplied or minted) and
// echoes it on the response before anything is written.
func requestID(w http.ResponseWriter, r *http.Request) (uint64, string) {
	rid, ridStr := obs.RequestID(r.Header.Get("X-Request-Id"))
	w.Header().Set("X-Request-Id", ridStr)
	return rid, ridStr
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, rid string, format string, args ...any) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), RequestID: rid})
}

// request is the state the three job endpoints share from arrival to
// accounting: identity, trace handle, and the status and size the SLO
// counters and the tracer are told when it is done.
type request struct {
	s      *Server
	w      http.ResponseWriter
	rid    uint64
	ridStr string
	tr     obs.Ref
	start  time.Time
	status int   // what the request came to; for a stream, not necessarily the header sent
	n      int64 // jobs, reads, or stream lines served
}

func (s *Server) begin(w http.ResponseWriter, r *http.Request) request {
	s.met.Requests.Add(1)
	rq := request{s: s, w: w, start: time.Now(), status: http.StatusOK}
	rq.rid, rq.ridStr = requestID(w, r)
	rq.tr = s.trace.Sample(rq.rid)
	return rq
}

// done accounts the finished request: the statuses the availability SLO
// counts as failed serving (client errors like 400/413 are the caller's
// fault and don't burn the availability budget; 413 still tail-retains),
// then the tracer's verdict.
func (rq *request) done() {
	switch rq.status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		rq.s.met.Failed.Add(1)
	}
	rq.s.trace.RequestDone(rq.tr, rq.rid, rq.start, time.Since(rq.start), rq.n, int64(rq.status))
}

// fail answers the request with an error body and records the status.
func (rq *request) fail(status int, format string, args ...any) {
	rq.status = status
	rq.s.writeError(rq.w, status, rq.ridStr, format, args...)
}

// refuseDraining answers 503 once StartDrain has closed admission.
func (rq *request) refuseDraining() bool {
	if !rq.s.draining.Load() {
		return false
	}
	rq.s.met.Draining.Add(1)
	rq.fail(http.StatusServiceUnavailable, "server is draining")
	return true
}

// admitStatus maps a submit error onto its HTTP status and message, and
// counts it.
func (s *Server) admitStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.met.Rejected.Add(1)
		return http.StatusTooManyRequests, "admission queue full, retry later"
	case errors.Is(err, ErrDraining):
		s.met.Draining.Add(1)
		return http.StatusServiceUnavailable, "server is draining"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Only a stream's flow-controlled submit waits long enough to see
		// its context end.
		return http.StatusGatewayTimeout, "deadline exceeded waiting for admission"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// bodyStatus classifies a body read error: 413 when MaxBodyBytes cut the
// body short, 400 otherwise.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBody reads the whole request body into wb, bounded by MaxBodyBytes
// so an oversized body is refused with 413 wherever its first value ends.
// It writes the error reply itself and reports whether the read succeeded.
func (rq *request) readBody(r *http.Request, wb *wireBuf) bool {
	err := wb.readBody(http.MaxBytesReader(rq.w, r.Body, rq.s.cfg.MaxBodyBytes), r.ContentLength)
	if err == nil {
		return true
	}
	rq.s.met.BadInput.Add(1)
	if st := bodyStatus(err); st == http.StatusRequestEntityTooLarge {
		rq.fail(st, "request body larger than %d bytes", rq.s.cfg.MaxBodyBytes)
	} else {
		rq.fail(st, "bad request body: %v", err)
	}
	return false
}

// validateJob bounds one extension job's shape.
func validateJob(j *core.Request, maxSeqLen int) error {
	if len(j.Q) == 0 || len(j.T) == 0 {
		return fmt.Errorf("query and target must be non-empty")
	}
	if len(j.Q) > maxSeqLen || len(j.T) > maxSeqLen {
		return fmt.Errorf("sequence longer than %d bp", maxSeqLen)
	}
	if j.H0 < 0 {
		return fmt.Errorf("h0 must be non-negative")
	}
	return nil
}

// validateRead bounds one read's shape and keeps outside bytes that SAM
// gives meaning to (tabs, newlines, an empty or over-long QNAME) out of
// the record rendered from it: names must match SAM's [!-?A-~]{1,254},
// qualities its [!-~]+.
func validateRead(rd *mapRead, maxSeqLen int) error {
	if len(rd.seq) == 0 || len(rd.seq) > maxSeqLen {
		return fmt.Errorf("seq must hold 1..%d bases", maxSeqLen)
	}
	if len(rd.qual) != 0 && len(rd.qual) != len(rd.seq) {
		return fmt.Errorf("qual length %d != seq length %d", len(rd.qual), len(rd.seq))
	}
	if len(rd.name) == 0 || len(rd.name) > 254 {
		return fmt.Errorf("name must hold 1..254 characters")
	}
	for _, c := range rd.name {
		if c < '!' || c > '~' || c == '@' {
			return fmt.Errorf("name holds byte %#02x outside SAM's [!-?A-~]", c)
		}
	}
	for _, c := range rd.qual {
		if c < '!' || c > '~' {
			return fmt.Errorf("qual holds byte %#02x outside SAM's [!-~]", c)
		}
	}
	return nil
}

func wireResult(r core.Response) ExtendResult {
	return ExtendResult{
		Local:   r.Res.Local,
		LocalT:  r.Res.LocalT,
		LocalQ:  r.Res.LocalQ,
		Global:  r.Res.Global,
		GlobalT: r.Res.GlobalT,
		Cells:   r.Res.Cells,
		Rerun:   r.Rerun,
	}
}

// batchBody is what stays per endpoint of a JSON batch request: how its
// body scans into items, how one item is checked, and how its results
// render. P is the queued payload of one item, R its result; noun names an
// item ("job", "read") in the error strings.
type batchBody[P, R any] struct {
	noun string
	pipe func(*shard) *batcher[job[P, R]]
	// scan parses wb.body into items that alias wb.
	scan        func(wb *wireBuf) (items []P, deadlineMs int, err error)
	validate    func(item *P, maxSeqLen int) error
	appendReply func(dst []byte, res []R) []byte
}

var (
	extendBody = batchBody[core.Request, ExtendResult]{"job", extPipe, (*wireBuf).scanExtend, validateJob, appendExtendReply}
	mapBody    = batchBody[mapRead, MapResult]{"read", mapPipe, (*wireBuf).scanMap, validateRead, appendMapReply}
)

// serveBatch is the lifecycle of one JSON batch request on either
// endpoint: drain check, bounded read and scan, count and shape validation,
// deadline context, one routing decision and the submit loop, then wait
// for the request's own items — which may have coalesced with other
// requests' into shared batches — and reply. The queued items alias the
// request's pooled wireBuf, so it is recycled only on the paths where none
// of them can still be in flight. A request that got as far as a result
// returns the wireBuf with the reply rendered in out, for finish to send;
// every other path has answered already and returns nil.
func serveBatch[P, R any](rq *request, r *http.Request, body *batchBody[P, R]) *wireBuf {
	s, noun := rq.s, body.noun
	if rq.refuseDraining() {
		return nil
	}
	wb := getWire()
	if !rq.readBody(r, wb) {
		putWire(wb)
		return nil
	}
	// reject refuses the body; nothing aliases wb yet.
	reject := func(format string, args ...any) {
		putWire(wb)
		s.met.BadInput.Add(1)
		rq.fail(http.StatusBadRequest, format, args...)
	}
	scanStart := time.Now()
	items, deadlineMs, err := body.scan(wb)
	s.met.DecodeNs.Add(time.Since(scanStart).Nanoseconds())
	s.met.CodecRequests.Add(1)
	if err != nil {
		reject("bad request body: %v", err)
		return nil
	}
	n := len(items)
	rq.n = int64(n)
	if n == 0 || n > s.cfg.MaxJobsPerRequest {
		reject("%ss must hold 1..%d entries", noun, s.cfg.MaxJobsPerRequest)
		return nil
	}
	for i := range items {
		if err := body.validate(&items[i], s.cfg.MaxSeqLen); err != nil {
			reject("%s %d: %v", noun, i, err)
			return nil
		}
	}
	ctx := r.Context()
	if deadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMs)*time.Millisecond)
		defer cancel()
	}

	p := newPending[R](n)
	// All the request's items share one routing decision; a full shard
	// queue fails individual items over to peers inside submit.
	sh := s.router.pick()
	for i := 0; i < n; i++ {
		j := job[P, R]{ctx: ctx, req: items[i], out: p, slot: i, tr: rq.tr, enq: time.Now()}
		if err := submit(s.router, body.pipe, sh, j); err != nil {
			// Refuse the request as a whole: partial results are never
			// served. Items already in flight still write into p, so wait
			// them out; abandon closes done itself if they all landed
			// before it ran. The wireBuf is left to the GC.
			if i > 0 {
				p.abandon(i, n)
				<-p.done
			}
			status, msg := s.admitStatus(err)
			rq.fail(status, "%s", msg)
			return nil
		}
		s.met.Accepted.Add(1)
	}
	select {
	case <-p.done:
		// Expired items resolve as zero-valued placeholders; when the
		// deadline and the last delivery race, this arm can win over
		// ctx.Done(). Never serve those zeros as 200.
		if e := p.expired.Load(); e > 0 {
			putWire(wb)
			rq.fail(http.StatusGatewayTimeout, "deadline exceeded: %d of %d %ss expired before compute", e, n, noun)
			return nil
		}
	case <-ctx.Done():
		// Items are still in flight: workers may yet write spans and read
		// their sequences, so neither the journey buffer nor the wireBuf
		// may be recycled for another request.
		rq.tr.Detach()
		rq.fail(http.StatusGatewayTimeout, "deadline exceeded with %ss in flight", noun)
		return nil
	}
	ready := time.Now()
	s.met.observeLatency(ready.Sub(rq.start))
	wb.out = body.appendReply(wb.out[:0], p.res)
	s.met.EncodeNs.Add(time.Since(ready).Nanoseconds())
	return wb
}

// finish accounts the request, then sends the reply serveBatch rendered, if
// it got that far. In that order: the declared length hands the client the
// whole reply the moment it is written, and the trace a client asks for
// next must already be recorded.
func (rq *request) finish(wb *wireBuf) {
	rq.done()
	if wb == nil {
		return
	}
	h := rq.w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(wb.out)))
	rq.w.Write(wb.out)
	putWire(wb)
}

// handleExtend runs one JSON batch of extension jobs through the
// micro-batcher. Independent requests coalesce into shared device
// batches; each request waits only for its own jobs.
func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) {
	rq := s.begin(w, r)
	rq.finish(serveBatch(&rq, r, &extendBody))
}

// handleMap runs one JSON batch of reads through the mapping pipeline.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	rq := s.begin(w, r)
	if !s.mapEnabled() {
		rq.fail(http.StatusNotImplemented, "mapping endpoint disabled: server started without a reference")
		rq.done()
		return
	}
	rq.finish(serveBatch(&rq, r, &mapBody))
}

// handleExtendStream is the pipelined NDJSON form: one ExtendJob per
// input line, one ExtendResult per output line, in input order. The
// stream window keeps jobs flowing into the micro-batcher while earlier
// results are still being written, so a single client saturates the
// batch pipeline without batching client-side. Once result lines flow the
// 200 header is on the wire; a failure after that reaches the client on a
// trailing error line, and the counters and the tracer under its status.
func (s *Server) handleExtendStream(w http.ResponseWriter, r *http.Request) {
	rq := s.begin(w, r)
	defer rq.done()
	if rq.refuseDraining() {
		return
	}
	ctx := r.Context()
	// Result lines are written while later job lines are still being read:
	// without full duplex an HTTP/1 server stops reading the body at the
	// first flush, and a stream whose tail had not arrived yet ends early.
	// (Not supported: the body must then have been buffered; carry on.)
	_ = http.NewResponseController(w).EnableFullDuplex()
	// Bound the stream like the batch endpoints; hitting the cap surfaces
	// as a decode error on the trailing error line.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := bufio.NewWriter(w)
	defer out.Flush()

	// window holds the pendings of submitted jobs in input order.
	const streamWindow = 256
	window := make(chan *pending[ExtendResult], streamWindow)
	// The reader's one failure: what to tell the client on the trailing
	// error line, and the status to account the stream under. Written
	// before the reader closes window, read after the drain loop saw that.
	var failStatus int
	var failMsg string
	fail := func(status int, format string, args ...any) {
		failStatus, failMsg = status, fmt.Sprintf(format, args...)
	}
	// orphaned: the reader returned with a submitted job it never handed
	// to the drain loop (context cancelled mid-stream). Set before the
	// deferred close(window), so the drain loop observes it after range.
	var orphaned atomic.Bool
	go func() {
		defer close(window)
		br := bufio.NewReader(r.Body)
		var frame []byte
		for i := 0; ; i++ {
			var err error
			if frame, err = frameValue(br, frame[:0]); err != nil {
				if err != io.EOF {
					fail(bodyStatus(err), "line %d: %v", i, err)
				}
				return
			}
			req, err := scanLine(frame)
			if err != nil {
				fail(http.StatusBadRequest, "line %d: %v", i, err)
				return
			}
			if err := validateJob(&req, s.cfg.MaxSeqLen); err != nil {
				s.met.BadInput.Add(1)
				fail(http.StatusBadRequest, "line %d: %v", i, err)
				return
			}
			p := newPending[ExtendResult](1)
			job := extJob{ctx: ctx, req: req, out: p, tr: rq.tr, enq: time.Now()}
			// Streamed jobs route individually: a long stream spreads over
			// the pool.
			if err := s.router.submitWaitExt(ctx, job); err != nil {
				status, _ := s.admitStatus(err)
				fail(status, "%v", err)
				return
			}
			s.met.Accepted.Add(1)
			select {
			case window <- p:
			case <-ctx.Done():
				// Still deliver the pending so the job completion has a
				// home; the writer is gone.
				orphaned.Store(true)
				return
			}
		}
	}()

	var line []byte
	for p := range window {
		select {
		case <-p.done:
		case <-ctx.Done():
			// Undrained stream jobs may still record spans: keep the
			// journey buffer out of the reuse pool.
			rq.tr.Detach()
			return
		}
		if p.expired.Load() > 0 {
			// The job expired in queue: the stream context is gone, and the
			// placeholder result must not be written as real scores.
			rq.tr.Detach()
			return
		}
		line = append(appendExtendResult(line[:0], &p.res[0]), '\n')
		if _, err := out.Write(line); err != nil {
			rq.tr.Detach()
			return
		}
		rq.n++
		if len(window) == 0 {
			out.Flush()
		}
	}
	if orphaned.Load() {
		rq.tr.Detach()
	}
	if failMsg != "" {
		rq.status = failStatus
		json.NewEncoder(out).Encode(errorBody{Error: failMsg, RequestID: rq.ridStr})
	}
}

// metricsBody is the /metrics document: the operational counters plus the
// SeedEx check statistics (shared StatsSnapshot path with the CLI).
type metricsBody struct {
	MetricsSnapshot
	UptimeSec float64           `json:"uptime_sec"`
	Build     obs.BuildInfo     `json:"build"`
	Checks    *checksBody       `json:"checks,omitempty"`
	Faults    *faults.Health    `json:"faults,omitempty"`
	MapQueue  *queueBody        `json:"map_queue,omitempty"`
	Index     *refstore.Status  `json:"index,omitempty"`
	Cluster   *clusterBody      `json:"cluster,omitempty"`
	Shards    []ShardSnapshot   `json:"shards,omitempty"`
	Trace     *obs.Stats        `json:"trace,omitempty"`
	Config    metricsConfigEcho `json:"config"`
}

// clusterBody summarizes the routing tier: shard pool shape plus the
// decision and steal counters summed over shards (the per-shard split is
// in the shards array).
type clusterBody struct {
	Shards   int   `json:"shards"`
	Degraded int   `json:"shards_degraded"`
	Routed   int64 `json:"routed"`
	Rerouted int64 `json:"rerouted"`
	Avoided  int64 `json:"avoided"`
	Steals   int64 `json:"batches_stolen"`
}

type checksBody struct {
	core.StatsSnapshot
	PassRate          float64          `json:"pass_rate"`
	ThresholdOnlyRate float64          `json:"threshold_only_rate"`
	Outcomes          map[string]int64 `json:"outcomes"`
}

type queueBody struct {
	Depth int `json:"depth"`
	Cap   int `json:"cap"`
}

type metricsConfigEcho struct {
	MaxBatch   int     `json:"max_batch"`
	FlushUs    float64 `json:"flush_us"`
	Workers    int     `json:"workers"`
	QueueCap   int     `json:"queue_cap"`
	Shards     int     `json:"shards"`
	MapEnabled bool    `json:"map_enabled"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obs.ContentType)
		s.reg.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, s.buildMetricsBody())
}

// buildMetricsBody assembles the /metrics JSON document (shared with the
// flight recorder's metrics.json).
func (s *Server) buildMetricsBody() metricsBody {
	extDepth, extCap := queueTotals(s, extPipe)
	body := metricsBody{
		MetricsSnapshot: s.met.Snapshot(extDepth, extCap),
		UptimeSec:       time.Since(s.started).Seconds(),
		Build:           s.cfg.Build,
		Shards:          s.ShardSnapshots(),
		Config: metricsConfigEcho{
			MaxBatch:   s.cfg.Batch.MaxBatch,
			FlushUs:    float64(s.cfg.Batch.FlushInterval.Nanoseconds()) / 1e3,
			Workers:    s.cfg.Batch.Workers,
			QueueCap:   s.cfg.Batch.QueueCap,
			Shards:     len(s.shards),
			MapEnabled: s.mapEnabled(),
		},
	}
	cluster := clusterBody{Shards: len(s.shards)}
	for _, snap := range body.Shards {
		if snap.Degraded {
			cluster.Degraded++
		}
		cluster.Routed += snap.Routed
		cluster.Rerouted += snap.Rerouted
		cluster.Avoided += snap.Avoided
		cluster.Steals += snap.Steals
	}
	body.Cluster = &cluster
	if snap, ok := s.checksSnapshot(); ok {
		body.Checks = &checksBody{
			StatsSnapshot:     snap,
			PassRate:          snap.PassRate(),
			ThresholdOnlyRate: snap.ThresholdOnlyRate(),
			Outcomes:          snap.OutcomeCounts(),
		}
	}
	if s.health != nil {
		// All shards share one health source (shared extender); the
		// per-engine view of a multi-engine cluster is in the shards array.
		h := s.health()
		body.Faults = &h
	}
	if s.mapEnabled() {
		depth, capacity := queueTotals(s, mapPipe)
		body.MapQueue = &queueBody{Depth: depth, Cap: capacity}
	}
	if s.cfg.RefStore != nil {
		st := s.cfg.RefStore.Status()
		body.Index = &st
	}
	if s.trace != nil {
		ts := s.trace.TraceStats()
		body.Trace = &ts
	}
	return body
}

// handleTraces exports the span rings: Chrome trace_event JSON by default
// (load into chrome://tracing or Perfetto), NDJSON with ?format=ndjson,
// optionally filtered to one request with ?trace=<request id>. A single
// trace view is stitched: the head-sampled ring spans merge with the
// tail-retained journey (when kept) and with the device-layer spans
// linked from its kernel spans, so the timeline follows the request
// through router pick, batcher, steal, kernel tier and checker/rerun
// coherently. ?trace=<id>&format=journey returns a JSON document with
// the per-stage budget attribution (fractions of total).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		s.writeError(w, http.StatusNotFound, "", "tracing disabled: restart with a positive trace sample rate")
		return
	}
	var spans []obs.SpanData
	if tid := r.URL.Query().Get("trace"); tid != "" {
		id, _ := obs.RequestID(tid)
		spans = s.trace.TraceSpans(id)
		jd, kept := s.trace.Journey(id)
		if kept {
			spans = mergeSpans(spans, jd.Spans)
		}
		spans = s.stitchLinked(spans)
		if r.URL.Query().Get("format") == "journey" {
			doc := struct {
				Trace       string          `json:"trace"`
				Events      []string        `json:"events,omitempty"`
				Verdict     []string        `json:"verdict,omitempty"`
				Attribution obs.Attribution `json:"attribution"`
				Spans       []obs.SpanData  `json:"spans"`
			}{Trace: obs.FormatID(id), Attribution: obs.Attribute(spans), Spans: spans}
			if kept {
				doc.Events, doc.Verdict = jd.Events, jd.Verdict
			}
			writeJSON(w, http.StatusOK, doc)
			return
		}
	} else {
		spans = s.trace.Snapshot()
	}
	s.writeTraceExport(w, r, spans)
}

// mergeSpans unions two span sets, dropping duplicates (a head-sampled
// request records the same span into the ring and its journey buffer).
func mergeSpans(a, b []obs.SpanData) []obs.SpanData {
	type key struct {
		k          obs.Kind
		start, dur int64
		v1, v2     int64
	}
	seen := make(map[key]bool, len(a))
	out := a
	for _, sd := range a {
		seen[key{sd.Kind, sd.Start, sd.Dur, sd.V1, sd.V2}] = true
	}
	for _, sd := range b {
		k := key{sd.Kind, sd.Start, sd.Dur, sd.V1, sd.V2}
		if !seen[k] {
			seen[k] = true
			out = append(out, sd)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// stitchLinked pulls in the device-layer spans each kernel span links to
// (positive links are device batch keys; negative links name index
// generations and have no separate trace to fetch).
func (s *Server) stitchLinked(spans []obs.SpanData) []obs.SpanData {
	seen := map[int64]bool{}
	out := spans
	for _, sd := range spans {
		if sd.Kind != obs.KindKernel || sd.Link <= 0 || seen[sd.Link] {
			continue
		}
		seen[sd.Link] = true
		out = append(out, s.trace.TraceSpans(obs.BatchTraceID(sd.Link))...)
	}
	if len(out) > len(spans) {
		sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	}
	return out
}

// handleJourneys lists the tail-retained request journeys (newest
// first), or one journey with ?trace=<id>.
func (s *Server) handleJourneys(w http.ResponseWriter, r *http.Request) {
	if !s.trace.TailEnabled() {
		s.writeError(w, http.StatusNotFound, "", "tail retention disabled: restart with -trace-tail")
		return
	}
	if tid := r.URL.Query().Get("trace"); tid != "" {
		id, _ := obs.RequestID(tid)
		jd, ok := s.trace.Journey(id)
		if !ok {
			s.writeError(w, http.StatusNotFound, "", "no retained journey for trace %s", tid)
			return
		}
		writeJSON(w, http.StatusOK, jd)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Retained int               `json:"retained"`
		Journeys []obs.JourneyData `json:"journeys"`
	}{Retained: s.trace.TraceStats().TailRetained, Journeys: s.trace.Journeys()})
}

// handleSLO reports the burn-rate engine's full state. A tick runs
// first, so the reply reflects the counters as of this scrape even when
// the background sampler is off (tests, short-lived processes).
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.slo.Tick()
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// handleTracesSlow exports the always-retained top-K slowest request
// spans, slowest first — the tail survives even aggressive sampling.
func (s *Server) handleTracesSlow(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		s.writeError(w, http.StatusNotFound, "", "tracing disabled: restart with a positive trace sample rate")
		return
	}
	s.writeTraceExport(w, r, s.trace.SlowSnapshot())
}

func (s *Server) writeTraceExport(w http.ResponseWriter, r *http.Request, spans []obs.SpanData) {
	_, epochWall := s.trace.Epoch()
	if r.URL.Query().Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		obs.WriteNDJSON(w, epochWall, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTrace(w, epochWall, spans)
}

// reloadBody is the POST /admin/reload reply.
type reloadBody struct {
	OK         bool   `json:"ok"`
	Generation uint64 `json:"generation"` // serving generation after the attempt
	Error      string `json:"error,omitempty"`
}

// handleReload triggers a hot reload of the reference index store (the
// HTTP twin of SIGHUP). The call is synchronous and bounded by the
// store's retry budget: 200 with the new generation on success, 500
// with the rollback error when every attempt failed — in which case
// the previous generation is still serving and /healthz reports the
// degraded-reload state.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	_, ridStr := requestID(w, r)
	if s.cfg.RefStore == nil {
		s.writeError(w, http.StatusNotFound, ridStr, "no reference index store: server started without -index-store")
		return
	}
	gen, err := s.cfg.RefStore.Reload()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, reloadBody{OK: false, Generation: gen, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, reloadBody{OK: true, Generation: gen})
}

// handleHealthz reports the cluster's load-balancer view: "draining"
// answers 503 (admission is closed on every shard — nothing can serve;
// take the instance out of rotation), while "degraded" answers 200 (one
// or more shards fell back to host-only full-band mode; the router sends
// traffic around them, and even an all-degraded pool still serves exact
// results — slower, never wrong, so the LB must not evict it). The shard
// tally and per-shard breaker states ride along for operators; every
// value is a string so minimal clients can decode the body uniformly.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	degraded := 0
	breakers := make([]string, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.health == nil {
			continue
		}
		h := sh.health()
		if h.Degraded {
			degraded++
		}
		breakers = append(breakers, h.Breaker)
	}
	body := map[string]string{
		"shards":          strconv.Itoa(len(s.shards)),
		"shards_degraded": strconv.Itoa(degraded),
	}
	// Index lifecycle: a degraded-reload store (last reload rolled back)
	// still serves exact results from the previous generation, so like
	// breaker degradation it answers 200 — the LB must not evict it, but
	// operators see the state and the rollback counters.
	indexDegraded := false
	if s.cfg.RefStore != nil {
		st := s.cfg.RefStore.Status()
		body["index_generation"] = strconv.FormatUint(st.Generation, 10)
		body["index_reloads"] = strconv.FormatInt(st.Reloads, 10)
		body["index_reload_failures"] = strconv.FormatInt(st.ReloadFailures, 10)
		body["index_rollbacks"] = strconv.FormatInt(st.Rollbacks, 10)
		if st.DegradedReload {
			body["index_state"] = "degraded-reload"
			indexDegraded = true
		} else {
			body["index_state"] = "ok"
		}
	}
	// The SLO burn-rate engine rides along as a note, not a status flip:
	// burning error budget is an alerting concern, and the endpoints are
	// still serving — the LB keeps the instance in rotation.
	if s.slo.Snapshot().Degraded {
		body["slo"] = "degraded-slo"
	} else {
		body["slo"] = "ok"
	}
	if degraded > 0 || indexDegraded {
		body["status"] = "degraded"
		if degraded > 0 {
			if len(s.shards) == 1 {
				body["breaker"] = breakers[0]
			} else {
				body["breakers"] = strings.Join(breakers, ",")
			}
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	body["status"] = "ok"
	writeJSON(w, http.StatusOK, body)
}
