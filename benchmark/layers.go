package main

// layers.go is the only file of the benchmark that calls into the program
// in-process: one small adapter per layer, nothing else. Everything the
// adapters touch is the frozen surface listed in README.md; the end-to-end
// runs never come here (they know CLI flags and the HTTP wire format only).
// The adapters do no timing of their own except where the program calls
// back into them (the Seeder and Extender wrappers) — spans are recorded
// around the adapters by trace.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/chain"
	"seedex/internal/core"
	"seedex/internal/fmindex"
	"seedex/internal/genome"
	"seedex/internal/obs"
	"seedex/internal/readsim"
	"seedex/internal/refstore"
	"seedex/internal/server"
)

// The daemon's defaults, repeated here because the in-process replay must
// run the layers under the flags the daemon child runs under.
const (
	serveBand     = 20
	serveMaxBatch = 64
	serveFlush    = 200 * time.Microsecond
)

// ---- genome, readsim: workload inputs ----

func simulateReference(length int, rng *rand.Rand) []byte {
	return genome.Simulate(genome.SimConfig{Length: length, RepeatFraction: 0.05}, rng)
}

func simulateReads(ref []byte, n, readLen int, rng *rand.Rand) []simRead {
	cfg := readsim.RealisticConfig(n)
	cfg.ReadLen = readLen
	out := make([]simRead, 0, n)
	for _, r := range readsim.Simulate(ref, cfg, rng) {
		out = append(out, simRead{Name: r.ID, Seq: r.Seq, Qual: r.Qual, TruePos: r.TruePos})
	}
	return out
}

func basesToASCII(codes []byte) string { return genome.Decode(codes) }

// ---- oracle: the reads mapped offline with the full-band extender ----

// captureExtender is the benchmark's own harvesting extender: it answers
// with the full-band kernel and keeps every problem it was asked together
// with that answer, which is the extension oracle.
type captureExtender struct {
	inner    align.Extender
	problems []problem
	expects  []extExpect
}

func (c *captureExtender) Extend(q, t []byte, h0 int) align.ExtendResult {
	r := c.inner.Extend(q, t, h0)
	// The wire format refuses empty sequences, so such a problem can never
	// be served; the mapper still gets its answer.
	if len(q) > 0 && len(t) > 0 {
		c.problems = append(c.problems, problem{Q: bytes.Clone(q), T: bytes.Clone(t), H0: h0})
		c.expects = append(c.expects, extExpect{Local: r.Local, LocalT: r.LocalT, LocalQ: r.LocalQ, Global: r.Global, GlobalT: r.GlobalT})
	}
	return r
}

// harvestShards is a constant, not nproc: the order in which problems are
// captured must not depend on the machine.
const harvestShards = 2

// harvestFullBand maps every read through bwamem with core.FullBand and
// returns the extension problems the pipeline dispatched, their full-band
// results, and the full-band mapping of each read.
func harvestFullBand(refName string, ref []byte, reads []simRead) ([]problem, []extExpect, []mapExpect, error) {
	base, err := bwamem.New(refName, ref, nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("indexing the oracle reference: %w", err)
	}
	maps := make([]mapExpect, len(reads))
	caps := make([]*captureExtender, harvestShards)
	var wg sync.WaitGroup
	for s := range caps {
		caps[s] = &captureExtender{inner: core.FullBand{Scoring: align.DefaultScoring()}}
		lo, hi := s*len(reads)/harvestShards, (s+1)*len(reads)/harvestShards
		a := *base
		a.Extender = caps[s]
		m := a.NewMapper()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				rec, al := m.Map(reads[i].Name, reads[i].Seq, reads[i].Qual)
				maps[i] = mapExpect{Mapped: al.Mapped, RName: rec.RName, Pos: rec.Pos, Rev: al.Rev,
					MapQ: al.MapQ, Score: al.Score, Cigar: al.Cigar.String()}
			}
		}()
	}
	wg.Wait()
	var problems []problem
	var expects []extExpect
	for _, c := range caps {
		problems = append(problems, c.problems...)
		expects = append(expects, c.expects...)
	}
	return problems, expects, maps, nil
}

// ---- fmindex, refstore: index build, publication, open ----

func buildIndex(refName string, ref []byte) (*bwamem.Reference, *fmindex.Index, time.Duration, error) {
	r, err := bwamem.BuildReference([]bwamem.Contig{{Name: refName, Seq: ref}})
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	ix, err := fmindex.New(r.Cat)
	return r, ix, time.Since(t0), err
}

func publishIndex(path string, r *bwamem.Reference, ix *fmindex.Index) (fileBytes int64, err error) {
	info, err := refstore.WriteFile(path, r, ix)
	return info.FileBytes, err
}

// openIndex opens the container the way the daemon does (mmap, warm-up
// pass) and pins its generation until release is called.
func openIndex(path string) (store *refstore.Store, g *refstore.Generation, release func(), err error) {
	store, err = refstore.Open(path, refstore.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	g = store.Acquire()
	return store, g, func() { g.Release(); store.Close() }, nil
}

// ---- server, obs: the HTTP surface in-process ----

type inprocServer struct {
	s      *server.Server
	tracer *obs.Tracer
}

// newInprocServer assembles the server the way cmd/seedex-serve does for
// the workload's flags. withObs selects the observability configuration of
// extend_small_obs (-trace-sample 100 -trace-tail); without it the tracer
// is nil, as in a daemon started without trace flags.
func newInprocServer(sp spec, store *refstore.Store, workers int, withObs bool) *inprocServer {
	se := newSeedEx(sp.paper)
	var tracer *obs.Tracer
	if withObs {
		tracer = obs.New(obs.Config{SampleEvery: 100, Tail: obs.TailConfig{Enabled: true}})
	}
	flush := serveFlush
	if sp.flushZero {
		flush = server.FlushOpportunistic
	}
	mapStats := core.NewStats()
	s := server.New(server.Config{
		Extender: se,
		Batch:    server.BatcherConfig{MaxBatch: serveMaxBatch, FlushInterval: flush, Workers: workers},
		Trace:    tracer,
		RefStore: store,
		MapStats: mapStats,
		NewAligner: func(r *bwamem.Reference, ix *fmindex.Index) *bwamem.Aligner {
			a := bwamem.NewWithIndex(r, ix, se)
			a.Stats = mapStats
			return a
		},
	})
	return &inprocServer{s: s, tracer: tracer}
}

func newSeedEx(paper bool) *core.SeedEx {
	se := core.New(serveBand)
	if paper {
		se.Config.Mode = core.ModePaper
	}
	return se
}

// serve is a direct Handler().ServeHTTP with a recorder: no socket.
func (p *inprocServer) serve(path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	p.s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// listen puts the same handler behind a loopback listener.
func (p *inprocServer) listen() (addr string, stop func()) {
	ts := httptest.NewServer(p.s.Handler())
	return ts.Listener.Addr().String(), ts.Close
}

func (p *inprocServer) spansRecorded() int64 { return p.tracer.TraceStats().SpansTotal }

func (p *inprocServer) close() { p.s.Close() }

// extendBatch is one decoded /v1/extend request.
type extendBatch struct {
	reqs []core.Request
	jobs []align.Job
}

// decodeExtendBody is the handler's decode step: encoding/json into
// server.ExtendRequest, then genome.Encode of every sequence.
func decodeExtendBody(body []byte) (extendBatch, error) {
	var req server.ExtendRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return extendBatch{}, err
	}
	b := extendBatch{reqs: make([]core.Request, len(req.Jobs)), jobs: make([]align.Job, len(req.Jobs))}
	for i, j := range req.Jobs {
		b.reqs[i] = core.Request{Q: genome.Encode(j.Query), T: genome.Encode(j.Target), H0: j.H0, Tag: i}
		b.jobs[i] = align.Job{Q: b.reqs[i].Q, T: b.reqs[i].T, H0: j.H0}
	}
	return b, nil
}

// encodeExtendResponse is the handler's encode step.
func encodeExtendResponse(resp []core.Response) ([]byte, error) {
	out := server.ExtendResponse{Results: make([]server.ExtendResult, len(resp))}
	for i, r := range resp {
		out.Results[i] = server.ExtendResult{Local: r.Res.Local, LocalT: r.Res.LocalT, LocalQ: r.Res.LocalQ,
			Global: r.Res.Global, GlobalT: r.Res.GlobalT, Cells: r.Res.Cells, Rerun: r.Rerun}
	}
	return json.Marshal(out)
}

// ---- core, align: speculate, check, rerun ----

// checkerLayer replays one request's jobs through the checker and the
// kernels under it, in batches of serveMaxBatch like the daemon's workers.
type checkerLayer struct {
	chk  *core.Checker
	ws   *align.Workspace
	resp []core.Response
	out  []core.Response
	res  []align.ExtendResult
	bds  []align.BandBoundary
}

func newCheckerLayer(paper bool) *checkerLayer {
	return &checkerLayer{
		chk: core.NewChecker(newSeedEx(paper).Config),
		ws:  align.NewWorkspace(),
		res: make([]align.ExtendResult, serveMaxBatch),
		bds: make([]align.BandBoundary, serveMaxBatch),
	}
}

func chunks(n int, f func(lo, hi int)) {
	for lo := 0; lo < n; lo += serveMaxBatch {
		f(lo, min(lo+serveMaxBatch, n))
	}
}

// extendBatch is core.Checker.ExtendBatchInto: speculate, check, rerun.
func (l *checkerLayer) extendBatch(b extendBatch) []core.Response {
	l.out = l.out[:0]
	chunks(len(b.reqs), func(lo, hi int) {
		l.resp = l.chk.ExtendBatchInto(b.reqs[lo:hi], l.resp)
		l.out = append(l.out, l.resp...)
	})
	return l.out
}

// checkBatch is core.Checker.CheckBatch: speculate and check, no rerun.
// It returns the indices of the jobs whose check failed.
func (l *checkerLayer) checkBatch(b extendBatch, failed []int) []int {
	failed = failed[:0]
	chunks(len(b.reqs), func(lo, hi int) {
		l.resp, _ = l.chk.CheckBatch(b.reqs[lo:hi], l.resp)
		for i, r := range l.resp {
			if r.Rerun {
				failed = append(failed, lo+i)
			}
		}
	})
	return failed
}

// bandedBatch is align.ExtendBandedBatchWS alone, boundaries captured as
// the checker captures them. It returns the DP cells swept.
func (l *checkerLayer) bandedBatch(b extendBatch) (cells int64) {
	cfg := l.chk.Config
	chunks(len(b.jobs), func(lo, hi int) {
		n := hi - lo
		align.ExtendBandedBatchWS(l.ws, b.jobs[lo:hi], cfg.Scoring, cfg.Band, l.res[:n], l.bds[:n])
		for _, r := range l.res[:n] {
			cells += r.Cells
		}
	})
	return cells
}

// fullBand is align.ExtendWS, the rerun kernel, on the failed subset.
func (l *checkerLayer) fullBand(b extendBatch, failed []int) {
	for _, i := range failed {
		align.ExtendWS(l.ws, b.jobs[i].Q, b.jobs[i].T, b.jobs[i].H0, l.chk.Config.Scoring)
	}
}

// laneCounter accumulates align.KernelSnapshot deltas around the packed
// kernel calls it is told about.
type laneCounter struct {
	sum  align.KernelTelemetry
	from align.KernelTelemetry
}

func (c *laneCounter) start() { c.from = align.KernelSnapshot() }

func (c *laneCounter) stop() {
	to := align.KernelSnapshot()
	for t := range to.Groups {
		c.sum.Groups[t] += to.Groups[t] - c.from.Groups[t]
		c.sum.Lanes[t] += to.Lanes[t] - c.from.Lanes[t]
	}
}

func (c *laneCounter) utilization() float64 { return c.sum.LaneUtilization() }

// ---- bwamem, fmindex, chain, sam: the mapping pipeline ----

// callTiming is one call into a wrapped stage, as the wrapper saw it.
type callTiming struct {
	start time.Time
	dur   time.Duration
}

// timedSeeder wraps the public Aligner.Seeder field: it times every call
// and keeps a copy of the seeds for the chain replay.
type timedSeeder struct {
	inner bwamem.Seeder
	calls []callTiming
	seeds [][]chain.Seed
}

func (t *timedSeeder) Seeds(q []byte) []chain.Seed {
	t0 := time.Now()
	s := t.inner.Seeds(q)
	t.calls = append(t.calls, callTiming{t0, time.Since(t0)})
	// The aligner asks for the forward strand first and marks the strand
	// on the slice it gets back; the copy is marked here.
	cp := append([]chain.Seed(nil), s...)
	for i := range cp {
		cp[i].Rev = len(t.seeds)%2 == 1
	}
	t.seeds = append(t.seeds, cp)
	return s
}

// timedDualSeeder keeps the wrapper transparent when the aligner's seeder
// finds both strands in one pass.
type timedDualSeeder struct {
	*timedSeeder
	dual bwamem.DualSeeder
}

func (t timedDualSeeder) SeedsBoth(read []byte) []chain.Seed {
	t0 := time.Now()
	s := t.dual.SeedsBoth(read)
	t.calls = append(t.calls, callTiming{t0, time.Since(t0)})
	var fwd, rev []chain.Seed
	for _, sd := range s {
		if sd.Rev {
			rev = append(rev, sd)
		} else {
			fwd = append(fwd, sd)
		}
	}
	t.seeds = append(t.seeds, fwd, rev)
	return s
}

// timedExtender wraps the public Aligner.Extender field around one
// extension session, batch path included, so the mapper takes the same
// path it takes in the daemon.
type timedExtender struct {
	inner align.BatchExtender
	calls []callTiming
	jobs  int
}

func (t *timedExtender) Extend(q, tg []byte, h0 int) align.ExtendResult {
	t0 := time.Now()
	r := t.inner.Extend(q, tg, h0)
	t.calls = append(t.calls, callTiming{t0, time.Since(t0)})
	t.jobs++
	return r
}

func (t *timedExtender) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	t0 := time.Now()
	dst = t.inner.ExtendJobs(jobs, dst)
	t.calls = append(t.calls, callTiming{t0, time.Since(t0)})
	t.jobs += len(jobs)
	return dst
}

// mapProbe is one mapping session with its seeding and extension stages
// wrapped, plus what the last read left behind for the replays.
type mapProbe struct {
	a      *bwamem.Aligner
	m      *bwamem.Mapper
	seeder *timedSeeder
	ext    *timedExtender

	name      string
	seq, qual []byte
	al        bwamem.Alignment
}

func newMapProbe(r *bwamem.Reference, ix *fmindex.Index, paper bool) *mapProbe {
	ext := &timedExtender{inner: newSeedEx(paper).Session().(align.BatchExtender)}
	a := bwamem.NewWithIndex(r, ix, ext)
	seeder := &timedSeeder{inner: a.Seeder}
	if dual, ok := a.Seeder.(bwamem.DualSeeder); ok {
		a.Seeder = timedDualSeeder{seeder, dual}
	} else {
		a.Seeder = seeder
	}
	return &mapProbe{a: a, m: a.NewMapper(), seeder: seeder, ext: ext}
}

// mapRead is what the daemon's map worker does per read: Mapper.Map and
// the SAM line.
func (p *mapProbe) mapRead(name string, seq, qual []byte) (samLine string, got mapExpect) {
	p.seeder.calls, p.seeder.seeds = p.seeder.calls[:0], p.seeder.seeds[:0]
	p.ext.calls, p.ext.jobs = p.ext.calls[:0], 0
	rec, al := p.m.Map(name, seq, qual)
	p.name, p.seq, p.qual, p.al = name, seq, qual, al
	return rec.String(), mapExpect{Mapped: al.Mapped, RName: rec.RName, Pos: rec.Pos, Rev: al.Rev,
		MapQ: al.MapQ, Score: al.Score, Cigar: al.Cigar.String()}
}

// replayChain is chain.Build on the seeds the last read produced.
func (p *mapProbe) replayChain() {
	for _, s := range p.seeder.seeds {
		chain.Build(s, p.a.ChainCfg)
	}
}

// replaySAM is bwamem.ToSAM and Record.String on the last alignment.
func (p *mapProbe) replaySAM() string {
	return bwamem.ToSAM(p.name, p.seq, p.qual, p.a.RefName, p.al).String()
}
