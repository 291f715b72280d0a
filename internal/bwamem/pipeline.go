package bwamem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/align"
	"seedex/internal/chain"
	"seedex/internal/sam"
)

// Read is one input read for the pipeline.
type Read struct {
	Name string
	Seq  []byte // base codes
	Qual []byte // ASCII qualities (may be nil)
}

// ExtJob records the shape of one extension dispatched to the extender;
// the FPGA simulator replays these shapes for the Figure 17 model.
type ExtJob struct {
	QLen, TLen int
}

// InstrumentedExtender wraps an extender with time/work accounting, the
// pipeline's analogue of the paper's FPGA-thread bookkeeping.
type InstrumentedExtender struct {
	Inner align.Extender
	ns    atomic.Int64
	calls atomic.Int64
	mu    sync.Mutex
	jobs  []ExtJob
	// KeepJobs records job shapes for the FPGA replay model.
	KeepJobs bool
}

var _ align.Extender = (*InstrumentedExtender)(nil)

// Extend implements align.Extender.
func (ie *InstrumentedExtender) Extend(q, t []byte, h0 int) align.ExtendResult {
	start := time.Now()
	res := ie.Inner.Extend(q, t, h0)
	ie.ns.Add(time.Since(start).Nanoseconds())
	ie.calls.Add(1)
	if ie.KeepJobs {
		ie.mu.Lock()
		ie.jobs = append(ie.jobs, ExtJob{QLen: len(q), TLen: len(t)})
		ie.mu.Unlock()
	}
	return res
}

// ExtendJobs implements align.BatchExtender, forwarding batches to the
// inner extender while accounting each job into the shared counters.
func (ie *InstrumentedExtender) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	start := time.Now()
	dst = align.ExtendJobs(ie.Inner, jobs, dst)
	ie.ns.Add(time.Since(start).Nanoseconds())
	ie.calls.Add(int64(len(jobs)))
	if ie.KeepJobs {
		ie.mu.Lock()
		for i := range jobs {
			ie.jobs = append(ie.jobs, ExtJob{QLen: len(jobs[i].Q), TLen: len(jobs[i].T)})
		}
		ie.mu.Unlock()
	}
	return dst
}

var _ align.BatchExtender = (*InstrumentedExtender)(nil)

// Session implements align.SessionExtender: the session extends through a
// per-goroutine session of the inner extender (when it offers one) while
// accounting into this wrapper's shared atomic counters.
func (ie *InstrumentedExtender) Session() align.Extender {
	inner := ie.Inner
	if se, ok := inner.(align.SessionExtender); ok {
		inner = se.Session()
	}
	return &instrumentedSession{parent: ie, inner: inner}
}

var _ align.SessionExtender = (*InstrumentedExtender)(nil)

type instrumentedSession struct {
	parent *InstrumentedExtender
	inner  align.Extender
}

func (s *instrumentedSession) Extend(q, t []byte, h0 int) align.ExtendResult {
	start := time.Now()
	res := s.inner.Extend(q, t, h0)
	ie := s.parent
	ie.ns.Add(time.Since(start).Nanoseconds())
	ie.calls.Add(1)
	if ie.KeepJobs {
		ie.mu.Lock()
		ie.jobs = append(ie.jobs, ExtJob{QLen: len(q), TLen: len(t)})
		ie.mu.Unlock()
	}
	return res
}

// ExtendJobs forwards a batch through the session's inner extender,
// accounting into the parent's shared counters.
func (s *instrumentedSession) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	start := time.Now()
	dst = align.ExtendJobs(s.inner, jobs, dst)
	ie := s.parent
	ie.ns.Add(time.Since(start).Nanoseconds())
	ie.calls.Add(int64(len(jobs)))
	if ie.KeepJobs {
		ie.mu.Lock()
		for i := range jobs {
			ie.jobs = append(ie.jobs, ExtJob{QLen: len(jobs[i].Q), TLen: len(jobs[i].T)})
		}
		ie.mu.Unlock()
	}
	return dst
}

var _ align.BatchExtender = (*instrumentedSession)(nil)

// Ns returns the accumulated extension CPU time.
func (ie *InstrumentedExtender) Ns() int64 { return ie.ns.Load() }

// Calls returns the number of extensions.
func (ie *InstrumentedExtender) Calls() int64 { return ie.calls.Load() }

// Jobs returns the recorded job shapes.
func (ie *InstrumentedExtender) Jobs() []ExtJob {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	return append([]ExtJob(nil), ie.jobs...)
}

// Stats aggregates one pipeline run (the Figure 17 breakdown source).
type Stats struct {
	Reads       int
	Mapped      int
	Extensions  int64
	SeedingNs   int64 // seeding + chaining
	ExtensionNs int64 // extender calls
	RestNs      int64 // everything else (candidate resolution, traceback, SAM)
	TotalNs     int64 // wall-clock across workers (sum of per-read times)
}

// Run aligns all reads with the given worker parallelism (0 = GOMAXPROCS),
// mirroring the producer-consumer threading of Figure 12, and returns SAM
// records in input order plus the stage-time breakdown.
func (a *Aligner) Run(reads []Read, workers int) ([]sam.Record, Stats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	recs := make([]sam.Record, len(reads))
	var stats Stats
	stats.Reads = len(reads)
	var mapped, extensions, seedNs, extNs, restNs, totalNs atomic.Int64

	// One prefilled default-quality buffer shared by every read lacking
	// qualities; ToSAM copies the slice into the record, so handing out
	// read-only sub-slices is safe across workers.
	maxQual := 0
	for _, r := range reads {
		if r.Qual == nil && len(r.Seq) > maxQual {
			maxQual = len(r.Seq)
		}
	}
	defaultQual := make([]byte, maxQual)
	for k := range defaultQual {
		defaultQual[k] = 'I'
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker aligner view: private extension session and
			// timing probes built once, not once per read.
			st := a.newWorkerState()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reads) {
					return
				}
				r := reads[i]
				t0 := time.Now()
				al, tm := st.alignTimed(r.Seq)
				qual := r.Qual
				if qual == nil {
					qual = defaultQual[:len(r.Seq)]
				}
				recs[i] = ToSAM(r.Name, r.Seq, qual, a.RefName, al)
				if al.Mapped {
					mapped.Add(1)
				}
				extensions.Add(int64(al.Extensions))
				seedNs.Add(tm.seedNs)
				extNs.Add(tm.extNs)
				total := time.Since(t0).Nanoseconds()
				totalNs.Add(total)
				restNs.Add(total - tm.seedNs - tm.extNs)
			}
		}()
	}
	wg.Wait()
	stats.Mapped = int(mapped.Load())
	stats.Extensions = extensions.Load()
	stats.SeedingNs = seedNs.Load()
	stats.ExtensionNs = extNs.Load()
	stats.RestNs = restNs.Load()
	stats.TotalNs = totalNs.Load()
	return recs, stats
}

type readTimes struct {
	seedNs, extNs int64
}

// workerState is one worker's private view of the shared aligner: a
// shallow copy whose seeder and extender are wrapped with timing probes,
// whose extender is a per-worker session (own scratch memory) when the
// configured extender offers one, and which owns its traceback workspace.
// The shared aligner is never mutated.
type workerState struct {
	cp    Aligner
	probe *stageProbe
}

func (a *Aligner) newWorkerState() *workerState {
	probe := &stageProbe{}
	ext := a.Extender
	if se, ok := ext.(align.SessionExtender); ok {
		ext = se.Session()
	}
	cp := *a
	cp.trace = &align.TraceWorkspace{}
	cp.Seeder = wrapSeeder(a.Seeder, probe)
	cp.Extender = &timedExtenderProbe{inner: ext, probe: probe}
	return &workerState{cp: cp, probe: probe}
}

// alignTimed is AlignRead with per-stage attribution.
func (st *workerState) alignTimed(read []byte) (Alignment, readTimes) {
	st.probe.seedNs, st.probe.extNs = 0, 0
	al := st.cp.AlignRead(read)
	return al, readTimes{seedNs: st.probe.seedNs, extNs: st.probe.extNs}
}

type stageProbe struct {
	seedNs, extNs int64 // per-read, single goroutine: no atomics needed
}

type timedSeeder struct {
	inner Seeder
	probe *stageProbe
}

func (ts *timedSeeder) Seeds(q []byte) []chain.Seed {
	start := time.Now()
	s := ts.inner.Seeds(q)
	ts.probe.seedNs += time.Since(start).Nanoseconds()
	return s
}

// timedDualSeeder preserves the DualSeeder upgrade through the timing
// wrapper.
type timedDualSeeder struct {
	timedSeeder
	dual DualSeeder
}

func (ts *timedDualSeeder) SeedsBoth(read []byte) []chain.Seed {
	start := time.Now()
	s := ts.dual.SeedsBoth(read)
	ts.probe.seedNs += time.Since(start).Nanoseconds()
	return s
}

func wrapSeeder(inner Seeder, probe *stageProbe) Seeder {
	if d, ok := inner.(DualSeeder); ok {
		return &timedDualSeeder{timedSeeder{inner, probe}, d}
	}
	return &timedSeeder{inner, probe}
}

type timedExtenderProbe struct {
	inner align.Extender
	probe *stageProbe
}

func (te *timedExtenderProbe) Extend(q, t []byte, h0 int) align.ExtendResult {
	start := time.Now()
	res := te.inner.Extend(q, t, h0)
	te.probe.extNs += time.Since(start).Nanoseconds()
	return res
}

// ExtendJobs keeps the per-worker extender batch-capable so alignChain's
// batched path survives the timing wrapper.
func (te *timedExtenderProbe) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	start := time.Now()
	dst = align.ExtendJobs(te.inner, jobs, dst)
	te.probe.extNs += time.Since(start).Nanoseconds()
	return dst
}

var _ align.BatchExtender = (*timedExtenderProbe)(nil)
