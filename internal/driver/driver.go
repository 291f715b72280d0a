// Package driver models the SeedEx host-FPGA integration of §V-B and
// Figure 12 with real concurrency: seeding threads produce extension
// batches into a queue; a pool of FPGA threads packages each batch,
// DMAs it to device DRAM over a shared XDMA channel, acquires the device
// lock, issues batch_start over the OCL channel, polls for batch_done,
// retrieves results, and performs the host reruns for extensions whose
// optimality checks failed. Multiple FPGA threads interleave so the DMA
// and host post-processing of one batch overlap the device compute of
// another, exactly the latency-concealment strategy the paper describes.
//
// The device itself is simulated: functionally it runs the SeedEx check
// workflow per extension (narrow band + checks), and its batch latency
// comes from the discrete-event system model in internal/fpga scaled to
// a configurable wall-clock factor.
//
// The driver treats the device as untrusted hardware. Every response
// carries an integrity word stamped at batch_done, and the retrieval path
// cross-checks count, IDs, integrity words and score sanity against the
// request metadata; anything that fails validation is contained into the
// host full-band rerun the workflow already budgets for, so results stay
// bit-identical to the full-band oracle under any fault (see
// internal/faults for the injectable fault classes). Batch-level failures
// (deadline expiry, whole-core failure) retry under a bounded
// attempt/backoff budget, and a sliding-window circuit breaker degrades
// the platform into host-only full-band mode when the device misbehaves
// persistently, probing it back in once it recovers.
package driver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/faults"
	"seedex/internal/fpga"
	"seedex/internal/hw"
)

// Request is one seed extension offered to the accelerator. Responses
// arrive out of order (identified by Tag) and are rearranged by the
// consumer (the paper's post-process stage). It is the batch-API request
// type of internal/core, so batches flow into core.Checker.ExtendBatch
// without conversion.
type Request = core.Request

// Response carries one extension result back to the host; Rerun marks
// results recomputed on the host — because the device's optimality checks
// failed, or because the device response failed integrity validation.
type Response = core.Response

// Batch-level device failures, surfaced by the retry loop.
var (
	// ErrDeviceTimeout: batch_done did not arrive within DeviceTimeout.
	ErrDeviceTimeout = errors.New("driver: device batch deadline exceeded")
	// ErrCoreFailure: the device aborted the batch (whole-core failure).
	ErrCoreFailure = errors.New("driver: device core failure")
)

// Config tunes the simulated platform.
type Config struct {
	// Band is the device's one-sided narrow band.
	Band int
	// Scoring is the affine scheme.
	Scoring align.Scoring
	// BatchSize is the number of extensions per device batch.
	BatchSize int
	// FPGAThreads is the host thread pool driving the device.
	FPGAThreads int
	// TimeScale multiplies modeled device/DMA nanoseconds into wall
	// nanoseconds (1 = real-time model; larger values make the
	// simulation observable in tests).
	TimeScale float64
	// DMABandwidthBytesPerNs is the modeled XDMA bandwidth (PCIe x16:
	// ~16 GB/s = 16 bytes/ns).
	DMABandwidthBytesPerNs float64

	// Faults configures the chaos injector (zero = no injection; the
	// validation and containment layers stay active either way).
	Faults faults.Config
	// DeviceTimeout is the per-batch wall-clock deadline from batch_start
	// to batch_done (0 disables the deadline).
	DeviceTimeout time.Duration
	// MaxAttempts bounds device attempts per batch (deadline expiries and
	// core failures retry; default 3). When the budget runs out the whole
	// batch falls back to host full-band extension.
	MaxAttempts int
	// RetryBackoff is the base of the exponential backoff between
	// attempts (default 100µs; attempt k waits RetryBackoff << k).
	RetryBackoff time.Duration
	// Breaker tunes the degradation circuit breaker (zero fields take the
	// faults.BreakerConfig defaults).
	Breaker faults.BreakerConfig
}

// DefaultConfig mirrors the paper's deployment shape.
func DefaultConfig() Config {
	return Config{
		Band: 20, Scoring: align.DefaultScoring(),
		BatchSize: 256, FPGAThreads: 4,
		TimeScale: 1, DMABandwidthBytesPerNs: 16,
		MaxAttempts: 3, RetryBackoff: 100 * time.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.FPGAThreads <= 0 {
		c.FPGAThreads = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Microsecond
	}
	return c
}

// Device is the simulated FPGA: one batch in flight at a time (the state
// lock of §V-B), check-workflow functional behaviour, modeled latency,
// plus the fault-tolerance state shared by every thread driving it (chaos
// injector, circuit breaker, shared DMA channel).
type Device struct {
	cfg Config
	sim fpga.Config
	// mu is the FPGA state lock an FPGA thread must hold from
	// batch_start to batch_done.
	mu sync.Mutex
	// dma is the shared XDMA channel every FPGA thread transfers over.
	dma sync.Mutex
	// inj draws deterministic fault decisions (silent when Faults is
	// zero).
	inj *faults.Injector
	// brk degrades the platform to host-only mode under sustained device
	// misbehaviour.
	brk *faults.Breaker
	// Stats from the device's check workflow.
	Stats *core.Stats
	// BatchesRun counts batches the device completed (failed attempts and
	// host-only batches are not counted).
	BatchesRun int64
	// HostReruns counts extensions recomputed on the host because their
	// optimality checks failed or their device response failed
	// validation.
	HostReruns atomic.Int64
	// DeviceFaults counts device responses that failed integrity
	// validation (bad count, unknown/duplicate ID, integrity-word
	// mismatch, insane scores) and were contained into host reruns.
	DeviceFaults atomic.Int64
	// DeviceRetries counts device batch attempts retried after a
	// per-batch deadline expiry or a whole-core failure.
	DeviceRetries atomic.Int64
	// BreakerTrips counts closed->open transitions of the circuit breaker
	// (entries into host-only degraded mode).
	BreakerTrips atomic.Int64
	// HostOnly counts extensions served entirely by the host full-band
	// kernel because the breaker was open or the retry budget ran out.
	HostOnly atomic.Int64
	// OverlappedReruns counts host reruns that executed while the device
	// was busy with another thread's batch — the latency-concealment
	// overlap of §V-B made observable.
	OverlappedReruns atomic.Int64
	// busy is 1 while a batch occupies the device (batch_start ..
	// batch_done).
	busy atomic.Int32
}

// NewDevice builds the simulated device.
func NewDevice(cfg Config) *Device {
	cfg = cfg.withDefaults()
	return &Device{
		cfg:   cfg,
		sim:   fpga.DefaultSeedEx(),
		inj:   faults.NewInjector(cfg.Faults),
		brk:   faults.NewBreaker(cfg.Breaker),
		Stats: core.NewStats(),
	}
}

// Injector exposes the chaos injector (rates are live-tunable).
func (d *Device) Injector() *faults.Injector { return d.inj }

// Breaker exposes the degradation circuit breaker.
func (d *Device) Breaker() *faults.Breaker { return d.brk }

// Health snapshots the device's fault-tolerance status: breaker state,
// injected faults and the containment counters.
func (d *Device) Health() faults.Health {
	st := d.brk.State()
	return faults.Health{
		Breaker:  st.String(),
		Degraded: st != faults.Closed,
		Injected: d.inj.Counters(),
		Detected: d.DeviceFaults.Load(),
		Retries:  d.DeviceRetries.Load(),
		Trips:    d.BreakerTrips.Load(),
		HostOnly: d.HostOnly.Load(),
	}
}

// Checker mints a per-thread check session configured like the device.
// Each FPGA thread holds one for its lifetime: the banded kernel, the
// edit machine and the host rerun all reuse its scratch.
func (d *Device) Checker() *core.Checker {
	return core.NewChecker(core.Config{Band: d.cfg.Band, Scoring: d.cfg.Scoring, Kind: core.SemiGlobal, Mode: core.ModeStrict})
}

// compute produces the batch's functional results via the SeedEx check
// workflow, plus the job shapes for the latency model. In the real
// system this happens inside the silicon; in the simulation it is host
// CPU work, so it runs *outside* the modeled timeline (before the device
// lock), keeping the timing model clean. Results and jobs reuse the
// caller's buffers; reruns are NOT performed here (the post-retrieval
// step does them, overlapped with other threads' device time).
func (d *Device) compute(chk *core.Checker, reqs []Request, out []Response, jobs []fpga.Job) ([]Response, []fpga.Job) {
	if cap(out) < len(reqs) {
		out = make([]Response, len(reqs))
	}
	out = out[:len(reqs)]
	if cap(jobs) < len(reqs) {
		jobs = make([]fpga.Job, len(reqs))
	}
	jobs = jobs[:len(reqs)]
	// One packed (SWAR) kernel invocation covers the whole batch's banded
	// extensions — the software mirror of the systolic cores chewing a DMA
	// batch in parallel — followed by the per-extension optimality checks.
	out, reps := chk.CheckBatch(reqs, out)
	for i, r := range reqs {
		d.Stats.Record(reps[i])
		jobs[i] = fpga.Job{QLen: len(r.Q), TLen: len(r.T), NeedsEdit: reps[i].EditRan, Rerun: !reps[i].Pass}
	}
	return out, jobs
}

// dmaHold occupies the shared XDMA channel for ns modeled nanoseconds.
func (d *Device) dmaHold(ctx context.Context, ns float64) error {
	d.dma.Lock()
	defer d.dma.Unlock()
	return sleepCtx(ctx, scaled(ns, d.cfg.TimeScale))
}

// occupy holds the device for the modeled batch latency (the
// batch_start .. batch_done window), plus any injected stall. The caller
// must hold the state lock. With a DeviceTimeout configured, a batch
// whose (stalled) latency exceeds it holds the device until the deadline
// and reports ErrDeviceTimeout — batch_done was never observed. A
// core-failed batch spends its device time but aborts at batch_done;
// only completed batches count in BatchesRun.
func (d *Device) occupy(ctx context.Context, jobs []fpga.Job, plan faults.Plan) error {
	d.busy.Store(1)
	defer d.busy.Store(0)
	rep := fpga.Simulate(d.sim, jobs)
	dur := scaled(float64(rep.Cycles)*hw.ClockNs, d.cfg.TimeScale) + plan.Stall
	if dl := d.cfg.DeviceTimeout; dl > 0 && dur > dl {
		if err := sleepCtx(ctx, dl); err != nil {
			return err
		}
		return ErrDeviceTimeout
	}
	if err := sleepCtx(ctx, dur); err != nil {
		return err
	}
	if plan.CoreFail {
		return ErrCoreFailure
	}
	d.BatchesRun++
	return nil
}

// transact is one device attempt for a batch: input DMA, batch_start ..
// batch_done under the state lock (with any injected stall or core
// failure), and result retrieval over the coalesced output lines.
func (d *Device) transact(ctx context.Context, inBytes, nResp int, jobs []fpga.Job, plan faults.Plan) error {
	// 1. Package + DMA the inputs to device DRAM.
	if err := d.dmaHold(ctx, float64(inBytes)/d.cfg.DMABandwidthBytesPerNs); err != nil {
		return err
	}
	// 2-4. Acquire the device, batch_start .. batch_done.
	d.mu.Lock()
	err := d.occupy(ctx, jobs, plan)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	// 5. Retrieve results (5:1 coalesced lines). Only the retrieval
	// itself holds the DMA channel.
	return d.dmaHold(ctx, float64(nResp*64/5)/d.cfg.DMABandwidthBytesPerNs)
}

// session is one FPGA thread's lifetime state: a check session plus the
// reusable batch buffers for honest results, wire-format responses and
// validation scratch.
type session struct {
	dev     *Device
	chk     *core.Checker
	resps   []Response
	jobs    []fpga.Job
	wire    []wireResp
	tagIdx  map[int]int
	covered []bool
	present []bool
}

func (d *Device) newSession() *session {
	return &session{dev: d, chk: d.Checker(), tagIdx: make(map[int]int)}
}

// process drives one batch through the platform with full fault
// tolerance and writes one validated, rerun-completed Response per
// request into dst (parallel to reqs; dst must have len(reqs) entries).
// key identifies the batch to the chaos injector. The only error returned
// is ctx's: every device misbehaviour is contained into host compute.
func (s *session) process(ctx context.Context, key int64, reqs []Request, dst []Response) error {
	d := s.dev
	if len(reqs) == 0 {
		return ctx.Err()
	}
	if !d.brk.Allow() {
		// Degraded mode: the breaker holds the device out of the path.
		d.HostOnly.Add(int64(len(reqs)))
		s.hostAll(reqs, dst)
		return ctx.Err()
	}
	// Functional mirror of the silicon (untimed, see Device.compute);
	// retries re-transfer and re-time the batch but the honest results
	// are computed — and the check stats recorded — exactly once.
	s.resps, s.jobs = d.compute(s.chk, reqs, s.resps, s.jobs)
	inBytes := 0
	for _, r := range reqs {
		inBytes += (len(r.Q)+len(r.T))*3/8 + 16
	}

	ok := false
	for attempt := 0; attempt < d.cfg.MaxAttempts; attempt++ {
		plan := d.inj.BatchPlan(key, int64(attempt), len(s.resps))
		// Stamp integrity words over the honest responses, then let the
		// plan corrupt the in-flight copy (post-stamp: wire faults).
		s.wire = stampWire(s.resps, s.wire)
		applyPlan(plan, s.wire)
		s.wire = applyDrops(plan, s.wire)
		err := d.transact(ctx, inBytes, len(reqs), s.jobs, plan)
		if err == nil {
			ok = true
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Batch-level failure: deadline expiry or whole-core failure.
		d.DeviceRetries.Add(1)
		if d.brk.Record(false) {
			d.BreakerTrips.Add(1)
		}
		if attempt+1 >= d.cfg.MaxAttempts || !d.brk.Allow() {
			break
		}
		if err := sleepCtx(ctx, d.cfg.RetryBackoff<<attempt); err != nil {
			return err
		}
	}
	if !ok {
		// Retry budget exhausted (or the breaker tripped mid-retry): the
		// batch degrades into exactly the host full-band rerun the paper
		// budgets for.
		d.HostOnly.Add(int64(len(reqs)))
		s.hostAll(reqs, dst)
		return ctx.Err()
	}

	// Validate the retrieved batch against the request metadata and
	// deliver; anything unproven reruns on the host. Reruns execute
	// outside every lock, so they overlap other threads' DMA and device
	// time; the checker's workspace makes each rerun allocation-free.
	bad := s.validate(reqs, dst)
	if bad > 0 {
		d.DeviceFaults.Add(int64(bad))
	}
	if d.brk.Record(bad == 0) {
		d.BreakerTrips.Add(1)
	}
	for i := range dst {
		if dst[i].Rerun {
			dst[i].Res = s.chk.Rerun(reqs[i].Q, reqs[i].T, reqs[i].H0)
			d.HostReruns.Add(1)
			if d.busy.Load() != 0 {
				d.OverlappedReruns.Add(1)
			}
		}
	}
	return ctx.Err()
}

// hostAll serves the whole batch with the host full-band kernel.
func (s *session) hostAll(reqs []Request, dst []Response) {
	for i, r := range reqs {
		dst[i] = Response{Tag: r.Tag, Res: s.chk.Rerun(r.Q, r.T, r.H0), Rerun: true, Outcome: core.OutcomeUnknown}
	}
}

// Run drives all requests through the platform and returns responses in
// request order (rearranged from out-of-order completion). The returned
// results are bit-identical to full-band extension: passing checks
// guarantee it; failing checks, detected device faults and degraded-mode
// batches all route through host reruns here.
func Run(cfg Config, dev *Device, reqs []Request) []Response {
	out, _ := RunContext(context.Background(), cfg, dev, reqs)
	return out
}

// Run is RunContext with the device's own configuration: the method form
// front-ends use for cancellable batch runs.
func (d *Device) Run(ctx context.Context, reqs []Request) ([]Response, error) {
	return RunContext(ctx, d.cfg, d, reqs)
}

// RunContext is Run with cancellation: when ctx is cancelled the
// producer stops feeding batches, in-flight device waits and retry
// backoffs abort, and the call returns promptly with ctx's error (the
// partial output is returned but unfinished entries are zero-valued).
func RunContext(ctx context.Context, cfg Config, dev *Device, reqs []Request) ([]Response, error) {
	cfg = cfg.withDefaults()
	reqs = binSorted(reqs, cfg)
	type batch struct {
		key  int
		reqs []Request
	}
	batches := make(chan batch)
	go func() { // the seeding stage's batching producer
		defer close(batches)
		for lo := 0; lo < len(reqs); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(reqs) {
				hi = len(reqs)
			}
			select {
			case batches <- batch{key: lo / cfg.BatchSize, reqs: reqs[lo:hi]}:
			case <-ctx.Done():
				return
			}
		}
	}()

	out := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < cfg.FPGAThreads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-thread session: one checker (banded kernel + edit
			// machine + rerun scratch) and reusable response/job buffers
			// for this thread's lifetime.
			s := dev.newSession()
			dst := make([]Response, cfg.BatchSize)
			for b := range batches {
				if ctx.Err() != nil {
					continue // drain the channel, abort promptly
				}
				dst = dst[:len(b.reqs)]
				if err := s.process(ctx, int64(b.key), b.reqs, dst); err != nil {
					continue
				}
				for i := range dst {
					out[dst[i].Tag] = dst[i]
				}
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// binSorted returns the requests reordered by kernel shape bin so that
// each fixed-size batch cut by the producer packs near-homogeneous SWAR
// lane groups (cross-batch scheduling): without it, a mixed workload
// scatters short and long problems across every batch and each batch pays
// for its longest shapes. The sort is stable on the input order (batch
// composition, and therefore fault-injection replay, stays deterministic)
// and works on a copy — responses find their output slot through Tag, so
// the feeding order is free. A single batch is left untouched: binning
// inside one batch is the kernel sort's job.
func binSorted(reqs []Request, cfg Config) []Request {
	if len(reqs) <= cfg.BatchSize {
		return reqs
	}
	// Stable counting sort over the (small) bin alphabet: one ShapeBin
	// call per request, O(n) placement.
	keys := make([]uint8, len(reqs))
	var count [align.NumShapeBins + 1]int
	for i := range reqs {
		r := &reqs[i]
		k := align.ShapeBin(len(r.Q), len(r.T), r.H0, cfg.Scoring)
		keys[i] = uint8(k)
		count[k+1]++
	}
	for k := 1; k <= align.NumShapeBins; k++ {
		count[k] += count[k-1]
	}
	binned := make([]Request, len(reqs))
	for i := range reqs {
		binned[count[keys[i]]] = reqs[i]
		count[keys[i]]++
	}
	return binned
}

// scaled converts modeled nanoseconds into a wall-clock duration.
func scaled(ns float64, scale float64) time.Duration {
	if scale <= 0 {
		scale = 1
	}
	return time.Duration(ns * scale)
}

// sleepCtx sleeps for d, aborting early when ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
