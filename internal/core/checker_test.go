package core

import (
	"fmt"
	"math/rand"
	"testing"

	"seedex/internal/align"
)

// TestCheckerMatchesCheck: the workspace-holding Checker must reproduce the
// package-level Check bit-for-bit — results and full reports — across
// random workloads, bands and both modes.
func TestCheckerMatchesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sc := align.DefaultScoring()
	for _, mode := range []Mode{ModePaper, ModeStrict} {
		for _, w := range []int{1, 3, 8, 16, 40} {
			cfg := Config{Band: w, Scoring: sc, Kind: SemiGlobal, Mode: mode}
			chk := NewChecker(cfg)
			for iter := 0; iter < 300; iter++ {
				var q, tg []byte
				var h0 int
				if iter%2 == 0 {
					q, tg, h0 = realisticCase(rng)
				} else {
					q, tg, h0 = adversarialCase(rng)
				}
				wantRes, wantRep := Check(q, tg, h0, cfg)
				gotRes, gotRep := chk.Check(q, tg, h0)
				if gotRes != wantRes {
					t.Fatalf("mode=%d w=%d iter=%d: result %+v != %+v", mode, w, iter, gotRes, wantRes)
				}
				if gotRep != wantRep {
					t.Fatalf("mode=%d w=%d iter=%d: report %+v != %+v", mode, w, iter, gotRep, wantRep)
				}
			}
		}
	}
}

// TestCheckerExtendMatchesSeedEx: Checker.Extend (and a Session minted from
// a SeedEx) must agree with SeedEx.Extend, including the stats trail.
func TestCheckerExtendMatchesSeedEx(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	se := New(8)
	sess := se.Session()
	chk := NewChecker(se.Config)
	chk.Stats = NewStats()
	for iter := 0; iter < 400; iter++ {
		q, tg, h0 := realisticCase(rng)
		want := se.Extend(q, tg, h0)
		if got := sess.Extend(q, tg, h0); got != want {
			t.Fatalf("iter %d: session %+v != seedex %+v", iter, got, want)
		}
		if got := chk.Extend(q, tg, h0); got != want {
			t.Fatalf("iter %d: checker %+v != seedex %+v", iter, got, want)
		}
	}
	// The session shares the parent's stats; the standalone checker has its
	// own. Both views must be consistent.
	if se.Stats.Total.Load() != 800 {
		t.Fatalf("seedex+session recorded %d extensions, want 800", se.Stats.Total.Load())
	}
	if chk.Stats.Total.Load() != 400 {
		t.Fatalf("checker recorded %d extensions, want 400", chk.Stats.Total.Load())
	}
	if se.Stats.Passed.Load()+se.Stats.Reruns.Load() != se.Stats.Total.Load() {
		t.Fatalf("stats do not add up: %v", se.Stats.Snapshot())
	}
}

// TestExtendBatch: request order, tags and rerun flags must survive
// batching, and every response must equal the full-band ground truth.
func TestExtendBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	cfg := Config{Band: 6, Scoring: align.DefaultScoring(), Kind: SemiGlobal, Mode: ModeStrict}
	chk := NewChecker(cfg)
	chk.Stats = NewStats()
	reqs := make([]Request, 120)
	for i := range reqs {
		q, tg, h0 := realisticCase(rng)
		reqs[i] = Request{Q: q, T: tg, H0: h0, Tag: 1000 + i}
	}
	resps := chk.ExtendBatch(reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	reruns := 0
	for i, r := range resps {
		if r.Tag != reqs[i].Tag {
			t.Fatalf("response %d carries tag %d, want %d", i, r.Tag, reqs[i].Tag)
		}
		want := align.Extend(reqs[i].Q, reqs[i].T, reqs[i].H0, cfg.Scoring)
		if got := r.Res; got.Local != want.Local || got.LocalT != want.LocalT || got.LocalQ != want.LocalQ ||
			got.Global != want.Global || got.GlobalT != want.GlobalT {
			t.Fatalf("request %d: %+v != full-band %+v (rerun=%v)", i, got, want, r.Rerun)
		}
		if r.Rerun {
			reruns++
		}
	}
	if int64(reruns) != chk.Stats.Reruns.Load() {
		t.Fatalf("rerun flags (%d) disagree with stats (%d)", reruns, chk.Stats.Reruns.Load())
	}
	// Into-form reuses the response slice.
	again := chk.ExtendBatchInto(reqs, resps)
	if &again[0] != &resps[0] {
		t.Fatal("ExtendBatchInto must reuse the destination backing array")
	}
}

// TestExtendBatchMixedShapesStats: mixed-shape batches — lengths that never
// fill a full SWAR lane group, degenerate jobs, adversarial inputs — must
// leave exactly the same trail in core.Stats as running every request
// through the scalar path, with identical responses.
func TestExtendBatchMixedShapesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, mode := range []Mode{ModePaper, ModeStrict} {
		for _, w := range []int{3, 8, 20} {
			cfg := Config{Band: w, Scoring: align.DefaultScoring(), Kind: SemiGlobal, Mode: mode}
			batched := NewChecker(cfg)
			batched.Stats = NewStats()
			scalar := NewChecker(cfg)
			scalar.Stats = NewStats()

			// Batch sizes chosen to leave lane groups partial (never a
			// multiple of 8), including single-job batches.
			var dst []Response
			for _, size := range []int{1, 2, 3, 5, 7, 9, 11, 13, 17, 23} {
				reqs := make([]Request, size)
				for i := range reqs {
					var q, tg []byte
					var h0 int
					switch i % 4 {
					case 0:
						q, tg, h0 = realisticCase(rng)
					case 1:
						q, tg, h0 = adversarialCase(rng)
					case 2: // tiny shapes: lane-demotion territory
						q, tg, h0 = randSeq(rng, 1+rng.Intn(4)), randSeq(rng, 1+rng.Intn(4)), 1+rng.Intn(10)
					default: // degenerate: empty query/target or dead seed
						switch rng.Intn(3) {
						case 0:
							q, tg, h0 = nil, randSeq(rng, 20), 30
						case 1:
							q, tg, h0 = randSeq(rng, 20), nil, 30
						default:
							q, tg, h0 = randSeq(rng, 20), randSeq(rng, 25), -rng.Intn(3)
						}
					}
					reqs[i] = Request{Q: q, T: tg, H0: h0, Tag: i}
				}
				dst = batched.ExtendBatchInto(reqs, dst)
				for i, r := range reqs {
					// Rows/Cells are work-model fields and legitimately
					// differ (the packed kernels report a deterministic
					// full-sweep count); every result field must match.
					want := scalar.Extend(r.Q, r.T, r.H0)
					got := dst[i].Res
					if got.Local != want.Local || got.LocalT != want.LocalT || got.LocalQ != want.LocalQ ||
						got.Global != want.Global || got.GlobalT != want.GlobalT {
						t.Fatalf("mode=%d w=%d size=%d req=%d: batch %+v != scalar %+v",
							mode, w, size, i, got, want)
					}
					if dst[i].Tag != r.Tag {
						t.Fatalf("mode=%d w=%d size=%d req=%d: tag %d != %d", mode, w, size, i, dst[i].Tag, r.Tag)
					}
				}
			}

			// Every counter the two paths recorded must agree.
			b, s := batched.Stats, scalar.Stats
			if b.Total.Load() != s.Total.Load() || b.Passed.Load() != s.Passed.Load() ||
				b.Reruns.Load() != s.Reruns.Load() || b.ThresholdOnly.Load() != s.ThresholdOnly.Load() {
				t.Fatalf("mode=%d w=%d: counters diverge: batch %v, scalar %v", mode, w, b.Snapshot(), s.Snapshot())
			}
			for o := PassFullCover; o <= FailGlobal; o++ {
				if b.OutcomeCount(o) != s.OutcomeCount(o) {
					t.Fatalf("mode=%d w=%d: outcome %v: batch %d, scalar %d",
						mode, w, o, b.OutcomeCount(o), s.OutcomeCount(o))
				}
			}
			if b.Passed.Load()+b.Reruns.Load() != b.Total.Load() {
				t.Fatalf("mode=%d w=%d: stats do not add up: %v", mode, w, b.Snapshot())
			}
		}
	}
}

// TestCheckerZeroAllocs: steady-state Checker.Check and the batch path must
// not allocate — the tentpole property extended through the check workflow.
func TestCheckerZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	cfg := Config{Band: 8, Scoring: align.DefaultScoring(), Kind: SemiGlobal, Mode: ModeStrict}
	chk := NewChecker(cfg)
	chk.Stats = NewStats()
	q, tg, h0 := realisticCase(rng)
	chk.Extend(q, tg, h0) // warm every buffer, including the rerun path
	if n := testing.AllocsPerRun(200, func() {
		chk.Check(q, tg, h0)
	}); n != 0 {
		t.Fatalf("Checker.Check allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		chk.Extend(q, tg, h0)
	}); n != 0 {
		t.Fatalf("Checker.Extend allocates %.1f allocs/op, want 0", n)
	}
	reqs := make([]Request, 16)
	for i := range reqs {
		qq, tt, hh := realisticCase(rng)
		reqs[i] = Request{Q: qq, T: tt, H0: hh, Tag: i}
	}
	dst := chk.ExtendBatch(reqs)
	if n := testing.AllocsPerRun(100, func() {
		dst = chk.ExtendBatchInto(reqs, dst)
	}); n != 0 {
		t.Fatalf("ExtendBatchInto allocates %.1f allocs/op, want 0", n)
	}
	// The path the server runs: strict CheckBatch (checks, no reruns).
	if n := testing.AllocsPerRun(100, func() {
		dst, _ = chk.CheckBatch(reqs, dst)
	}); n != 0 {
		t.Fatalf("strict CheckBatch allocates %.1f allocs/op, want 0", n)
	}
}

// TestSessionExtenders: every extender flavour must satisfy
// align.SessionExtender and its sessions must match the parent.
func TestSessionExtenders(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	sc := align.DefaultScoring()
	parents := []align.SessionExtender{
		New(8),
		FullBand{Scoring: sc},
		Banded{Scoring: sc, Band: 8},
	}
	for pi, p := range parents {
		sess := p.Session()
		for iter := 0; iter < 200; iter++ {
			q, tg, h0 := realisticCase(rng)
			if got, want := sess.Extend(q, tg, h0), p.Extend(q, tg, h0); got != want {
				t.Fatalf("parent %d iter %d: session %+v != parent %+v", pi, iter, got, want)
			}
		}
	}
}

// plainFallback is a fallback with no batch path: a bare align.Extender
// that counts the reruns it is asked for.
type plainFallback struct {
	sc    align.Scoring
	calls int
}

func (f *plainFallback) Extend(q, t []byte, h0 int) align.ExtendResult {
	f.calls++
	return align.Extend(q, t, h0, f.sc)
}

// TestPooledRerunIdentity: rerunning a batch's failed checks as one pooled
// full-band batch is the per-job workflow (Check, record, Rerun on
// failure) in everything but time — the five score fields, the rerun
// flags and outcomes, and the trail in core.Stats — for both modes, for
// the default, a batch and a non-batch Fallback, and for batches of only
// failures, no failures, one failure and a mix. The shares of the pooled
// interval mark exactly the rerun jobs and add up to it.
func TestPooledRerunIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	sc := align.DefaultScoring()
	for _, mode := range []Mode{ModeStrict, ModePaper} {
		cfg := Config{Band: 8, Scoring: sc, Kind: SemiGlobal, Mode: mode}
		// Sort generated problems by their per-job verdict.
		var pass, fail []Request
		probe := NewChecker(cfg)
		for iter := 0; len(pass) < 24 || len(fail) < 24; iter++ {
			q, tg, h0 := realisticCase(rng)
			if iter%2 == 1 {
				q, tg, h0 = adversarialCase(rng)
			}
			if _, rep := probe.Check(q, tg, h0); rep.Pass {
				pass = append(pass, Request{Q: q, T: tg, H0: h0})
			} else {
				fail = append(fail, Request{Q: q, T: tg, H0: h0})
			}
		}
		var mixed []Request
		for i := 0; i < 19; i++ {
			mixed = append(mixed, pass[i], fail[i])
		}
		batches := []struct {
			name string
			reqs []Request
		}{
			{"all-failures", fail[:23]},
			{"no-failures", pass[:23]},
			{"one-failure", append(append(append([]Request(nil), pass[:11]...), fail[0]), pass[11:20]...)},
			{"mixed", mixed},
		}
		for _, fb := range []struct {
			name string
			mint func() align.Extender
		}{
			{"default", func() align.Extender { return nil }},
			{"batch", func() align.Extender { return FullBand{Scoring: sc} }},
			{"non-batch", func() align.Extender { return &plainFallback{sc: sc} }},
		} {
			for _, b := range batches {
				name := fmt.Sprintf("mode=%d/%s/%s", mode, fb.name, b.name)
				reqs := append([]Request(nil), b.reqs...)
				jobs := make([]align.Job, len(reqs))
				for i := range reqs {
					reqs[i].Tag = 3 * i
					jobs[i] = align.Job{Q: reqs[i].Q, T: reqs[i].T, H0: reqs[i].H0}
				}

				// The per-job workflow is the statement of what must come out.
				perJob := &Checker{Config: cfg, Fallback: fb.mint(), Stats: NewStats()}
				want := make([]align.ExtendResult, len(reqs))
				reps := make([]Report, len(reqs))
				failures := 0
				for i, r := range reqs {
					want[i], reps[i] = perJob.Check(r.Q, r.T, r.H0)
					perJob.Stats.record(reps[i])
					if !reps[i].Pass {
						want[i] = perJob.Rerun(r.Q, r.T, r.H0)
						failures++
					}
				}

				pooled := &Checker{Config: cfg, Fallback: fb.mint(), Stats: NewStats()}
				got := pooled.ExtendBatchInto(reqs, nil)
				var shares int64
				for i, r := range got {
					if !sameResult(r.Res, want[i]) {
						t.Fatalf("%s: request %d: pooled %+v, per-job %+v", name, i, r.Res, want[i])
					}
					if r.Tag != reqs[i].Tag || r.Rerun == reps[i].Pass || r.Outcome != reps[i].Outcome {
						t.Fatalf("%s: request %d: tag %d rerun %v outcome %v, want %d, %v, %v",
							name, i, r.Tag, r.Rerun, r.Outcome, reqs[i].Tag, !reps[i].Pass, reps[i].Outcome)
					}
					if (r.RerunNs > 0) != r.Rerun {
						t.Fatalf("%s: request %d: rerun=%v with a share of %d ns", name, i, r.Rerun, r.RerunNs)
					}
					shares += r.RerunNs
				}
				if bi := pooled.LastBatch(); shares != int64(bi.Rerun) || (bi.Rerun > 0) != (failures > 0) {
					t.Fatalf("%s: shares add up to %d ns, pooled interval %v, %d failures", name, shares, bi.Rerun, failures)
				}
				if pooled.Stats.Snapshot() != perJob.Stats.Snapshot() {
					t.Fatalf("%s: ExtendBatchInto stats %v, per-job %v", name, pooled.Stats.Snapshot(), perJob.Stats.Snapshot())
				}
				if f, ok := pooled.Fallback.(*plainFallback); ok && f.calls != failures {
					t.Fatalf("%s: fallback ran %d times for %d failures", name, f.calls, failures)
				}

				byJobs := &Checker{Config: cfg, Fallback: fb.mint(), Stats: NewStats()}
				for i, r := range byJobs.ExtendJobs(jobs, nil) {
					if !sameResult(r, want[i]) {
						t.Fatalf("%s: job %d: ExtendJobs %+v, per-job %+v", name, i, r, want[i])
					}
				}
				if byJobs.Stats.Snapshot() != perJob.Stats.Snapshot() {
					t.Fatalf("%s: ExtendJobs stats %v, per-job %v", name, byJobs.Stats.Snapshot(), perJob.Stats.Snapshot())
				}
			}
		}
	}
}
