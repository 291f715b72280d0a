package core_test

import (
	"testing"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/driver"
	"seedex/internal/faults"
)

// scalarOnly hides every batch and session method of an extender: what
// core.EngineSession's adapter sees when handed a plain align.Extender.
type scalarOnly struct{ inner align.Extender }

func (s scalarOnly) Extend(q, t []byte, h0 int) align.ExtendResult { return s.inner.Extend(q, t, h0) }

// TestBatchEngineConformance pushes one corpus (readsim reads harvested
// through bwamem plus the adversarial generators, see closedFormCorpus)
// through every implementation of the core.BatchEngine contract and holds
// each to the same terms: responses in request order with Tags echoed,
// dst reused, a non-zero kernel interval, RerunNs positive exactly on the
// jobs a software engine reran, and results equal to the naive full-band
// kernel — except where an engine is inexact by design, and there the
// differences must be exactly the expected set, not merely tolerated.
func TestBatchEngineConformance(t *testing.T) {
	corpus := closedFormCorpus(t)
	sc := align.DefaultScoring()
	const band = 20
	naive := make([]align.ExtendResult, len(corpus))
	banded := make([]align.ExtendResult, len(corpus))
	for i, p := range corpus {
		naive[i], _ = align.NaiveExtend(p.q, p.t, p.h0, sc)
		banded[i], _ = align.NaiveExtendBanded(p.q, p.t, p.h0, sc, band)
	}
	// Paper mode's known gap (EXPERIMENTS.md, strict-mode finding): a job
	// the paper workflow passes keeps its banded result, which is only
	// guaranteed to match full-band in the local triple. The scalar
	// core.Check is the independent statement of which jobs those are.
	paperCfg := core.Config{Band: band, Scoring: sc, Kind: core.SemiGlobal, Mode: core.ModePaper}
	paper := make([]align.ExtendResult, len(corpus))
	for i, p := range corpus {
		paper[i] = naive[i]
		if _, rep := core.Check(p.q, p.t, p.h0, paperCfg); rep.Pass {
			paper[i] = banded[i]
			if paper[i].Local != naive[i].Local || paper[i].LocalT != naive[i].LocalT || paper[i].LocalQ != naive[i].LocalQ {
				t.Fatalf("problem %d: paper mode passed a job whose local triple differs from full-band", i)
			}
		}
	}

	paperSeedEx := core.New(band)
	paperSeedEx.Config.Mode = core.ModePaper
	device := func(f faults.Config) *driver.Engine {
		cfg := driver.DefaultConfig()
		cfg.Band = band
		cfg.TimeScale = 0.02
		cfg.DeviceTimeout = 5 * time.Millisecond
		cfg.RetryBackoff = 20 * time.Microsecond
		f.Seed, f.StallFor = 5, 20*time.Millisecond // stalls reliably pass the deadline
		cfg.Faults = f
		cfg.Breaker = faults.BreakerConfig{TripRatio: 2} // parked: the device stays in the path
		return driver.NewEngine(cfg)
	}
	// Per-response classes at rate; the per-batch classes need more to fire
	// within the corpus's handful of batches.
	const rate, batchRate = 0.2, 0.5
	for _, tc := range []struct {
		name   string
		ext    align.Extender
		want   []align.ExtendResult
		differ bool // want is expected to differ from naive somewhere
		device bool // reruns overlap device time: RerunNs stays zero
	}{
		{"checker-strict", core.New(band), naive, false, false},
		{"checker-paper", paperSeedEx, paper, true, false},
		{"fullband-session", core.FullBand{Scoring: sc}, naive, false, false},
		{"banded-session", core.Banded{Scoring: sc, Band: band}, banded, true, false},
		{"scalar-adapter", scalarOnly{core.FullBand{Scoring: sc}}, naive, false, false},
		{"device-clean", device(faults.Config{}), naive, false, true},
		{"device-corrupt", device(faults.Config{Corrupt: rate}), naive, false, true},
		{"device-flip", device(faults.Config{Flip: rate}), naive, false, true},
		{"device-drop", device(faults.Config{Drop: rate}), naive, false, true},
		{"device-reorder", device(faults.Config{Reorder: rate}), naive, false, true},
		{"device-stall", device(faults.Config{Stall: batchRate}), naive, false, true},
		{"device-corefail", device(faults.Config{CoreFail: batchRate}), naive, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := core.EngineSession(tc.ext)
			if out := eng.ExtendBatchInto(nil, nil); len(out) != 0 {
				t.Fatalf("empty batch returned %d responses", len(out))
			}
			const batch = 64
			dst := make([]core.Response, batch)
			reqs := make([]core.Request, 0, batch)
			differs, reruns := 0, 0
			for lo := 0; lo < len(corpus); lo += batch {
				hi := min(lo+batch, len(corpus))
				reqs = reqs[:0]
				for i := lo; i < hi; i++ {
					// Tags unique within the batch, but neither dense nor ordered.
					reqs = append(reqs, core.Request{Q: corpus[i].q, T: corpus[i].t, H0: corpus[i].h0, Tag: 7 * (hi - i)})
				}
				out := eng.ExtendBatchInto(reqs, dst[:0])
				if len(out) != len(reqs) || &out[0] != &dst[0] {
					t.Fatalf("batch at %d: %d responses for %d requests, dst reused=%v", lo, len(out), len(reqs), &out[0] == &dst[0])
				}
				bi := eng.LastBatch()
				if bi.Start.IsZero() || bi.Dur <= 0 {
					t.Fatalf("batch at %d: empty kernel interval %+v", lo, bi)
				}
				for k, r := range out {
					i := lo + k
					if r.Tag != reqs[k].Tag {
						t.Fatalf("problem %d: response carries tag %d, request %d", i, r.Tag, reqs[k].Tag)
					}
					if !core.SameResult(r.Res, tc.want[i]) {
						t.Fatalf("problem %d: %+v, want %+v (rerun=%v outcome=%v)", i, r.Res, tc.want[i], r.Rerun, r.Outcome)
					}
					if !core.SameResult(tc.want[i], naive[i]) {
						differs++
					}
					if r.Rerun {
						reruns++
					}
					if !tc.device && (r.RerunNs > 0) != r.Rerun {
						t.Fatalf("problem %d: rerun=%v but RerunNs=%d", i, r.Rerun, r.RerunNs)
					}
					if tc.device && r.RerunNs != 0 {
						t.Fatalf("problem %d: device engine reported RerunNs=%d", i, r.RerunNs)
					}
				}
			}
			if tc.differ != (differs > 0) {
				t.Fatalf("%d results differ from full-band; expected-difference set non-empty: %v", differs, tc.differ)
			}
			switch x := tc.ext.(type) {
			case *core.SeedEx:
				if reruns == 0 || x.Stats.Snapshot().Reruns != int64(reruns) {
					t.Fatalf("%d responses flagged rerun, stats recorded %d", reruns, x.Stats.Snapshot().Reruns)
				}
			case *driver.Engine:
				if f := x.Device().Injector().Counters().Total(); (f > 0) != (tc.name != "device-clean") {
					t.Fatalf("%d faults injected", f)
				}
			}
		})
	}
}
