package core_test

import (
	"testing"

	"seedex/internal/align"
	"seedex/internal/core"
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

	const batch = 64
	paperSeedEx := core.New(band)
	paperSeedEx.Config.Mode = core.ModePaper
	for _, tc := range []struct {
		name   string
		ext    align.Extender
		want   []align.ExtendResult
		differ bool // want is expected to differ from naive somewhere
	}{
		{"checker-strict", core.New(band), naive, false},
		{"checker-paper", paperSeedEx, paper, true},
		{"fullband-session", core.FullBand{Scoring: sc}, naive, false},
		{"banded-session", core.Banded{Scoring: sc, Band: band}, banded, true},
		{"scalar-adapter", scalarOnly{core.FullBand{Scoring: sc}}, naive, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := core.EngineSession(tc.ext)
			if out := eng.ExtendBatchInto(nil, nil); len(out) != 0 {
				t.Fatalf("empty batch returned %d responses", len(out))
			}
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
					if (r.RerunNs > 0) != r.Rerun {
						t.Fatalf("problem %d: rerun=%v but RerunNs=%d", i, r.Rerun, r.RerunNs)
					}
				}
			}
			if tc.differ != (differs > 0) {
				t.Fatalf("%d results differ from full-band; expected-difference set non-empty: %v", differs, tc.differ)
			}
			if x, ok := tc.ext.(*core.SeedEx); ok {
				if reruns == 0 || x.Stats.Snapshot().Reruns != int64(reruns) {
					t.Fatalf("%d responses flagged rerun, stats recorded %d", reruns, x.Stats.Snapshot().Reruns)
				}
			}
		})
	}
}
