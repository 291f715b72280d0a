package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/fmindex"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

// harvestExtender records the extension problems a mapper dispatches and
// answers them over the full band.
type harvestExtender struct {
	mu   sync.Mutex
	jobs []ExtendJob
}

func (h *harvestExtender) Extend(q, t []byte, h0 int) align.ExtendResult {
	h.mu.Lock()
	h.jobs = append(h.jobs, ExtendJob{Query: genome.Decode(q), Target: genome.Decode(t), H0: h0})
	h.mu.Unlock()
	return align.Extend(q, t, h0, align.DefaultScoring())
}

// harvestWorld is a 150 bp mapping corpus: the reference, its reads as a
// /v1/map request, and the extension problems mapping them dispatches.
func harvestWorld(t *testing.T) (ref []byte, req MapRequest, jobs []ExtendJob) {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	ref = genome.Simulate(genome.SimConfig{Length: 40_000, RepeatFraction: 0.05}, rng)
	cfg := readsim.RealisticConfig(160)
	cfg.ReadLen = 150
	reads := readsim.Simulate(ref, cfg, rng)
	h := &harvestExtender{}
	a, err := bwamem.New("chrT", ref, h)
	if err != nil {
		t.Fatal(err)
	}
	pr := make([]bwamem.Read, len(reads))
	for i, r := range reads {
		pr[i] = bwamem.Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual}
		req.Reads = append(req.Reads, MapRead{Name: r.ID, Seq: genome.Decode(r.Seq), Qual: string(r.Qual)})
	}
	a.Run(pr, 1)
	return ref, req, h.jobs
}

// TestExtendContractHarvest: /v1/extend keeps its five-field promise
// whatever the batch paths skip. Over the problems a mapper dispatches,
// every reply's five fields are the full band's and its rerun flag is the
// per-job workflow's (Check, then a full-band rerun on failure); the
// engine /v1/extend runs returns the same fields, flags and outcomes.
func TestExtendContractHarvest(t *testing.T) {
	_, _, jobs := harvestWorld(t)
	se := core.New(20)
	_, ts := newTestServer(t, Config{Extender: se})

	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	reqs := make([]core.Request, len(jobs))
	for i, j := range jobs {
		reqs[i] = core.Request{Q: genome.Encode(j.Query), T: genome.Encode(j.Target), H0: j.H0, Tag: i}
	}
	engine := core.EngineSession(se).ExtendBatchInto(reqs, nil)
	reruns := 0
	for i, r := range reqs {
		_, rep := core.Check(r.Q, r.T, r.H0, se.Config)
		full := align.Extend(r.Q, r.T, r.H0, se.Config.Scoring)
		want := ExtendResult{Local: full.Local, LocalT: full.LocalT, LocalQ: full.LocalQ,
			Global: full.Global, GlobalT: full.GlobalT, Rerun: !rep.Pass}
		got := out.Results[i]
		got.Cells = 0
		if got != want {
			t.Fatalf("job %d: served %+v, per-job workflow %+v (%v)", i, got, want, rep.Outcome)
		}
		e := engine[i]
		if e.Res.Local != full.Local || e.Res.LocalT != full.LocalT || e.Res.LocalQ != full.LocalQ ||
			e.Res.Global != full.Global || e.Res.GlobalT != full.GlobalT || e.Rerun != !rep.Pass || e.Outcome != rep.Outcome {
			t.Fatalf("job %d: engine %+v rerun=%v %v, per-job %+v rerun=%v %v", i, e.Res, e.Rerun, e.Outcome, full, !rep.Pass, rep.Outcome)
		}
		if !rep.Pass {
			reruns++
		}
	}
	if reruns == 0 || se.Stats.Certified.Load() == 0 {
		t.Fatalf("%d jobs: %d reruns, %d certified — the harvest exercises neither shortcut", len(jobs), reruns, se.Stats.Certified.Load())
	}
}

// TestMapOutcomeMetrics: the mapper's sessions state their consumer, so
// after mapped batches /metrics and the Prometheus families count the
// pass-resolve outcome beside the others — the reruns the mapper skipped
// are not counted as reruns.
func TestMapOutcomeMetrics(t *testing.T) {
	ref, req, _ := harvestWorld(t)
	se := core.New(20)
	_, ts := newTestServer(t, Config{
		Extender: se,
		RefStore: openRefStore(t, ref),
		NewAligner: func(r *bwamem.Reference, ix *fmindex.Index) *bwamem.Aligner {
			return bwamem.NewWithIndex(r, ix, se)
		},
	})
	for lo := 0; lo < len(req.Reads); lo += 16 {
		resp := postJSON(t, ts.URL+"/v1/map", MapRequest{Reads: req.Reads[lo:min(lo+16, len(req.Reads))]})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("map status %d", resp.StatusCode)
		}
	}
	waived := se.Stats.OutcomeCount(core.PassResolve)
	if waived == 0 {
		t.Fatalf("no pass-resolve after %d mapped reads: %v", len(req.Reads), se.Stats)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met struct {
		Checks struct {
			core.StatsSnapshot
			Outcomes map[string]int64 `json:"outcomes"`
		} `json:"checks"`
	}
	err = json.NewDecoder(mresp.Body).Decode(&met)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Checks.Outcomes["pass-resolve"]; got != waived {
		t.Fatalf("/metrics checks.outcomes[pass-resolve] = %d, want %d (%v)", got, waived, met.Checks.Outcomes)
	}
	if met.Checks.Passed+met.Checks.Reruns != met.Checks.Total {
		t.Fatalf("/metrics checks do not add up: %+v", met.Checks)
	}

	sc := scrapeProm(t, ts.URL)
	if got := sc.samples[`seedex_check_outcome_total{outcome="pass-resolve"}`]; got != float64(waived) {
		t.Fatalf(`seedex_check_outcome_total{outcome="pass-resolve"} = %v, want %d`, got, waived)
	}
}
