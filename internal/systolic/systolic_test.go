package systolic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"seedex/internal/align"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

func testCase(rng *rand.Rand) (q, t []byte, h0, w int) {
	qlen := 1 + rng.Intn(90)
	t = randSeq(rng, 1+rng.Intn(120))
	q = randSeq(rng, qlen)
	if rng.Intn(2) == 0 && len(t) >= len(q) {
		copy(q, t[:len(q)])
		for k := 0; k < len(q)/10; k++ {
			q[rng.Intn(len(q))] = byte(rng.Intn(4))
		}
	}
	h0 = 1 + rng.Intn(100)
	w = rng.Intn(25)
	return
}

func sameResult(a, b align.ExtendResult) bool {
	return a.Local == b.Local && a.LocalT == b.LocalT && a.LocalQ == b.LocalQ &&
		a.Global == b.Global && a.GlobalT == b.GlobalT
}

// TestSystolicMatchesBandedKernel: the cycle-level array must be
// cell-for-cell equivalent to the software banded kernel, including the
// boundary E-scores the optimality checks consume.
func TestSystolicMatchesBandedKernel(t *testing.T) {
	sc := align.DefaultScoring()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, tg, h0, w := testCase(rng)
		core := &Core{W: w, Scoring: sc}
		run := core.Extend(q, tg, h0)
		want, wantBd := align.ExtendBanded(q, tg, h0, sc, w)
		if !sameResult(run.Result, want) {
			t.Logf("seed=%d w=%d h0=%d: systolic %+v != kernel %+v", seed, w, h0, run.Result, want)
			return false
		}
		for j := range wantBd.E {
			if run.Boundary.E[j] != wantBd.E[j] {
				t.Logf("seed=%d w=%d: boundary E[%d] = %d, want %d", seed, w, j, run.Boundary.E[j], wantBd.E[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculativeRowCut: without an exception the speculative core must
// still match the exact kernel; with an exception the caller reruns, so
// all we require is that exceptions are raised whenever results deviate.
func TestSpeculativeRowCut(t *testing.T) {
	sc := align.DefaultScoring()
	// Safety on arbitrary (including adversarial) inputs: no exception
	// means the speculative core matched the exact kernel.
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, tg, h0, w := testCase(rng)
		core := &Core{W: w, Scoring: sc, SpeculativeRowCut: true}
		run := core.Extend(q, tg, h0)
		want, _ := align.ExtendBanded(q, tg, h0, sc, w)
		if run.Exception {
			continue
		}
		if !sameResult(run.Result, want) {
			t.Fatalf("seed=%d w=%d: no exception but results differ: %+v vs %+v", seed, w, run.Result, want)
		}
	}
	// Rarity on realistic extension workloads (erroneous copies of the
	// target, the case the paper calls "extremely rare").
	exceptions := 0
	const trials = 500
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed + 10_000))
		tg := randSeq(rng, 120)
		q := append([]byte(nil), tg[:101]...)
		for k := 0; k < 3; k++ {
			q[rng.Intn(len(q))] = byte(rng.Intn(4))
		}
		core := &Core{W: 20, Scoring: sc, SpeculativeRowCut: true}
		if run := core.Extend(q, tg, 30); run.Exception {
			exceptions++
		}
	}
	t.Logf("speculative row-cut exceptions on realistic inputs: %d/%d", exceptions, trials)
	if exceptions > trials/20 {
		t.Fatalf("exception rate implausibly high on realistic inputs: %d/%d", exceptions, trials)
	}
}

func TestCycleModel(t *testing.T) {
	sc := align.DefaultScoring()
	narrow := &Core{W: 20, Scoring: sc}
	full := &Core{W: 50, Scoring: sc}
	q := randSeq(rand.New(rand.NewSource(1)), 101)
	tgN := randSeq(rand.New(rand.NewSource(2)), 121)
	tgF := randSeq(rand.New(rand.NewSource(3)), 151)
	rn := narrow.Extend(q, tgN, 30)
	rf := full.Extend(q, tgF, 30)
	if rn.Cycles >= rf.Cycles {
		t.Fatalf("narrow core latency %d should beat full-band %d", rn.Cycles, rf.Cycles)
	}
	ratio := float64(rf.Cycles) / float64(rn.Cycles)
	if ratio < 1.2 || ratio > 3 {
		t.Fatalf("latency ratio %.2f outside plausible range (paper: 1.9x)", ratio)
	}
	if rn.II <= 0 || rn.II > rn.Cycles {
		t.Fatalf("II %d inconsistent with latency %d", rn.II, rn.Cycles)
	}
	if narrow.PEs() != 41 || full.PEs() != 101 {
		t.Fatalf("PE counts: %d, %d", narrow.PEs(), full.PEs())
	}
	// The closed forms the FPGA and ASIC models charge are what Extend
	// reports: 2·PEs + q + t′ + 1 with t′ = min(t, q+w), so the band clip
	// binds only past Fig 18's 101 × 121 shape on 41 PEs.
	if rn.Cycles != Latency(20, 101, 121) || rn.II != II(101, 121) {
		t.Fatalf("Extend charged %d/%d cycles, closed forms %d/%d", rn.Cycles, rn.II, Latency(20, 101, 121), II(101, 121))
	}
	if got := Latency(20, 101, 121); got != 2*41+101+121+1 {
		t.Fatalf("Latency(20, 101, 121) = %d, want %d", got, 2*41+101+121+1)
	}
	if got := Latency(20, 101, 200); got != 2*41+101+121+1 {
		t.Fatalf("Latency(20, 101, 200) = %d: the band clip did not bind", got)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	sc := align.DefaultScoring()
	core := &Core{W: 5, Scoring: sc}
	q := randSeq(rand.New(rand.NewSource(4)), 40)
	run := core.Extend(q, q, 20)
	if run.ActivePE != run.Result.Cells {
		t.Fatalf("active PE count %d != cells %d", run.ActivePE, run.Result.Cells)
	}
	if run.ActivePE == 0 {
		t.Fatal("no PE activity recorded")
	}
}

func TestDeadInput(t *testing.T) {
	core := &Core{W: 5, Scoring: align.DefaultScoring()}
	run := core.Extend([]byte{0, 1, 2}, []byte{0, 1, 2}, 0)
	if run.Result.Local != 0 {
		t.Fatalf("h0=0 must be dead, got %+v", run.Result)
	}
	if run.Cycles == 0 {
		t.Fatal("cycles must still be charged")
	}
}
