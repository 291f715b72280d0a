package bwamem

import (
	"math/rand"
	"testing"

	"seedex/internal/core"
	"seedex/internal/fmindex"

	"seedex/internal/align"
)

func mem(qb, l, occ int) fmindex.MEM {
	return fmindex.MEM{QBeg: qb, Len: l, Occ: occ}
}

func TestSelectMEMsPassthrough(t *testing.T) {
	sel := DefaultSeedSelection()
	// Disabled, single-MEM, and under-budget sets come back untouched.
	in := []fmindex.MEM{mem(0, 30, 40), mem(35, 30, 40)}
	if got := selectMEMs(in, SeedSelection{}); len(got) != 2 {
		t.Fatalf("disabled selection pruned: %v", got)
	}
	if got := selectMEMs(in[:1], sel); len(got) != 1 {
		t.Fatalf("single MEM pruned: %v", got)
	}
	if got := selectMEMs(in, sel); len(got) != 2 {
		t.Fatalf("under-budget set pruned (total occ 80 <= %d): %v", sel.OccBudget, got)
	}
}

func TestSelectMEMsPrunesRepeatDense(t *testing.T) {
	sel := DefaultSeedSelection()
	// Two overlapping MEMs covering the same span: the cheaper one wins.
	in := []fmindex.MEM{mem(0, 50, 200), mem(5, 50, 30), mem(60, 40, 10)}
	got := selectMEMs(in, sel)
	if len(got) != 2 || got[0].QBeg != 5 || got[1].QBeg != 60 {
		t.Fatalf("selection picked %v", got)
	}
	// Coverage dominates occurrence count: a wide expensive MEM beats a
	// narrow cheap one.
	in = []fmindex.MEM{mem(0, 80, 200), mem(10, 20, 1)}
	got = selectMEMs(in, sel)
	if len(got) != 1 || got[0].QBeg != 0 {
		t.Fatalf("coverage not maximized: %v", got)
	}
}

func TestSelectMEMsOrderAndCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sel := SeedSelection{Enable: true, OccBudget: 0}
	for trial := 0; trial < 200; trial++ {
		var in []fmindex.MEM
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			in = append(in, mem(rng.Intn(80), 19+rng.Intn(40), 1+rng.Intn(60)))
		}
		got := selectMEMs(in, sel)
		if len(got) == 0 {
			t.Fatalf("empty selection from %v", in)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].QBeg+got[i-1].Len > got[i].QBeg {
				t.Fatalf("selected MEMs overlap or out of order: %v", got)
			}
		}
	}
}

// sameMapping compares every Alignment field the mapping output depends
// on — everything except the Extensions cost counter.
func sameMapping(a, b Alignment) bool {
	return a.Mapped == b.Mapped && a.RName == b.RName && a.Pos == b.Pos &&
		a.Rev == b.Rev && a.Score == b.Score && a.SubScore == b.SubScore &&
		a.MapQ == b.MapQ && a.Cigar.String() == b.Cigar.String()
}

// TestSeedSelectionPipelineEquivalence: with the default budget, typical
// workloads (whose reads stay under it) must map identically with the
// pass disabled — selection only engages on repeat-dense reads.
func TestSeedSelectionPipelineEquivalence(t *testing.T) {
	ref, reads := simWorld(t, 40_000, 150, 31)
	withSel, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	noSel, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	noSel.Seeder = FMSeeder{
		Index: withSel.Seeder.(FMSeeder).Index,
		Cfg:   fmindex.DefaultSMEMConfig(),
	}
	for _, r := range reads {
		if !sameMapping(withSel.AlignRead(r.Seq), noSel.AlignRead(r.Seq)) {
			t.Fatalf("read %s: default-budget selection changed the mapping", r.ID)
		}
	}
}
