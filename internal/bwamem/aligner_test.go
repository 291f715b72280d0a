package bwamem

import (
	"math/rand"
	"testing"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

func simWorld(t *testing.T, refLen, nReads int, seed int64) ([]byte, []readsim.Read) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Simulate(genome.SimConfig{Length: refLen, RepeatFraction: 0.05}, rng)
	reads := readsim.Simulate(ref, readsim.DefaultConfig(nReads), rng)
	return ref, reads
}

func toPipelineReads(reads []readsim.Read) []Read {
	out := make([]Read, len(reads))
	for i, r := range reads {
		out[i] = Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual}
	}
	return out
}

// TestAccuracyAgainstGroundTruth: the aligner must recover the simulated
// origin for the overwhelming majority of reads.
func TestAccuracyAgainstGroundTruth(t *testing.T) {
	ref, reads := simWorld(t, 60_000, 300, 1)
	a, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	correct, mapped := 0, 0
	for _, r := range reads {
		al := a.AlignRead(r.Seq)
		if !al.Mapped {
			continue
		}
		mapped++
		d := al.Pos - r.TruePos
		if d < 0 {
			d = -d
		}
		if d <= 12 && al.Rev == r.RevComp {
			correct++
		}
	}
	if mapped < len(reads)*95/100 {
		t.Fatalf("mapped %d/%d reads", mapped, len(reads))
	}
	if correct < mapped*95/100 {
		t.Fatalf("correct %d/%d mapped reads", correct, mapped)
	}
	t.Logf("mapped %d/%d, correct %d", mapped, len(reads), correct)
}

// TestSeedExPipelineBitEquivalence is the paper's headline validation at
// pipeline level: SAM from the SeedEx extender is byte-identical to SAM
// from the full-band extender, for every band setting (Figure 13's
// SeedEx series is identically zero).
func TestSeedExPipelineBitEquivalence(t *testing.T) {
	ref, reads := simWorld(t, 50_000, 250, 2)
	full, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, _ := full.Run(toPipelineReads(reads), 4)
	for _, w := range []int{3, 10, 20} {
		se := core.New(w)
		a, err := New("chrSim", ref, se)
		if err != nil {
			t.Fatal(err)
		}
		gotRecs, _ := a.Run(toPipelineReads(reads), 4)
		for i := range wantRecs {
			if gotRecs[i].String() != wantRecs[i].String() {
				t.Fatalf("w=%d read %d: SAM differs\n seedex: %s\n full:   %s", w, i, gotRecs[i], wantRecs[i])
			}
		}
		if se.Stats.Total.Load() == 0 {
			t.Fatal("no extensions went through the checker")
		}
		t.Logf("w=%d: %s", w, se.Stats)
	}
}

// TestBandedPipelineDiffers: the plain banded heuristic (no checks) must
// produce output differences at small bands — the effect Figure 13
// quantifies and SeedEx eliminates.
func TestBandedPipelineDiffers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := genome.Simulate(genome.SimConfig{Length: 50_000}, rng)
	// Indel-rich workload: ~1/3 of reads carry an indel, many longer than
	// one base, so a w=1 band must miss optimal paths.
	cfg := readsim.DefaultConfig(400)
	cfg.IndelRate = 0.004
	reads := readsim.Simulate(ref, cfg, rng)
	full, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, _ := full.Run(toPipelineReads(reads), 4)
	banded, err := New("chrSim", ref, core.Banded{Scoring: align.DefaultScoring(), Band: 1})
	if err != nil {
		t.Fatal(err)
	}
	banded.Opts.TraceBand = 1
	gotRecs, _ := banded.Run(toPipelineReads(reads), 4)
	diffs := 0
	for i := range wantRecs {
		if gotRecs[i].String() != wantRecs[i].String() {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("w=1 banded pipeline produced zero differences; Figure 13's effect is absent")
	}
	t.Logf("w=1 banded pipeline: %d/%d SAM entries differ", diffs, len(reads))
}

func TestSAMRecordsValid(t *testing.T) {
	ref, reads := simWorld(t, 30_000, 150, 5)
	a, err := New("chrSim", ref, core.New(20))
	if err != nil {
		t.Fatal(err)
	}
	recs, stats := a.Run(toPipelineReads(reads), 0)
	if stats.Reads != len(reads) || stats.Extensions == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if stats.SeedingNs <= 0 || stats.ExtensionNs <= 0 {
		t.Fatalf("stage times not recorded: %+v", stats)
	}
	// The traceback counts are the reads', not the run's: the same from
	// one worker as from all of them.
	_, one := a.Run(toPipelineReads(reads), 1)
	if stats.TraceSides == 0 || stats.TraceFills == 0 || stats.TraceFills >= stats.TraceSides ||
		one.TraceSides != stats.TraceSides || one.TraceFills != stats.TraceFills {
		t.Fatalf("traced sides %d, fills %d; from one worker %d, %d", stats.TraceSides, stats.TraceFills, one.TraceSides, one.TraceFills)
	}
}

func TestCigarScoreConsistency(t *testing.T) {
	// The rescored CIGAR of the winning alignment must equal the reported
	// alignment score.
	ref, reads := simWorld(t, 30_000, 120, 6)
	a, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range reads {
		al := a.AlignRead(r.Seq)
		if !al.Mapped {
			continue
		}
		q := r.Seq
		if al.Rev {
			q = genome.RevComp(r.Seq)
		}
		tgt := a.Ref[al.Pos : al.Pos+al.Cigar.TargetLen()]
		if got := al.Cigar.Score(q, tgt, 0, a.Scoring); got != al.Score {
			t.Fatalf("read %s: cigar %s rescores to %d, alignment says %d", r.ID, al.Cigar, got, al.Score)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no mapped reads to check")
	}
}

func TestUnmappableRead(t *testing.T) {
	ref, _ := simWorld(t, 30_000, 1, 7)
	a, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 50)
	for i := range junk {
		junk[i] = genome.N
	}
	al := a.AlignRead(junk)
	if al.Mapped {
		t.Fatal("all-N read must not map")
	}
	rec := ToSAM("junk", junk, nil, "chrSim", al)
	if rec.Flag&0x4 == 0 {
		t.Fatal("unmapped flag missing")
	}
}

// TestInstrumentedExtender covers the job-recording wrapper used by the
// FPGA replay model.
func TestInstrumentedExtender(t *testing.T) {
	ie := &InstrumentedExtender{Inner: core.FullBand{Scoring: align.DefaultScoring()}, KeepJobs: true}
	q := []byte{0, 1, 2, 3}
	ie.Extend(q, q, 10)
	ie.Extend(q, q, 10)
	if ie.Calls() != 2 || len(ie.Jobs()) != 2 {
		t.Fatalf("calls %d jobs %d", ie.Calls(), len(ie.Jobs()))
	}
	if ie.Jobs()[0] != (ExtJob{4, 4}) {
		t.Fatalf("job shape %+v", ie.Jobs()[0])
	}
}

func TestResolveSideBranches(t *testing.T) {
	// Zero-length side: pass-through.
	s, clip, qa, ta := resolveSide(align.ExtendResult{}, 0, 42, 5)
	if s != 42 || clip != 0 || qa != 0 || ta != 0 {
		t.Fatalf("zero side: %d %d %d %d", s, clip, qa, ta)
	}
	// Global within clip penalty of local: prefer to-end.
	s, clip, qa, ta = resolveSide(align.ExtendResult{Local: 50, LocalQ: 8, LocalT: 8, Global: 47, GlobalT: 12}, 10, 40, 5)
	if s != 47 || clip != 0 || qa != 10 || ta != 12 {
		t.Fatalf("global preferred: %d %d %d %d", s, clip, qa, ta)
	}
	// Local wins by more than the clip penalty: soft clip.
	s, clip, qa, ta = resolveSide(align.ExtendResult{Local: 60, LocalQ: 6, LocalT: 7, Global: 40, GlobalT: 12}, 10, 40, 5)
	if s != 60 || clip != 4 || qa != 6 || ta != 7 {
		t.Fatalf("local preferred: %d %d %d %d", s, clip, qa, ta)
	}
	// Nothing extends: clip the whole side, keep the incoming score.
	s, clip, qa, ta = resolveSide(align.ExtendResult{}, 10, 40, 5)
	if s != 40 || clip != 10 || qa != 0 || ta != 0 {
		t.Fatalf("dead side: %d %d %d %d", s, clip, qa, ta)
	}
}

func TestMapqBranches(t *testing.T) {
	if q := mapq(0, 0, 50, 100); q != 0 {
		t.Fatalf("zero best: %d", q)
	}
	if q := mapq(100, 0, 60, 100); q != 60 {
		t.Fatalf("unique full-coverage: %d", q)
	}
	if q := mapq(100, 100, 60, 100); q != 0 {
		t.Fatalf("tied competitor: %d", q)
	}
	if q := mapq(100, 120, 60, 100); q != 0 {
		t.Fatalf("better competitor must clamp to 0: %d", q)
	}
	// Thin seed coverage damps quality.
	full := mapq(100, 50, 60, 100)
	thin := mapq(100, 50, 20, 100)
	if thin >= full {
		t.Fatalf("thin coverage not damped: %d vs %d", thin, full)
	}
}

func TestNewMultiErrors(t *testing.T) {
	if _, err := NewMulti(nil, core.FullBand{Scoring: align.DefaultScoring()}); err == nil {
		t.Fatal("no contigs must error")
	}
}

func TestInstrumentedExtenderNs(t *testing.T) {
	ie := &InstrumentedExtender{Inner: core.FullBand{Scoring: align.DefaultScoring()}}
	q := []byte{0, 1, 2, 3, 0, 1, 2, 3}
	ie.Extend(q, q, 10)
	if ie.Ns() <= 0 {
		t.Fatal("no time recorded")
	}
}

// TestMapperServesResolve: a Mapper's extension session is told that the
// mapper is its consumer, directly and through an InstrumentedExtender's
// session, so it skips the reruns resolveSide cannot see (PassResolve); a
// shared aligner's extender keeps the five-field promise and never does.
// Either way the mappings are the full band's.
func TestMapperServesResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ref := genome.Simulate(genome.SimConfig{Length: 60_000, RepeatFraction: 0.05}, rng)
	cfg := readsim.RealisticConfig(400)
	cfg.ReadLen = 150
	reads := toPipelineReads(readsim.Simulate(ref, cfg, rng))
	full, err := New("chrSim", ref, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := full.Run(reads, 1)
	for _, wrap := range []bool{false, true} {
		se := core.New(20)
		var ext align.Extender = se
		if wrap {
			ext = &InstrumentedExtender{Inner: se}
		}
		a, err := New("chrSim", ref, ext)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reads {
			a.AlignRead(r.Seq)
		}
		if n := se.Stats.OutcomeCount(core.PassResolve); n != 0 {
			t.Fatalf("instrumented=%v: the shared aligner recorded %d pass-resolve outcomes", wrap, n)
		}
		got, _ := a.Run(reads, 1)
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("instrumented=%v, read %d:\n got  %s\n want %s", wrap, i, got[i].String(), want[i].String())
			}
		}
		if se.Stats.OutcomeCount(core.PassResolve) == 0 {
			t.Fatalf("instrumented=%v: the mapper's session skipped no rerun: %v", wrap, se.Stats)
		}
	}
}
