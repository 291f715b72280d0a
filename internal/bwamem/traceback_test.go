package bwamem

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

type traceCorpus struct {
	a     *Aligner
	reads [][]byte
}

// traceWorld is the traceback corpus: a single-contig and a three-contig
// aligner over the same extender, each with Illumina-messy reads carrying
// enough indels (some near the read ends) that extension endpoints leave
// the diagonal (lT != lQ) and garbage tails get soft-clipped.
func traceWorld(t *testing.T, ext align.Extender, traceBand, nReads int) []traceCorpus {
	t.Helper()
	rng := rand.New(rand.NewSource(14))
	cfg := readsim.RealisticConfig(1)
	cfg.ReadLen = 150
	cfg.IndelRate = 0.003
	draw := func(ref []byte, n int) [][]byte {
		cfg.N = n
		var out [][]byte
		for _, r := range readsim.Simulate(ref, cfg, rng) {
			out = append(out, r.Seq)
		}
		return out
	}

	single := genome.Simulate(genome.SimConfig{Length: 60_000, RepeatFraction: 0.05}, rng)
	one, err := New("chrSim", single, ext)
	if err != nil {
		t.Fatal(err)
	}
	var contigs []Contig
	var multiReads [][]byte
	for i, n := range []int{25_000, 18_000, 30_000} {
		s := genome.Simulate(genome.SimConfig{Length: n}, rng)
		contigs = append(contigs, Contig{Name: []string{"chr1", "chr2", "chr3"}[i], Seq: s})
		multiReads = append(multiReads, draw(s, nReads/6)...)
	}
	multi, err := NewMulti(contigs, ext)
	if err != nil {
		t.Fatal(err)
	}
	one.Opts.TraceBand, multi.Opts.TraceBand = traceBand, traceBand
	return []traceCorpus{{one, draw(single, nReads/2)}, {multi, multiReads}}
}

// fullWindowCigar is buildCigar as it was before the trim: each side's
// matrices filled over the whole extension window, freshly allocated.
func fullWindowCigar(a *Aligner, read []byte, c candidate) (align.Cigar, error) {
	matrices := func(q, t []byte, h0 int) *align.Matrices {
		if a.Opts.TraceBand >= 0 {
			_, mx := align.NaiveExtendBanded(q, t, h0, a.Scoring, a.Opts.TraceBand)
			return mx
		}
		_, mx := align.NaiveExtend(q, t, h0, a.Scoring)
		return mx
	}
	var cig align.Cigar
	cig = cig.Push(align.OpSoft, c.clipL)
	if c.lQ > 0 {
		lc, err := align.Traceback(matrices(c.lq, c.lt, c.lh0), a.Scoring, c.lT, c.lQ)
		if err != nil {
			return nil, err
		}
		cig = cig.Concat(lc.Reverse())
	}
	cig = cig.Push(align.OpMatch, c.anchor.Len)
	if c.rQ > 0 {
		rc, err := align.Traceback(matrices(c.rq, c.rt, c.rh0), a.Scoring, c.rT, c.rQ)
		if err != nil {
			return nil, err
		}
		cig = cig.Concat(rc)
	}
	cig = cig.Push(align.OpSoft, c.clipR)
	return cig, cig.Validate(len(read), cig.TargetLen())
}

var traceConfigs = []struct {
	name      string
	ext       align.Extender
	traceBand int
}{
	{"full", core.FullBand{Scoring: align.DefaultScoring()}, -1},
	{"banded5", core.Banded{Scoring: align.DefaultScoring(), Band: 5}, 5},
}

// TestTraceSubmatrixIdentity: for every winning candidate, the CIGAR traced
// on the endpoint's submatrix in one reused workspace equals the CIGAR
// traced on freshly allocated whole-window matrices. The winners go through
// the workspace largest, smallest, second largest, … so every small problem
// runs over memory a larger one just dirtied.
func TestTraceSubmatrixIdentity(t *testing.T) {
	for _, tc := range traceConfigs {
		t.Run(tc.name, func(t *testing.T) {
			type winner struct {
				read []byte
				c    candidate
			}
			offDiagonal, clipped, total := 0, 0, 0
			sides, certified := 0, 0
			for _, w := range traceWorld(t, tc.ext, tc.traceBand, 2000) {
				var wins []winner
				for _, read := range w.reads {
					if cands, _ := w.a.candidates(read); len(cands) > 0 {
						wins = append(wins, winner{read, cands[0]})
					}
				}
				cells := func(c candidate) int { return (c.lQ+1)*(c.lT+1) + (c.rQ+1)*(c.rT+1) }
				sort.SliceStable(wins, func(i, j int) bool { return cells(wins[i].c) > cells(wins[j].c) })
				worker := *w.a
				worker.trace, worker.scratch = &align.TraceWorkspace{}, &mapScratch{}
				// The same trace with the gapless certificate off: every
				// side filled, the same CIGARs.
				filler := worker
				filler.trace, filler.scratch, filler.fillEverySide = &align.TraceWorkspace{}, &mapScratch{}, true
				for lo, hi := 0, len(wins)-1; lo <= hi; lo, hi = lo+1, hi-1 {
					for _, k := range []int{lo, hi}[:min(2, hi-lo+1)] {
						win := wins[k]
						want, werr := fullWindowCigar(w.a, win.read, win.c)
						got, gerr := worker.buildCigar(win.read, win.c)
						filled, ferr := filler.buildCigar(win.read, win.c)
						if werr != nil || gerr != nil || ferr != nil {
							t.Fatalf("winner %d: traceback failed: full window %v, submatrix %v, every side filled %v", k, werr, gerr, ferr)
						}
						if got.String() != want.String() || filled.String() != want.String() {
							t.Fatalf("winner %d: submatrix CIGAR %s, with every side filled %s, full-window CIGAR %s", k, got, filled, want)
						}
						c := win.c
						if (c.lQ > 0 && c.lT != c.lQ) || (c.rQ > 0 && c.rT != c.rQ) {
							offDiagonal++
						}
						if c.clipL+c.clipR > 0 {
							clipped++
						}
						total++
					}
				}
				sides, certified = sides+worker.scratch.traceSides, certified+worker.scratch.traceSides-worker.scratch.traceFills
				if f := filler.scratch; f.traceFills != f.traceSides || f.traceSides != worker.scratch.traceSides {
					t.Fatalf("%d sides traced; with the certificate off %d, %d of them filled", worker.scratch.traceSides, f.traceSides, f.traceFills)
				}
			}
			t.Logf("%d winners traced; %d with an off-diagonal endpoint, %d soft-clipped; %d of %d sides certified gapless",
				total, offDiagonal, clipped, certified, sides)
			if total < 1500 || offDiagonal == 0 || clipped == 0 {
				t.Fatal("corpus does not exercise off-diagonal endpoints and soft clips")
			}
			if certified < sides/4 || certified > sides*9/10 {
				t.Fatal("corpus does not exercise both the certificate and the fill")
			}
		})
	}
}

// TestMapperEqualsAlignRead: Mapper.Map (traceback workspace) and the bare
// shared Aligner.AlignRead (none) return identical alignments, and no read
// with candidates comes back unmapped — finish renders a traceback error as
// an unmapped record, which this would otherwise hide.
func TestMapperEqualsAlignRead(t *testing.T) {
	for _, tc := range traceConfigs {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range traceWorld(t, tc.ext, tc.traceBand, 600) {
				m := w.a.NewMapper()
				for i, read := range w.reads {
					_, got := m.Map("r", read, nil)
					want := w.a.AlignRead(read)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("read %d: Mapper.Map %+v, AlignRead %+v", i, got, want)
					}
					if cands, _ := w.a.candidates(read); len(cands) > 0 && !got.Mapped {
						t.Fatalf("read %d has %d candidates but came back unmapped", i, len(cands))
					}
				}
			}
		})
	}
}

// TestMapperAllocsPerRead guards the map path's garbage, read by read
// through Map and sixteen at a time through MapBatch: the traceback
// matrices, the extension windows, the per-seed candidates and the
// extender's job and result slices and the reverse strand all live in the
// mapper's grow-only scratch; what is left is what a read hands out
// (seeds, chains, the CIGAR, the SAM strings). 15.3 when the bound was set.
func TestMapperAllocsPerRead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := genome.Simulate(genome.SimConfig{Length: 100_000, RepeatFraction: 0.05}, rng)
	cfg := readsim.RealisticConfig(256)
	cfg.ReadLen = 150
	reads := toPipelineReads(readsim.Simulate(ref, cfg, rng))
	a, err := New("chrSim", ref, core.New(20))
	if err != nil {
		t.Fatal(err)
	}
	m := a.NewMapper()
	for _, tc := range []struct {
		name string
		pass func()
	}{
		{"Map", func() {
			for _, r := range reads {
				m.Map(r.Name, r.Seq, r.Qual)
			}
		}},
		{"MapBatch of 16", func() {
			for lo := 0; lo < len(reads); lo += 16 {
				m.MapBatch(reads[lo : lo+16])
			}
		}},
	} {
		perRead := testing.AllocsPerRun(3, tc.pass) / float64(len(reads))
		t.Logf("%s: %.1f allocations per read", tc.name, perRead)
		if perRead > 17.3 {
			t.Fatalf("%s allocates %.1f times per read, want <= 17.3", tc.name, perRead)
		}
	}
}
