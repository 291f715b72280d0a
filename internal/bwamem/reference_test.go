package bwamem

import (
	"math/rand"
	"testing"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

func TestBuildReference(t *testing.T) {
	r, err := BuildReference([]Contig{
		{Name: "chr1", Seq: []byte{0, 1, 2, 3}},
		{Name: "chr2", Seq: []byte{3, 2, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cat) != 4+ContigPad+3 {
		t.Fatalf("cat length %d", len(r.Cat))
	}
	if ci, off, ok := r.Resolve(2); !ok || ci != 0 || off != 2 {
		t.Fatalf("resolve(2) = %d,%d,%v", ci, off, ok)
	}
	if _, _, ok := r.Resolve(5); ok {
		t.Fatal("padding must not resolve")
	}
	if ci, off, ok := r.Resolve(4 + ContigPad); !ok || ci != 1 || off != 0 {
		t.Fatalf("resolve(chr2 start) = %d,%d,%v", ci, off, ok)
	}
	if _, _, ok := r.Resolve(-1); ok {
		t.Fatal("negative must not resolve")
	}
	if _, _, ok := r.Contains(2, 3); ok {
		t.Fatal("span crossing padding must not be contained")
	}
	if ci, _, ok := r.Contains(2, 2); !ok || ci != 0 {
		t.Fatal("span inside chr1 must be contained")
	}
}

func TestBuildReferenceErrors(t *testing.T) {
	if _, err := BuildReference(nil); err == nil {
		t.Fatal("no contigs must error")
	}
	if _, err := BuildReference([]Contig{{Name: "x"}}); err == nil {
		t.Fatal("empty contig must error")
	}
}

// TestMultiContigAlignment: reads simulated from three chromosomes map
// back to the right contig at the right in-contig position.
func TestMultiContigAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var contigs []Contig
	var seqs [][]byte
	for i, n := range []int{25_000, 18_000, 30_000} {
		s := genome.Simulate(genome.SimConfig{Length: n}, rng)
		contigs = append(contigs, Contig{Name: []string{"chr1", "chr2", "chr3"}[i], Seq: s})
		seqs = append(seqs, s)
	}
	a, err := NewMulti(contigs, core.New(20))
	if err != nil {
		t.Fatal(err)
	}

	type want struct {
		contig string
		pos    int
		rev    bool
	}
	var reads []Read
	var wants []want
	for i := 0; i < 120; i++ {
		ci := rng.Intn(3)
		rs := readsim.Simulate(seqs[ci], readsim.DefaultConfig(1), rng)
		if len(rs) == 0 {
			continue
		}
		r := rs[0]
		reads = append(reads, Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual})
		wants = append(wants, want{contigs[ci].Name, r.TruePos, r.RevComp})
	}
	recs, stats := a.Run(reads, 0)
	if stats.Mapped < len(reads)*90/100 {
		t.Fatalf("mapped %d/%d", stats.Mapped, len(reads))
	}
	correct := 0
	for i, rec := range recs {
		if rec.Flag&0x4 != 0 {
			continue
		}
		d := rec.Pos - 1 - wants[i].pos
		if d < 0 {
			d = -d
		}
		if rec.RName == wants[i].contig && d <= 12 {
			correct++
		}
	}
	if correct < stats.Mapped*90/100 {
		t.Fatalf("correct contig+pos for %d/%d mapped reads", correct, stats.Mapped)
	}
}

// TestNoCrossContigAlignments: a read stitched from two contigs must not
// produce an alignment spanning the padding.
func TestNoCrossContigAlignments(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	c1 := genome.Simulate(genome.SimConfig{Length: 10_000}, rng)
	c2 := genome.Simulate(genome.SimConfig{Length: 10_000}, rng)
	a, err := NewMulti([]Contig{{"chrA", c1}, {"chrB", c2}}, core.FullBand{Scoring: align.DefaultScoring()})
	if err != nil {
		t.Fatal(err)
	}
	// Chimera: 50bp from the end of chrA + 50bp from the start of chrB.
	read := append(append([]byte(nil), c1[len(c1)-50:]...), c2[:50]...)
	al := a.AlignRead(read)
	if al.Mapped {
		ci := -1
		for i, n := range a.Contigs.Names {
			if n == al.RName {
				ci = i
			}
		}
		if ci < 0 {
			t.Fatalf("unknown contig %q", al.RName)
		}
		if al.Pos+al.Cigar.TargetLen() > a.Contigs.Lengths[ci] {
			t.Fatalf("alignment leaves contig %s: pos %d + %d > %d", al.RName, al.Pos, al.Cigar.TargetLen(), a.Contigs.Lengths[ci])
		}
		// Each half should be ~50bp; the aligned part must not exceed one
		// half plus slack.
		if al.Cigar.TargetLen() > 60 {
			t.Fatalf("chimeric read aligned %d bases — crossed the boundary?", al.Cigar.TargetLen())
		}
	}
}
