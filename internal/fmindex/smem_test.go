package fmindex

import (
	"math/rand"
	"reflect"
	"testing"

	"seedex/internal/genome"
	"seedex/internal/readsim"
)

// smemsReference is the per-base sweep SMEMs served with before the
// skip-ahead: the longest match from every query position, filtered by
// containment. It is the oracle SMEMs (and through it SMEMsBi) is held to.
func (ix *Index) smemsReference(q []byte, cfg SMEMConfig) []MEM {
	var mems []MEM
	bestEnd := -1 // furthest match end seen so far; containment filter
	i := 0
	limit := 0 // index of the next ambiguous base at or after i
	for i < len(q) {
		if q[i] > 3 { // ambiguous base: no exact match crosses it
			i++
			continue
		}
		// Matches must stop at the next ambiguous base: codes >= 4 never
		// match, even where the indexed text contains the separator code.
		if limit <= i {
			limit = i
			for limit < len(q) && q[limit] <= 3 {
				limit++
			}
		}
		l, iv := ix.LongestMatch(q[i:limit])
		if l == 0 {
			i++
			continue
		}
		end := i + l
		if end > bestEnd {
			bestEnd = end
			if l >= cfg.MinLen {
				mems = append(mems, MEM{
					QBeg:      i,
					Len:       l,
					Positions: ix.LocateRaw(iv, cfg.MaxOcc),
					Occ:       iv.Size(),
				})
			}
		}
		i++
	}
	return mems
}

type namedSeq struct {
	name string
	seq  []byte
}

// sweepTexts are the index shapes the identity test runs over: plain
// random, repeat-planted (so seeds have many occurrences and one match is
// a proper extension of another), and multi-contig with Separator padding.
func sweepTexts(rng *rand.Rand) []namedSeq {
	random := randSeq(rng, 2000)
	repeats := randSeq(rng, 3000)
	unit := randSeq(rng, 120)
	for k := 0; k < 8; k++ {
		copy(repeats[rng.Intn(len(repeats)-len(unit)):], unit)
	}
	for k := 0; k < 60; k++ { // a low-complexity stretch
		repeats[1500+k] = byte(k & 1)
	}
	var contigs []byte
	for k := 0; k < 4; k++ {
		contigs = append(contigs, randSeq(rng, 300+rng.Intn(400))...)
		for p := 0; p < 1+rng.Intn(30); p++ {
			contigs = append(contigs, Separator)
		}
	}
	copy(contigs[40:], contigs[len(contigs)-200:len(contigs)-100]) // shared between contigs
	return []namedSeq{{"random", random}, {"repeats", repeats}, {"contigs", contigs}}
}

// sweepQueries draws the query kinds of the identity test from text.
func sweepQueries(rng *rand.Rand, text []byte) []namedSeq {
	window := func(n int) []byte {
		beg := rng.Intn(len(text) - n)
		return append([]byte(nil), text[beg:beg+n]...)
	}
	planted := window(150) // may span a separator run on the contig text
	mutated := window(150)
	for k := 0; k < 1+rng.Intn(6); k++ {
		p := rng.Intn(len(mutated))
		mutated[p] = (mutated[p] + 1 + byte(rng.Intn(3))) & 3
	}
	stitched := append(window(60), window(70)...)
	ambiguous := window(150)
	for k := 0; k < 1+rng.Intn(4); k++ {
		ambiguous[rng.Intn(len(ambiguous))] = 4 + byte(rng.Intn(3))
	}
	ambiguous[len(ambiguous)-1] = genome.N
	return []namedSeq{
		{"planted", planted},
		{"mutated", mutated},
		{"stitched", stitched},
		{"revcomp", genome.RevComp(mutated)},
		{"random", randSeq(rng, 150)},
		{"ambiguous", ambiguous},
		{"short", window(4)},
		{"empty", nil},
	}
}

// TestSMEMsSweepIdentity holds the skip-ahead sweep to the per-base
// reference: same MEMs, same order, same positions and counts.
func TestSMEMsSweepIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, text := range sweepTexts(rng) {
		ix, err := New(text.seq)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 25; round++ {
			for _, query := range sweepQueries(rng, text.seq) {
				q := query.seq
				for _, minLen := range []int{0, 1, 5, 19, 25, len(q) + 1} {
					for _, maxOcc := range []int{1, 50} {
						cfg := SMEMConfig{MinLen: minLen, MaxOcc: maxOcc}
						got, want := ix.SMEMs(q, cfg), ix.smemsReference(q, cfg)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s round %d %+v:\n got  %v\n want %v\n q = %v", text.name, query.name, round, cfg, got, want, q)
						}
					}
				}
			}
		}
	}
}

// FuzzSMEMsSweepIdentity is the same identity over raw bytes: text bytes
// fold onto codes 0..4 (Separator included), query bytes onto 0..7 so
// ambiguous codes appear.
func FuzzSMEMsSweepIdentity(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACCA"), []byte("CGTTTGA"), uint8(3), uint8(2))
	f.Add([]byte{0, 1, 2, 3, 4, 4, 0, 1, 2, 3, 0, 1}, []byte{0, 1, 2, 3, 7, 0, 1}, uint8(0), uint8(1))
	f.Add([]byte{}, []byte{1, 2}, uint8(1), uint8(0))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2}, []byte{2, 2, 2, 1, 2, 2, 2, 2, 2}, uint8(2), uint8(50))
	f.Fuzz(func(t *testing.T, rawText, rawQuery []byte, minLen, maxOcc uint8) {
		if len(rawText) > 4096 || len(rawQuery) > 512 {
			return
		}
		text := make([]byte, len(rawText))
		for i, b := range rawText {
			text[i] = b % 5
		}
		q := make([]byte, len(rawQuery))
		for i, b := range rawQuery {
			q[i] = b & 7
		}
		ix, err := New(text)
		if err != nil {
			t.Fatal(err)
		}
		cfg := SMEMConfig{MinLen: int(minLen % 32), MaxOcc: int(maxOcc)}
		got, want := ix.SMEMs(q, cfg), ix.smemsReference(q, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v text %v q %v:\n got  %v\n want %v", cfg, text, q, got, want)
		}
	})
}

// TestSMEMsLongestMatchCalls pins the point of the skip-ahead on the
// repository benchmark's map_reads shape: the sweep pays for a suffix-array
// LongestMatch roughly once per emitted seed, not once per base.
func TestSMEMsLongestMatchCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 500 kbp index")
	}
	rng := rand.New(rand.NewSource(1))
	ref := genome.Simulate(genome.SimConfig{Length: 500000, RepeatFraction: 0.05}, rng)
	ix, err := New(ref)
	if err != nil {
		t.Fatal(err)
	}
	rc := readsim.RealisticConfig(400)
	rc.ReadLen = 150
	calls := 0
	longestMatchProbe = func() { calls++ }
	defer func() { longestMatchProbe = nil }()
	cfg := DefaultSMEMConfig()
	strands, seeds := 0, 0
	for _, r := range readsim.Simulate(ref, rc, rng) {
		for _, q := range [][]byte{r.Seq, genome.RevComp(r.Seq)} {
			seeds += len(ix.SMEMs(q, cfg))
			strands++
		}
	}
	perStrand := float64(calls) / float64(strands)
	t.Logf("%d strands: %.2f LongestMatch calls and %.2f seeds per strand (the per-base sweep: 150)",
		strands, perStrand, float64(seeds)/float64(strands))
	if seeds == 0 {
		t.Fatal("no seeds on a workload drawn from the reference")
	}
	if perStrand > 4 {
		t.Fatalf("%.2f LongestMatch calls per strand, want <= 4", perStrand)
	}
}
