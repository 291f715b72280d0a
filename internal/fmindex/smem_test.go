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

// firstAbsentReference is firstAbsent as it was before the jump table:
// every pattern searched from the empty one, a step per base.
func (ix *Index) firstAbsentReference(q []byte, lo, hi int) (int, Interval) {
	iv := Interval{0, ix.rows}
	for p := hi - 1; p >= lo; p-- {
		iv = ix.Backward(iv, q[p])
		if iv.Size() <= 0 {
			return p, iv
		}
	}
	return lo - 1, iv
}

// checkFirstAbsent compares the two on random stretches of q's
// unambiguous runs: the same p — a smaller one would still sweep to the
// same MEMs, over more windows — and, when the stretch occurs, the same
// interval.
func checkFirstAbsent(t *testing.T, rng *rand.Rand, ix *Index, q []byte) {
	t.Helper()
	for try := 0; try < 8 && len(q) > 0; try++ {
		lo := rng.Intn(len(q))
		hi := lo
		for max := lo + 1 + rng.Intn(40); hi < len(q) && hi < max && q[hi] <= 3; {
			hi++
		}
		gotP, gotIv := ix.firstAbsent(q, lo, hi)
		wantP, wantIv := ix.firstAbsentReference(q, lo, hi)
		if gotP != wantP || (gotP < lo && gotIv != wantIv) {
			t.Fatalf("firstAbsent(%v, %d, %d) = %d %v, step by step %d %v", q, lo, hi, gotP, gotIv, wantP, wantIv)
		}
	}
}

type namedSeq struct {
	name string
	seq  []byte
}

// sweepTexts are the index shapes the identity test runs over: plain
// random, repeat-planted (so seeds have many occurrences and one match is
// a proper extension of another), multi-contig with Separator padding,
// and the shapes the jump table turns on: a text long enough for the
// table's full k (so MinLen 1 and 5 are below it), one over three letters
// (every k-mer holding the fourth is absent), one whose contigs are
// shorter than k (the separators break most k-mers), and texts too short
// to have a table at all.
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
	threeLetter := randSeq(rng, 2500)
	for i, b := range threeLetter {
		threeLetter[i] = b % 3
	}
	var crumbs []byte
	for len(crumbs) < 1500 {
		crumbs = append(append(crumbs, randSeq(rng, 1+rng.Intn(2*jumpMax))...), Separator)
	}
	return []namedSeq{
		{"random", random}, {"repeats", repeats}, {"contigs", contigs},
		{"full-k", randSeq(rng, 1<<(2*jumpMax)+500)}, {"three-letter", threeLetter}, {"crumbs", crumbs},
		{"tiny", randSeq(rng, 3)}, {"short", randSeq(rng, jumpMax-1)}, {"one-base", []byte{2}},
	}
}

// sweepQueries draws the query kinds of the identity test from text.
func sweepQueries(rng *rand.Rand, text []byte) []namedSeq {
	window := func(n int) []byte {
		n = min(n, len(text))
		beg := rng.Intn(len(text) - n + 1)
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
	// Runs of unambiguous bases a base or two longer than a window, so an
	// ambiguous base sits right behind a window's last k bases, or inside
	// where the next window's would be.
	fenced := window(150)
	for p := rng.Intn(8); p < len(fenced); p += 4 + rng.Intn(20) {
		fenced[p] = genome.N
	}
	return []namedSeq{
		{"planted", planted},
		{"mutated", mutated},
		{"stitched", stitched},
		{"revcomp", genome.RevComp(mutated)},
		{"random", randSeq(rng, 150)},
		{"ambiguous", ambiguous},
		{"fenced", fenced},
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
		checkJumpIdentity(t, ix)
		rounds := 25
		if len(text.seq) > 10000 {
			rounds = 5 // the reference sweep pays per base
		}
		for round := 0; round < rounds; round++ {
			for _, query := range sweepQueries(rng, text.seq) {
				q := query.seq
				checkFirstAbsent(t, rng, ix, q)
				for _, minLen := range []int{0, 1, 5, jumpMax, 19, 25, len(q) + 1} {
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

// checkJumpIdentity holds the jump table to the step-by-step search: the
// entry of every k-mer is the interval Count finds for it, and k is what
// the text's length allows.
func checkJumpIdentity(t *testing.T, ix *Index) {
	t.Helper()
	k := ix.jumpK
	if len(ix.jump) != 1<<(2*k) || k > jumpMax || 1<<(2*k) > max(len(ix.text), 1) ||
		(k < jumpMax && 1<<(2*(k+1)) <= len(ix.text)) {
		t.Fatalf("text length %d: k = %d with %d entries", len(ix.text), k, len(ix.jump))
	}
	kmer := make([]byte, k)
	for code, got := range ix.jump {
		for i := range kmer {
			kmer[i] = byte(code>>(2*(k-1-i))) & 3
		}
		want := ix.Count(kmer)
		if got != want && (got.Size() > 0 || want.Size() > 0) {
			t.Fatalf("text length %d: jump[%v] = %v, Count says %v", len(ix.text), kmer, got, want)
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
	// k = 2 over a text with no 3 and a separator through its k-mers; the
	// query's windows end in an absent k-mer, and in one next to a 7.
	f.Add([]byte{0, 1, 2, 0, 1, 4, 2, 1, 0, 0, 1, 2, 2, 4, 1, 0, 2, 1}, []byte{0, 1, 2, 3, 1, 0, 0, 1, 7, 2, 1, 0}, uint8(3), uint8(4))
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
		checkJumpIdentity(t, ix)
		checkFirstAbsent(t, rand.New(rand.NewSource(int64(minLen))), ix, q)
		cfg := SMEMConfig{MinLen: int(minLen % 32), MaxOcc: int(maxOcc)}
		got, want := ix.SMEMs(q, cfg), ix.smemsReference(q, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v text %v q %v:\n got  %v\n want %v", cfg, text, q, got, want)
		}
	})
}

// TestSMEMsLongestMatchCalls pins the point of the sweep on the
// repository benchmark's map_reads shape, in counts that repeat exactly:
// a longest-match search roughly once per emitted seed, not once per base,
// each inside its window's interval, never over the whole suffix array;
// and a window's backward search starting from the jump table, so a strand
// costs a few dozen LF steps (101.7 when every window started from the
// empty pattern).
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
	smemProbe = &smemCounts{}
	defer func() { smemProbe = nil }()
	cfg := DefaultSMEMConfig()
	strands, seeds := 0, 0
	for _, r := range readsim.Simulate(ref, rc, rng) {
		for _, q := range [][]byte{r.Seq, genome.RevComp(r.Seq)} {
			seeds += len(ix.SMEMs(q, cfg))
			strands++
		}
	}
	per := func(n int) float64 { return float64(n) / float64(strands) }
	t.Logf("%d strands: %.2f longest-match searches (the per-base sweep: 150), %.2f LF steps and %.2f seeds per strand",
		strands, per(smemProbe.longestMatches), per(smemProbe.lfSteps), per(seeds))
	if seeds == 0 {
		t.Fatal("no seeds on a workload drawn from the reference")
	}
	if per(smemProbe.longestMatches) > 4 {
		t.Fatalf("%.2f longest-match searches per strand, want <= 4", per(smemProbe.longestMatches))
	}
	if smemProbe.wholeArray != 0 {
		t.Fatalf("%d longest-match searches ran over the whole suffix array, want none", smemProbe.wholeArray)
	}
	if per(smemProbe.lfSteps) > 40 {
		t.Fatalf("%.2f LF steps per strand, want <= 40", per(smemProbe.lfSteps))
	}
}
