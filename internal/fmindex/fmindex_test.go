package fmindex

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"seedex/internal/genome"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// bruteOccurrences finds all positions of p in t by scanning.
func bruteOccurrences(t, p []byte) []int {
	var out []int
	for i := 0; i+len(p) <= len(t); i++ {
		if bytes.Equal(t[i:i+len(p)], p) {
			out = append(out, i)
		}
	}
	return out
}

func TestSuffixArraySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		s := randSeq(rng, 1+rng.Intn(500))
		sa := BuildSA(s)
		if len(sa) != len(s) {
			t.Fatalf("sa length %d != %d", len(sa), len(s))
		}
		for i := 1; i < len(sa); i++ {
			if bytes.Compare(s[sa[i-1]:], s[sa[i]:]) >= 0 {
				t.Fatalf("trial %d: suffixes %d,%d out of order", trial, i-1, i)
			}
		}
	}
}

func TestCountAndLocateAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randSeq(rng, 50+rng.Intn(400))
		ix, err := New(text)
		if err != nil {
			t.Log(err)
			return false
		}
		for trial := 0; trial < 20; trial++ {
			var p []byte
			if rng.Intn(3) == 0 {
				p = randSeq(rng, 1+rng.Intn(8)) // random, often absent
			} else {
				beg := rng.Intn(len(text))
				end := beg + 1 + rng.Intn(12)
				if end > len(text) {
					end = len(text)
				}
				p = text[beg:end] // guaranteed present
			}
			want := bruteOccurrences(text, p)
			iv := ix.Count(p)
			if iv.Size() != len(want) {
				t.Logf("seed %d: Count(%v) = %d, want %d", seed, p, iv.Size(), len(want))
				return false
			}
			got := ix.Locate(iv, 0)
			if len(got) != len(want) {
				t.Logf("seed %d: Locate returned %d, want %d", seed, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d: positions %v != %v", seed, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLocateBounded: a capped Locate / LocateRaw returns what collecting
// every row, sorting and truncating returns, from one allocation of the
// cap's size — on a homopolymer, whose seeds occur once per base and whose
// suffix array lists them in descending order, and on a random text.
func TestLocateBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	homopolymer := make([]byte, 20_000)
	mixed := append(randSeq(rng, 5000), make([]byte, 3000)...)
	for _, text := range [][]byte{homopolymer, mixed, randSeq(rng, 400)} {
		ix, err := New(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range [][]byte{nil, {0}, make([]byte, 19), make([]byte, 2990), text[:min(3, len(text))], {3, 3, 3, 3, 3, 3, 3, 3}} {
			iv := ix.Count(p)
			var all []int
			for r := max(iv.Lo, 1); r < iv.Hi; r++ {
				all = append(all, int(ix.sa[r-1]))
			}
			sort.Ints(all)
			raw := Interval{max(iv.Lo, 1) - 1, iv.Hi - 1}
			for _, limit := range []int{0, 1, 2, 50, len(all) - 1, len(all), len(all) + 1} {
				want := all
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				for name, got := range map[string][]int{"Locate": ix.Locate(iv, limit), "LocateRaw": ix.LocateRaw(raw, limit)} {
					if !slices.Equal(got, want) {
						t.Fatalf("text %d, pattern length %d, %d occurrences: %s(max %d) returns %d positions %v..., want %d %v...",
							len(text), len(p), len(all), name, limit, len(got), got[:min(3, len(got))], len(want), want[:min(3, len(want))])
					}
					if limit > 0 && cap(got) > max(limit, 1) {
						t.Fatalf("%s(max %d) over %d occurrences returns capacity %d", name, limit, len(all), cap(got))
					}
				}
			}
			if len(all) > 50 {
				if allocs := testing.AllocsPerRun(10, func() { ix.LocateRaw(raw, 50) }); allocs > 1 {
					t.Fatalf("LocateRaw(max 50) over %d occurrences allocates %.0f times, want 1", len(all), allocs)
				}
			}
		}
	}
}

func TestLongestMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		text := randSeq(rng, 100+rng.Intn(300))
		ix, err := New(text)
		if err != nil {
			t.Fatal(err)
		}
		beg := rng.Intn(len(text) - 20)
		q := append([]byte(nil), text[beg:beg+20]...)
		// Append garbage that (probably) breaks the match.
		q = append(q, randSeq(rng, 10)...)
		l, iv := ix.LongestMatch(q)
		if l < 20 {
			t.Fatalf("trial %d: longest match %d < 20 for embedded substring", trial, l)
		}
		// Verify every reported position really matches.
		for _, p := range ix.LocateRaw(iv, 0) {
			if !bytes.Equal(text[p:p+l], q[:l]) {
				t.Fatalf("trial %d: position %d does not match", trial, p)
			}
		}
		// Brute-force the true longest prefix occurring in text.
		want := 0
		for l2 := len(q); l2 >= 1; l2-- {
			if len(bruteOccurrences(text, q[:l2])) > 0 {
				want = l2
				break
			}
		}
		if l != want {
			t.Fatalf("trial %d: longest match %d, brute force %d", trial, l, want)
		}
	}
}

func TestSMEMsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		text := randSeq(rng, 200+rng.Intn(300))
		ix, err := New(text)
		if err != nil {
			t.Fatal(err)
		}
		// A query stitched from two text windows with a mutation.
		a, b := rng.Intn(len(text)-40), rng.Intn(len(text)-40)
		q := append([]byte(nil), text[a:a+30]...)
		q = append(q, text[b:b+30]...)
		q[15] = (q[15] + 1) % 4
		cfg := SMEMConfig{MinLen: 5, MaxOcc: 0}
		mems := ix.SMEMs(q, cfg)
		// Brute force: longest match starting at each i, then containment
		// filter.
		type span struct{ beg, end int }
		var want []span
		bestEnd := -1
		for i := range q {
			l := 0
			for l2 := len(q) - i; l2 >= 1; l2-- {
				if len(bruteOccurrences(text, q[i:i+l2])) > 0 {
					l = l2
					break
				}
			}
			if l >= cfg.MinLen && i+l > bestEnd {
				want = append(want, span{i, i + l})
			}
			if i+l > bestEnd {
				bestEnd = i + l
			}
		}
		if len(mems) != len(want) {
			t.Fatalf("trial %d: %d SMEMs, want %d", trial, len(mems), len(want))
		}
		for i, m := range mems {
			if m.QBeg != want[i].beg || m.QBeg+m.Len != want[i].end {
				t.Fatalf("trial %d: SMEM %d = [%d,%d), want [%d,%d)", trial, i, m.QBeg, m.QBeg+m.Len, want[i].beg, want[i].end)
			}
			if m.Occ != len(bruteOccurrences(text, q[m.QBeg:m.QBeg+m.Len])) {
				t.Fatalf("trial %d: SMEM %d occ %d wrong", trial, i, m.Occ)
			}
			if !sort.IntsAreSorted(m.Positions) {
				t.Fatalf("positions unsorted")
			}
		}
	}
}

func TestSMEMSkipsAmbiguous(t *testing.T) {
	text := randSeq(rand.New(rand.NewSource(6)), 300)
	ix, err := New(text)
	if err != nil {
		t.Fatal(err)
	}
	q := append([]byte(nil), text[10:40]...)
	q[5] = genome.N
	mems := ix.SMEMs(q, SMEMConfig{MinLen: 5, MaxOcc: 10})
	for _, m := range mems {
		for _, c := range q[m.QBeg : m.QBeg+m.Len] {
			if c > 3 {
				t.Fatal("SMEM crosses an ambiguous base")
			}
		}
	}
	if len(mems) == 0 {
		t.Fatal("expected SMEMs on both sides of the N")
	}
}

func TestSanitize(t *testing.T) {
	s := []byte{0, 4, 2, 5, 1}
	n := Sanitize(s)
	if n != 2 {
		t.Fatalf("sanitized %d, want 2", n)
	}
	if _, err := New(s); err != nil {
		t.Fatal(err)
	}
	if _, err := New([]byte{0, 9}); err == nil {
		t.Fatal("expected unsanitized error")
	}
}

func TestMaxOccCap(t *testing.T) {
	// Highly repetitive text.
	text := bytes.Repeat([]byte{0, 1, 2, 3}, 100)
	ix, err := New(text)
	if err != nil {
		t.Fatal(err)
	}
	q := []byte{0, 1, 2, 3, 0, 1, 2, 3}
	mems := ix.SMEMs(q, SMEMConfig{MinLen: 4, MaxOcc: 7})
	if len(mems) == 0 {
		t.Fatal("no SMEMs on repetitive text")
	}
	for _, m := range mems {
		if len(m.Positions) > 7 {
			t.Fatalf("positions not capped: %d", len(m.Positions))
		}
		if m.Occ < len(m.Positions) {
			t.Fatalf("occ %d < reported positions %d", m.Occ, len(m.Positions))
		}
	}
}

func TestFromParts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	text := randSeq(rng, 600)
	ix, err := New(append([]byte(nil), text...))
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromParts(ix.Text(), ix.SA())
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 20; probe++ {
		beg := rng.Intn(len(text) - 8)
		p := text[beg : beg+1+rng.Intn(7)]
		if ix.Count(p) != back.Count(p) {
			t.Fatal("Count differs for FromParts index")
		}
	}
	if _, err := FromParts(text[:10], ix.SA()); err == nil {
		t.Fatal("length mismatch accepted")
	}
	badSA := append([]int32(nil), ix.SA()...)
	badSA[7] = int32(len(text)) + 3
	if _, err := FromParts(ix.Text(), badSA); err == nil {
		t.Fatal("out-of-range suffix array entry accepted")
	}
	badText := append([]byte(nil), ix.Text()...)
	badText[3] = Separator + 1
	if _, err := FromParts(badText, ix.SA()); err == nil {
		t.Fatal("unsanitized text accepted")
	}
}
