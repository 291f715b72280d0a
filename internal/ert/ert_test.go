package ert

import (
	"bytes"
	"math/rand"
	"testing"

	"seedex/internal/genome"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

func TestSeedsFindEmbeddedQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randSeq(rng, 5000)
	pos := 1234
	q := append([]byte(nil), ref[pos:pos+60]...)
	ix := Build(ref, 16)
	seeds := ix.Seeds(q, DefaultConfig())
	found := false
	for _, s := range seeds {
		if s.RBeg == pos && s.QBeg == 0 && s.Len >= 60 {
			found = true
		}
		// Every seed must be a true exact match.
		if !bytes.Equal(q[s.QBeg:s.QEnd()], ref[s.RBeg:s.REnd()]) {
			t.Fatalf("seed %+v is not an exact match", s)
		}
	}
	if !found {
		t.Fatalf("embedded query not found among %d seeds", len(seeds))
	}
	if ix.Steps.Load() == 0 {
		t.Fatal("no tree-walk work recorded")
	}
	ix.ResetSteps()
	if ix.Steps.Load() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSeedsMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := randSeq(rng, 4000)
	q := append([]byte(nil), ref[100:160]...)
	q[30] = (q[30] + 1) % 4 // break into two ~30bp matches
	ix := Build(ref, 16)
	seeds := ix.Seeds(q, Config{Stride: 1, MaxOcc: 50, MinSeedLen: 10})
	for _, s := range seeds {
		// Maximal: neither end can extend.
		if s.QBeg > 0 && s.RBeg > 0 && q[s.QBeg-1] == ref[s.RBeg-1] {
			t.Fatalf("seed %+v extendable left", s)
		}
		if s.QEnd() < len(q) && s.REnd() < len(ref) && q[s.QEnd()] == ref[s.REnd()] {
			t.Fatalf("seed %+v extendable right", s)
		}
	}
	if len(seeds) < 2 {
		t.Fatalf("expected seeds on both sides of the mismatch, got %d", len(seeds))
	}
}

func TestSeedsDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := randSeq(rng, 4000)
	q := append([]byte(nil), ref[500:580]...)
	ix := Build(ref, 16)
	seeds := ix.Seeds(q, Config{Stride: 1, MaxOcc: 50, MinSeedLen: 19})
	type key struct{ a, b, c int }
	seen := map[key]bool{}
	for _, s := range seeds {
		k := key{s.QBeg, s.RBeg, s.Len}
		if seen[k] {
			t.Fatalf("duplicate seed %+v", s)
		}
		seen[k] = true
	}
}

func TestAmbiguousBasesNeverMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := randSeq(rng, 3000)
	q := append([]byte(nil), ref[200:260]...)
	q[25] = genome.N
	ix := Build(ref, 16)
	for _, s := range ix.Seeds(q, Config{Stride: 1, MaxOcc: 50, MinSeedLen: 5}) {
		for _, c := range q[s.QBeg:s.QEnd()] {
			if c > 3 {
				t.Fatalf("seed %+v spans an N", s)
			}
		}
	}
}

func TestRepeatMasking(t *testing.T) {
	// A reference that is one k-mer repeated: MaxOcc must suppress it.
	ref := bytes.Repeat([]byte{0, 1, 2, 3}, 500)
	ix := Build(ref, 8)
	seeds := ix.Seeds(ref[:40], Config{Stride: 1, MaxOcc: 10, MinSeedLen: 8})
	if len(seeds) != 0 {
		t.Fatalf("repeat k-mers not masked: %d seeds", len(seeds))
	}
}

func TestShortQuery(t *testing.T) {
	ix := Build(randSeq(rand.New(rand.NewSource(5)), 1000), 16)
	if s := ix.Seeds([]byte{0, 1, 2}, DefaultConfig()); s != nil {
		t.Fatalf("short query produced seeds: %v", s)
	}
}
