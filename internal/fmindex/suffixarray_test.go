package fmindex

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// buildSAReference is BuildSA as it was before the k-mer seed: prefix
// doubling from single-symbol ranks, the whole array re-sorted each round.
// Suffixes are distinct, so the suffix array is unique and the two must
// agree exactly.
func buildSAReference(s []byte) []int32 {
	n := len(s)
	sa := make([]int32, n)
	if n == 0 {
		return sa
	}
	rank := make([]int32, n)
	tmp := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
		rank[i] = int32(s[i])
	}
	cmp := func(k int32) func(a, b int32) bool {
		return func(a, b int32) bool {
			if rank[a] != rank[b] {
				return rank[a] < rank[b]
			}
			ra, rb := int32(-1), int32(-1)
			if a+k < int32(n) {
				ra = rank[a+k]
			}
			if b+k < int32(n) {
				rb = rank[b+k]
			}
			return ra < rb
		}
	}
	for k := int32(1); ; k *= 2 {
		less := cmp(k)
		sort.Slice(sa, func(i, j int) bool { return less(sa[i], sa[j]) })
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			tmp[sa[i]] = tmp[sa[i-1]]
			if less(sa[i-1], sa[i]) {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if int(rank[sa[n-1]]) == n-1 {
			break
		}
	}
	return sa
}

// TestBuildSAIdentity holds the seeded sort to the reference on the text
// shapes an index sees, on lengths around the seed length and the occ
// block, and on texts whose repeats outlast several doubling rounds.
func TestBuildSAIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	texts := sweepTexts(rng)
	for _, n := range []int{0, 1, 2, saSeedK - 1, saSeedK, saSeedK + 1, 63, 64, 65, 128, 64 * 7} {
		texts = append(texts, namedSeq{"random", randSeq(rng, n)})
		texts = append(texts, namedSeq{"one-symbol", make([]byte, n)})
		sep := randSeq(rng, n)
		for i := range sep {
			if rng.Intn(5) == 0 {
				sep[i] = Separator
			}
		}
		texts = append(texts, namedSeq{"separators", sep})
	}
	period := make([]byte, 1000) // equal for hundreds of symbols: many rounds
	for i := range period {
		period[i] = byte(i % 3)
	}
	texts = append(texts, namedSeq{"periodic", period})
	for _, text := range texts {
		if got, want := BuildSA(text.seq), buildSAReference(text.seq); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, length %d: suffix arrays differ\n got  %v\n want %v", text.name, len(text.seq), got, want)
		}
	}
}

// FuzzBuildSAIdentity is the same identity over raw bytes folded onto the
// index alphabet 0..4.
func FuzzBuildSAIdentity(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACCA"))
	f.Add([]byte{})
	f.Add([]byte{4, 4, 4, 0, 4, 4, 4, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0})
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			return
		}
		text := make([]byte, len(raw))
		for i, b := range raw {
			text[i] = b % 5
		}
		if got, want := BuildSA(text), buildSAReference(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("text %v:\n got  %v\n want %v", text, got, want)
		}
	})
}
