// Package fmindex implements the seeding substrate: a suffix array, the
// Burrows-Wheeler transform, an occurrence-sampled FM index with backward
// search, longest-match queries, and SMEM (supermaximal exact match)
// generation — the same seeding primitives BWA-MEM builds on (§II-A,
// §VIII of the paper).
package fmindex

import "slices"

// saSeedK is the prefix length the suffix sort starts from: the first
// saSeedK symbols of a suffix, packed base 6 (symbol+1, 0 past the end, so
// a shorter suffix orders before its extensions), fill a uint32 — 6^12 is
// the largest power below 2^32.
const saSeedK = 12

// BuildSA constructs the suffix array of s (symbols 0..4) by prefix
// doubling seeded with a packed saSeedK-mer rank; a virtual empty suffix
// is NOT included. Suffixes are distinct, so the result is unique.
func BuildSA(s []byte) []int32 {
	n := len(s)
	sa := make([]int32, n)
	if n == 0 {
		return sa
	}
	// Round 0: sort (key, position) pairs, key in the high word.
	top := uint32(1)
	for i := 1; i < saSeedK; i++ {
		top *= 6
	}
	keyed := make([]uint64, n)
	key := uint32(0)
	for i := n - 1; i >= 0; i-- {
		key = key/6 + (uint32(s[i])+1)*top
		keyed[i] = uint64(key)<<32 | uint64(i)
	}
	slices.Sort(keyed)
	// rank[i] is the number of suffixes whose first k symbols order
	// strictly before suffix i's; suffixes equal on k symbols share it and
	// sit side by side in sa.
	rank := make([]int32, n)
	r := int32(0)
	for i, kv := range keyed {
		if i > 0 && kv>>32 != keyed[i-1]>>32 {
			r = int32(i)
		}
		sa[i] = int32(uint32(kv))
		rank[sa[i]] = r
	}
	keyed = nil
	// Doubling rounds: groups are already in their final order relative to
	// each other, so only a group of equals is sorted, by the rank of what
	// follows its shared k symbols (nothing follows: before everything).
	next := func(a int32, k int) int32 {
		if int(a)+k < n {
			return rank[int(a)+k]
		}
		return -1
	}
	var fresh []int32
	for k := saSeedK; ; k *= 2 {
		done := true
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && rank[sa[hi]] == rank[sa[lo]] {
				hi++
			}
			if hi-lo > 1 {
				done = false
				group := sa[lo:hi]
				slices.SortFunc(group, func(a, b int32) int { return int(next(a, k)) - int(next(b, k)) })
			}
			lo = hi
		}
		if done {
			return sa
		}
		if fresh == nil {
			fresh = make([]int32, n)
		}
		for i := range sa {
			fresh[sa[i]] = int32(i)
			if i > 0 && rank[sa[i]] == rank[sa[i-1]] && next(sa[i], k) == next(sa[i-1], k) {
				fresh[sa[i]] = fresh[sa[i-1]]
			}
		}
		rank, fresh = fresh, rank
	}
}

// lcpLen returns the length of the longest common prefix of q and the
// suffix s[p:].
func lcpLen(q, s []byte, p int32) int {
	n := 0
	for n < len(q) && int(p)+n < len(s) && q[n] == s[int(p)+n] {
		n++
	}
	return n
}

// compareSuffix compares q against the suffix s[p:] for prefix matching:
// 0 when q is a prefix of the suffix, otherwise the sign of the first
// differing position (a suffix shorter than q compares as smaller).
func compareSuffix(q, s []byte, p int32) int {
	i := 0
	for i < len(q) && int(p)+i < len(s) {
		a, b := q[i], s[int(p)+i]
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
		i++
	}
	if i == len(q) {
		return 0 // q fully matched: the suffix has prefix q
	}
	return 1 // suffix exhausted first: suffix < q
}
