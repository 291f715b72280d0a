// Package fmindex implements the seeding substrate: a suffix array, the
// Burrows-Wheeler transform, an occurrence-sampled FM index with backward
// search, longest-match queries, and SMEM (supermaximal exact match)
// generation — the same seeding primitives BWA-MEM builds on (§II-A,
// §VIII of the paper).
package fmindex

import "sort"

// BuildSA constructs the suffix array of s (base codes) by prefix
// doubling in O(n log^2 n); a virtual empty suffix is NOT included.
func BuildSA(s []byte) []int32 {
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
