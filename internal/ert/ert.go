// Package ert models the Enumerated-Radix-Tree seeding accelerator
// (Subramaniyan et al., used by the paper's combined seeding+SeedEx FPGA
// image): a k-mer root table whose entries lead into shallow radix
// subtrees, traded off for memory capacity to gain bandwidth efficiency.
//
// The software model keeps the same query structure — O(1) root lookup
// followed by per-hit maximal extension — and counts the tree-walk steps
// the hardware would perform, which feeds the Table II / Figure 17
// throughput models.
package ert

import (
	"sort"
	"sync/atomic"

	"seedex/internal/chain"
)

// K is the root-table k-mer width.
const K = 16

// Index is the ERT-like seeding index.
type Index struct {
	ref  []byte
	k    int
	root map[uint32][]int32
	// Steps counts radix-walk steps performed by queries (hardware work
	// proxy); reset with ResetSteps. Atomic: pipeline workers share the
	// index.
	Steps atomic.Int64
}

// Build constructs the index over a sanitized (codes 0..3) reference.
func Build(ref []byte, k int) *Index {
	if k <= 0 || k > 16 {
		k = K
	}
	ix := &Index{ref: ref, k: k, root: make(map[uint32][]int32)}
	if len(ref) < k {
		return ix
	}
	var km uint32
	mask := uint32(1)<<(2*k) - 1
	valid := 0
	for i, c := range ref {
		if c > 3 {
			valid = 0
			km = 0
			continue
		}
		km = (km<<2 | uint32(c)) & mask
		valid++
		if valid >= k {
			ix.root[km] = append(ix.root[km], int32(i-k+1))
		}
	}
	return ix
}

// Config controls seeding.
type Config struct {
	// Stride between query anchor positions (1 = every offset).
	Stride int
	// MaxOcc skips k-mers with more occurrences (repeat masking).
	MaxOcc int
	// MinSeedLen discards extended seeds shorter than this.
	MinSeedLen int
}

// DefaultConfig mirrors the aligner defaults.
func DefaultConfig() Config { return Config{Stride: 1, MaxOcc: 50, MinSeedLen: 19} }

// Seeds finds maximal exact matches of q (codes 0..3, code 4 allowed and
// never matched) against the reference: each k-mer hit is extended
// maximally in both directions and deduplicated.
func (ix *Index) Seeds(q []byte, cfg Config) []chain.Seed {
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	type key struct{ diag, end int32 }
	seen := make(map[key]struct{})
	var out []chain.Seed
	if len(q) < ix.k {
		return nil
	}
	var steps int64
	for i := 0; i+ix.k <= len(q); i += cfg.Stride {
		km, ok := ix.kmerAt(q, i)
		if !ok {
			continue
		}
		hits := ix.root[km]
		steps += int64(ix.k) // root walk
		if len(hits) == 0 || (cfg.MaxOcc > 0 && len(hits) > cfg.MaxOcc) {
			continue
		}
		for _, p32 := range hits {
			p := int(p32)
			// Extend left.
			qb, rb := i, p
			for qb > 0 && rb > 0 && q[qb-1] == ix.ref[rb-1] && q[qb-1] < 4 {
				qb--
				rb--
			}
			// Extend right.
			qe, re := i+ix.k, p+ix.k
			for qe < len(q) && re < len(ix.ref) && q[qe] == ix.ref[re] && q[qe] < 4 {
				qe++
				re++
			}
			steps += int64((i - qb) + (qe - i - ix.k))
			if qe-qb < cfg.MinSeedLen {
				continue
			}
			k := key{int32(rb - qb), int32(rb + (qe - qb))}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, chain.Seed{QBeg: qb, RBeg: rb, Len: qe - qb})
		}
	}
	ix.Steps.Add(steps)
	sort.Slice(out, func(a, b int) bool {
		if out[a].RBeg != out[b].RBeg {
			return out[a].RBeg < out[b].RBeg
		}
		return out[a].QBeg < out[b].QBeg
	})
	return out
}

func (ix *Index) kmerAt(q []byte, i int) (uint32, bool) {
	var km uint32
	for j := 0; j < ix.k; j++ {
		c := q[i+j]
		if c > 3 {
			return 0, false
		}
		km = km<<2 | uint32(c)
	}
	return km, true
}

// ResetSteps clears the work counter.
func (ix *Index) ResetSteps() { ix.Steps.Store(0) }
