package fmindex

import "sort"

// SampledSA is a memory-realistic suffix-array representation: only every
// Rate-th suffix position is retained, and Locate walks the LF mapping
// until it reaches a sampled row — the standard FM-index trade-off real
// aligners ship (BWA samples at 32). The full-array Index methods remain
// available for tests and small references.
type SampledSA struct {
	ix   *Index
	Rate int
	// sampled[r/Rate] = sa value at sampled sentinel-augmented row r,
	// marked by rowBits.
	vals map[int32]int32
}

// NewSampledSA samples ix's suffix array at the given rate (BWA-like:
// 32). The underlying full array is NOT freed here (the Index owns it);
// callers measuring memory use the sampled structure alone.
func NewSampledSA(ix *Index, rate int) *SampledSA {
	if rate <= 0 {
		rate = 32
	}
	s := &SampledSA{ix: ix, Rate: rate, vals: make(map[int32]int32)}
	// Sample by text position (every Rate-th position is retained),
	// which guarantees an LF walk reaches a sample within Rate steps.
	for r, p := range ix.sa {
		if int(p)%rate == 0 {
			s.vals[int32(r)+1] = p // sentinel-augmented row
		}
	}
	return s
}

// lf performs one LF-mapping step: from the row of suffix S[p:] to the
// row of suffix S[p-1:].
func (s *SampledSA) lf(row int32) int32 {
	b := s.ix.bwtAt(row)
	return s.ix.c[b] + s.ix.occAt(b, row)
}

// Position resolves one sentinel-augmented SA row to its text position
// by LF-walking to the nearest sample.
func (s *SampledSA) Position(row int32) int {
	steps := 0
	for {
		if row == 0 {
			// The sentinel row is only reachable by stepping past text
			// position 0, which is always sampled (0 % Rate == 0); keep
			// the algebraic answer as a defensive fallback.
			return steps - 1
		}
		if v, ok := s.vals[row]; ok {
			return int(v) + steps
		}
		row = s.lf(row)
		steps++
	}
}

// Locate resolves an interval's positions via the sampled array (at most
// max, ascending; max <= 0 for all).
func (s *SampledSA) Locate(iv Interval, max int) []int {
	var out []int
	for r := iv.Lo; r < iv.Hi; r++ {
		if r == 0 {
			continue
		}
		out = append(out, s.Position(r))
	}
	sort.Ints(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// MemoryEntries returns the number of retained SA entries (for the
// memory-saving accounting in benches).
func (s *SampledSA) MemoryEntries() int { return len(s.vals) }
