// Package chain groups colinear seeds into chains, the step between
// seeding and seed extension in the BWA-MEM pipeline (paper §II-A:
// "Seeding threads perform seeding and chaining").
package chain

import (
	"cmp"
	"slices"
)

// Seed is one exact match between query and reference. Strand handling is
// the caller's: seeds from the reverse-complement query carry Rev.
type Seed struct {
	QBeg, RBeg, Len int
	Rev             bool
}

// QEnd returns the query end (exclusive).
func (s Seed) QEnd() int { return s.QBeg + s.Len }

// REnd returns the reference end (exclusive).
func (s Seed) REnd() int { return s.RBeg + s.Len }

// Diag returns the seed's matrix diagonal.
func (s Seed) Diag() int { return s.RBeg - s.QBeg }

// Chain is a colinear seed group.
type Chain struct {
	Seeds []Seed
	Rev   bool
	// Weight is the query coverage of the chain's seeds (BWA-MEM's chain
	// weight, used for filtering).
	Weight int
}

// QBeg returns the chain's query start.
func (c Chain) QBeg() int { return c.Seeds[0].QBeg }

// RBeg returns the chain's reference start.
func (c Chain) RBeg() int { return c.Seeds[0].RBeg }

// Anchor returns the chain's longest seed (extension anchor).
func (c Chain) Anchor() Seed {
	best := c.Seeds[0]
	for _, s := range c.Seeds[1:] {
		if s.Len > best.Len {
			best = s
		}
	}
	return best
}

// Config controls chaining.
type Config struct {
	// MaxGap is the largest query/reference gap joining two seeds (BWA
	// default ballpark: a few hundred for short reads).
	MaxGap int
	// MaxDiagDiff is the largest diagonal drift within a chain.
	MaxDiagDiff int
	// MinWeight drops chains with less query coverage.
	MinWeight int
	// KeepFraction drops chains lighter than this fraction of the best
	// chain's weight (BWA's drop_ratio = 0.5).
	KeepFraction float64
	// MaxChains caps the number of chains returned (best first).
	MaxChains int
}

// DefaultConfig mirrors BWA-MEM-style values for 101 bp reads.
func DefaultConfig() Config {
	return Config{MaxGap: 100, MaxDiagDiff: 100, MinWeight: 19, KeepFraction: 0.5, MaxChains: 10}
}

// Build chains the seeds (one strand at a time or mixed; strands never
// chain together). The result is sorted by descending weight and
// filtered per cfg.
func Build(seeds []Seed, cfg Config) []Chain {
	if len(seeds) == 0 {
		return nil
	}
	sorted := append([]Seed(nil), seeds...)
	slices.SortFunc(sorted, func(a, b Seed) int {
		if a.Rev != b.Rev {
			if b.Rev {
				return -1
			}
			return 1
		}
		return cmp.Or(a.RBeg-b.RBeg, a.QBeg-b.QBeg)
	})
	var chains []Chain
	for _, s := range sorted {
		placed := false
		// Try the most recent chains first (seeds arrive in reference
		// order, so compatible chains cluster at the tail).
		for ci := len(chains) - 1; ci >= 0 && ci >= len(chains)-8; ci-- {
			c := &chains[ci]
			if c.Rev != s.Rev {
				continue
			}
			last := c.Seeds[len(c.Seeds)-1]
			if s.QBeg <= last.QBeg || s.RBeg <= last.RBeg {
				continue // must advance in both coordinates
			}
			qGap := s.QBeg - last.QEnd()
			rGap := s.RBeg - last.REnd()
			if qGap > cfg.MaxGap || rGap > cfg.MaxGap {
				continue
			}
			dd := s.Diag() - last.Diag()
			if dd < 0 {
				dd = -dd
			}
			if dd > cfg.MaxDiagDiff {
				continue
			}
			c.Seeds = append(c.Seeds, s)
			placed = true
			break
		}
		if !placed {
			chains = append(chains, Chain{Seeds: []Seed{s}, Rev: s.Rev})
		}
	}
	for i := range chains {
		chains[i].Weight = weight(chains[i].Seeds)
	}
	slices.SortStableFunc(chains, func(a, b Chain) int { return b.Weight - a.Weight })
	// Filter.
	out := chains[:0]
	best := chains[0].Weight
	for _, c := range chains {
		if c.Weight < cfg.MinWeight {
			continue
		}
		if float64(c.Weight) < cfg.KeepFraction*float64(best) {
			continue
		}
		out = append(out, c)
		if cfg.MaxChains > 0 && len(out) >= cfg.MaxChains {
			break
		}
	}
	return out
}

// weight is the union query coverage of the seeds.
func weight(seeds []Seed) int {
	type iv struct{ a, b int }
	ivs := make([]iv, len(seeds))
	for i, s := range seeds {
		ivs[i] = iv{s.QBeg, s.QEnd()}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a - y.a })
	w, end := 0, -1
	for _, v := range ivs {
		if v.a > end {
			w += v.b - v.a
			end = v.b
		} else if v.b > end {
			w += v.b - end
			end = v.b
		}
	}
	return w
}
