package fmindex

import "seedex/internal/genome"

// FMD is the bidirectional FM index of Li (2012), as used by BWA-MEM: a
// single FM index over S = T · sep · revcomp(T) whose suffix-array
// intervals come in pairs — one for a pattern P and one for revcomp(P) —
// so the pattern can be extended in *both* directions with backward
// steps only. It is the substrate of BWA-MEM's supermaximal-exact-match
// (SMEM) seeding, reproduced here by SMEMsBi.
type FMD struct {
	ix *Index
	n  int // length of the original text T
	// isa0Row is the sentinel-augmented SA row of the suffix starting at
	// position 0 of S, used to detect "revcomp(P) is a suffix of S"
	// (equivalently: T starts with P) in O(1).
	isa0Row int32
}

// BiInterval is a bidirectional interval: K is the sentinel-augmented SA
// interval start of P, L the start for revcomp(P), S the shared size.
type BiInterval struct {
	K, L, S int32
}

// Alive reports whether the interval still has occurrences.
func (b BiInterval) Alive() bool { return b.S > 0 }

// NewFMD builds the bidirectional index over text (codes 0..3; sanitize
// first).
func NewFMD(text []byte) (*FMD, error) {
	s := make([]byte, 0, 2*len(text)+1)
	s = append(s, text...)
	s = append(s, Separator)
	s = append(s, genome.RevComp(text)...)
	ix, err := New(s)
	if err != nil {
		return nil, err
	}
	f := &FMD{ix: ix, n: len(text)}
	for r, p := range ix.sa {
		if p == 0 {
			f.isa0Row = int32(r) + 1 // +1: sentinel-augmented rows
			break
		}
	}
	return f, nil
}

// Index exposes the underlying FM index (for Locate etc.).
func (f *FMD) Index() *Index { return f.ix }

// TextLen returns the length of the original text T.
func (f *FMD) TextLen() int { return f.n }

// Start returns the bi-interval of the single-base pattern c.
func (f *FMD) Start(c byte) BiInterval {
	if c > 3 {
		return BiInterval{}
	}
	ix := f.ix
	k := ix.c[c+1]
	s := ix.c[c+2] - ix.c[c+1]
	cc := genome.Complement(c)
	l := ix.c[cc+1]
	// For a single base, the interval of revcomp(c) = comp(c) is simply
	// its own C-range; sizes match because S is revcomp-closed.
	return BiInterval{K: k, L: l, S: s}
}

// BackwardExt prepends base a (0..3) to the pattern: the K side takes a
// standard LF step; the L side (revcomp(P) gains comp(a) at its end)
// shifts by the sizes of the lexicographically smaller sibling
// extensions, computed from the K side via revcomp-closure.
func (f *FMD) BackwardExt(bi BiInterval, a byte) BiInterval {
	if a > 3 || !bi.Alive() {
		return BiInterval{}
	}
	ix := f.ix
	lo, hi := bi.K, bi.K+bi.S

	// Per-base backward sizes over [lo, hi): sz[y] = count(y·P). The
	// separator's size is never needed: it sorts after every base.
	var sz [4]int32
	var newK int32
	for y := byte(0); y <= 3; y++ {
		b := y + 1
		olo := ix.occAt(b, lo)
		ohi := ix.occAt(b, hi)
		sz[y] = ohi - olo
		if y == a {
			newK = ix.c[b] + olo
		}
	}

	// The sub-intervals of revcomp(P)·z within [L, L+S) are ordered by
	// z: $ < A < C < G < T < sep, and by revcomp-closure of S,
	// size(revcomp(P)·z) = count(comp(z)·P) = sz[comp(z)].
	// The $ term is 1 iff S ends with revcomp(P), i.e. T starts with P,
	// i.e. the row of suffix 0 lies in P's own interval — a test that
	// stays correct under the ForwardExt swap because the swapped K side
	// is then revcomp(P)'s interval and the condition becomes "T starts
	// with revcomp(P)", exactly the swapped $ term.
	off := int32(0)
	if f.isa0Row >= bi.K && f.isa0Row < bi.K+bi.S {
		off = 1
	}
	comp := genome.Complement(a)
	for z := byte(0); z < comp; z++ {
		off += sz[genome.Complement(z)]
	}
	return BiInterval{K: newK, L: bi.L + off, S: sz[a]}
}

// ForwardExt appends base c (0..3) to the pattern by the classic
// symmetry: swap the interval pair (so the machine sees revcomp(P)),
// prepend comp(c), and swap back.
func (f *FMD) ForwardExt(bi BiInterval, c byte) BiInterval {
	if c > 3 || !bi.Alive() {
		return BiInterval{}
	}
	sw := BiInterval{K: bi.L, L: bi.K, S: bi.S}
	r := f.BackwardExt(sw, genome.Complement(c))
	return BiInterval{K: r.L, L: r.K, S: r.S}
}

// CountBi returns the bi-interval of a full pattern by backward
// extension (used by tests).
func (f *FMD) CountBi(p []byte) BiInterval {
	if len(p) == 0 {
		return BiInterval{}
	}
	bi := f.Start(p[len(p)-1])
	for i := len(p) - 2; i >= 0 && bi.Alive(); i-- {
		bi = f.BackwardExt(bi, p[i])
	}
	return bi
}
