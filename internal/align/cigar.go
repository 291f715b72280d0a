package align

import (
	"fmt"
	"strconv"
)

// CigarOp is a single CIGAR operation kind.
type CigarOp byte

// CIGAR operation kinds (SAM semantics: the query is the read, the target
// is the reference).
const (
	OpMatch CigarOp = 'M' // alignment match or mismatch: consumes query and target
	OpIns   CigarOp = 'I' // insertion to the reference: consumes query only
	OpDel   CigarOp = 'D' // deletion from the reference: consumes target only
	OpSoft  CigarOp = 'S' // soft clip: consumes query only, unaligned
)

// CigarElem is a run-length encoded CIGAR element.
type CigarElem struct {
	Op  CigarOp
	Len int
}

// Cigar is a run-length encoded alignment description.
type Cigar []CigarElem

// String renders the CIGAR in SAM text form ("*" when empty).
func (c Cigar) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends the SAM text form to dst and returns the extended slice.
func (c Cigar) AppendTo(dst []byte) []byte {
	if len(c) == 0 {
		return append(dst, '*')
	}
	for _, e := range c {
		dst = strconv.AppendInt(dst, int64(e.Len), 10)
		dst = append(dst, byte(e.Op))
	}
	return dst
}

// Push appends one op run, merging with the previous element when equal.
func (c Cigar) Push(op CigarOp, n int) Cigar { return c.append(op, n) }

// Concat appends all of other's elements, merging at the junction.
func (c Cigar) Concat(other Cigar) Cigar {
	for _, e := range other {
		c = c.append(e.Op, e.Len)
	}
	return c
}

// append adds one op, merging with the previous element when equal.
func (c Cigar) append(op CigarOp, n int) Cigar {
	if n == 0 {
		return c
	}
	if len(c) > 0 && c[len(c)-1].Op == op {
		c[len(c)-1].Len += n
		return c
	}
	return append(c, CigarElem{Op: op, Len: n})
}

// QueryLen returns the number of query bases the CIGAR consumes.
func (c Cigar) QueryLen() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case OpMatch, OpIns, OpSoft:
			n += e.Len
		}
	}
	return n
}

// TargetLen returns the number of target bases the CIGAR consumes.
func (c Cigar) TargetLen() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case OpMatch, OpDel:
			n += e.Len
		}
	}
	return n
}

// Reverse reverses the element order in place and returns c (tracebacks
// produce elements end-to-start).
func (c Cigar) Reverse() Cigar {
	for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
	return c
}

// Validate checks the CIGAR consumes exactly qlen query and tlen target
// bases and contains no zero-length or adjacent-equal elements.
func (c Cigar) Validate(qlen, tlen int) error {
	for i, e := range c {
		if e.Len <= 0 {
			return fmt.Errorf("align: cigar element %d has non-positive length", i)
		}
		if i > 0 && c[i-1].Op == e.Op {
			return fmt.Errorf("align: cigar has adjacent %c elements", e.Op)
		}
	}
	if got := c.QueryLen(); got != qlen {
		return fmt.Errorf("align: cigar consumes %d query bases, want %d", got, qlen)
	}
	if got := c.TargetLen(); got != tlen {
		return fmt.Errorf("align: cigar consumes %d target bases, want %d", got, tlen)
	}
	return nil
}

// Score recomputes the affine-gap score of the aligned (non-clipped) part
// of the CIGAR over the given sequences, starting from h0; the test oracle
// for traceback.
func (c Cigar) Score(query, target []byte, h0 int, sc Scoring) int {
	score := h0
	qi, ti := 0, 0
	for _, e := range c {
		switch e.Op {
		case OpMatch:
			for k := 0; k < e.Len; k++ {
				score += sc.Sub(target[ti], query[qi])
				qi++
				ti++
			}
		case OpIns:
			score -= sc.GapOpen + e.Len*sc.GapExtend
			qi += e.Len
		case OpDel:
			score -= sc.GapOpen + e.Len*sc.GapExtend
			ti += e.Len
		case OpSoft:
			qi += e.Len
		}
	}
	return score
}
