// Package sam renders alignments as SAM records — the output stage of the
// aligner pipeline and the artifact over which the paper validates bit
// equivalence (787M reads of identical SAM output; reproduced here as the
// byte-identical-SAM test between the SeedEx and full-band pipelines).
package sam

import (
	"fmt"
	"strconv"
	"strings"

	"seedex/internal/align"
)

// Flag bits (SAM spec subset used by single- and paired-end alignment).
const (
	FlagPaired       = 0x1
	FlagProperPair   = 0x2
	FlagUnmapped     = 0x4
	FlagMateUnmapped = 0x8
	FlagReverse      = 0x10
	FlagMateReverse  = 0x20
	FlagRead1        = 0x40
	FlagRead2        = 0x80
)

// Record is one SAM alignment line.
type Record struct {
	QName string
	Flag  int
	RName string
	Pos   int // 1-based leftmost mapping position; 0 when unmapped
	MapQ  int
	Cigar align.Cigar
	Seq   string // ASCII bases, already in SAM orientation
	Qual  string
	// Score is the alignment score (AS:i tag); SubScore the best
	// competing score (XS:i).
	Score, SubScore int
	// Mate fields (paired-end): RNext is "=" for same-contig mates, PNext
	// the mate's 1-based position, TLen the signed template length.
	RNext string
	PNext int
	TLen  int
}

// String renders the 11 mandatory fields plus AS/XS tags.
func (r Record) String() string { return string(r.AppendTo(nil)) }

// AppendTo appends the line String renders to dst and returns the extended
// slice, so a caller rendering many records reuses one buffer.
func (r Record) AppendTo(dst []byte) []byte {
	field := func(s string) { dst = append(append(dst, s...), '\t') }
	num := func(n int) { dst = append(strconv.AppendInt(dst, int64(n), 10), '\t') }
	orStar := func(s string) string {
		if s == "" {
			return "*"
		}
		return s
	}
	mapped := r.Flag&FlagUnmapped == 0
	field(r.QName)
	num(r.Flag)
	if mapped {
		field(r.RName)
		num(r.Pos)
		num(r.MapQ)
		dst = append(r.Cigar.AppendTo(dst), '\t')
	} else {
		field("*")
		num(0)
		num(r.MapQ)
		field("*")
	}
	field(orStar(r.RNext))
	num(r.PNext)
	num(r.TLen)
	field(orStar(r.Seq))
	dst = append(dst, orStar(r.Qual)...)
	if mapped {
		dst = strconv.AppendInt(append(dst, "\tAS:i:"...), int64(r.Score), 10)
		dst = strconv.AppendInt(append(dst, "\tXS:i:"...), int64(r.SubScore), 10)
	}
	return dst
}

// Header renders a minimal SAM header for a single reference.
func Header(refName string, refLen int, program string) string {
	return HeaderMulti([]string{refName}, []int{refLen}, program)
}

// HeaderMulti renders a SAM header for several contigs.
func HeaderMulti(names []string, lengths []int, program string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "@HD\tVN:1.6\tSO:unsorted\n")
	for i, n := range names {
		fmt.Fprintf(&b, "@SQ\tSN:%s\tLN:%d\n", n, lengths[i])
	}
	fmt.Fprintf(&b, "@PG\tID:%s\tPN:%s\n", program, program)
	return b.String()
}

// Validate checks structural invariants of a mapped record.
func (r Record) Validate() error {
	if r.Flag&FlagUnmapped != 0 {
		return nil
	}
	if r.Pos <= 0 {
		return fmt.Errorf("sam: mapped record %s has pos %d", r.QName, r.Pos)
	}
	if len(r.Seq) > 0 {
		if err := r.Cigar.Validate(len(r.Seq), r.Cigar.TargetLen()); err != nil {
			return fmt.Errorf("sam: %s: %w", r.QName, err)
		}
	}
	if r.MapQ < 0 || r.MapQ > 60 {
		return fmt.Errorf("sam: %s: mapq %d out of range", r.QName, r.MapQ)
	}
	return nil
}
