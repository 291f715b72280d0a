package fmindex

import (
	"fmt"
	"math/bits"
	"sort"
)

// occRate is the occurrence-table block size: one checkpoint and one
// 64-bit membership mask per base every occRate BWT positions.
const occRate = 64

// alphabet size including the sentinel (code 0 internally; bases are
// shifted up by one) and the sequence separator (code 4 in text space,
// 5 shifted) used by the FMD index to keep the forward and
// reverse-complement halves from matching across their junction.
const sigma = 6

// Separator is the text-space code of the never-matching sequence
// separator (the same value genome.N uses, which is also never matched).
const Separator byte = 4

// Index is an FM index (BWT as an occurrence table + full suffix array)
// over a base-code genome. Ambiguous bases must be sanitized by
// the caller (Sanitize) before indexing, as BWA does; the separator code
// 4 is allowed and never matches a pattern base.
type Index struct {
	text []byte  // original base codes, 0..3
	sa   []int32 // suffix array of text (no sentinel entry)
	c    [sigma + 1]int32
	// The BWT over the shifted alphabet (0 = sentinel, 1..4 = bases, 5 =
	// separator), len(text)+1 rows, held only as its occurrence table:
	// the four bases' counts and masks per block. The sentinel (one row)
	// and the separator (whatever is left) are recovered from those.
	rows     int32
	sentinel int32 // the row whose BWT symbol is the sentinel
	occ      []occBlock
}

// occBlock covers BWT rows [64k, 64k+64): n[a] counts base a in rows
// [0, 64k), bit r of mask[a] says row 64k+r holds base a.
type occBlock struct {
	n    [4]int32
	mask [4]uint64
}

// Sanitize replaces ambiguous bases (code >= 4) with a deterministic
// regular base, mirroring BWA's index-time N handling. It returns the
// number of replacements.
func Sanitize(seq []byte) int {
	n := 0
	for i, c := range seq {
		if c >= 4 {
			seq[i] = byte(i) & 3
			n++
		}
	}
	return n
}

// New builds the index. Text must contain only codes 0..3 plus the
// separator code 4.
func New(text []byte) (*Index, error) {
	for i, c := range text {
		if c > Separator {
			return nil, fmt.Errorf("fmindex: unsanitized base %d at %d", c, i)
		}
	}
	ix := &Index{text: text, sa: BuildSA(text)}
	ix.deriveFromSA()
	return ix, nil
}

// deriveFromSA reconstructs the BWT's occurrence table and the
// cumulative counts from text+sa (used by New and by index
// deserialization) in one pass over the suffix array.
func (ix *Index) deriveFromSA() {
	text := ix.text
	n := len(text)
	// BWT with an implicit sentinel: conceptually the suffix array of
	// text+"$" is [n] ++ sa (the empty suffix sorts first). Row 0 holds
	// the char before the sentinel (text[n-1]); row i+1 derives from sa[i].
	ix.rows = int32(n + 1)
	// One block more than the rows fill when they end on a block boundary:
	// occAt(b, rows) reads the counts of the block starting there.
	ix.occ = make([]occBlock, (n+1)/occRate+1)
	var cnt [sigma]int32
	for row := 0; row <= n; row++ {
		if row%occRate == 0 {
			copy(ix.occ[row/occRate].n[:], cnt[1:5])
		}
		var b byte // sentinel
		switch {
		case row == 0 && n > 0:
			b = text[n-1] + 1
		case row > 0 && ix.sa[row-1] > 0:
			b = text[ix.sa[row-1]-1] + 1
		default:
			ix.sentinel = int32(row)
		}
		cnt[b]++
		if a := b - 1; a < 4 {
			ix.occ[row/occRate].mask[a] |= 1 << (row % occRate)
		}
	}
	if (n+1)%occRate == 0 {
		copy(ix.occ[(n+1)/occRate].n[:], cnt[1:5])
	}
	ix.c = [sigma + 1]int32{}
	for a := 1; a <= sigma; a++ {
		ix.c[a] = ix.c[a-1] + cnt[a-1]
	}
}

// Len returns the text length.
func (ix *Index) Len() int { return len(ix.text) }

// Text returns the indexed text (shared, do not modify).
func (ix *Index) Text() []byte { return ix.text }

// SA returns the suffix array (shared, do not modify). Together with
// Text it is the persisted half of the index; everything else derives.
func (ix *Index) SA() []int32 { return ix.sa }

// occAt returns Occ(b, i): occurrences of BWT symbol b in rows [0, i),
// 0 <= i <= rows. A base is a checkpoint plus a popcount.
func (ix *Index) occAt(b byte, i int32) int32 {
	if a := b - 1; a < 4 {
		blk := &ix.occ[i/occRate]
		return blk.n[a] + int32(bits.OnesCount64(blk.mask[a]&(1<<(uint(i)%occRate)-1)))
	}
	var sentinel int32
	if i > ix.sentinel {
		sentinel = 1
	}
	if b == 0 {
		return sentinel
	}
	// The separator: the rows no other symbol claims.
	n := i - sentinel
	for base := byte(1); base <= 4; base++ {
		n -= ix.occAt(base, i)
	}
	return n
}

// bwtAt returns the BWT symbol of a row.
func (ix *Index) bwtAt(row int32) byte {
	blk := &ix.occ[row/occRate]
	for a, m := range blk.mask {
		if m>>(uint(row)%occRate)&1 != 0 {
			return byte(a) + 1
		}
	}
	if row == ix.sentinel {
		return 0
	}
	return Separator + 1
}

// Interval is a half-open SA interval [Lo, Hi) in the sentinel-augmented
// suffix array; Hi-Lo is the occurrence count.
type Interval struct{ Lo, Hi int32 }

// Size returns the number of occurrences.
func (iv Interval) Size() int { return int(iv.Hi - iv.Lo) }

// Backward extends the interval of pattern P to the interval of aP via
// one LF-mapping step (a is a base code 0..3).
func (ix *Index) Backward(iv Interval, a byte) Interval {
	b := a + 1
	lo := ix.c[b] + ix.occAt(b, iv.Lo)
	hi := ix.c[b] + ix.occAt(b, iv.Hi)
	return Interval{lo, hi}
}

// Count returns the SA interval of pattern p (codes 0..3) via backward
// search; a zero-size interval means no occurrences.
func (ix *Index) Count(p []byte) Interval {
	iv := Interval{0, ix.rows}
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] > 3 {
			return Interval{}
		}
		iv = ix.Backward(iv, p[i])
		if iv.Size() <= 0 {
			return Interval{}
		}
	}
	return iv
}

// Locate returns the text positions of an interval (at most max; pass
// max <= 0 for all), in ascending order.
func (ix *Index) Locate(iv Interval, max int) []int {
	var out []int
	for r := iv.Lo; r < iv.Hi; r++ {
		if r == 0 {
			continue // the sentinel row: the empty suffix
		}
		out = append(out, int(ix.sa[r-1]))
	}
	sort.Ints(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// LongestMatch returns the length of the longest prefix of q that occurs
// in the text, together with its SA interval over ix.sa (not
// sentinel-augmented). Zero length means q[0] does not occur.
func (ix *Index) LongestMatch(q []byte) (int, Interval) {
	n := len(ix.sa)
	if n == 0 || len(q) == 0 {
		return 0, Interval{}
	}
	// Insertion point of q among the suffixes.
	pos := sort.Search(n, func(i int) bool {
		return compareSuffix(q, ix.text, ix.sa[i]) <= 0
	})
	best := 0
	if pos < n {
		if l := lcpLen(q, ix.text, ix.sa[pos]); l > best {
			best = l
		}
	}
	if pos > 0 {
		if l := lcpLen(q, ix.text, ix.sa[pos-1]); l > best {
			best = l
		}
	}
	if best == 0 {
		return 0, Interval{}
	}
	p := q[:best]
	lo := sort.Search(n, func(i int) bool { return compareSuffix(p, ix.text, ix.sa[i]) <= 0 })
	hi := sort.Search(n, func(i int) bool { return compareSuffix(p, ix.text, ix.sa[i]) < 0 })
	return best, Interval{int32(lo), int32(hi)}
}

// LocateRaw returns the text positions of a raw (non-augmented) interval
// from LongestMatch.
func (ix *Index) LocateRaw(iv Interval, max int) []int {
	var out []int
	for r := iv.Lo; r < iv.Hi; r++ {
		out = append(out, int(ix.sa[r]))
	}
	sort.Ints(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
