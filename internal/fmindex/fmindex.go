package fmindex

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// occRate is the occurrence-table block size: one checkpoint and one
// 64-bit membership mask per base every occRate BWT positions.
const occRate = 64

// alphabet size including the sentinel (code 0 internally; bases are
// shifted up by one) and the sequence separator (code 4 in text space,
// 5 shifted) that pads between contigs so no match crosses a junction.
const sigma = 6

// jumpMax is the longest k-mer the jump table indexes: 4^8 intervals,
// 512 KB, what the served index's memory bound leaves room for.
const jumpMax = 8

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
	// jump[code] is the interval of the jumpK-mer whose bases, first base
	// most significant, spell code: where a backward search stands after
	// its first jumpK steps. jumpK is min(jumpMax, floor(log4 len(text))),
	// so a tiny index carries a tiny table.
	jump  []Interval
	jumpK int
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
	if err := checkText(text); err != nil {
		return nil, err
	}
	ix := &Index{text: text, sa: BuildSA(text)}
	ix.deriveFromSA()
	return ix, nil
}

// FromParts assembles an index over caller-provided text and suffix
// array storage — typically slices aliasing a read-only memory-mapped
// index file, so every shard and worker shares one physical copy of the
// big sections. Both slices are validated and must not be modified
// afterwards; the derived search structures (BWT, occurrence
// checkpoints) are rebuilt on the heap.
func FromParts(text []byte, sa []int32) (*Index, error) {
	if len(sa) != len(text) {
		return nil, fmt.Errorf("fmindex: suffix array length %d != text length %d", len(sa), len(text))
	}
	if err := checkText(text); err != nil {
		return nil, err
	}
	for i, p := range sa {
		if p < 0 || int(p) >= len(text) {
			return nil, fmt.Errorf("fmindex: corrupt suffix array at %d", i)
		}
	}
	ix := &Index{text: text, sa: sa}
	ix.deriveFromSA()
	return ix, nil
}

// checkText rejects codes above the separator.
func checkText(text []byte) error {
	for i, c := range text {
		if c > Separator {
			return fmt.Errorf("fmindex: unsanitized base %d at %d", c, i)
		}
	}
	return nil
}

// deriveFromSA reconstructs the BWT's occurrence table and the
// cumulative counts from text+sa (used by New and FromParts) in one
// pass over the suffix array.
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
	ix.fillJump()
}

// fillJump derives the jump table level by level, in place: the intervals
// of the (l+1)-mers aP are one Backward step from those of the l-mers P,
// which occupy the table's first 4^l entries. Base 0 overwrites its
// sources, so it goes last.
func (ix *Index) fillJump() {
	ix.jumpK = 0
	for n := len(ix.text); n >= 4 && ix.jumpK < jumpMax; n /= 4 {
		ix.jumpK++
	}
	ix.jump = make([]Interval, 1<<(2*ix.jumpK))
	ix.jump[0] = Interval{0, ix.rows}
	for l := 0; l < ix.jumpK; l++ {
		for a := 3; a >= 0; a-- {
			for code := 0; code < 1<<(2*l); code++ {
				ix.jump[a<<(2*l)|code] = ix.Backward(ix.jump[code], byte(a))
			}
		}
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
	// Row 0 is the sentinel's, the empty suffix; row r > 0 is ix.sa[r-1].
	lo := iv.Lo
	if lo == 0 {
		lo = 1
	}
	return ix.LocateRaw(Interval{lo - 1, iv.Hi - 1}, max)
}

// LongestMatch returns the length of the longest prefix of q that occurs
// in the text, together with its SA interval over ix.sa (not
// sentinel-augmented). Zero length means q[0] does not occur.
func (ix *Index) LongestMatch(q []byte) (int, Interval) {
	return ix.longestMatchIn(q, Interval{0, int32(len(ix.sa))})
}

// longestMatchIn is LongestMatch searching only the rows of in, a raw
// interval that must hold every suffix sharing the longest prefix with q:
// the interval of any prefix of q that occurs does (the whole array is the
// empty prefix's). The insertion point of q, the two neighbours that
// bound the longest match and the match's own interval all lie inside it.
func (ix *Index) longestMatchIn(q []byte, in Interval) (int, Interval) {
	if smemProbe != nil {
		smemProbe.longestMatches++
		if in.Size() == len(ix.sa) {
			smemProbe.wholeArray++
		}
	}
	if in.Size() <= 0 || len(q) == 0 {
		return 0, Interval{}
	}
	rows := ix.sa[in.Lo:in.Hi]
	if len(rows) == 1 {
		if l := lcpLen(q, ix.text, rows[0]); l > 0 {
			return l, in
		}
		return 0, Interval{}
	}
	// Insertion point of q among the suffixes.
	pos := sort.Search(len(rows), func(i int) bool {
		return compareSuffix(q, ix.text, rows[i]) <= 0
	})
	best := 0
	if pos < len(rows) {
		best = lcpLen(q, ix.text, rows[pos])
	}
	if pos > 0 {
		best = max(best, lcpLen(q, ix.text, rows[pos-1]))
	}
	if best == 0 {
		return 0, Interval{}
	}
	p := q[:best]
	lo := sort.Search(len(rows), func(i int) bool { return compareSuffix(p, ix.text, rows[i]) <= 0 })
	hi := sort.Search(len(rows), func(i int) bool { return compareSuffix(p, ix.text, rows[i]) < 0 })
	return best, Interval{in.Lo + int32(lo), in.Lo + int32(hi)}
}

// LocateRaw returns the text positions of a raw (non-augmented) interval
// from LongestMatch (at most max, the smallest; max <= 0 for all), in
// ascending order. A capped call keeps only max positions at a time, so a
// low-complexity seed costs its cap, not its occurrence count.
func (ix *Index) LocateRaw(iv Interval, max int) []int {
	n := iv.Size()
	if n <= 0 {
		return nil
	}
	rows := ix.sa[iv.Lo:iv.Hi]
	if max <= 0 || n <= max {
		out := make([]int, n)
		for i, p := range rows {
			out[i] = int(p)
		}
		if n > 1 {
			sort.Ints(out)
		}
		return out
	}
	out := make([]int, 0, max) // ascending throughout
	for _, p := range rows {
		v := int(p)
		if len(out) == max {
			if v > out[max-1] {
				continue
			}
			out = out[:max-1]
		}
		i, _ := slices.BinarySearch(out, v)
		out = slices.Insert(out, i, v)
	}
	return out
}
