//go:build amd64 && !purego

package align

import (
	"math/rand"
	"slices"
	"testing"
)

// sweepRowRef is the row sweepRow implements, lane by lane in plain Go
// over the same records: cells cols[1..n] of columns st.col+1.., with
// cols[0].h the first diagonal. uint16 arithmetic wraps and compares are
// signed where the assembly's are, so the two agree on any state whose
// inputs fit 15 bits — the driver's own states and the fuzzer's alike. It
// masks every cell, so it does not read st.plain: the assembly's unmasked
// loop must agree with it wherever the caller may declare cells plain.
func sweepRowRef(cols []col16, n int, tw *vec16, st *sweepState) {
	satsub := func(a, b uint16) uint16 { return a - min(a, b) }
	var f vec16
	st.live = 0
	hDiag := cols[0].h
	if st.col == 0 {
		for k := range f {
			cols[0].h[k] = satsub(hDiag[k], st.c0[k])
		}
	}
	for c := 1; c <= n; c++ {
		col, j := &cols[c], st.col+uint16(c)
		for k := range f {
			d, e := hDiag[k], col.e[k]
			hDiag[k] = col.h[k]
			// Match+Mismatch joins a live diagonal on a match; Mismatch
			// always leaves, saturating.
			mv := d
			if col.q[k] == tw[k] && d != 0 {
				mv += st.mm[k]
			}
			hv := max(satsub(mv, st.mi[k]), e, f[k])
			col.h[k] = hv
			// hm is hv in real cells and 0 in padding, g is hm on the lane's
			// right edge; both take the strict first-cell-wins compare.
			rowOK := int16(st.row) <= int16(st.mV[k])
			var hm, g uint16
			if rowOK && int16(j) <= int16(st.nV[k]) {
				hm = hv
				if j == st.nV[k] {
					g = hv
				}
			}
			if int16(hm) > int16(st.best[k]) {
				st.bi[k], st.bj[k] = st.row, j
			}
			st.best[k] = max(st.best[k], hm)
			if int16(g) > int16(st.gBest[k]) {
				st.gT[k] = st.row
			}
			st.gBest[k] = max(st.gBest[k], g)
			t1 := satsub(hv, st.oe[k])
			col.e[k] = max(t1, satsub(e, st.ge[k]))
			f[k] = max(t1, satsub(f[k], st.ge[k]))
			if rowOK && hv != 0 {
				st.live |= 3 << (2 * k)
			}
		}
	}
}

// rowCase is one sweepRow call: the records (cols[0] is the diagonal's
// column, the last one a guard past the cells that must come back
// untouched), the row's target codes and the state going in.
type rowCase struct {
	cols []col16
	tw   vec16
	st   sweepState
}

// checkRow runs the case through the assembly and the reference and
// compares every byte both may write.
func checkRow(t *testing.T, name string, c rowCase) {
	t.Helper()
	n := len(c.cols) - 2
	gotCols, wantCols := append([]col16(nil), c.cols...), append([]col16(nil), c.cols...)
	got, want := c.st, c.st
	sweepRow(&gotCols[1], n, &c.tw, &got)
	sweepRowRef(wantCols, n, &c.tw, &want)
	if got != want {
		t.Fatalf("%s: state after the row\nasm %+v\nref %+v", name, got, want)
	}
	for j := range gotCols {
		if gotCols[j] != wantCols[j] {
			t.Fatalf("%s: column record %d of %d\nasm %+v\nref %+v", name, j, n, gotCols[j], wantCols[j])
		}
	}
}

func defaultRowState(row, col int) sweepState {
	sc := DefaultScoring()
	return sweepState{
		mm: splatVec16(sc.Match + sc.Mismatch), mi: splatVec16(sc.Mismatch),
		oe: splatVec16(sc.GapOpen + sc.GapExtend), ge: splatVec16(sc.GapExtend),
		row: uint16(row), col: uint16(col), c0: splatVec16(sc.GapExtend),
	}
}

// TestSweepRow16 holds the assembly row to the reference on hand-built
// states: each names the rule it exercises.
func TestSweepRow16(t *testing.T) {
	if NativeISA() == "none" {
		t.Skip("no native tier on this host")
	}
	// A plain row: 6 cells, every lane a live problem with its own lengths.
	base := func() rowCase {
		c := rowCase{cols: make([]col16, 8), st: defaultRowState(3, 0)}
		for k := 0; k < 16; k++ {
			c.st.nV[k], c.st.mV[k] = uint16(1+k%6), uint16(k%5)
			c.tw[k] = uint16(k % 4)
			c.cols[0].h[k] = uint16(40 + k)
			for j := 1; j <= 7; j++ {
				c.cols[j].h[k] = uint16(30 + 2*j + k)
				c.cols[j].e[k] = uint16((j * k) % 9)
				c.cols[j].q[k] = uint16((j + k) % 4)
			}
		}
		return c
	}
	checkRow(t, "lanes past their query end (j > n) and target end (i > m)", base())

	c := base()
	c.st.nV, c.st.mV = splatVec16(6), splatVec16(3)
	for _, c.st.plain = range []uint16{0, 1, 4, 5} {
		checkRow(t, "plain cells ahead of the masked ones", c)
	}
	c.st.nV = splatVec16(native16MaxDim)
	c.st.plain = 6
	checkRow(t, "a row of plain cells only", c)

	c = base()
	c.cols = c.cols[:2]
	checkRow(t, "no cells", c)

	c = base()
	c.cols = c.cols[:3]
	checkRow(t, "n = 1", c)

	c = base()
	for j := range c.cols {
		c.cols[j].h, c.cols[j].e = vec16{}, vec16{}
		c.cols[j].q = c.tw // every cell a match, every diagonal dead
	}
	checkRow(t, "dead diagonals give no match (no restart)", c)
	c.cols[0].h[3], c.cols[2].h[5] = 1, 1
	checkRow(t, "a single live diagonal restarts nothing beside it", c)

	c = base()
	for j := range c.cols {
		c.cols[j].h, c.cols[j].e = splatVec16(swarCap16), splatVec16(swarCap16)
		c.cols[j].q = splatVec16(5) // padding: all mismatch
	}
	c.st.nV, c.st.mV = splatVec16(6), splatVec16(9)
	checkRow(t, "values at 32767 under saturating penalties", c)
	c.st.mi, c.st.oe, c.st.ge = splatVec16(swarCap16), splatVec16(swarCap16), splatVec16(swarCap16)
	checkRow(t, "penalties at 32767", c)

	c = base()
	c.st.best = splatVec16(45) // ties and near-ties with the carried best
	c.st.bi, c.st.bj = splatVec16(1), splatVec16(2)
	c.st.gBest, c.st.gT = splatVec16(41), splatVec16(2)
	checkRow(t, "strict compare keeps the first cell on ties", c)

	c = base()
	c.st.row, c.st.col = native16MaxDim, native16MaxDim-6
	c.st.nV, c.st.mV = splatVec16(native16MaxDim), splatVec16(native16MaxDim)
	c.st.nV[2], c.st.mV[4] = native16MaxDim-2, native16MaxDim-1
	checkRow(t, "indices one below the int16 sign bit", c)

	c = base()
	c.st.col = 17 // a banded row: the first cell is column 18
	c.st.nV = splatVec16(20)
	c.st.mV = splatVec16(40)
	c.cols[6].e = vec16{} // the band's right edge enters with a dead E
	checkRow(t, "band edges", c)
}

// TestSweepRow16Random is the fuzz target's generator on fixed seeds, so
// plain go test covers it.
func TestSweepRow16Random(t *testing.T) {
	if NativeISA() == "none" {
		t.Skip("no native tier on this host")
	}
	rng := rand.New(rand.NewSource(16))
	data := make([]byte, 4096)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		checkRow(t, "random", rowCaseFrom(data))
	}
}

// feed turns fuzzer bytes into kernel state, biased to the values where
// lane arithmetic changes behaviour.
type feed struct{ b []byte }

func (f *feed) u8() int {
	if len(f.b) == 0 {
		return 0
	}
	v := f.b[0]
	f.b = f.b[1:]
	return int(v)
}

// score is a lane value in [0, 32767]: dead, near the cap, small or any.
func (f *feed) score() uint16 {
	switch c := f.u8(); c & 3 {
	case 0:
		return 0
	case 1:
		return uint16(swarCap16 - c>>2)
	case 2:
		return uint16(c >> 2)
	}
	return uint16(f.u8()<<8|f.u8()) & swarCap16
}

// length is a lane length relative to the coordinate at: an unused lane,
// within a few cells either side of at, the longest admitted, or any.
func (f *feed) length(at, span int) uint16 {
	switch c := f.u8(); c & 3 {
	case 0:
		return 0
	case 1:
		return uint16(min(max(at-1+(c>>2)%(span+3), 0), native16MaxDim))
	case 2:
		return native16MaxDim
	}
	return uint16((f.u8()<<8 | f.u8()) % (native16MaxDim + 1))
}

func rowCaseFrom(data []byte) rowCase {
	f := &feed{data}
	n := f.u8() % 24
	row := 1 + (f.u8()<<8|f.u8())%native16MaxDim
	col := (f.u8()<<8 | f.u8()) % (native16MaxDim - n + 1)
	if col&3 == 3 {
		col = 0 // a row that starts at column 1 also steps column 0
	}
	c := rowCase{cols: make([]col16, n+2), st: sweepState{row: uint16(row), col: uint16(col)}}
	c.st.mm, c.st.mi = splatVec16(int(f.score())+int(f.score())), splatVec16(int(f.score()))
	c.st.oe, c.st.ge = splatVec16(int(f.score())), splatVec16(int(f.score()))
	full := f.u8()&1 == 1 // every lane long enough for the row to have plain cells
	for k := 0; k < 16; k++ {
		c.st.c0[k] = f.score() << (k & 1) // incl. steps with the top bit set
		c.st.nV[k], c.st.mV[k] = f.length(col+1, n), f.length(row, 0)
		if full {
			c.st.nV[k], c.st.mV[k] = max(c.st.nV[k], uint16(col+n/2)), max(c.st.mV[k], uint16(row))
		}
		c.st.best[k], c.st.gBest[k] = f.score(), f.score()
		c.st.bi[k], c.st.bj[k], c.st.gT[k] = f.score(), f.score(), f.score()
		c.tw[k] = uint16(f.u8() % 7)
	}
	for j := range c.cols {
		for k := 0; k < 16; k++ {
			c.cols[j].h[k], c.cols[j].e[k] = f.score(), f.score()
			c.cols[j].q[k] = uint16(f.u8() % 7)
		}
	}
	// Any number of leading cells up to the first that is some lane's right
	// edge or padding may be declared plain.
	if minN, minM := slices.Min(c.st.nV[:]), slices.Min(c.st.mV[:]); row <= int(minM) {
		if most := min(int(minN)-1-col, n); most > 0 {
			c.st.plain = uint16(f.u8() % (most + 1))
		}
	}
	return c
}

// FuzzSweepRow16 holds the assembly row to the reference row on arbitrary
// state: lanes past their query or target end, dead diagonals, values and
// penalties at 32767, single cells, rows and columns up to the last the
// tier admits.
func FuzzSweepRow16(f *testing.F) {
	if NativeISA() == "none" {
		f.Skip("no native tier on this host")
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 0, 2 << 2, 2 << 2, 2 << 2, 2 << 2})
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 1500)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRow(t, "fuzz", rowCaseFrom(data))
	})
}

// BenchmarkSweepRow16 times the assembly row alone on a banded row of the
// daemon's shape (2w+1 = 41 cells, every lane live), once with every cell
// plain and once with every cell masked.
func BenchmarkSweepRow16(b *testing.B) {
	if NativeISA() == "none" {
		b.Skip("no native tier on this host")
	}
	rng := rand.New(rand.NewSource(20))
	const cells = 41
	cols := make([]col16, cells+1)
	var tw vec16
	st := defaultRowState(60, 39)
	for k := 0; k < 16; k++ {
		st.nV[k], st.mV[k] = 100, 140
		tw[k] = uint16(rng.Intn(4))
		for j := range cols {
			cols[j].h[k], cols[j].q[k] = uint16(40+rng.Intn(40)), uint16(rng.Intn(4))
		}
	}
	for _, plain := range []uint16{cells, 0} {
		b.Run(map[uint16]string{cells: "plain", 0: "masked"}[plain], func(b *testing.B) {
			st.plain = plain
			for i := 0; i < b.N; i++ {
				sweepRow(&cols[1], cells, &tw, &st)
			}
			b.ReportMetric(float64(b.N)*cells*16/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
