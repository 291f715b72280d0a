//go:build amd64 && !purego

package align

// native16ISA names the instruction set behind the native tier, "none"
// when the host lacks it: decided once at start-up from CPUID, never
// configured.
var native16ISA = func() string {
	if hasAVX2() {
		return "avx2"
	}
	return "none"
}()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state (OSXSAVE + XCR0 bits 1 and 2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// sweepRow advances one row of the native kernel: n cells starting at
// column record cols (st.col+1), against the row's target codes tw. The
// first cell's diagonal input is the h of the record before cols. See
// native16.go for the per-cell recurrence; native16_test.go holds the
// pure-Go row it is tested against.
//
//go:noescape
func sweepRow(cols *col16, n int, tw *vec16, st *sweepState)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
