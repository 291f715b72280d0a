//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The cell recurrence both loops of sweepRow share, sixteen int16 lanes at
// a time. In: Y0 = H(i-1, j-1), Y1 = F(i, j), SI = the column record.
// Out: Y12 = hv = H(i, j) (stored), Y0 = H(i-1, j) for the next cell,
// Y1 = F(i, j+1), E(i+1, j) stored, Y3 |= hv. Clobbers Y13, Y14.
//
// The diagonal term is hDiag + s - Mismatch with s = Match + Mismatch in
// matching lanes and 0 elsewhere, saturating at 0: hDiag + Match on a
// match, max(hDiag - Mismatch, 0) on a mismatch. VPSIGNW by hDiag zeroes
// s where the diagonal is dead, so a dead cell gives no match — the
// kernels' no-restart rule — at no extra cost. E and F leaving the cell
// are both <= hv, so hv alone says whether the cell is live.
#define CELL \
	VPCMPEQW col16_q(SI), Y4, Y12; \
	VPAND    Y5, Y12, Y12; \
	VPSIGNW  Y0, Y12, Y12; \
	VPADDW   Y0, Y12, Y12; \
	VMOVDQU  col16_h(SI), Y0; \
	VPSUBUSW Y6, Y12, Y12; \
	VMOVDQU  col16_e(SI), Y13; \
	VPMAXUW  Y13, Y12, Y12; \
	VPMAXUW  Y1, Y12, Y12; \
	VMOVDQU  Y12, col16_h(SI); \
	VPOR     Y12, Y3, Y3; \
	VPSUBUSW Y7, Y12, Y14; \
	VPSUBUSW Y8, Y13, Y13; \
	VPMAXUW  Y14, Y13, Y13; \
	VMOVDQU  Y13, col16_e(SI); \
	VPSUBUSW Y8, Y1, Y1; \
	VPMAXUW  Y14, Y1, Y1

// func sweepRow(cols *col16, n int, tw *vec16, st *sweepState)
//
// Register plan:
//	Y0  hDiag   Y1 f        Y2 best     Y3 live (OR of the row's H)
//	Y4  tw      Y5 Match+Mismatch       Y6 Mismatch
//	Y7  GapOpen+GapExtend   Y8 GapExtend
//	Y9  1       Y10 left: real cells left in the lane's row from this
//	            column on, 0 where the lane has no target at this row —
//	            0 is "padding", 1 "right edge"
//	Y11 gBest   Y12-Y15 scratch
//	R8  column index of the current cell
// The first st.plain cells are real cells left of every lane's right edge:
// they run the recurrence and the local-best compare with no masks. The
// rest mask padding out and track the right edge. Either loop leaves to
// its update block only when some lane strictly improves — about once a
// row — so the positions (bi, bj, gT) stay in sweepState.
TEXT ·sweepRow(SB), NOSPLIT, $0-32
	MOVQ cols+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ tw+16(FP), DX
	MOVQ st+24(FP), DI

	VMOVDQU (DX), Y4
	VMOVDQU sweepState_mm(DI), Y5
	VMOVDQU sweepState_mi(DI), Y6
	VMOVDQU sweepState_oe(DI), Y7
	VMOVDQU sweepState_ge(DI), Y8
	VMOVDQU sweepState_best(DI), Y2
	VPXOR   Y1, Y1, Y1
	VPXOR   Y3, Y3, Y3
	VMOVDQU -col16__size(SI), Y0 // h of the column left of the first cell

	MOVWQZX sweepState_col(DI), R8 // R8 = column index of the cell at SI, minus 1
	TESTQ   R8, R8
	JNZ     inside
	VPSUBUSW sweepState_c0(DI), Y0, Y12 // column 0 decays one step per row
	VMOVDQU Y12, -col16__size(SI)
inside:
	MOVWQZX sweepState_plain(DI), BX
	SUBQ    BX, CX               // CX = masked cells after the plain ones
	TESTQ   BX, BX
	JLE     masked

plain:
	CELL
	VPCMPGTW Y2, Y12, Y14 // strict: the first cell in scan order keeps the best
	VPMAXUW Y12, Y2, Y2
	INCQ    R8
	VPTEST  Y14, Y14
	JNZ     plainUpdate
plainNext:
	ADDQ    $col16__size, SI
	DECQ    BX
	JNZ     plain

masked:
	TESTQ   CX, CX
	JLE     done
	VMOVQ   R8, X10
	VPBROADCASTW X10, Y10
	VPBROADCASTW sweepState_row(DI), Y12
	VPCMPGTW sweepState_mV(DI), Y12, Y12 // i > m: the lane's target is exhausted
	VPANDN  sweepState_nV(DI), Y12, Y12
	VPSUBUSW Y10, Y12, Y10               // left = n - (j-1), saturating
	VPCMPEQW Y9, Y9, Y9
	VPSRLW  $15, Y9, Y9                  // 1 in every lane
	VMOVDQU sweepState_gBest(DI), Y11

maskedLoop:
	CELL
	VPSIGNW Y10, Y12, Y12 // hm: hv in real cells, 0 in padding
	VPCMPEQW Y9, Y10, Y13
	VPAND   Y12, Y13, Y13 // g: hm on the lane's right edge
	VPSUBUSW Y9, Y10, Y10
	VPCMPGTW Y2, Y12, Y14
	VPMAXUW Y12, Y2, Y2
	VPCMPGTW Y11, Y13, Y15
	VPMAXUW Y13, Y11, Y11
	INCQ    R8
	VPOR    Y14, Y15, Y12
	VPTEST  Y12, Y12
	JNZ     maskedUpdate
maskedNext:
	ADDQ    $col16__size, SI
	DECQ    CX
	JNZ     maskedLoop
	VMOVDQU Y11, sweepState_gBest(DI)

done:
	VMOVDQU Y2, sweepState_best(DI)
	// live: lanes with target left at this row and a non-zero H in it.
	VPXOR   Y13, Y13, Y13
	VPCMPEQW Y13, Y3, Y3
	VPBROADCASTW sweepState_row(DI), Y12
	VPCMPGTW sweepState_mV(DI), Y12, Y12
	VPOR    Y12, Y3, Y3
	VPMOVMSKB Y3, AX
	NOTL    AX
	MOVL    AX, sweepState_live(DI)
	VZEROUPPER
	RET

plainUpdate: // Y14 = lanes whose local best moved to this cell (row i, column R8)
	VPBROADCASTW sweepState_row(DI), Y12
	VMOVDQU sweepState_bi(DI), Y13
	VPBLENDVB Y14, Y12, Y13, Y13
	VMOVDQU Y13, sweepState_bi(DI)
	VMOVQ   R8, X12
	VPBROADCASTW X12, Y12
	VMOVDQU sweepState_bj(DI), Y13
	VPBLENDVB Y14, Y12, Y13, Y13
	VMOVDQU Y13, sweepState_bj(DI)
	JMP     plainNext

maskedUpdate: // Y14 as above; Y15 = lanes whose right-edge best moved to this row
	VPBROADCASTW sweepState_row(DI), Y12
	VMOVDQU sweepState_bi(DI), Y13
	VPBLENDVB Y14, Y12, Y13, Y13
	VMOVDQU Y13, sweepState_bi(DI)
	VMOVDQU sweepState_gT(DI), Y13
	VPBLENDVB Y15, Y12, Y13, Y13
	VMOVDQU Y13, sweepState_gT(DI)
	VMOVQ   R8, X12
	VPBROADCASTW X12, Y12
	VMOVDQU sweepState_bj(DI), Y13
	VPBLENDVB Y14, Y12, Y13, Y13
	VMOVDQU Y13, sweepState_bj(DI)
	JMP     maskedNext
