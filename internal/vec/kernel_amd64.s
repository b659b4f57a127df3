#include "textflag.h"

// AVX2+FMA leaves of Dot, Axpy and the three GEMMs. kernel.go states the
// numerical contract; kernel_amd64.go declares these. All loads and stores
// are unaligned forms (mmap'd shard rows sit behind a 28-byte header), every
// function handles any d >= 0 itself, and each ends in VZEROUPPER.

// tailmask<> is 8 all-ones dwords followed by 8 zero dwords. Eight dwords
// read at byte offset 32-4*r are a VMASKMOVPS mask selecting the first r
// lanes; masked-off lanes load as +0 and are never touched in memory.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// BLOCKS leaves in BX the byte offset 0 and in DX the byte length of the
// whole 8-float blocks of the d floats counted in CX.
#define BLOCKS \
	MOVQ CX, DX;  \
	ANDQ $~7, DX; \
	SHLQ $2, DX;  \
	XORQ BX, BX

// TAILMASK loads into Y14 the mask of the last d mod 8 lanes, or jumps to
// label none when d is a multiple of 8. Clobbers AX and CX.
#define TAILMASK(none) \
	ANDQ $7, CX;                \
	JZ   none;                  \
	SHLQ $2, CX;                \
	LEAQ tailmask<>+32(SB), AX; \
	SUBQ CX, AX;                \
	VMOVDQU (AX), Y14

// func dotAVX2(a, b *float32, d int) float32
//
// One accumulator, Y0. The reduction tree is fixed:
// ((x0+x1)+(x2+x3)) + ((x4+x5)+(x6+x7)); dotTileAVX2 applies the same tree
// to each of its accumulators, which is what makes MulABt bitwise Dot.
TEXT ·dotAVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ d+16(FP), CX
	VXORPS Y0, Y0, Y0
	BLOCKS
	CMPQ BX, DX
	JGE  dot_tail

dot_loop:
	VMOVUPS     (SI)(BX*1), Y1
	VFMADD231PS (DI)(BX*1), Y1, Y0
	ADDQ        $32, BX
	CMPQ        BX, DX
	JLT         dot_loop

dot_tail:
	TAILMASK(dot_reduce)
	VMASKMOVPS  (SI)(BX*1), Y14, Y1
	VMASKMOVPS  (DI)(BX*1), Y14, Y2
	VFMADD231PS Y2, Y1, Y0

dot_reduce:
	VHADDPS      Y0, Y0, Y0
	VHADDPS      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVSS       X0, ret+24(FP)
	VZEROUPPER
	RET

// func dotTileAVX2(c *float32, ldc int, a *float32, r int, b *float32, cc int, d int)
//
// Accumulators: Y0..Y7 hold c00 c01 c10 c11 c20 c21 c30 c31; Y8, Y9 the two
// B rows of the step, Y10..Y13 the four A rows — 14 of the 16 YMM registers,
// 8 FMAs per 6 loads, and 8 independent FMA chains to cover the 4-cycle
// latency on two ports. A 4×3 tile would need all 16 with nothing left for
// the tail mask. Rows an edge tile lacks alias the last row it has, so the
// loop has one shape; only the stores look at r and cc.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-56
	MOVQ a+16(FP), SI
	MOVQ r+24(FP), R8
	MOVQ b+32(FP), DI
	MOVQ cc+40(FP), R9
	MOVQ d+48(FP), CX
	LEAQ (CX*4), DX

	// A1..A3 in R10..R12, B1 in R13: the next row, or the previous pointer
	// again when the tile has no such row.
	MOVQ    SI, R10
	LEAQ    (SI)(DX*1), AX
	CMPQ    R8, $2
	CMOVQGE AX, R10
	MOVQ    R10, R11
	LEAQ    (R10)(DX*1), AX
	CMPQ    R8, $3
	CMOVQGE AX, R11
	MOVQ    R11, R12
	LEAQ    (R11)(DX*1), AX
	CMPQ    R8, $4
	CMOVQGE AX, R12
	MOVQ    DI, R13
	LEAQ    (DI)(DX*1), AX
	CMPQ    R9, $2
	CMOVQGE AX, R13

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	BLOCKS
	CMPQ BX, DX
	JGE  tile_tail

tile_loop:
	VMOVUPS     (DI)(BX*1), Y8
	VMOVUPS     (R13)(BX*1), Y9
	VMOVUPS     (SI)(BX*1), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VMOVUPS     (R10)(BX*1), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VMOVUPS     (R11)(BX*1), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VMOVUPS     (R12)(BX*1), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ        $32, BX
	CMPQ        BX, DX
	JLT         tile_loop

tile_tail:
	TAILMASK(tile_reduce)
	VMASKMOVPS  (DI)(BX*1), Y14, Y8
	VMASKMOVPS  (R13)(BX*1), Y14, Y9
	VMASKMOVPS  (SI)(BX*1), Y14, Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VMASKMOVPS  (R10)(BX*1), Y14, Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VMASKMOVPS  (R11)(BX*1), Y14, Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VMASKMOVPS  (R12)(BX*1), Y14, Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7

tile_reduce:
	// dotAVX2's tree on all 8 accumulators at once: two rounds of pairwise
	// adds transpose as they go, leaving X0 = c00 c01 c10 c11 and
	// X4 = c20 c21 c30 c31.
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y5, Y4, Y4
	VHADDPS      Y7, Y6, Y6
	VHADDPS      Y2, Y0, Y0
	VHADDPS      Y6, Y4, Y4
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VEXTRACTF128 $1, Y4, X5
	VADDPS       X5, X4, X4

	MOVQ c+0(FP), AX
	MOVQ ldc+8(FP), DX
	SHLQ $2, DX
	CMPQ R9, $2
	JLT  tile_onecol
	VMOVLPS X0, (AX)
	CMPQ    R8, $2
	JLT     tile_done
	VMOVHPS X0, (AX)(DX*1)
	CMPQ    R8, $3
	JLT     tile_done
	LEAQ    (AX)(DX*2), AX
	VMOVLPS X4, (AX)
	CMPQ    R8, $4
	JLT     tile_done
	VMOVHPS X4, (AX)(DX*1)
	JMP     tile_done

tile_onecol:
	VMOVSS     X0, (AX)
	CMPQ       R8, $2
	JLT        tile_done
	VEXTRACTPS $2, X0, (AX)(DX*1)
	CMPQ       R8, $3
	JLT        tile_done
	LEAQ       (AX)(DX*2), AX
	VMOVSS     X4, (AX)
	CMPQ       R8, $4
	JLT        tile_done
	VEXTRACTPS $2, X4, (AX)(DX*1)

tile_done:
	VZEROUPPER
	RET

// func axpyAVX2(alpha float32, x, y *float32, d int)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y8
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ d+24(FP), CX
	BLOCKS
	LEAQ -32(DX), AX
	CMPQ BX, AX
	JGE  axpy_block

axpy_loop:
	// Two 8-float steps per trip; the steps are independent.
	VMOVUPS     (DI)(BX*1), Y0
	VMOVUPS     32(DI)(BX*1), Y1
	VFMADD231PS (SI)(BX*1), Y8, Y0
	VFMADD231PS 32(SI)(BX*1), Y8, Y1
	VMOVUPS     Y0, (DI)(BX*1)
	VMOVUPS     Y1, 32(DI)(BX*1)
	ADDQ        $64, BX
	CMPQ        BX, AX
	JLT         axpy_loop

axpy_block:
	CMPQ BX, DX
	JGE  axpy_tail
	VMOVUPS     (DI)(BX*1), Y0
	VFMADD231PS (SI)(BX*1), Y8, Y0
	VMOVUPS     Y0, (DI)(BX*1)
	ADDQ        $32, BX

axpy_tail:
	SHLQ $2, CX
	CMPQ BX, CX
	JGE  axpy_done

axpy_scalar:
	VMOVSS      (DI)(BX*1), X0
	VFMADD231SS (SI)(BX*1), X8, X0
	VMOVSS      X0, (DI)(BX*1)
	ADDQ        $4, BX
	CMPQ        BX, CX
	JLT         axpy_scalar

axpy_done:
	VZEROUPPER
	RET

// func axpyTileAVX2(dst, src *float32, d int, w00, w01, w02, w03, w10, w11, w12, w13 float32)
//
// Y8..Y11 hold w00..w03 and Y12..Y15 w10..w13, broadcast; Y0, Y1 the two
// destination rows of the step, Y2..Y5 the four source rows: all 16 YMM
// registers, 8 FMAs per 6 loads and 2 stores. Each destination lane is a
// chain of four FMAs in ascending source order — four axpyAVX2 steps — and
// successive 8-float steps are independent, which is where the overlap that
// hides the chain's latency comes from.
TEXT ·axpyTileAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ d+16(FP), CX
	VBROADCASTSS w00+24(FP), Y8
	VBROADCASTSS w01+28(FP), Y9
	VBROADCASTSS w02+32(FP), Y10
	VBROADCASTSS w03+36(FP), Y11
	VBROADCASTSS w10+40(FP), Y12
	VBROADCASTSS w11+44(FP), Y13
	VBROADCASTSS w12+48(FP), Y14
	VBROADCASTSS w13+52(FP), Y15
	LEAQ (CX*4), DX
	LEAQ (DI)(DX*1), R10 // second destination row
	LEAQ (SI)(DX*1), R11 // source rows 1..3
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	BLOCKS
	CMPQ BX, DX
	JGE  atile_tail

atile_loop:
	VMOVUPS     (DI)(BX*1), Y0
	VMOVUPS     (R10)(BX*1), Y1
	VMOVUPS     (SI)(BX*1), Y2
	VFMADD231PS Y2, Y8, Y0
	VFMADD231PS Y2, Y12, Y1
	VMOVUPS     (R11)(BX*1), Y3
	VFMADD231PS Y3, Y9, Y0
	VFMADD231PS Y3, Y13, Y1
	VMOVUPS     (R12)(BX*1), Y4
	VFMADD231PS Y4, Y10, Y0
	VFMADD231PS Y4, Y14, Y1
	VMOVUPS     (R13)(BX*1), Y5
	VFMADD231PS Y5, Y11, Y0
	VFMADD231PS Y5, Y15, Y1
	VMOVUPS     Y0, (DI)(BX*1)
	VMOVUPS     Y1, (R10)(BX*1)
	ADDQ        $32, BX
	CMPQ        BX, DX
	JLT         atile_loop

atile_tail:
	SHLQ $2, CX
	CMPQ BX, CX
	JGE  atile_done

atile_scalar:
	VMOVSS      (DI)(BX*1), X0
	VMOVSS      (R10)(BX*1), X1
	VMOVSS      (SI)(BX*1), X2
	VFMADD231SS X2, X8, X0
	VFMADD231SS X2, X12, X1
	VMOVSS      (R11)(BX*1), X3
	VFMADD231SS X3, X9, X0
	VFMADD231SS X3, X13, X1
	VMOVSS      (R12)(BX*1), X4
	VFMADD231SS X4, X10, X0
	VFMADD231SS X4, X14, X1
	VMOVSS      (R13)(BX*1), X5
	VFMADD231SS X5, X11, X0
	VFMADD231SS X5, X15, X1
	VMOVSS      X0, (DI)(BX*1)
	VMOVSS      X1, (R10)(BX*1)
	ADDQ        $4, BX
	CMPQ        BX, CX
	JLT         atile_scalar

atile_done:
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
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
