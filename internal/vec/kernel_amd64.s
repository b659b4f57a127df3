#include "textflag.h"

// AVX2+FMA leaves of Dot, Axpy, the GEMMs and the two mask passes. kernel.go
// states the numerical contract; kernel_amd64.go declares these. All loads and stores
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

// func dotTileAVX2(c *float32, ldc int, a *float32, r int, b0, b1 *float32, cc int, d int)
//
// Accumulators: Y0..Y7 hold c00 c01 c10 c11 c20 c21 c30 c31; Y8, Y9 the two
// B rows of the step, Y10..Y13 the four A rows — 14 of the 16 YMM registers,
// 8 FMAs per 6 loads, and 8 independent FMA chains to cover the 4-cycle
// latency on two ports. A 4×3 tile would need all 16 with nothing left for
// the tail mask. Rows an edge tile lacks alias the last row it has, so the
// loop has one shape; only the stores look at r and cc. The two B rows come
// as pointers (a one-column tile is handed the same row twice), so the rows
// may lie anywhere: next to each other under MulABt, wherever an index list
// says under MulABtRows.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-64
	MOVQ a+16(FP), SI
	MOVQ r+24(FP), R8
	MOVQ b0+32(FP), DI
	MOVQ b1+40(FP), R13
	MOVQ cc+48(FP), R9
	MOVQ d+56(FP), CX
	LEAQ (CX*4), DX

	// A1..A3 in R10..R12: the next row, or the previous pointer again when
	// the tile has no such row.
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

// func prefetchRowsAVX2(b *float32, d int, idx *int32, n int)
//
// Asks for every cache line of rows idx[0..n) of b (d floats a row), in list
// order, ahead of the tile walk that reads them: rows named by a list lie
// where no hardware prefetcher looks, and the tile's eight FMA chains would
// otherwise stall on each miss in turn. A prefetch faults on nothing and
// writes nothing.
TEXT ·prefetchRowsAVX2(SB), NOSPLIT, $0-32
	MOVQ b+0(FP), SI
	MOVQ d+8(FP), DX
	MOVQ idx+16(FP), R9
	MOVQ n+24(FP), R11
	SHLQ $2, DX
	JZ   prefetch_done
	XORQ BX, BX
	JMP  prefetch_next

prefetch_row:
	MOVLQZX (R9)(BX*4), AX
	IMULQ   DX, AX
	ADDQ    SI, AX
	LEAQ    -1(AX)(DX*1), CX // the row's last byte

prefetch_line:
	PREFETCHT0 (AX)
	ADDQ       $64, AX
	CMPQ       AX, CX
	JLE        prefetch_line
	PREFETCHT0 (CX)
	INCQ       BX

prefetch_next:
	CMPQ BX, R11
	JLT  prefetch_row

prefetch_done:
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

// ROWWALK is the index-list walk of addRowSparseAVX2 for one column block:
// for k = 0..nnz-1 it skips a ±0 weight exactly, broadcasts w[k] into Y8,
// points AX at the block's columns of source row idx[k] and runs FMAS, which
// accumulates into the block's registers. The caller has checked nnz > 0.
#define ROWWALK(loop, skip, FMAS) \
	XORQ         BX, BX;          \
loop:                          \
	MOVL         (R10)(BX*4), AX; \
	ADDL         AX, AX;          \
	JZ           skip;            \
	VBROADCASTSS (R10)(BX*4), Y8; \
	MOVLQZX      (R9)(BX*4), AX;  \
	IMULQ        R12, AX;         \
	ADDQ         SI, AX;          \
	FMAS;                         \
skip:                          \
	INCQ         BX;              \
	CMPQ         BX, R11;         \
	JLT          loop

#define FMA1 \
	VFMADD231PS (AX), Y8, Y0
#define FMA2 \
	FMA1;                       \
	VFMADD231PS 32(AX), Y8, Y1
#define FMA4 \
	FMA2;                       \
	VFMADD231PS 64(AX), Y8, Y2; \
	VFMADD231PS 96(AX), Y8, Y3
#define FMA8 \
	FMA4;                        \
	VFMADD231PS 128(AX), Y8, Y4; \
	VFMADD231PS 160(AX), Y8, Y5; \
	VFMADD231PS 192(AX), Y8, Y6; \
	VFMADD231PS 224(AX), Y8, Y7
#define FMATAIL \
	VMASKMOVPS  (AX), Y14, Y1; \
	VFMADD231PS Y1, Y8, Y0

// NEXTCOLS steps the destination and source column pointers past a block of
// n floats (b bytes).
#define NEXTCOLS(n, b) \
	ADDQ $b, DI; \
	ADDQ $b, SI; \
	SUBQ $n, R13

// func addRowSparseAVX2(dst *float32, d int, src *float32, idx *int32, w *float32, nnz int)
//
// dst[0:d] += Σ_k w[k]·src[idx[k]·d : idx[k]·d+d], ascending k, a ±0 weight
// skipped: per lane the FMA chain of that many axpyAVX2 calls. The leaf is
// row-stationary: a block of up to 64 destination floats sits in Y0..Y7 while
// the whole index list is walked — one broadcast (Y8) and 8 memory-operand
// FMAs per non-zero — so the destination is loaded and stored once per row,
// not once per source row. What 64 does not cover goes through the same walk
// on 4, 2 and 1 registers, and the last d mod 8 floats under the Y14 mask.
// Every idx[k] must be a row of src: the caller's checkSparse gate, not this
// code, is what keeps the loads in bounds.
TEXT ·addRowSparseAVX2(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  d+8(FP), R13 // floats of the row still to do
	MOVQ  src+16(FP), SI
	MOVQ  idx+24(FP), R9
	MOVQ  w+32(FP), R10
	MOVQ  nnz+40(FP), R11
	LEAQ  (R13*4), R12 // source row stride in bytes
	TESTQ R11, R11
	JLE   rows_done

rows_64:
	CMPQ    R13, $64
	JLT     rows_32
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	ROWWALK(walk_64, skip_64, FMA8)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	NEXTCOLS(64, 256)
	JMP     rows_64

rows_32:
	CMPQ    R13, $32
	JLT     rows_16
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	ROWWALK(walk_32, skip_32, FMA4)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	NEXTCOLS(32, 128)

rows_16:
	CMPQ    R13, $16
	JLT     rows_8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	ROWWALK(walk_16, skip_16, FMA2)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	NEXTCOLS(16, 64)

rows_8:
	CMPQ    R13, $8
	JLT     rows_tail
	VMOVUPS (DI), Y0
	ROWWALK(walk_8, skip_8, FMA1)
	VMOVUPS Y0, (DI)
	NEXTCOLS(8, 32)

rows_tail:
	MOVQ       R13, CX
	TAILMASK(rows_done)
	VMASKMOVPS (DI), Y14, Y0
	ROWWALK(walk_tail, skip_tail, FMATAIL)
	VMASKMOVPS Y0, Y14, (DI)

rows_done:
	VZEROUPPER
	RET

// The two complex leaves treat a d-float vector as h = d/2 complex numbers,
// real parts first: SI/R9 are a's halves, R11/R10 b's, DI/R8 dst's. They use
// separate multiplies, adds and subtracts in the order of the Go expressions
// they replace — no FMA — so their results are bitwise the portable code's.

// CHALVES derives the imaginary-half pointers from DI, SI, R11 and h in CX,
// and leaves BLOCKS' offsets for h.
#define CHALVES \
	LEAQ (DI)(CX*4), R8;   \
	LEAQ (SI)(CX*4), R9;   \
	LEAQ (R11)(CX*4), R10; \
	BLOCKS

// CLOAD and CLOADM load ar, ai, br, bi into Y0..Y3, whole and under Y14.
#define CLOAD \
	VMOVUPS (SI)(BX*1), Y0;  \
	VMOVUPS (R9)(BX*1), Y1;  \
	VMOVUPS (R11)(BX*1), Y2; \
	VMOVUPS (R10)(BX*1), Y3
#define CLOADM \
	VMASKMOVPS (SI)(BX*1), Y14, Y0;  \
	VMASKMOVPS (R9)(BX*1), Y14, Y1;  \
	VMASKMOVPS (R11)(BX*1), Y14, Y2; \
	VMASKMOVPS (R10)(BX*1), Y14, Y3

// CMUL leaves a·b in Y4 (ar·br − ai·bi) and Y5 (ar·bi + ai·br); CMULCONJ
// leaves a·conj(b) in Y4 (ar·br + ai·bi) and Y5 (ai·br − ar·bi).
#define CMUL \
	VMULPS Y2, Y0, Y4; \
	VMULPS Y3, Y1, Y6; \
	VSUBPS Y6, Y4, Y4; \
	VMULPS Y3, Y0, Y5; \
	VMULPS Y2, Y1, Y6; \
	VADDPS Y6, Y5, Y5
#define CMULCONJ \
	VMULPS Y2, Y0, Y4; \
	VMULPS Y3, Y1, Y6; \
	VADDPS Y6, Y4, Y4; \
	VMULPS Y3, Y0, Y5; \
	VMULPS Y2, Y1, Y6; \
	VSUBPS Y5, Y6, Y5

// func complexMulAVX2(dst, a, b *float32, h int)
TEXT ·complexMulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R11
	MOVQ h+24(FP), CX
	CHALVES
	CMPQ BX, DX
	JGE  cmul_tail

cmul_loop:
	CLOAD
	CMUL
	VMOVUPS Y4, (DI)(BX*1)
	VMOVUPS Y5, (R8)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     cmul_loop

cmul_tail:
	TAILMASK(cmul_done)
	CLOADM
	CMUL
	VMASKMOVPS Y4, Y14, (DI)(BX*1)
	VMASKMOVPS Y5, Y14, (R8)(BX*1)

cmul_done:
	VZEROUPPER
	RET

// func complexMulConjAddAVX2(dst, a, b *float32, h int)
TEXT ·complexMulConjAddAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R11
	MOVQ h+24(FP), CX
	CHALVES
	CMPQ BX, DX
	JGE  cconj_tail

cconj_loop:
	CLOAD
	CMULCONJ
	VADDPS  (DI)(BX*1), Y4, Y4
	VADDPS  (R8)(BX*1), Y5, Y5
	VMOVUPS Y4, (DI)(BX*1)
	VMOVUPS Y5, (R8)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, DX
	JLT     cconj_loop

cconj_tail:
	TAILMASK(cconj_done)
	CLOADM
	CMULCONJ
	VMASKMOVPS (DI)(BX*1), Y14, Y0
	VMASKMOVPS (R8)(BX*1), Y14, Y1
	VADDPS     Y0, Y4, Y4
	VADDPS     Y1, Y5, Y5
	VMASKMOVPS Y4, Y14, (DI)(BX*1)
	VMASKMOVPS Y5, Y14, (R8)(BX*1)

cconj_done:
	VZEROUPPER
	RET

// HINGESTEP takes one group of 8 hinge arguments in Y1 and their id==id
// lanes in Y3: it counts the equal lanes into Y9, leaves in Y2 the lanes that
// are unmasked and positive, adds those arguments lane-wise into ACC, and
// stores the group's 8 mask bits as the next byte of mask.
#define HINGESTEP(ACC) \
	VCMPPS    $0x1E, Y12, Y1, Y2; \
	VPSUBD    Y3, Y9, Y9;         \
	VANDNPS   Y2, Y3, Y2;         \
	VANDPS    Y2, Y1, Y1;         \
	VADDPS    Y1, ACC, ACC;       \
	VMOVMSKPS Y2, AX;             \
	MOVB      AX, (DI);           \
	INCQ      DI

// func hingeMaskAVX2(mask *byte, scores *float32, ids *int32, n int, t float32, id int32) (sum float64, masked int)
//
// Bit j of mask (⌈n/8⌉ bytes, little-endian bit order, bits past n clear) is
// set when ids[j] != id and t+scores[j] > 0 (ordered compare: a NaN sum is
// not positive); masked counts ids[j] == id. sum adds those t+scores[j]: in
// 16 float32 lanes (Y10 and Y11, taking alternate groups so consecutive
// groups do not wait on each other's add), widened to float64 for the
// reduction — the caller bounds n so that a lane adds only a few terms.
// Y15 = t, Y13 = id, Y12 = 0 throughout.
TEXT ·hingeMaskAVX2(SB), NOSPLIT, $0-56
	MOVQ         mask+0(FP), DI
	MOVQ         scores+8(FP), SI
	MOVQ         ids+16(FP), R9
	MOVQ         n+24(FP), CX
	VBROADCASTSS t+32(FP), Y15
	VBROADCASTSS id+36(FP), Y13
	VXORPS       Y12, Y12, Y12
	VXORPS       Y10, Y10, Y10
	VXORPS       Y11, Y11, Y11
	VPXOR        Y9, Y9, Y9
	BLOCKS
	LEAQ         -32(DX), R8
	CMPQ         BX, R8
	JGE          hinge_one

hinge_loop:
	VADDPS   (SI)(BX*1), Y15, Y1
	VPCMPEQD (R9)(BX*1), Y13, Y3
	HINGESTEP(Y10)
	VADDPS   32(SI)(BX*1), Y15, Y1
	VPCMPEQD 32(R9)(BX*1), Y13, Y3
	HINGESTEP(Y11)
	ADDQ     $64, BX
	CMPQ     BX, R8
	JLT      hinge_loop

hinge_one:
	CMPQ     BX, DX
	JGE      hinge_tail
	VADDPS   (SI)(BX*1), Y15, Y1
	VPCMPEQD (R9)(BX*1), Y13, Y3
	HINGESTEP(Y10)
	ADDQ     $32, BX

hinge_tail:
	TAILMASK(hinge_sum)
	VMASKMOVPS (SI)(BX*1), Y14, Y1
	VADDPS     Y1, Y15, Y1
	VANDPS     Y14, Y1, Y1 // lanes past n: +0, not positive
	VPMASKMOVD (R9)(BX*1), Y14, Y3
	VPCMPEQD   Y3, Y13, Y3
	VPAND      Y14, Y3, Y3
	HINGESTEP(Y11)

hinge_sum:
	VCVTPS2PD    X10, Y0
	VEXTRACTF128 $1, Y10, X1
	VCVTPS2PD    X1, Y1
	VCVTPS2PD    X11, Y2
	VEXTRACTF128 $1, Y11, X3
	VCVTPS2PD    X3, Y3
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VHADDPD      X0, X0, X0
	VMOVSD       X0, sum+40(FP)
	VEXTRACTI128 $1, Y9, X1
	VPADDD       X1, X9, X9
	VPHADDD      X9, X9, X9
	VPHADDD      X9, X9, X9
	VMOVD        X9, AX
	MOVQ         AX, masked+48(FP)
	VZEROUPPER
	RET

// func selectGEMaskAVX2(mask *byte, x *float32, n int, t float32)
//
// Bit j of mask (⌈n/8⌉ bytes, little-endian bit order, bits past n clear) is
// set when x[j] is not below t. The predicate is NLT_US, true for an
// unordered pair, so a NaN on either side sets the bit: exactly the entries a
// "reject what is below t" test lets through. Y15 = t throughout.
TEXT ·selectGEMaskAVX2(SB), NOSPLIT, $0-28
	MOVQ         mask+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS t+24(FP), Y15
	BLOCKS
	CMPQ         BX, DX
	JGE          select_tail

select_loop:
	VMOVUPS   (SI)(BX*1), Y1
	VCMPPS    $0x05, Y15, Y1, Y2
	VMOVMSKPS Y2, AX
	MOVB      AX, (DI)
	INCQ      DI
	ADDQ      $32, BX
	CMPQ      BX, DX
	JLT       select_loop

select_tail:
	TAILMASK(select_done)
	VMASKMOVPS (SI)(BX*1), Y14, Y1
	VCMPPS     $0x05, Y15, Y1, Y2
	VANDPS     Y14, Y2, Y2 // lanes past n: clear
	VMOVMSKPS  Y2, AX
	MOVB       AX, (DI)

select_done:
	VZEROUPPER
	RET

// func maxUint32AVX2(x *int32, n int) uint32
//
// The unsigned maximum of n dwords (0 for none): checkSparse's range test of
// an index list, 16 lanes per step in two accumulators, then one odd block
// of 8 and the masked tail.
TEXT ·maxUint32AVX2(SB), NOSPLIT, $0-20
	MOVQ  x+0(FP), SI
	MOVQ  n+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2
	BLOCKS
	MOVQ  DX, DI
	ANDQ  $~63, DI
	JMP   max_pairs

max_loop:
	VPMAXUD (SI)(BX*1), Y0, Y0
	VPMAXUD 32(SI)(BX*1), Y2, Y2
	ADDQ    $64, BX

max_pairs:
	CMPQ    BX, DI
	JLT     max_loop
	CMPQ    BX, DX
	JGE     max_tail
	VPMAXUD (SI)(BX*1), Y0, Y0
	ADDQ    $32, BX

max_tail:
	TAILMASK(max_reduce)
	VPMASKMOVD (SI)(BX*1), Y14, Y1
	VPMAXUD    Y1, Y0, Y0

max_reduce:
	VPMAXUD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPMAXUD      X1, X0, X0
	VMOVSS       X0, ret+16(FP)
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
