#include "textflag.h"

// AVX2+FMA leaves of Dot, Axpy, the row Adagrad update, the GEMMs, the two
// sparse products and the two left-packing selection passes. kernel.go states the numerical contract; kernel_amd64.go
// declares these. All loads and stores are unaligned forms (mmap'd shard
// rows sit behind a 28-byte header), every function handles any d >= 0
// itself, and each ends in VZEROUPPER.

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

// STRIPAHEAD is how many columns ahead of the tile it scores the first strip
// of a listed product asks for B rows: far enough that a row requested now
// has arrived when its tile comes up.
#define STRIPAHEAD 8

// The macros from here to dotAVX2 are dotStripAVX2's and read its frame;
// they sit ahead of the first TEXT because vet checks a #define's frame
// names against the function it follows.
//
// A tile's set-up leaves in its B row registers the address of the B row
// each of its columns reads, from DX = the bytes of a row, BX = idx and a
// register b = b+24(FP). LISTROW does so for column j+k through the list,
// DENSEROW for row j+k itself, when the tile has column j+k. On a last tile
// that may lack it, LISTEDGE and DENSEEDGE take column j's row instead
// (STRIPCOL picks the column), so the tile's k-loop has one shape.
#define LISTROW(k, reg, b) \
	MOVLQZX 4*k(BX)(R9*4), reg; \
	IMULQ   DX, reg;            \
	ADDQ    b, reg

#define DENSEROW(k, reg, b) \
	LEAQ  k(R9), reg; \
	IMULQ DX, reg;    \
	ADDQ  b, reg

#define STRIPCOL(k, reg) \
	LEAQ    k(R9), reg;    \
	CMPQ    reg, m+40(FP); \
	CMOVQGE R9, reg

#define LISTEDGE(k, reg, b) \
	STRIPCOL(k, reg);         \
	MOVLQZX (BX)(reg*4), reg; \
	IMULQ   DX, reg;          \
	ADDQ    b, reg

#define DENSEEDGE(k, reg, b) \
	STRIPCOL(k, reg); \
	IMULQ DX, reg;    \
	ADDQ  b, reg

// TILESETUP loads DX, BX and the register base (the b of the row macros)
// for a tile's set-up.
#define TILESETUP(base) \
	MOVQ d+56(FP), DX;   \
	SHLQ $2, DX;         \
	MOVQ b+24(FP), base; \
	MOVQ idx+32(FP), BX

// LOOKAHEAD asks for every cache line of the B rows listed for the w columns
// from j+STRIPAHEAD on that are below pre, and goes on at label done.
// Clobbers AX, BX, CX and R8.
#define LOOKAHEAD(w, col, line, done) \
	LEAQ    STRIPAHEAD(R9), AX;      \
	CMPQ    AX, pre+48(FP);          \
	JGE     done;                    \
	LEAQ    STRIPAHEAD+w(R9), CX;    \
	CMPQ    CX, pre+48(FP);          \
	CMOVQGT pre+48(FP), CX;          \
col:                                 \
	MOVQ    idx+32(FP), BX;          \
	MOVLQZX (BX)(AX*4), BX;          \
	IMULQ   d+56(FP), BX;            \
	SHLQ    $2, BX;                  \
	ADDQ    b+24(FP), BX;            \
	MOVQ    d+56(FP), R8;            \
	LEAQ    -1(BX)(R8*4), R8;        \
line:                                \
	PREFETCHT0 (BX);                 \
	ADDQ       $64, BX;              \
	CMPQ       BX, R8;               \
	JLE        line;                 \
	PREFETCHT0 (R8);                 \
	INCQ       AX;                   \
	CMPQ       AX, CX;               \
	JLT        col;                  \
done:

#define ZERO8 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7

// REDUCE8 is dotAVX2's tree on all 8 accumulators at once: two rounds of
// pairwise adds transpose as they go, leaving X0 = Y0 Y1 Y2 Y3 and
// X4 = Y4 Y5 Y6 Y7, each reduced. It then leaves in AX the bytes between
// rows of C and in BX the columns left from j on (at least 1).
#define REDUCE8 \
	VHADDPS      Y1, Y0, Y0; \
	VHADDPS      Y3, Y2, Y2; \
	VHADDPS      Y5, Y4, Y4; \
	VHADDPS      Y7, Y6, Y6; \
	VHADDPS      Y2, Y0, Y0; \
	VHADDPS      Y6, Y4, Y4; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPS       X1, X0, X0; \
	VEXTRACTF128 $1, Y4, X5; \
	VADDPS       X5, X4, X4; \
	MOVQ         ldc+64(FP), AX; \
	SHLQ         $2, AX;     \
	MOVQ         m+40(FP), BX; \
	SUBQ         R9, BX

// EDGEMASK loads into reg the mask of the first BX lanes, BX ≤ 8.
// Clobbers BX and CX.
#define EDGEMASK(reg) \
	SHLQ    $2, BX;                \
	LEAQ    tailmask<>+32(SB), CX; \
	SUBQ    BX, CX;                \
	VMOVDQU (CX), reg

// func dotAVX2(a, b *float32, d int) float32
//
// One accumulator, Y0. The reduction tree is fixed:
// ((x0+x1)+(x2+x3)) + ((x4+x5)+(x6+x7)); dotStripAVX2 applies the same tree
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

// func dotStripAVX2(c, a *float32, r int, b *float32, idx *int32, m, pre, d, ldc int)
//
// A strip of r ≤ 4 rows of A against all m columns, stored ldc floats apart:
// rows of C, or of a column range of a wider C. The strip walks its columns
// in tiles of 8 cells, each cell on its own accumulator (Y0..Y7): 8
// independent FMA chains to cover the 4-cycle latency on two ports. The
// tile's shape follows r, so a strip pays for the rows it has:
//
//	r ≥ 3: 4 rows × 2 columns. Y0..Y7 hold c00 c01 c10 c11 c20 c21 c30 c31;
//	       Y8, Y9 the two B rows of the step, Y10..Y13 the four A rows —
//	       8 FMAs per 6 loads. A 4×3 tile would need all 16 registers with
//	       nothing left for the mask. At r = 3 the fourth row aliases the
//	       third, and its cells are not stored.
//	r = 2: 2 rows × 4 columns. Y0..Y3 hold row 0's cells, Y4..Y7 row 1's;
//	       Y8, Y9 the A rows, Y10..Y13 the four B rows — 8 FMAs per 6 loads.
//	r = 1: 1 row × 8 columns. Y8 holds the A row, and each of the 8 FMAs
//	       takes its B row from memory — 8 FMAs per 9 loads.
//
// Y14 is the tail mask, loaded once per strip. In every shape a cell's
// k-loop is dotAVX2's, and REDUCE8 is its reduction tree, so every cell is
// bitwise Dot. A last tile with fewer columns than its width takes column
// j's B row for the ones it lacks; only the stores look at how many columns
// are left (a partial 2×4 or 1×8 tile stores under a mask). Column j reads B
// row j (idx nil) or row idx[j], wherever it lies. Before each tile of the
// first strip of a listed product, LOOKAHEAD asks for the rows of as many
// columns from j+STRIPAHEAD on as the tile is wide, below pre: pre is m on
// that strip and 0 everywhere else, so dense products never prefetch and idx
// is read only inside the list. A prefetch faults on nothing and writes
// nothing. Registers across tiles: SI the first A row (and for r ≥ 2 R10..R12
// the others, the previous pointer again where the strip has no such row),
// R9 = j and, but for r = 1, R14 the strip's C entry of column j; r, d and
// the rest are read from the frame. Within a tile DX is the whole-block bytes
// of a row, BX the byte offset along k and the B row pointers are DI and R13
// (2×4: then AX, R8; 1×8: then AX, R8, R10, R11, R12, CX — the 1×8 tile sets
// them up from b in R14 and takes its C entry from the frame). A 2×4 or 1×8
// tile pays for the aliasing compares only when it may lack columns (j + its
// width > m); the 4×2 tile makes its one compare, for column j+1, every time.
TEXT ·dotStripAVX2(SB), NOSPLIT, $0-72
	MOVQ a+8(FP), SI
	MOVQ r+16(FP), R8
	MOVQ d+56(FP), CX
	LEAQ (CX*4), DX

	// A1..A3 in R10..R12: the next row, or the previous pointer again when
	// the strip has no such row.
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

	TAILMASK(strip_cols)

strip_cols:
	MOVQ c+0(FP), R14
	XORQ R9, R9
	CMPQ R8, $2
	JLT  one_next
	JEQ  two_next

four_next:
	// 4×2: the B rows of columns j and j+1 in DI and R13.
	CMPQ R9, m+40(FP)
	JGE  strip_done
	LOOKAHEAD(2, four_ahead_col, four_ahead_line, four_zero)
	ZERO8
	TILESETUP(R8)
	TESTQ BX, BX
	JZ    four_dense
	LISTROW(0, DI, R8)
	LISTEDGE(1, R13, R8)
	JMP   four_rows

four_dense:
	DENSEROW(0, DI, R8)
	DENSEEDGE(1, R13, R8)

four_rows:
	ANDQ $~31, DX // the whole-block bytes of a row
	XORQ BX, BX
	CMPQ BX, DX
	JGE  four_tail

	PCALIGN $32

four_loop:
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
	JLT         four_loop

four_tail:
	TESTQ       $7, d+56(FP)
	JZ          four_reduce
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

four_reduce:
	// X0 = c00 c01 c10 c11, X4 = c20 c21 c30 c31.
	REDUCE8
	MOVQ    r+16(FP), CX
	CMPQ    BX, $2
	JLT     four_onecol
	VMOVLPS X0, (R14)
	CMPQ    CX, $2
	JLT     four_stored
	VMOVHPS X0, (R14)(AX*1)
	CMPQ    CX, $3
	JLT     four_stored
	LEAQ    (R14)(AX*2), BX
	VMOVLPS X4, (BX)
	CMPQ    CX, $4
	JLT     four_stored
	VMOVHPS X4, (BX)(AX*1)
	JMP     four_stored

four_onecol:
	VMOVSS     X0, (R14)
	CMPQ       CX, $2
	JLT        four_stored
	VEXTRACTPS $2, X0, (R14)(AX*1)
	CMPQ       CX, $3
	JLT        four_stored
	LEAQ       (R14)(AX*2), BX
	VMOVSS     X4, (BX)
	CMPQ       CX, $4
	JLT        four_stored
	VEXTRACTPS $2, X4, (BX)(AX*1)

four_stored:
	ADDQ $8, R14
	ADDQ $2, R9
	JMP  four_next

two_next:
	// 2×4: the B rows of columns j..j+3 in DI, R13, AX and R8.
	CMPQ R9, m+40(FP)
	JGE  strip_done
	LOOKAHEAD(4, two_ahead_col, two_ahead_line, two_zero)
	ZERO8
	TILESETUP(R11)
	MOVQ  m+40(FP), CX
	SUBQ  R9, CX
	CMPQ  CX, $4
	JLT   two_edge
	TESTQ BX, BX
	JZ    two_dense
	LISTROW(0, DI, R11)
	LISTROW(1, R13, R11)
	LISTROW(2, AX, R11)
	LISTROW(3, R8, R11)
	JMP   two_rows

two_dense:
	DENSEROW(0, DI, R11)
	DENSEROW(1, R13, R11)
	DENSEROW(2, AX, R11)
	DENSEROW(3, R8, R11)
	JMP   two_rows

two_edge:
	TESTQ BX, BX
	JZ    two_dense_edge
	LISTROW(0, DI, R11)
	LISTEDGE(1, R13, R11)
	LISTEDGE(2, AX, R11)
	LISTEDGE(3, R8, R11)
	JMP   two_rows

two_dense_edge:
	DENSEROW(0, DI, R11)
	DENSEEDGE(1, R13, R11)
	DENSEEDGE(2, AX, R11)
	DENSEEDGE(3, R8, R11)

two_rows:
	ANDQ $~31, DX // the whole-block bytes of a row
	XORQ BX, BX
	CMPQ BX, DX
	JGE  two_tail

	PCALIGN $32

two_loop:
	VMOVUPS     (SI)(BX*1), Y8
	VMOVUPS     (R10)(BX*1), Y9
	VMOVUPS     (DI)(BX*1), Y10
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VMOVUPS     (R13)(BX*1), Y11
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VMOVUPS     (AX)(BX*1), Y12
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y12, Y9, Y6
	VMOVUPS     (R8)(BX*1), Y13
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y13, Y9, Y7
	ADDQ        $32, BX
	CMPQ        BX, DX
	JLT         two_loop

two_tail:
	TESTQ       $7, d+56(FP)
	JZ          two_reduce
	VMASKMOVPS  (SI)(BX*1), Y14, Y8
	VMASKMOVPS  (R10)(BX*1), Y14, Y9
	VMASKMOVPS  (DI)(BX*1), Y14, Y10
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VMASKMOVPS  (R13)(BX*1), Y14, Y11
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VMASKMOVPS  (AX)(BX*1), Y14, Y12
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y12, Y9, Y6
	VMASKMOVPS  (R8)(BX*1), Y14, Y13
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y13, Y9, Y7

two_reduce:
	// X0 = row 0's four cells, X4 = row 1's.
	REDUCE8
	CMPQ    BX, $4
	JLT     two_part
	VMOVUPS X0, (R14)
	VMOVUPS X4, (R14)(AX*1)
	JMP     two_stored

two_part:
	EDGEMASK(X8)
	VMASKMOVPS X0, X8, (R14)
	VMASKMOVPS X4, X8, (R14)(AX*1)

two_stored:
	ADDQ $16, R14
	ADDQ $4, R9
	JMP  two_next

one_next:
	// 1×8: the B rows of columns j..j+7 in DI, R13, AX, R8, R10, R11, R12
	// and CX (r = 1 has no other A rows to keep).
	CMPQ R9, m+40(FP)
	JGE  strip_done
	LOOKAHEAD(8, one_ahead_col, one_ahead_line, one_zero)
	ZERO8
	TILESETUP(R14)
	MOVQ  m+40(FP), CX
	SUBQ  R9, CX
	CMPQ  CX, $8
	JLT   one_edge
	TESTQ BX, BX
	JZ    one_dense
	LISTROW(0, DI, R14)
	LISTROW(1, R13, R14)
	LISTROW(2, AX, R14)
	LISTROW(3, R8, R14)
	LISTROW(4, R10, R14)
	LISTROW(5, R11, R14)
	LISTROW(6, R12, R14)
	LISTROW(7, CX, R14)
	JMP   one_rows

one_dense:
	DENSEROW(0, DI, R14)
	DENSEROW(1, R13, R14)
	DENSEROW(2, AX, R14)
	DENSEROW(3, R8, R14)
	DENSEROW(4, R10, R14)
	DENSEROW(5, R11, R14)
	DENSEROW(6, R12, R14)
	DENSEROW(7, CX, R14)
	JMP   one_rows

one_edge:
	TESTQ BX, BX
	JZ    one_dense_edge
	LISTROW(0, DI, R14)
	LISTEDGE(1, R13, R14)
	LISTEDGE(2, AX, R14)
	LISTEDGE(3, R8, R14)
	LISTEDGE(4, R10, R14)
	LISTEDGE(5, R11, R14)
	LISTEDGE(6, R12, R14)
	LISTEDGE(7, CX, R14)
	JMP   one_rows

one_dense_edge:
	DENSEROW(0, DI, R14)
	DENSEEDGE(1, R13, R14)
	DENSEEDGE(2, AX, R14)
	DENSEEDGE(3, R8, R14)
	DENSEEDGE(4, R10, R14)
	DENSEEDGE(5, R11, R14)
	DENSEEDGE(6, R12, R14)
	DENSEEDGE(7, CX, R14)

one_rows:
	ANDQ $~31, DX // the whole-block bytes of a row
	XORQ BX, BX
	CMPQ BX, DX
	JGE  one_tail

	PCALIGN $32

one_loop:
	VMOVUPS     (SI)(BX*1), Y8
	VFMADD231PS (DI)(BX*1), Y8, Y0
	VFMADD231PS (R13)(BX*1), Y8, Y1
	VFMADD231PS (AX)(BX*1), Y8, Y2
	VFMADD231PS (R8)(BX*1), Y8, Y3
	VFMADD231PS (R10)(BX*1), Y8, Y4
	VFMADD231PS (R11)(BX*1), Y8, Y5
	VFMADD231PS (R12)(BX*1), Y8, Y6
	VFMADD231PS (CX)(BX*1), Y8, Y7
	ADDQ        $32, BX
	CMPQ        BX, DX
	JLT         one_loop

one_tail:
	TESTQ       $7, d+56(FP)
	JZ          one_reduce
	VMASKMOVPS  (SI)(BX*1), Y14, Y8
	VMASKMOVPS  (DI)(BX*1), Y14, Y9
	VFMADD231PS Y9, Y8, Y0
	VMASKMOVPS  (R13)(BX*1), Y14, Y10
	VFMADD231PS Y10, Y8, Y1
	VMASKMOVPS  (AX)(BX*1), Y14, Y11
	VFMADD231PS Y11, Y8, Y2
	VMASKMOVPS  (R8)(BX*1), Y14, Y12
	VFMADD231PS Y12, Y8, Y3
	VMASKMOVPS  (R10)(BX*1), Y14, Y9
	VFMADD231PS Y9, Y8, Y4
	VMASKMOVPS  (R11)(BX*1), Y14, Y10
	VFMADD231PS Y10, Y8, Y5
	VMASKMOVPS  (R12)(BX*1), Y14, Y11
	VFMADD231PS Y11, Y8, Y6
	VMASKMOVPS  (CX)(BX*1), Y14, Y12
	VFMADD231PS Y12, Y8, Y7

one_reduce:
	// Y0 = the row's eight cells, X0's then X4's.
	REDUCE8
	MOVQ        c+0(FP), R14
	LEAQ        (R14)(R9*4), R14
	VINSERTF128 $1, X4, Y0, Y0
	CMPQ        BX, $8
	JLT         one_part
	VMOVUPS     Y0, (R14)
	JMP         one_stored

one_part:
	EDGEMASK(Y8)
	VMASKMOVPS Y0, Y8, (R14)

one_stored:
	ADDQ $8, R9
	JMP  one_next

strip_done:
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

// func adagradRowsAVX2(embs, acc *float32, ids *int32, first int, grad *float32, n, d int, lr, eps float32)
//
// Row Adagrad over a gradient block of n rows of d floats at grad: for k
// ascending, with r = ids[k] − first and gk row k of grad, the row update
//
//	ss := dotAVX2(gk, gk); if ss == 0 { skip }
//	acc[r] += ss / float32(d)
//	step := lr / (sqrt(acc[r]) + eps); if step == 0 { skip }
//	axpyAVX2(−step, gk, embs[r·d:])
//
// with each step's own instruction sequence — dotAVX2's accumulation and
// reduction tree, scalar SSE divides, adds and square root (a float32 square
// root is the correctly rounded one Go takes through float64), and
// axpyAVX2's fused multiply-adds — so the result is bitwise the per-row
// Dot → scalar → Axpy chain, one row after another, a row listed twice
// included. Every ids[k] − first must be a row of embs and acc: the caller's
// gate, not this code, keeps the accesses in bounds. Registers across rows:
// R8 embs, R9 acc, R10 ids, R11 first, SI row k of g, R12 k, R13 the row's
// bytes, DX its whole-block bytes, R14 DX − 32, Y14 the tail mask; X15 =
// float32(d), X13 = lr, X12 = eps, X11 = the sign bit, X10 = 0.
TEXT ·adagradRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ      embs+0(FP), R8
	MOVQ      acc+8(FP), R9
	MOVQ      ids+16(FP), R10
	MOVQ      first+24(FP), R11
	MOVQ      grad+32(FP), SI
	MOVQ      d+48(FP), CX
	LEAQ      (CX*4), R13
	VXORPS    X10, X10, X10
	VCVTSI2SSQ CX, X10, X15
	VMOVSS    lr+56(FP), X13
	VMOVSS    eps+60(FP), X12
	VPCMPEQD  X11, X11, X11
	VPSLLD    $31, X11, X11
	BLOCKS
	LEAQ      -32(DX), R14
	ANDQ      $7, CX
	JZ        ada_rows
	LEAQ      (CX*4), BX
	LEAQ      tailmask<>+32(SB), AX
	SUBQ      BX, AX
	VMOVDQU   (AX), Y14

ada_rows:
	XORQ R12, R12
	JMP  ada_next

ada_row:
	// ss = dotAVX2(gk, gk) into X0.
	VXORPS Y0, Y0, Y0
	XORQ   BX, BX
	CMPQ   BX, DX
	JGE    ada_dot_tail

	PCALIGN $32

ada_dot:
	VMOVUPS     (SI)(BX*1), Y1
	VFMADD231PS (SI)(BX*1), Y1, Y0
	ADDQ        $32, BX
	CMPQ        BX, DX
	JLT         ada_dot

ada_dot_tail:
	TESTQ       CX, CX
	JZ          ada_reduce
	VMASKMOVPS  (SI)(BX*1), Y14, Y1
	VFMADD231PS Y1, Y1, Y0

ada_reduce:
	VHADDPS      Y0, Y0, Y0
	VHADDPS      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VUCOMISS     X10, X0
	JPS          ada_acc
	JEQ          ada_skip

ada_acc:
	// acc[r] += ss/d; X2 = lr / (sqrt(acc[r]) + eps).
	MOVLQSX (R10)(R12*4), AX
	SUBQ    R11, AX
	VDIVSS  X15, X0, X0
	VMOVSS  (R9)(AX*4), X1
	VADDSS  X0, X1, X1
	VMOVSS  X1, (R9)(AX*4)
	VSQRTSS X1, X1, X2
	VADDSS  X12, X2, X2
	VDIVSS  X2, X13, X2
	VUCOMISS X10, X2
	JPS     ada_axpy
	JEQ     ada_skip

ada_axpy:
	// axpyAVX2(−step, gk, embs[r·d:]): DI the row, Y8 the broadcast −step.
	IMULQ        R13, AX
	LEAQ         (R8)(AX*1), DI
	VXORPS       X11, X2, X2
	VBROADCASTSS X2, Y8
	XORQ         BX, BX
	CMPQ         BX, R14
	JGE          ada_block

	PCALIGN $32

ada_pair:
	VMOVUPS     (DI)(BX*1), Y0
	VMOVUPS     32(DI)(BX*1), Y1
	VFMADD231PS (SI)(BX*1), Y8, Y0
	VFMADD231PS 32(SI)(BX*1), Y8, Y1
	VMOVUPS     Y0, (DI)(BX*1)
	VMOVUPS     Y1, 32(DI)(BX*1)
	ADDQ        $64, BX
	CMPQ        BX, R14
	JLT         ada_pair

ada_block:
	CMPQ        BX, DX
	JGE         ada_tail
	VMOVUPS     (DI)(BX*1), Y0
	VFMADD231PS (SI)(BX*1), Y8, Y0
	VMOVUPS     Y0, (DI)(BX*1)
	ADDQ        $32, BX

ada_tail:
	CMPQ        BX, R13
	JGE         ada_skip

ada_scalar:
	VMOVSS      (DI)(BX*1), X0
	VFMADD231SS (SI)(BX*1), X8, X0
	VMOVSS      X0, (DI)(BX*1)
	ADDQ        $4, BX
	CMPQ        BX, R13
	JLT         ada_scalar

ada_skip:
	ADDQ R13, SI
	INCQ R12

ada_next:
	CMPQ R12, n+40(FP)
	JLT  ada_row
	VZEROUPPER
	RET

// ROWWALK is the index-list walk of one column block, shared by the two
// sparse leaves: for k = 0..nnz-1 it skips a ±0 weight exactly, broadcasts
// w[k] into Y8, points AX at the block's columns of row idx[k] of the matrix
// at base (R12 bytes a row) and runs OPS on it — addRowSparseAVX2 accumulates
// those source columns into the block's registers, scatterRowAVX2 adds its
// registers into those destination columns. The caller has checked nnz > 0.
#define ROWWALK(loop, skip, base, OPS) \
	XORQ         BX, BX;          \
	PCALIGN      $32;             \
loop:                          \
	MOVL         (R10)(BX*4), AX; \
	ADDL         AX, AX;          \
	JZ           skip;            \
	VBROADCASTSS (R10)(BX*4), Y8; \
	MOVLQZX      (R9)(BX*4), AX;  \
	IMULQ        R12, AX;         \
	ADDQ         base, AX;        \
	OPS;                          \
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
	ROWWALK(walk_64, skip_64, SI, FMA8)
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
	ROWWALK(walk_32, skip_32, SI, FMA4)
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
	ROWWALK(walk_16, skip_16, SI, FMA2)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	NEXTCOLS(16, 64)

rows_8:
	CMPQ    R13, $8
	JLT     rows_tail
	VMOVUPS (DI), Y0
	ROWWALK(walk_8, skip_8, SI, FMA1)
	VMOVUPS Y0, (DI)
	NEXTCOLS(8, 32)

rows_tail:
	MOVQ       R13, CX
	TAILMASK(rows_done)
	VMASKMOVPS (DI), Y14, Y0
	ROWWALK(walk_tail, skip_tail, SI, FMATAIL)
	VMASKMOVPS Y0, Y14, (DI)

rows_done:
	VZEROUPPER
	RET

// SCAT1..SCAT8 add w·(the block's source registers), w in Y8, into the
// destination columns at AX: per register one copy, one FMA with the
// destination's load folded in (Y9 = Y8·Y9 + mem, the fused multiply-add
// axpyAVX2 rounds) and one store. SCATTAIL does the same under the Y14 mask.
#define SCAT1 \
	VMOVAPS     Y0, Y9;          \
	VFMADD213PS (AX), Y8, Y9;    \
	VMOVUPS     Y9, (AX)
#define SCAT2 \
	SCAT1;                       \
	VMOVAPS     Y1, Y9;          \
	VFMADD213PS 32(AX), Y8, Y9;  \
	VMOVUPS     Y9, 32(AX)
#define SCAT4 \
	SCAT2;                       \
	VMOVAPS     Y2, Y9;          \
	VFMADD213PS 64(AX), Y8, Y9;  \
	VMOVUPS     Y9, 64(AX);      \
	VMOVAPS     Y3, Y9;          \
	VFMADD213PS 96(AX), Y8, Y9;  \
	VMOVUPS     Y9, 96(AX)
#define SCAT8 \
	SCAT4;                       \
	VMOVAPS     Y4, Y9;          \
	VFMADD213PS 128(AX), Y8, Y9; \
	VMOVUPS     Y9, 128(AX);     \
	VMOVAPS     Y5, Y9;          \
	VFMADD213PS 160(AX), Y8, Y9; \
	VMOVUPS     Y9, 160(AX);     \
	VMOVAPS     Y6, Y9;          \
	VFMADD213PS 192(AX), Y8, Y9; \
	VMOVUPS     Y9, 192(AX);     \
	VMOVAPS     Y7, Y9;          \
	VFMADD213PS 224(AX), Y8, Y9; \
	VMOVUPS     Y9, 224(AX)
#define SCATTAIL \
	VMASKMOVPS  (AX), Y14, Y9; \
	VFMADD231PS Y0, Y8, Y9;    \
	VMASKMOVPS  Y9, Y14, (AX)

// func scatterRowAVX2(dst *float32, d int, src *float32, idx *int32, w *float32, nnz int)
//
// dst[idx[k]·d : idx[k]·d+d] += w[k]·src[0:d] for k ascending, a ±0 weight
// skipped: per lane, the fused multiply-add of one axpyAVX2 call per entry.
// The leaf is column-stationary, addRowSparseAVX2 turned round: a block of up
// to 64 source floats sits in Y0..Y7 while the whole index list is walked, so
// the source row is loaded once per call and each listed destination block
// is loaded, updated and stored once. What 64 does not cover goes through
// the same walk on 4, 2 and 1 registers, and the last d mod 8 floats under
// the Y14 mask. Every idx[k] must be a row of dst: the caller's checkSparse
// gate, not this code, is what keeps the stores in bounds.
TEXT ·scatterRowAVX2(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  d+8(FP), R13 // floats of the row still to do
	MOVQ  src+16(FP), SI
	MOVQ  idx+24(FP), R9
	MOVQ  w+32(FP), R10
	MOVQ  nnz+40(FP), R11
	LEAQ  (R13*4), R12 // destination row stride in bytes
	TESTQ R11, R11
	JLE   scat_done

scat_64:
	CMPQ    R13, $64
	JLT     scat_32
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS 128(SI), Y4
	VMOVUPS 160(SI), Y5
	VMOVUPS 192(SI), Y6
	VMOVUPS 224(SI), Y7
	ROWWALK(swalk_64, sskip_64, DI, SCAT8)
	NEXTCOLS(64, 256)
	JMP     scat_64

scat_32:
	CMPQ    R13, $32
	JLT     scat_16
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	ROWWALK(swalk_32, sskip_32, DI, SCAT4)
	NEXTCOLS(32, 128)

scat_16:
	CMPQ    R13, $16
	JLT     scat_8
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	ROWWALK(swalk_16, sskip_16, DI, SCAT2)
	NEXTCOLS(16, 64)

scat_8:
	CMPQ    R13, $8
	JLT     scat_tail
	VMOVUPS (SI), Y0
	ROWWALK(swalk_8, sskip_8, DI, SCAT1)
	NEXTCOLS(8, 32)

scat_tail:
	MOVQ       R13, CX
	TAILMASK(scat_done)
	VMASKMOVPS (SI), Y14, Y0
	ROWWALK(swalk_tail, sskip_tail, DI, SCATTAIL)

scat_done:
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

// PACK stores the positions of the set bits of the 8-bit mask in AX, left
// to right, as 8 dwords at idx[count] (DI, R10): ·packIndex (R11) holds for
// each mask its set bits' lane numbers as bytes, which VPMOVZXBD widens and
// Y7 (the group's first position, broadcast) offsets. All 8 dwords are
// stored whatever the mask, so the caller leaves 8 dwords of slack past the
// last position; POPCNT advances count past the real ones. Clobbers Y4.
#define PACK \
	VPMOVZXBD (R11)(AX*8), Y4; \
	VPADDD    Y7, Y4, Y4;      \
	VMOVDQU   Y4, (DI)(R10*4)

// NEXTPACK advances count (R10) past the mask's set bits and the group's
// first position (Y7) by 8 (Y6). Clobbers AX.
#define NEXTPACK \
	POPCNTL AX, AX;      \
	ADDQ    AX, R10;     \
	VPADDD  Y6, Y7, Y7

// PACKINIT points R11 at ·packIndex, zeroes count (R10), broadcasts the first
// position at FROM into Y7 and 8 into Y6. Clobbers AX.
#define PACKINIT(FROM) \
	LEAQ         ·packIndex(SB), R11; \
	XORQ         R10, R10;            \
	VPBROADCASTD FROM, Y7;            \
	MOVL         $8, AX;              \
	VMOVD        AX, X6;              \
	VPBROADCASTD X6, Y6

// HINGESTEP takes one group of 8 hinge arguments in Y1 and their id==id
// lanes in Y3: it counts the equal lanes into Y9, leaves in Y2 the lanes that
// are unmasked and positive, adds those arguments lane-wise into ACC, stores
// the selected positions at idx[count] and the weight (Y5) beside each at
// w[count], 8 lanes of each whatever the mask.
#define HINGESTEP(ACC) \
	VCMPPS    $0x1E, Y12, Y1, Y2; \
	VPSUBD    Y3, Y9, Y9;         \
	VANDNPS   Y2, Y3, Y2;         \
	VANDPS    Y2, Y1, Y1;         \
	VADDPS    Y1, ACC, ACC;       \
	VMOVMSKPS Y2, AX;             \
	PACK;                         \
	VMOVUPS   Y5, (R8)(R10*4);    \
	NEXTPACK

// func hingePackAVX2(idx *int32, w *float32, scores *float32, ids *int32, n int, t float32, id int32, wt float32, base int32) (sum float64, masked, count int)
//
// Writes to idx, ascending, base+j for every j < n with ids[j] != id and
// t+scores[j] > 0 (ordered compare: a NaN sum is not positive), and wt to w
// beside each; count is how many, masked the number of ids[j] == id. Both
// lists get 8 lanes per group of 8 entries, so up to 7 entries past count
// are overwritten: the caller's slack. sum adds the selected t+scores[j]: in
// 16 float32 lanes (Y10 and Y11, taking alternate groups so consecutive
// groups do not wait on each other's add), widened to float64 for the
// reduction — the caller bounds n so that a lane adds only a few terms.
// Y15 = t, Y13 = id, Y12 = 0 throughout.
TEXT ·hingePackAVX2(SB), NOSPLIT, $0-80
	MOVQ         idx+0(FP), DI
	MOVQ         w+8(FP), R8
	MOVQ         scores+16(FP), SI
	MOVQ         ids+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSS t+40(FP), Y15
	VBROADCASTSS id+44(FP), Y13
	VBROADCASTSS wt+48(FP), Y5
	PACKINIT(base+52(FP))
	VXORPS       Y12, Y12, Y12
	VXORPS       Y10, Y10, Y10
	VXORPS       Y11, Y11, Y11
	VPXOR        Y9, Y9, Y9
	BLOCKS
	LEAQ         -32(DX), R12
	CMPQ         BX, R12
	JGE          hinge_one

	PCALIGN $32

hinge_loop:
	VADDPS   (SI)(BX*1), Y15, Y1
	VPCMPEQD (R9)(BX*1), Y13, Y3
	HINGESTEP(Y10)
	VADDPS   32(SI)(BX*1), Y15, Y1
	VPCMPEQD 32(R9)(BX*1), Y13, Y3
	HINGESTEP(Y11)
	ADDQ     $64, BX
	CMPQ     BX, R12
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
	VMOVSD       X0, sum+56(FP)
	VEXTRACTI128 $1, Y9, X1
	VPADDD       X1, X9, X9
	VPHADDD      X9, X9, X9
	VPHADDD      X9, X9, X9
	VMOVD        X9, AX
	MOVQ         AX, masked+64(FP)
	MOVQ         R10, count+72(FP)
	VZEROUPPER
	RET

// func selectGEPackAVX2(idx *int32, x *float32, n int, t float32) int
//
// Writes to idx, ascending, every j < n with x[j] not below t and returns
// how many: 8 dwords stored per group of 8 entries, as PACK does, so up to 7
// entries past the count are overwritten (the caller's slack). The predicate
// is NLT_US, true for an unordered pair, so a NaN on either side selects the
// entry: exactly the entries a "reject what is below t" test lets through.
// Y15 = t throughout.
TEXT ·selectGEPackAVX2(SB), NOSPLIT, $0-40
	MOVQ         idx+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS t+24(FP), Y15
	VPXOR        X0, X0, X0
	PACKINIT(X0)
	BLOCKS
	CMPQ         BX, DX
	JGE          select_tail

	PCALIGN $32

select_loop:
	VMOVUPS   (SI)(BX*1), Y1
	VCMPPS    $0x05, Y15, Y1, Y2
	VMOVMSKPS Y2, AX
	PACK
	NEXTPACK
	ADDQ      $32, BX
	CMPQ      BX, DX
	JLT       select_loop

select_tail:
	TAILMASK(select_done)
	VMASKMOVPS (SI)(BX*1), Y14, Y1
	VCMPPS     $0x05, Y15, Y1, Y2
	VANDPS     Y14, Y2, Y2 // lanes past n: not selected
	VMOVMSKPS  Y2, AX
	PACK
	POPCNTL    AX, AX
	ADDQ       AX, R10

select_done:
	MOVQ R10, ret+32(FP)
	VZEROUPPER
	RET

// func minMaxInt32AVX2(x *int32, n int) (lo, hi int32)
//
// The signed minimum and maximum of n ≥ 1 dwords: the range test of an
// index list (checkSparse, checkMulABt, checkAdagradRows), 8 lanes per step
// into Y0 (minimum) and Y2 (maximum), both started from x[0], then the
// masked tail, whose lanes past the list are elements already seen.
TEXT ·minMaxInt32AVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VPBROADCASTD (SI), Y0
	VMOVDQA      Y0, Y2
	BLOCKS
	JMP          mm_next

mm_loop:
	VMOVDQU (SI)(BX*1), Y1
	VPMINSD Y1, Y0, Y0
	VPMAXSD Y1, Y2, Y2
	ADDQ    $32, BX

mm_next:
	CMPQ BX, DX
	JLT  mm_loop
	TAILMASK(mm_reduce)
	VPMASKMOVD (SI)(BX*1), Y14, Y1
	VPBLENDVB  Y14, Y1, Y2, Y1 // lanes past the list take Y2's, list elements
	VPMINSD    Y1, Y0, Y0
	VPMAXSD    Y1, Y2, Y2

mm_reduce:
	VEXTRACTI128 $1, Y0, X1
	VPMINSD      X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPMINSD      X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPMINSD      X1, X0, X0
	VMOVSS       X0, lo+16(FP)
	VEXTRACTI128 $1, Y2, X1
	VPMAXSD      X1, X2, X2
	VPSHUFD      $0x4E, X2, X1
	VPMAXSD      X1, X2, X2
	VPSHUFD      $0xB1, X2, X1
	VPMAXSD      X1, X2, X2
	VMOVSS       X2, hi+20(FP)
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

// func prefetchSpanAVX2(p *float32, n int)
//
// Asks for every cache line of the n floats at p with PREFETCHT0, first line
// to last, the span's last byte included. It uses no vector register, so it
// needs no VZEROUPPER; it sits behind useAVX2 with the other leaves so that
// the portable path is its no-op twin. A prefetch faults on nothing and
// writes nothing.
TEXT ·prefetchSpanAVX2(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
	SHLQ $2, CX
	JZ   span_done
	LEAQ -1(AX)(CX*1), CX // the span's last byte

span_line:
	PREFETCHT0 (AX)
	ADDQ       $64, AX
	CMPQ       AX, CX
	JLE        span_line
	PREFETCHT0 (CX)

span_done:
	RET
