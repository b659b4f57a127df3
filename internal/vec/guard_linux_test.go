package vec

import (
	"math"
	"syscall"
	"testing"
	"unsafe"

	"pbg/internal/rng"
)

// guarded returns n values of T that end exactly where a PROT_NONE page
// begins and start one page after another, so a load one element past the
// end (or before the start) faults instead of reading a neighbour's bytes.
// Any tail of it ends at the guard too.
func guarded[T float32 | int32](t *testing.T, n int) []T {
	t.Helper()
	page := syscall.Getpagesize()
	size := int(unsafe.Sizeof(T(0)))
	body := max(1, (n*size+page-1)/page) * page
	mem, err := syscall.Mmap(-1, 0, body+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, g := range [][]byte{mem[:page], mem[page+body:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[page+body-n*size])), n)
}

// tail is the last n values of s.
func tail[T any](s []T, n int) []T { return s[len(s)-n:] }

// TestMulABtRowsStaysInside runs MulABtRows with the index list, A, the rows
// of B and C each ending at a guard page, over every column count from none
// to two look-ahead distances and a partial pair past it, and requires
// bitwise MulABt over a gathered copy; then MulABt over a dense B of m rows
// that ends at the guard, against MulABt over a copy. A is 1 to 9 rows, so
// the leaf's last strip has every height from 1 to 4 (its 1×8, 2×4 and
// aliased 4×2 tiles), and m runs over odd and even widths below one 1×8
// tile. The leaf reads the list up to a tile's width past column j+8 to
// prefetch, kept inside the list by nothing but its own compare, and loads
// B's rows through the list or by position, taking column j's row again for
// the columns a last tile lacks: a read past the list or B faults here, as
// does a store past C. The last listed row is B's last, so its final bytes
// are loaded too. (A prefetch itself cannot fault; what it must not do is
// read past the list.)
func TestMulABtRowsStaysInside(t *testing.T) {
	const (
		ahead      = 8 // STRIPAHEAD in kernel_amd64.s
		maxN, maxD = 9, 33
		maxM       = 2*ahead + 3
		maxRows    = maxM/2 + 1
	)
	r := rng.New(11)
	aBuf, bBuf := guarded[float32](t, maxN*maxD), guarded[float32](t, maxRows*maxD)
	denseBuf := guarded[float32](t, maxM*maxD)
	idxBuf, cBuf := guarded[int32](t, maxM), guarded[float32](t, maxN*maxM)
	for _, d := range []int{0, 1, 7, 8, 32, 33} {
		for n := 1; n <= maxN; n++ {
			for m := 0; m <= maxM; m++ {
				rows := m/2 + 1
				a := MatrixFrom(tail(aBuf, n*d), n, d)
				b := MatrixFrom(tail(bBuf, rows*d), rows, d)
				for i := range a.Data {
					a.Data[i] = r.NormFloat32()
				}
				for i := range b.Data {
					b.Data[i] = r.NormFloat32()
				}
				idx := tail(idxBuf, m)
				for j := range idx {
					idx[j] = int32(r.Intn(rows))
				}
				if m > 0 {
					idx[m-1] = int32(rows - 1)
				}
				gathered := NewMatrix(m, d)
				for j, row := range idx {
					copy(gathered.Row(j), b.Row(int(row)))
				}
				dense := MatrixFrom(tail(denseBuf, m*d), m, d)
				for i := range dense.Data {
					dense.Data[i] = r.NormFloat32()
				}
				copied := cloneMatrix(dense)
				for _, ks := range bothPaths() {
					got, want := MatrixFrom(tail(cBuf, n*m), n, m), NewMatrix(n, m)
					ks.mulABtRows(got, a, b, idx)
					ks.mulABtRows(want, a, gathered, nil)
					if i := firstDiff(got.Data, want.Data); i >= 0 {
						t.Fatalf("%s n=%d m=%d d=%d: element %d = %v, MulABt over the gathered rows %v", ks.name, n, m, d, i, got.Data[i], want.Data[i])
					}
					ks.mulABtRows(got, a, dense, nil)
					ks.mulABtRows(want, a, copied, nil)
					if i := firstDiff(got.Data, want.Data); i >= 0 {
						t.Fatalf("%s n=%d m=%d d=%d dense: element %d = %v, MulABt over a copy %v", ks.name, n, m, d, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestPrefetchChangesNothing runs Prefetch over every span of up to 40 floats
// that ends at a guard page, from every start offset within a cache line,
// and over nil: it must return, and leave every byte it was asked about as
// it was.
func TestPrefetchChangesNothing(t *testing.T) {
	const maxN = 40
	buf := guarded[float32](t, maxN+16)
	for i := range buf {
		buf[i] = float32(i) + 0.5
	}
	want := append([]float32(nil), buf...)
	Prefetch(nil)
	for n := 0; n <= maxN; n++ {
		for skip := 0; skip < 16; skip++ {
			Prefetch(tail(buf, n+skip)[:n])
			Prefetch(tail(buf, n))
		}
	}
	for i := range buf {
		if math.Float32bits(buf[i]) != math.Float32bits(want[i]) {
			t.Fatalf("float %d changed: %v, want %v", i, buf[i], want[i])
		}
	}
}
