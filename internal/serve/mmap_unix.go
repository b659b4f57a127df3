//go:build unix

package serve

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// mmapSupported reports whether this platform's byte source is a mapping.
const mmapSupported = true

// openImage maps the whole file read-only. The mapping is MAP_SHARED so all
// server replicas on one host share the same page-cache pages.
func openImage(path string) (*image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &image{}, nil // nothing to map; the layout gate rejects it
	}
	if size > math.MaxInt {
		return nil, fmt.Errorf("%s too large to map (%d bytes)", path, size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	return &image{b: b, unmap: syscall.Munmap}, nil
}
