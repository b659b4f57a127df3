//go:build unix

package serve

import (
	"errors"
	"fmt"
	"math"
	"syscall"

	"pbg/internal/storage"
)

// mmapSupported reports whether this platform's byte source is a mapping.
const mmapSupported = true

// openImage maps the whole file read-only. The mapping is MAP_SHARED so all
// server replicas on one host share the same page-cache pages. The file
// stays open under storage.OpenShared's shared lock until the image is
// closed: a DiskStore training into the directory rewrites a displaced
// shard image in place only when no reader holds it, so the mapped bytes
// never change under a reader.
func openImage(path string) (*image, error) {
	f, err := storage.OpenShared(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		_ = f.Close()
		return &image{}, nil // nothing to map; the layout gate rejects it
	}
	if size > math.MaxInt {
		_ = f.Close()
		return nil, fmt.Errorf("%s too large to map (%d bytes)", path, size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	return &image{b: b, unmap: func(b []byte) error {
		return errors.Join(syscall.Munmap(b), f.Close())
	}}, nil
}
