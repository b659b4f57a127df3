//go:build linux

package storage

import (
	"os"
	"syscall"
)

// fallocKeepSize is FALLOC_FL_KEEP_SIZE (linux/falloc.h): allocate the
// range's blocks without changing the file's length.
const fallocKeepSize = 0x1

// preallocate reserves size bytes of blocks at the start of f, keeping its
// length, so the writes that follow land in allocated (unwritten) extents
// rather than delayed ones. It is best effort: a file system without
// fallocate, or one that is full, fails here and the writes that follow
// report whatever real failure there is.
func preallocate(f *os.File, size int64) {
	if size > 0 {
		_ = syscall.Fallocate(int(f.Fd()), fallocKeepSize, 0, size)
	}
}
