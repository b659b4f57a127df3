//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package storage

import (
	"os"
	"syscall"
)

// keepsSpares: with flock a writer can tell a spare nobody holds, so shard
// write-backs keep and rewrite spares (replaceFile).
const keepsSpares = true

// exclusive reports whether f, a spare a writer has just claimed under its
// own temp name, may be rewritten in place — that name is its only one
// (link count 1), and no reader holds it (a non-blocking exclusive flock,
// which the writer's Close releases, succeeds) — and f's length.
func exclusive(f *os.File) (size int64, ok bool) {
	var st syscall.Stat_t
	fd := int(f.Fd())
	if syscall.Flock(fd, syscall.LOCK_EX|syscall.LOCK_NB) != nil || syscall.Fstat(fd, &st) != nil || st.Nlink != 1 {
		return 0, false
	}
	return st.Size, true
}

// lockShared blocks until f holds a shared flock, released when f closes.
func lockShared(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_SH)
}
