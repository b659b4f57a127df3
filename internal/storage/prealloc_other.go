//go:build !linux

package storage

import "os"

// preallocate is a no-op off Linux: the writes allocate the file's blocks.
func preallocate(*os.File, int64) {}
