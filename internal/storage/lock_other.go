//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package storage

import "os"

// keepsSpares: without flock a writer cannot tell a spare a reader holds,
// so shard write-backs keep no spare and write a fresh file every time.
const keepsSpares = false

// exclusive is false without flock; replaceFile claims no spare here.
func exclusive(*os.File) (int64, bool) { return 0, false }

// lockShared is a no-op without flock; nothing is rewritten in place there.
func lockShared(*os.File) error { return nil }
