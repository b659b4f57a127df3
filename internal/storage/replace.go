package storage

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// This file is the repository's one atomic replace: every file the product
// writes — shards, relations, edges, configs, manifests, the IVF index —
// becomes visible through replaceFile's rename, and no other non-test file
// renames or links (the "one atomic replace" guard in internal/lint).

// tmpSeq distinguishes concurrent temp files targeting the same path (e.g. a
// Flush racing an async write-back of the same shard): each writer renames
// its own complete temp file, so the destination is always a whole shard.
var tmpSeq atomic.Uint64

// spareSuffix names the displaced image a shard write-back keeps beside its
// live file (shard_tT_pP.pbg.spare), to rewrite in place at the shard's next
// write-back. Nothing reads a spare as a shard; it may be torn.
const spareSuffix = ".spare"

func tempName(path string) string { return fmt.Sprintf("%s.tmp%d", path, tmpSeq.Add(1)) }

// writeFileAtomic writes the output of emit to path via a unique temp file +
// rename. emit gets the file itself; writers of many small pieces wrap it
// with buffered. size is the number of bytes emit will write (≤ 0 when the
// caller does not know): the temp file's blocks are reserved for that many
// bytes before emit runs (preallocate), without changing its length, so the
// file is always exactly what emit wrote. On Linux's ext4 this is what keeps
// a rename over an existing file from allocating and starting the writeback
// of the temp file's delayed blocks inside rename(2) — the replace-via-rename
// heuristic — which would otherwise cost more than the write itself.
//
// It is replaceFile without a spare: the displaced image is freed by the
// rename, as it is for every file but a DiskStore's shards.
func writeFileAtomic(path string, size int64, emit func(f *os.File) error) error {
	_, err := replaceFile(path, size, false, emit)
	return err
}

// replaceFile is the one atomic replace. emit writes the new image into a
// file of a name no other write uses (path.tmpN), which is then renamed over
// path. With spare set — a DiskStore's shard write-backs — the image being
// displaced is kept as path.spare, and the next replaceFile of path rewrites
// that file in place instead of allocating a fresh one: no new inode, no new
// page-cache pages, no blocks to allocate, and the pages the rename would
// have freed are the ones the next write lands in. reused reports that it
// did.
//
// Only an image nobody else can see is rewritten. claimSpare first renames
// the spare to the writer's own temp name — so two writers of one path never
// rewrite one file — and keeps it only while its link count is 1 (no other
// name, such as a checkpoint generation's hard link) and no reader holds the
// shared lock OpenShared takes (serve maps images under it). Otherwise the
// spare is unlinked — its other names and mappings keep it alive, unchanged
// — and a fresh temp file is written, as is the first write of a path and
// one on a file system that refuses link(2). A platform without flock keeps
// no spare (keepsSpares) and writes every image fresh.
//
// The crash model: a process crash at any point leaves path holding the old
// image or the new one, never a torn file: path only ever changes by a
// rename of a complete file. The displaced image is linked to a temp name
// before that rename and moved to the spare name after it; a crash in
// between leaves temp names, which NewDiskStore sweeps. Power loss is not
// covered — nothing is fsynced — so after one, pages of the new file that
// never reached the disk read back as zeros. (On ext4 in data=ordered mode
// the replace-via-rename heuristic used to flush the data before the rename
// by accident; preallocated and rewritten files do not take that path.)
func replaceFile(path string, size int64, spare bool, emit func(f *os.File) error) (reused bool, err error) {
	spare = spare && keepsSpares
	tmp := tempName(path)
	var f *os.File
	var had int64 // the reused image's length
	if spare {
		f, had = claimSpare(path, tmp)
	}
	reused = f != nil
	if !reused {
		if f, err = os.Create(tmp); err != nil {
			return false, fmt.Errorf("storage: create %s: %w", tmp, err)
		}
	}
	preallocate(f, size)
	if err := emit(f); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return false, err
	}
	if reused {
		// A rewritten image shorter than the one it overwrote ends where
		// emit stopped.
		n, err := f.Seek(0, io.SeekCurrent)
		if err == nil && n < had {
			err = f.Truncate(n)
		}
		if err != nil {
			_ = f.Close()
			os.Remove(tmp)
			return false, err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return false, err
	}
	if spare {
		old := tempName(path)
		if os.Link(path, old) == nil { // fails when path does not exist yet, or links are refused
			if err := os.Rename(tmp, path); err != nil {
				os.Remove(old)
				os.Remove(tmp)
				return false, err
			}
			if os.Rename(old, path+spareSuffix) != nil {
				os.Remove(old)
			}
			return reused, nil
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		// Remove the orphan: temp names are unique per attempt, so leaked
		// files would otherwise accumulate across retries.
		os.Remove(tmp)
		return false, err
	}
	return reused, nil
}

// claimSpare takes path's spare for a rewrite under the temp name tmp and
// returns it open for writing, with its length, when it may be rewritten
// (see replaceFile); otherwise it leaves no file under tmp and returns nil.
func claimSpare(path, tmp string) (*os.File, int64) {
	if os.Rename(path+spareSuffix, tmp) != nil {
		return nil, 0 // no spare: the first write-back, or a sweep removed it
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY, 0)
	if err == nil {
		if size, ok := exclusive(f); ok {
			return f, size
		}
		_ = f.Close()
	}
	os.Remove(tmp)
	return nil, 0
}

// OpenShared opens path for reading and holds a shared lock on the file
// until it is closed: a reader that keeps an image past its open — serve's
// mappings — holds it so, and a shard write-back never rewrites a locked
// image in place (see replaceFile). If path was replaced between the open and
// the lock, it opens path again, so the file returned was path's live image
// while its lock was held.
func OpenShared(path string) (*os.File, error) {
	const attempts = 16
	for i := 0; i < attempts; i++ {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		if err := lockShared(f); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("storage: lock %s: %w", path, err)
		}
		held, err := f.Stat()
		if err == nil {
			var live os.FileInfo
			if live, err = os.Stat(path); err == nil && os.SameFile(held, live) {
				return f, nil
			}
		}
		_ = f.Close()
		if err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("storage: %s was replaced %d times while being opened", path, attempts)
}
