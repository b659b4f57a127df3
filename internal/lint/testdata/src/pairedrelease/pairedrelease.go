// Fixture for the pairedrelease analyzer: every store Acquire needs a
// Release reachable on all exits.
package pairedrelease

import "pbg/internal/storage"

type holder struct {
	sh *storage.Shard
	st *storage.Store
}

func use(sh *storage.Shard) error { return nil }

// leakyReturn leaks on the early return: the shard stays pinned forever.
func leakyReturn(st *storage.Store) error {
	sh, err := st.Acquire(0, 0)
	if err != nil {
		return err
	}
	if len(sh.Embs) == 0 {
		return nil // want "return with 1 outstanding store Acquire"
	}
	return st.Release(0, 0)
}

// leakFallThrough never releases at all.
func leakFallThrough(st *storage.Store) {
	sh, _ := st.Acquire(0, 0) // want "store Acquire without a Release on the fall-through exit of leakFallThrough"
	_ = use(sh)
}

// deferredRelease covers every exit with one defer.
func deferredRelease(st *storage.Store) error {
	sh, err := st.Acquire(0, 0)
	if err != nil {
		return err
	}
	defer func() { _ = st.Release(0, 0) }()
	return use(sh)
}

// errBranchHoldsNothing: a failed Acquire pins nothing, so returning from
// the error branch is fine.
func errBranchHoldsNothing(st *storage.Store) error {
	if _, err := st.Acquire(0, 0); err != nil {
		return err
	}
	return st.Release(0, 0)
}

// bestEffortEvict is the discardPrefetched idiom: acquire-then-release,
// ignoring a failed acquire (which holds nothing).
func bestEffortEvict(st *storage.Store, parts []int) {
	for _, p := range parts {
		if _, err := st.Acquire(0, p); err == nil {
			_ = st.Release(0, p)
		}
	}
}

// transferToField hands the refcount to the holder, whose close pairs it.
func transferToField(h *holder, st *storage.Store) error {
	sh, err := st.Acquire(0, 0)
	if err != nil {
		return err
	}
	h.sh = sh
	h.st = st
	return nil
}

// cleanupClosure is the runEpochPipelined idiom: a local closure releases
// everything acquired so far, and is invoked on both error and success.
func cleanupClosure(st *storage.Store) error {
	n := 0
	release := func() {
		for i := 0; i < n; i++ {
			_ = st.Release(0, i)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Acquire(0, i); err != nil {
			release()
			return err
		}
		n++
	}
	release()
	return nil
}

// bulkReleaseLoop releases every held shard in one loop before returning.
func bulkReleaseLoop(st *storage.Store) error {
	for p := 0; p < 3; p++ {
		if _, err := st.Acquire(0, p); err != nil {
			return err
		}
	}
	for p := 0; p < 3; p++ {
		if err := st.Release(0, p); err != nil {
			return err
		}
	}
	return nil
}

// carrier is the train.Resident idiom: shards acquired for one bucket are
// carried in the holder's map into the next and released by another method.
type carrier struct {
	st       *storage.Store
	held     map[int]*storage.Shard
	hinted   map[int]bool
	advances int
}

// advance strikes each shard off the hint list between the Acquire and its
// error check — bookkeeping that cannot leave the function — and hands the
// refcount to the map.
func (c *carrier) advance(parts []int) error {
	for _, p := range parts {
		sh, err := c.st.Acquire(0, p)
		delete(c.hinted, p)
		c.advances++
		if err != nil {
			return err
		}
		c.held[p] = sh
	}
	return nil
}

// carriedLeak has the same bookkeeping in between, and then drops the shard
// on an early return instead of carrying it.
func (c *carrier) carriedLeak(p int) error {
	sh, err := c.st.Acquire(0, p)
	delete(c.hinted, p)
	if err != nil {
		return err
	}
	if len(sh.Embs) == 0 {
		return nil // want "return with 1 outstanding store Acquire"
	}
	c.held[p] = sh
	return nil
}
