package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pbg/internal/dist"
	"pbg/internal/partition"
	"pbg/internal/storage"
)

// childEnv marks a child process of this test binary: it runs the pbg
// command its arguments name, cutting every 50 ms instead of 5 s.
const childEnv = "PBG_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		cutEvery = 50 * time.Millisecond
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pbg:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lockedBuffer is a child's output, read while the child writes it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startRole runs "pbg node -dir dir -role role args…" as a process of its
// own and returns the address it listens on, and a stop that kills it (run
// at the end of the test if not before).
func startRole(t *testing.T, dir, role string, args ...string) (addr string, stop func()) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"node", "-dir", dir, "-role", role, "-listen", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out := new(lockedBuffer)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stop = sync.OnceFunc(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	t.Cleanup(stop)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		for _, line := range strings.Split(out.String(), "\n") {
			if a, ok := strings.CutPrefix(line, "listening on "); ok {
				return a, stop
			}
		}
	}
	t.Fatalf("pbg node -role %s is not listening:\n%s", role, out.String())
	return "", nil
}

// pull returns relation rel's block on the parameter server at addr.
func pull(t *testing.T, addr string, rel int) []float32 {
	t.Helper()
	var rep dist.SyncReply
	if err := dist.Call(addr, &dist.MethodPull, &dist.PullArgs{Rel: rel}, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Params
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestNodeDeploymentCheckpoints: a pbg node deployment — one lock server
// given the server addresses, one partition server, one parameter server
// and one trainer, each a process of its own over one run directory —
// trains two epochs of a translation relation, and the lock server's cut
// makes the directory a checkpoint: pbg eval reads it, its relations.pbg
// is the parameter server's block, and a parameter server restarted over
// it serves that block bit for bit.
func TestNodeDeploymentCheckpoints(t *testing.T) {
	dir := importSocial(t, `{"entities":{"node":{"num_partitions":4}},"relations":[{"name":"follows","operator":"translation"}],
		"dimension":8,"num_epochs":2,"eval_fraction":0.05,"seed":2}`)
	partAddr, _ := startRole(t, dir, "partition")
	paramAddr, stopParam := startRole(t, dir, "param")
	lockAddr, _ := startRole(t, dir, "lock", "-partition-servers", partAddr, "-param-servers", paramAddr)
	out := pbgRun(t, "node", "-dir", dir, "-role", "trainer", "-rank", "0", "-workers", "1",
		"-lock", lockAddr, "-partition-servers", partAddr, "-param-servers", paramAddr)
	if got := strings.Count(out, "rank 0 epoch"); got != 2 {
		t.Fatalf("the trainer ran %d epochs, want 2:\n%s", got, out)
	}

	// The trainer is done, so the block stays put; wait for a cut of it.
	trained := pull(t, paramAddr, 0)
	var saved *storage.RelationState
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		m, ok, err := dist.ReadManifest(dir, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		saved, err = storage.ReadRelations(filepath.Join(dir, "relations.pbg"))
		if ok && m.Epoch == 2 && len(m.Done) == 16 && err == nil && sameBits(saved.Params[0], trained) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cut of the trained deployment: manifest %+v (%v), relations.pbg %v", m, ok, err)
		}
	}
	if !strings.Contains(pbgRun(t, "eval", "-dir", dir, "-k", "50"), "MRR") {
		t.Fatal("pbg eval printed no MRR")
	}

	stopParam()
	restarted, _ := startRole(t, dir, "param")
	if got := pull(t, restarted, 0); !sameBits(got, saved.Params[0]) {
		t.Fatalf("the restarted parameter server holds %v, relations.pbg %v", got, saved.Params[0])
	}
}

// TestNodeResumesRestoredEpoch: a trainer joins a deployment whose lock
// server was restored from a checkpoint where that server is — the
// interrupted epoch, or the one after a complete cut — and trains up to
// num_epochs counted from the run's start, rank 0 starting each epoch by
// its number.
func TestNodeResumesRestoredEpoch(t *testing.T) {
	dir := importSocial(t, `{"entities":{"node":{"num_partitions":4}},"dimension":8,"num_epochs":3,"eval_fraction":0.05,"seed":2}`)
	rd, _, err := openRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	order, err := partition.Order(partition.OrderInsideOut, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		restore dist.LockOption
		epochs  int // the trainer should run
	}{
		"interrupted epoch 3":     {dist.WithRestoredEpoch(3, order[:5]), 1},
		"after a complete cut":    {dist.WithRestoredEpoch(2, order), 1},
		"interrupted first epoch": {dist.WithRestoredEpoch(1, nil), 3},
	} {
		t.Run(name, func(t *testing.T) {
			ls := dist.NewLockServer(order, c.restore)
			ll, err := dist.ListenAndServe("127.0.0.1:0", ls)
			if err != nil {
				t.Fatal(err)
			}
			defer ll.Close()
			pl, err := dist.ListenAndServe("127.0.0.1:0", dist.NewPartitionServer(rd.schema, 8, 3))
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			out := pbgRun(t, "node", "-dir", dir, "-role", "trainer", "-rank", "0", "-workers", "1",
				"-lock", ll.Addr().String(), "-partition-servers", pl.Addr().String())
			var es dist.EpochStateReply
			if err := ls.EpochState(dist.EpochStateArgs{}, &es); err != nil {
				t.Fatal(err)
			}
			if es.Epoch != 3 || len(es.Done) != 16 {
				t.Errorf("lock server at epoch %d with %d buckets done, want epoch 3 complete", es.Epoch, len(es.Done))
			}
			if got := strings.Count(out, "rank 0 epoch"); got != c.epochs {
				t.Errorf("the trainer ran %d epochs, want %d:\n%s", got, c.epochs, out)
			}
		})
	}
}
