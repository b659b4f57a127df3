package serve_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"pbg/internal/serve"
)

func dialTestServer(t *testing.T, f *Fixture) (*serve.Server, *serve.Client) {
	t.Helper()
	s := openServer(t, f)
	front, err := serve.ListenAndServe("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = front.Close() })
	c, err := serve.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return s, c
}

// TestRPCRoundTrip pins that results over the wire equal results from the
// in-process API — the encoding of every wire type included.
func TestRPCRoundTrip(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	s, c := dialTestServer(t, f)

	reqs := f.Requests(61, 12, 7, true)
	local, err := s.TopK(reqs)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.TopK(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if len(local[i].IDs) != len(remote[i].IDs) {
			t.Fatalf("req %d: local %d ids, remote %d", i, len(local[i].IDs), len(remote[i].IDs))
		}
		for j := range local[i].IDs {
			if local[i].IDs[j] != remote[i].IDs[j] || local[i].Scores[j] != remote[i].Scores[j] {
				t.Fatalf("req %d rank %d: wire result differs from local", i, j)
			}
		}
	}

	scores, err := c.Score([]serve.ScoreRequest{{Rel: 0, Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Score([]serve.ScoreRequest{{Rel: 0, Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != want[0] {
		t.Fatalf("wire score %x, local %x", scores[0], want[0])
	}

	rank, err := c.Rank(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRank, err := s.Rank(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rank != wantRank {
		t.Fatalf("wire rank %v, local %v", rank, wantRank)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Dir != f.Dir {
		t.Fatalf("stats dir %q, want %q", st.Dir, f.Dir)
	}
	if err := c.Reload(""); err != nil {
		t.Fatal(err)
	}
}

// TestRPCConcurrentTopK: calls in flight together on one Client share its
// connection — the reader's cursor, and the writers' under the write lock —
// on both ends, and each caller still gets its own batch's answer, equal to
// the in-process one. The callers' batches differ in length, so a reply
// decoded into the wrong call shows. CI runs it under the race detector.
func TestRPCConcurrentTopK(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	s, c := dialTestServer(t, f)
	const callers, calls = 4, 25
	var wg sync.WaitGroup
	for g := range callers {
		reqs := f.Requests(uint64(300+g), 3+2*g, 5, g%2 == 0)
		want, err := s.TopK(reqs)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				got, err := c.TopK(reqs)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("caller %d: %d results for a batch of %d", g, len(got), len(want))
					return
				}
				for i := range want {
					if !slices.Equal(got[i].IDs, want[i].IDs) || !slices.Equal(got[i].Scores, want[i].Scores) {
						t.Errorf("caller %d request %d: wire %v %v, local %v %v", g, i, got[i].IDs, got[i].Scores, want[i].IDs, want[i].Scores)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRPCValidation pins that malformed requests error over the wire with
// a diagnostic, and never crash the server.
func TestRPCValidation(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	_, c := dialTestServer(t, f)

	cases := []struct {
		name string
		reqs []serve.TopKRequest
		want string
	}{
		{"empty batch", nil, "empty"},
		{"bad relation", []serve.TopKRequest{{Rel: 99, SrcID: 0, K: 3}}, "relation"},
		{"negative K", []serve.TopKRequest{{Rel: 0, SrcID: 0, K: -1}}, "K"},
		{"src out of range", []serve.TopKRequest{{Rel: 0, SrcID: 1 << 30, K: 3}}, "out of range"},
		{"bad vector dim", []serve.TopKRequest{{Rel: 0, Vector: []float32{1}, K: 3}}, "dim"},
		{"negative nprobe", []serve.TopKRequest{{Rel: 0, SrcID: 0, K: 3, NProbe: -2}}, "nprobe"},
		{"negative nprobe, vector query", []serve.TopKRequest{{Rel: 0, Vector: make([]float32, f.Cfg.Dim), K: 3, NProbe: -2}}, "nprobe"},
	}
	for _, tc := range cases {
		_, err := c.TopK(tc.reqs)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	if _, err := c.Score([]serve.ScoreRequest{{Rel: 0, Src: 0, Dst: 1 << 30}}); err == nil {
		t.Fatal("score with out-of-range dst did not error")
	}
	if _, err := c.Rank(-1, 0, 0); err == nil {
		t.Fatal("rank with negative relation did not error")
	}
	// The connection must still work after every rejected call.
	if _, err := c.TopK([]serve.TopKRequest{{Rel: 0, SrcID: 0, K: 3, Exact: true}}); err != nil {
		t.Fatalf("valid call after rejects: %v", err)
	}
}
