package main

import (
	"sync"
	"time"
)

// reference is a fixed piece of work of the benchmark's own - every
// processor takes dot products of its own vector with rows of a small table
// picked at random, scalar arithmetic out of the second-level cache like the
// program's kernels - whose speed depends on the machine and on nothing in
// the repository. The machine the benchmark runs on changes speed by a third
// to a half for minutes at a time (a neighbour on the same core), and every
// rate changes with it; the bounded metrics are therefore reported at the
// speed the reference showed next to them, see gauge and README.md.
type reference struct {
	table []float32
	procs int
}

const (
	refRows  = 1 << 10 // x refDim x 4 bytes = 256 KiB
	refDim   = 64
	refBlock = 4096 // dot products between two looks at the clock
)

// refSink keeps the compiler from dropping the work.
var refSink float32

func newReference(procs int) *reference {
	rf := &reference{table: make([]float32, refRows*refDim), procs: procs}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range rf.table {
		x = x*6364136223846793005 + 1442695040888963407
		rf.table[i] = float32(int32(x>>40)) / (1 << 24)
	}
	return rf
}

// measure keeps every processor on the work for d and returns how many dot
// products they made between them, and the lap.
func (rf *reference) measure(d time.Duration) (dots int, l lap) {
	var wg sync.WaitGroup
	counts := make([]int, rf.procs)
	sums := make([]float32, rf.procs)
	from := stampNow()
	deadline := from.t.Add(d)
	for w := 0; w < rf.procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var q [refDim]float32
			for i := range q {
				q[i] = float32(i+w) / refDim
			}
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			var sum float32
			for time.Now().Before(deadline) {
				for n := 0; n < refBlock; n++ {
					x = x*6364136223846793005 + 1442695040888963407
					row := rf.table[int(x>>33)%refRows*refDim:][:refDim]
					var dot float32
					for i, v := range row {
						dot += v * q[i]
					}
					sum += dot
				}
				counts[w] += refBlock
			}
			sums[w] = sum
		}(w)
	}
	wg.Wait()
	l = from.lap()
	for w := range counts {
		dots += counts[w]
		refSink += sums[w]
	}
	return dots, l
}

// gauge times pieces of a run's work between readings of the machine's
// speed: reading, work, reading, work, reading. A reading keeps every
// processor on the reference for gap; speed 1 is refNominal dot products a
// second. Every reading is also kept in the run, for runtime.machine_speed.
type gauge struct {
	r    *run
	gap  time.Duration
	last float64 // the latest reading; 0 when other work has run since
}

func (r *run) newGauge(gap time.Duration) *gauge { return &gauge{r: r, gap: gap} }

func (g *gauge) read() float64 {
	sp := g.r.span("reference")
	dots, l := g.r.ref.measure(g.gap)
	sp.End()
	g.last = float64(dots) / l.granted().Seconds() / refNominal
	g.r.speeds = append(g.r.speeds, g.last)
	return g.last
}

// stale tells the gauge that work it did not time has run since its latest
// reading, so the next piece of work starts with a reading of its own.
func (g *gauge) stale() { g.last = 0 }

// around times work and returns its lap and the speed of the machine around
// it: the mean of the reading before and the reading after.
func (g *gauge) around(work func() error) (lap, float64, error) {
	before := g.last
	if before == 0 {
		before = g.read()
	}
	from := stampNow()
	err := work()
	l := from.lap()
	return l, (before + g.read()) / 2, err
}

// atNominal is a lap's length in seconds of a machine that runs at the
// nominal speed: its granted time scaled by the speed measured around it.
func atNominal(l lap, speed float64) float64 { return l.granted().Seconds() * speed }
