package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// reportRuntime emits the informational runtime.* rows: the process's peak
// resident set, the share of CPU time the collector took, and heap
// allocations per unit of headline work (trained edge or served query).
func (r *run) reportRuntime() {
	r.set("runtime.peak_rss_mb", peakRSSMiB(), "MiB")
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	var gcShare, allocs float64
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		if total := samples[1].Value.Float64(); total > 0 {
			gcShare = samples[0].Value.Float64() / total
		}
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		allocs = float64(samples[2].Value.Uint64())
	}
	r.set("runtime.gc_cpu_share", gcShare, "share")
	perOp := 0.0
	if r.headlineOps > 0 {
		perOp = allocs / float64(r.headlineOps)
	}
	r.set("runtime.allocs_per_op", perOp, "count")

	// What the machine did to the run: CPU seconds used per second of wall
	// (2.0 = both processors busy throughout), page faults, involuntary
	// context switches, and the share of the guest's CPU time the
	// hypervisor gave to someone else. They explain a slow run; they are
	// not targets.
	wall := time.Since(r.started).Seconds()
	cpu, faults, invol := rusage()
	r.set("runtime.cpu_per_wall", cpu/wall, "ratio")
	r.set("runtime.page_faults", float64(faults), "count")
	r.set("runtime.invol_ctx_switches", float64(invol), "count")
	whole := r.atStart.lap()
	r.set("runtime.steal_share", whole.steal/(wall*float64(runtime.NumCPU())), "share")
	r.set("runtime.machine_speed", median(r.speeds), "ratio")
	r.note("runtime.machine_speed: median of %d readings (p10 %.3f, p90 %.3f); 1 = %.0f million reference dot products a second", len(r.speeds), quantile(r.speeds, 0.1), quantile(r.speeds, 0.9), refNominal/1e6)
}

// peakRSSMiB reads the resident-set high-water mark from /proc; where that
// is not available it falls back to the bytes the Go runtime obtained.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
