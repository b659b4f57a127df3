package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on a few virtual processors of a shared host. For
// minutes at a time the hypervisor hands a fifth to a third of their time to
// other guests (the steal column of /proc/stat), and every wall-clock rate
// falls by as much, whatever the program does. So the timings the bounded
// metrics are made of are taken in granted time: wall time less the part of
// it the hypervisor took away from running threads.
//
// Over a measured interval processor i of the guest was busy for busy[i]
// seconds, idle for idle[i] and stolen for steal[i]. A processor that is busy
// throughout loses all of its stolen time; an idle one is charged steal too
// (its wake-ups are delayed), which costs the program nothing. So a
// processor's stolen time counts at least to the extent the processor was
// busy, and at most in full:
//
//	stolen  = sum of steal[i] * busy[i] / (busy[i] + idle[i])
//	longest = wall * busy / (busy + stolen),  busy = sum of busy[i]
//	shortest = wall * busy / (busy + sum of steal[i])
//
// Of the processor time threads wanted they got busy/(busy+stolen), and the
// interval's wall time scaled by that share is what it would have taken
// with nothing stolen. Where every processor is busy the two limits meet.
// Where one thread works and the guest moves it from processor to processor,
// each looks half idle and stolen comes out too small; but then the interval
// is as long as the processor time the process got, which the kernel counts
// without the stolen part. So granted time is the process's CPU time held
// between the two limits. It equals wall time wherever nothing is stolen or
// steal cannot be read; it takes too little off a pipeline whose threads
// wait for the one that was stolen.

// cpuTimes is one processor's cumulative busy, stolen and idle seconds.
type cpuTimes struct{ busy, steal, idle float64 }

// stamp is a reading of the wall clock, of the process's CPU time and of
// every processor's times.
type stamp struct {
	t    time.Time
	cpu  float64
	cpus []cpuTimes
}

func stampNow() stamp {
	cpu, _, _ := rusage()
	return stamp{t: time.Now(), cpu: cpu, cpus: readCPUTimes()}
}

// lap is what passed between two stamps.
type lap struct {
	start time.Time
	wall  time.Duration
	// cpu is the process's CPU time; busy and steal are summed over the
	// guest's processors; stolen is steal weighted by how busy each processor
	// was. Seconds.
	cpu, busy, steal, stolen float64
}

func (s stamp) lap() lap { return s.until(stampNow()) }

func (s stamp) until(now stamp) lap {
	l := lap{start: s.t, wall: now.t.Sub(s.t), cpu: now.cpu - s.cpu}
	if len(now.cpus) != len(s.cpus) {
		return l
	}
	for i, c := range now.cpus {
		busy, steal, idle := c.busy-s.cpus[i].busy, c.steal-s.cpus[i].steal, c.idle-s.cpus[i].idle
		l.busy += busy
		l.steal += steal
		if busy+idle > 0 {
			l.stolen += steal * busy / (busy + idle)
		}
	}
	return l
}

// granted is the lap's wall time less what the hypervisor took of it.
func (l lap) granted() time.Duration {
	if l.steal <= 0 || l.busy <= 0 {
		return l.wall
	}
	wall := l.wall.Seconds()
	longest := wall * l.busy / (l.busy + l.stolen)
	shortest := wall * l.busy / (l.busy + l.steal)
	return time.Duration(min(longest, max(shortest, l.cpu)) * float64(time.Second))
}

func (l *lap) add(m lap) {
	l.wall += m.wall
	l.cpu += m.cpu
	l.busy += m.busy
	l.steal += m.steal
	l.stolen += m.stolen
}

// readCPUTimes reads the per-processor lines of /proc/stat (nil where there
// is no such file): user+nice+system+irq+softirq are busy, idle+iowait idle.
func readCPUTimes() []cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []cpuTimes
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			break // the processor lines come first
		}
		if f[0] == "cpu" {
			continue // the sum over all processors
		}
		var v [8]float64
		for i := range v {
			ticks, err := strconv.ParseFloat(f[i+1], 64)
			if err != nil {
				return nil
			}
			v[i] = ticks / 100 // USER_HZ
		}
		out = append(out, cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]})
	}
	return out
}
