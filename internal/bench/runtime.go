package bench

import (
	"runtime/metrics"
	"time"
)

// Runtime counters read through runtime/metrics, which needs no
// stop-the-world pause (runtime.ReadMemStats does).
const (
	rtAllocs   = "/gc/heap/allocs:bytes"
	rtObjects  = "/memory/classes/heap/objects:bytes"
	rtUnused   = "/memory/classes/heap/unused:bytes"
	rtCPUUser  = "/cpu/classes/user:cpu-seconds"
	rtCPUGC    = "/cpu/classes/gc/total:cpu-seconds"
	rtCPUIdle  = "/cpu/classes/idle:cpu-seconds"
	rtCPUTotal = "/cpu/classes/total:cpu-seconds"
	rtGCAll    = "/gc/cycles/total:gc-cycles"
	rtGCForced = "/gc/cycles/forced:gc-cycles"
	rtSchedLat = "/sched/latencies:seconds"
)

// rtSnap is one reading of the runtime counters the benchmark reports.
type rtSnap struct {
	allocs                          uint64
	cpuUser, cpuGC, cpuIdle, cpuAll float64
	gcAll, gcForced                 uint64
	schedCounts                     []uint64
	schedBuckets                    []float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: rtAllocs}, {Name: rtCPUUser}, {Name: rtCPUGC}, {Name: rtCPUIdle},
		{Name: rtCPUTotal}, {Name: rtGCAll}, {Name: rtGCForced}, {Name: rtSchedLat},
	}
	metrics.Read(s)
	h := s[7].Value.Float64Histogram()
	return rtSnap{
		allocs:  s[0].Value.Uint64(),
		cpuUser: s[1].Value.Float64(), cpuGC: s[2].Value.Float64(),
		cpuIdle: s[3].Value.Float64(), cpuAll: s[4].Value.Float64(),
		gcAll: s[5].Value.Uint64(), gcForced: s[6].Value.Uint64(),
		schedCounts:  append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// add accumulates into d the change from reading a to reading b of the
// counters goMetrics reads.
func (d *rtSnap) add(a, b rtSnap) {
	d.cpuUser += b.cpuUser - a.cpuUser
	d.cpuGC += b.cpuGC - a.cpuGC
	d.cpuIdle += b.cpuIdle - a.cpuIdle
	d.cpuAll += b.cpuAll - a.cpuAll
	d.gcAll += b.gcAll - a.gcAll
	d.gcForced += b.gcForced - a.gcForced
	if d.schedCounts == nil {
		d.schedCounts, d.schedBuckets = make([]uint64, len(b.schedCounts)), b.schedBuckets
	}
	for i := range d.schedCounts {
		d.schedCounts[i] += b.schedCounts[i] - a.schedCounts[i]
	}
}

// goMetrics derives the go.* layer metrics from the counters' change d
// over the measured repetitions.
func goMetrics(d rtSnap, reps int) map[string]float64 {
	out := map[string]float64{}
	if d.cpuAll > 0 {
		out["go.cpu_user_frac"] = d.cpuUser / d.cpuAll
		out["go.cpu_gc_frac"] = d.cpuGC / d.cpuAll
		out["go.cpu_idle_frac"] = d.cpuIdle / d.cpuAll
	}
	// Cycles the benchmark forced between repetitions are not the program's.
	out["go.gc_cycles"] = float64(d.gcAll-d.gcForced) / float64(max(reps, 1))
	var total uint64
	for _, n := range d.schedCounts {
		total += n
	}
	if total > 0 {
		want := (total*99 + 99) / 100
		var seen uint64
		for i, n := range d.schedCounts {
			seen += n
			if seen >= want {
				// Upper edge of the bucket holding the 99th percentile.
				out["go.sched_latency_p99_us"] = d.schedBuckets[i+1] * 1e6
				break
			}
		}
	}
	return out
}

// heapSampler records the highest heap in-use bytes (live and dead objects
// plus unused space in in-use spans, as MemStats.HeapInuse) seen by a
// goroutine that samples every millisecond until stopped.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: rtObjects}, {Name: rtUnused}}
	sample := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
