package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a runtime/metrics snapshot of the counters the runtime.*
// metrics difference across a timed phase.
type rtSample struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapBytes samples the live-plus-unswept heap, the quantity whose
// maximum over a run is reported as runtime.heap_peak_mb.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtDelta is the runtime cost of one timed phase.
type rtDelta struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

func (a rtSample) to(b rtSample) rtDelta {
	return rtDelta{
		allocs:     b.allocs - a.allocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPU:      b.gcCPU - a.gcCPU,
		totalCPU:   b.totalCPU - a.totalCPU,
	}
}

func (d *rtDelta) add(o rtDelta) {
	d.allocs += o.allocs
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

// median returns the median of xs without reordering the caller's
// slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer absent from a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
