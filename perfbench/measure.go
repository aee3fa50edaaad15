package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts), or
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timeSetup runs build n times and returns the median duration in seconds
// together with every value build returned, in order.
func timeSetup[T any](n int, build func(i int) (T, error)) (float64, []T, error) {
	secs := make([]float64, 0, n)
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return 0, out, err
		}
		secs = append(secs, time.Since(start).Seconds())
		out = append(out, v)
	}
	return median(secs), out, nil
}

// arena stores answer bytes outside the Go heap, in anonymous memory maps,
// so that keeping every answer for the checks after the timed phase does
// not show in peak_heap_mb or in the collector's work.
type arena struct {
	mu   sync.Mutex
	cur  []byte
	maps [][]byte
}

const arenaChunk = 64 << 20

// keep copies b into the arena and returns the copy.
func (a *arena) keep(b []byte) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(b) > cap(a.cur)-len(a.cur) {
		m, err := syscall.Mmap(-1, 0, max(arenaChunk, len(b)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, err
		}
		a.maps = append(a.maps, m)
		a.cur = m[:0]
	}
	n := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[n:len(a.cur):len(a.cur)], nil
}

// release unmaps every chunk; no kept slice may be used afterwards.
func (a *arena) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.maps {
		_ = syscall.Munmap(m) // process exit reclaims it anyway
	}
	a.maps, a.cur = nil, nil
}

// runtimeSampler reads runtime/metrics at a fixed cadence while a timed
// phase runs: live heap, cumulative allocated bytes and GC CPU time.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	live  []float64 // live heap of each sample, bytes
	first sample
	last  sample
}

type sample struct {
	allocs          uint64
	gcCPU, totalCPU float64
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric = "/cpu/classes/total:cpu-seconds"
)

// sampleInterval is the sampler cadence.
const sampleInterval = 5 * time.Millisecond

// startSampler takes a first sample and then one every sampleInterval
// until Stop.
func startSampler() *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	descs := []metrics.Sample{{Name: liveHeapMetric}, {Name: allocsMetric}, {Name: gcCPUMetric}, {Name: totalCPUMetric}}
	s.read(descs)
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.read(descs)
				return
			case <-t.C:
				s.read(descs)
			}
		}
	}()
	return s
}

func (s *runtimeSampler) read(descs []metrics.Sample) {
	metrics.Read(descs)
	cur := sample{
		allocs:   descs[1].Value.Uint64(),
		gcCPU:    descs[2].Value.Float64(),
		totalCPU: descs[3].Value.Float64(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.live) == 0 {
		s.first = cur
	}
	s.live = append(s.live, float64(descs[0].Value.Uint64()))
	s.last = cur
}

// Stop takes a last sample, waits for the sampling goroutine to exit, and
// folds the samples into peak_heap_mb (in e2e), and into
// runtime.alloc_kb_per_op over ops operations and runtime.gc_cpu_ratio (in
// pl). The peak is the 99th percentile of the live-heap samples: a 30 s
// phase has about 6000 of them, so 60 lie beyond it, where the single
// highest sample swung with one coincidence of two large allocations.
func (s *runtimeSampler) Stop(ops int, e2e, pl values) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	e2e["peak_heap_mb"] = quantile(s.live, 0.99) / (1 << 20)
	if ops > 0 {
		pl["runtime.alloc_kb_per_op"] = float64(s.last.allocs-s.first.allocs) / 1024 / float64(ops)
	}
	if cpu := s.last.totalCPU - s.first.totalCPU; cpu > 0 {
		pl["runtime.gc_cpu_ratio"] = (s.last.gcCPU - s.first.gcCPU) / cpu
	}
}
