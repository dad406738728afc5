package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runSample is the host cost of one workload run.
type runSample struct {
	wall, cpu     float64 // seconds
	allocs, bytes uint64  // heap objects and bytes allocated
	events        uint64  // simulated events the run executed
	peakLive      uint64  // largest live heap seen at a GC during the run
	gcCycles      uint64
	gcCPU, allCPU float64 // runtime/metrics CPU estimates, seconds
}

// measureRun runs fn once and returns its cost. The caller collects
// the heap first. The allocation counts come from runtime.ReadMemStats,
// which flushes the per-P caches and so counts exactly.
func measureRun(hw *heapWatch, fn func() (outcome, error)) (runSample, outcome, error) {
	var m0, m1 runtime.MemStats
	rt0 := readRuntime()
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	hw.reset()
	t0 := time.Now()
	out, err := fn()
	wall := time.Since(t0)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	rt1 := readRuntime()
	// The heap watch saw the live heap at every GC of the run; the run's
	// end state, still reachable through out, is measured exactly here.
	// It is the peak whenever the run retains what it built, and keeps
	// the reading from depending on where the last GC of the run fell.
	runtime.GC()
	hw.observe(readRuntime().liveHeap)
	runtime.KeepAlive(out.machine)
	out.machine = nil
	s := runSample{
		wall:     wall.Seconds(),
		cpu:      cpu1 - cpu0,
		allocs:   m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		events:   out.Report.EventsRun,
		peakLive: hw.peak(),
		gcCycles: rt1.gcCycles - rt0.gcCycles,
		gcCPU:    rt1.gcCPU - rt0.gcCPU,
		allCPU:   rt1.allCPU - rt0.allCPU,
	}
	return s, out, err
}

// processCPU is the user+system CPU time the process has used, in
// seconds. It includes the GC and runtime threads, not only the
// goroutine running the simulation.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

type runtimeReading struct {
	gcCycles      uint64
	gcCPU, allCPU float64
	liveHeap      uint64
	goroutines    uint64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/sched/goroutines:goroutines",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeReading{
		gcCycles:   s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		allCPU:     s[2].Value.Float64(),
		liveHeap:   s[3].Value.Uint64(),
		goroutines: s[4].Value.Uint64(),
	}
}

// heapWatch records the live heap after every GC cycle. /gc/heap/live
// only changes when a cycle ends, so reading it from a finalizer that
// re-arms itself each cycle sees every value it takes without a polling
// goroutine competing with the simulation for the CPU.
type heapWatch struct {
	max     atomic.Uint64
	stopped atomic.Bool
}

type gcSentinel struct{ _ *int } // holds a pointer so it is never tiny-allocated

func newHeapWatch() *heapWatch {
	hw := &heapWatch{}
	hw.arm()
	return hw
}

func (hw *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		hw.observe(readRuntime().liveHeap)
		if !hw.stopped.Load() {
			hw.arm()
		}
	})
}

func (hw *heapWatch) observe(v uint64) {
	for {
		cur := hw.max.Load()
		if v <= cur || hw.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset starts a new observation window at the current live heap.
func (hw *heapWatch) reset() { hw.max.Store(readRuntime().liveHeap) }

func (hw *heapWatch) peak() uint64 { return hw.max.Load() }

// stop ends the re-arming; the last armed sentinel is collected with
// the process.
func (hw *heapWatch) stop() { hw.stopped.Store(true) }

// goroutineSampler polls /sched/goroutines every millisecond. The count
// changes between GC cycles, so unlike the live heap it needs polling;
// it runs only in the traced invocation.
type goroutineSampler struct {
	max  uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startGoroutineSampler() *goroutineSampler {
	gs := &goroutineSampler{done: make(chan struct{})}
	gs.wg.Add(1)
	go func() {
		defer gs.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-gs.done:
				return
			case <-tick.C:
				if n := readRuntime().goroutines; n > gs.max {
					gs.max = n
				}
			}
		}
	}()
	return gs
}

// stop ends the sampler and returns the largest count it saw.
func (gs *goroutineSampler) stop() uint64 {
	close(gs.done)
	gs.wg.Wait()
	return gs.max
}

// median of a non-empty sample; the mean of the middle pair for even n.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// column extracts one field of every sample.
func column(samples []runSample, f func(runSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}
