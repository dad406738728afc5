package main

import (
	"fmt"
	"runtime"
	"time"

	caf "caf2go"
	"caf2go/internal/fabric"
	"caf2go/internal/load"
	"caf2go/internal/sim"
)

// Isolated layer probes. Each one calls a layer's public functions in a
// loop on a fresh engine or machine and reports the host cost per call;
// a warm-up repetition runs first so lazy set-up and caches are done
// before anything is timed.

// Calls per repetition. Each repetition takes tens of milliseconds.
const (
	layerReps      = 5
	eventCalls     = 256 * 1024
	switchRounds   = 20_000
	procCalls      = 16 * 1024
	sendCalls      = 64 * 1024
	finishCalls    = 100
	cofenceCalls   = 10_000
	barrierCalls   = 200
	barrierImages  = 64
	spawnCalls     = 20_000
	lockCalls      = 5_000
	benchTag       = uint16(1)
	eventBatch     = 1024
	procBatch      = 64
	sendDrainEvery = 256
)

// perCall is one layer probe's median cost per call.
type perCall struct{ ns, allocs float64 }

// stopwatch brackets the calls being measured. ReadMemStats flushes the
// per-P allocation caches, so the allocation count is exact.
type stopwatch struct {
	t0     time.Time
	m0     uint64
	wall   time.Duration
	allocs uint64
}

func (s *stopwatch) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.m0 = ms.Mallocs
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.wall += time.Since(s.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocs += ms.Mallocs - s.m0
}

// probeLayer runs body once to warm up and then layerReps times, each
// making calls measured calls, and returns the median cost per call.
func probeLayer(tr *spanRecorder, name string, calls int, body func(sw *stopwatch) error) (perCall, error) {
	sp := tr.begin(name)
	defer tr.end(sp)
	var ns, allocs []float64
	for rep := 0; rep <= layerReps; rep++ {
		var sw stopwatch
		runtime.GC()
		rs := tr.begin(name + "/rep")
		err := body(&sw)
		tr.end(rs)
		if err != nil {
			return perCall{}, fmt.Errorf("%s: %w", name, err)
		}
		if rep > 0 {
			ns = append(ns, float64(sw.wall.Nanoseconds())/float64(calls))
			allocs = append(allocs, float64(sw.allocs)/float64(calls))
		}
	}
	return perCall{ns: median(ns), allocs: median(allocs)}, nil
}

// simEvent schedules and runs timed events: Engine.After + RunUntil.
func simEvent(sw *stopwatch) error {
	eng := sim.NewEngine(1)
	ran := 0
	fn := func() { ran++ }
	sw.start()
	for b := 0; b < eventCalls/eventBatch; b++ {
		for i := 0; i < eventBatch; i++ {
			eng.After(sim.Time(i%64), fn)
		}
		if err := eng.RunUntil(eng.Now() + 64); err != nil {
			return err
		}
	}
	sw.stop()
	if ran != eventCalls {
		return fmt.Errorf("ran %d of %d events", ran, eventCalls)
	}
	return nil
}

// simSwitch ping-pongs two procs through Park/Unpark. One call is one
// proc resumption, two per round.
func simSwitch(sw *stopwatch) error {
	eng := sim.NewEngine(1)
	var ping, pong *sim.Proc
	ping = eng.Go("ping", func(p *sim.Proc) {
		for i := 0; i < switchRounds; i++ {
			pong.Unpark()
			p.Park("ping")
		}
	})
	pong = eng.Go("pong", func(p *sim.Proc) {
		for i := 0; i < switchRounds; i++ {
			p.Park("pong")
			ping.Unpark()
		}
	})
	sw.start()
	err := eng.Run()
	sw.stop()
	return err
}

// simProc creates, runs and retires procs with Engine.Go.
func simProc(sw *stopwatch) error {
	eng := sim.NewEngine(1)
	ran := 0
	fn := func(*sim.Proc) { ran++ }
	sw.start()
	for b := 0; b < procCalls/procBatch; b++ {
		for i := 0; i < procBatch; i++ {
			eng.Go("p", fn)
		}
		if err := eng.Run(); err != nil {
			return err
		}
	}
	sw.stop()
	if ran != procCalls {
		return fmt.Errorf("ran %d of %d procs", ran, procCalls)
	}
	return nil
}

// fabricSend sends short AMs with Endpoint.Send and runs the engine
// until they are delivered, with or without coalescing.
func fabricSend(coalescing fabric.Coalescing) func(sw *stopwatch) error {
	return func(sw *stopwatch) error {
		eng := sim.NewEngine(1)
		cfg := fabric.DefaultConfig()
		cfg.Coalescing = coalescing
		f := fabric.New(eng, 2, cfg)
		delivered := 0
		f.Endpoint(1).RegisterHandler(benchTag, func(*fabric.Endpoint, *fabric.Msg) { delivered++ })
		src := f.Endpoint(0)
		sw.start()
		for i := 0; i < sendCalls; i++ {
			src.Send(&fabric.Msg{Src: 0, Dst: 1, Tag: benchTag, Class: fabric.AMShort, Bytes: 16}, fabric.SendOpts{})
			if i%sendDrainEvery == sendDrainEvery-1 {
				if err := eng.Run(); err != nil {
					return err
				}
			}
		}
		err := eng.Run()
		sw.stop()
		if err == nil && delivered != sendCalls {
			err = fmt.Errorf("delivered %d of %d messages", delivered, sendCalls)
		}
		return err
	}
}

// coreFinish enters empty Finish blocks on every image.
func coreFinish(images int) func(sw *stopwatch) error {
	return func(sw *stopwatch) error {
		_, err := caf.Run(caf.Config{Images: images, Seed: 1}, func(img *caf.Image) {
			img.Barrier(nil)
			if img.Rank() == 0 {
				sw.start()
			}
			for i := 0; i < finishCalls; i++ {
				img.Finish(nil, func() {})
			}
			if img.Rank() == 0 {
				sw.stop()
			}
		})
		return err
	}
}

// coreCofence pairs a one-element CopyAsync with a Cofence that waits
// for its local data completion.
func coreCofence(sw *stopwatch) error {
	_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 8)
		img.Barrier(nil)
		if img.Rank() != 0 {
			return
		}
		src := make([]int64, 8)
		sw.start()
		for i := 0; i < cofenceCalls; i++ {
			caf.CopyAsync(img, ca.Sec(1, 0, 8), caf.Local(src))
			img.Cofence(caf.AllowNone, caf.AllowNone)
		}
		sw.stop()
	})
	return err
}

// collectBarrier runs back-to-back barriers on 64 images.
func collectBarrier(sw *stopwatch) error {
	_, err := caf.Run(caf.Config{Images: barrierImages, Seed: 1}, func(img *caf.Image) {
		img.Barrier(nil)
		if img.Rank() == 0 {
			sw.start()
		}
		for i := 0; i < barrierCalls; i++ {
			img.Barrier(nil)
		}
		if img.Rank() == 0 {
			sw.stop()
		}
	})
	return err
}

func noopSpawn(*caf.Image) {}

// cafSpawn times only the Spawn initiation calls; the shipped functions
// run after the stopwatch stops, when the enclosing finish waits.
func cafSpawn(sw *stopwatch) error {
	_, err := caf.Run(caf.Config{Images: 8, Seed: 1}, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			sw.start()
			for i := 0; i < spawnCalls; i++ {
				img.Spawn(1+i%7, noopSpawn)
			}
			sw.stop()
		})
	})
	return err
}

// cafLock takes and releases a lock homed on another image.
func cafLock(sw *stopwatch) error {
	_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		if img.Rank() != 0 {
			return
		}
		sw.start()
		for i := 0; i < lockCalls; i++ {
			img.Lock(1, 0)
			img.Unlock(1, 0)
		}
		sw.stop()
	})
	return err
}

// loadSchedule generates the KV workloads' arrival schedule; one call
// is one request.
func loadSchedule(seed int64) func(sw *stopwatch) error {
	return func(sw *stopwatch) error {
		sw.start()
		sched := kvSchedule(seed)
		sw.stop()
		if len(sched) != kvRequests {
			return fmt.Errorf("schedule has %d requests, want %d", len(sched), kvRequests)
		}
		return nil
	}
}

// loadCollector settles every request of the schedule through
// Collector.Issued and Done; one call is one request.
func loadCollector(seed int64) func(sw *stopwatch) error {
	return func(sw *stopwatch) error {
		sched := kvSchedule(seed)
		m := caf.NewMachine(caf.Config{Images: kvImages, Seed: seed})
		col := load.NewCollector("kv request", sched)
		sw.start()
		for _, r := range sched {
			col.Issued(m, r, kvServers+r.Client, int(r.Key%kvServers))
			col.Done(m, r.At+caf.Microsecond, r.Seq)
		}
		sw.stop()
		if !col.Settled() {
			return fmt.Errorf("collector left requests unsettled")
		}
		return nil
	}
}

// layerCosts runs every probe that applies to workload w and returns
// the per-layer metrics they produce. Probes of a layer the workload
// does not use report 0.
func layerCosts(w *workload, seed int64, tr *spanRecorder) (map[string]float64, error) {
	out := map[string]float64{}
	type probe struct {
		name     string
		calls    int
		body     func(sw *stopwatch) error
		ns, allc string
		applies  bool
	}
	probes := []probe{
		{"sim.event", eventCalls, simEvent, "sim.event_ns", "sim.event_allocs", true},
		{"sim.switch", 2 * switchRounds, simSwitch, "sim.switch_ns", "sim.switch_allocs", true},
		{"sim.proc", procCalls, simProc, "sim.proc_ns", "sim.proc_allocs", true},
		{"fabric.send", sendCalls, fabricSend(fabric.Coalescing{}), "fabric.send_ns", "fabric.send_allocs", true},
		{"fabric.send_coalesced", sendCalls, fabricSend(kvCoalescing), "fabric.send_coalesced_ns", "", true},
		{"core.finish", finishCalls, coreFinish(w.images), "core.finish_ns", "", true},
		{"core.cofence", cofenceCalls, coreCofence, "core.cofence_ns", "", true},
		{"collect.barrier", barrierCalls, collectBarrier, "collect.barrier_ns", "", true},
		{"caf.spawn", spawnCalls, cafSpawn, "caf.spawn_ns", "caf.spawn_allocs", true},
		{"caf.lock", lockCalls, cafLock, "caf.lock_ns", "", true},
		{"load.schedule", kvRequests, loadSchedule(seed), "load.schedule_ns", "", w.usesLoad},
		{"load.collector", kvRequests, loadCollector(seed), "load.collector_ns", "", w.usesLoad},
	}
	for _, p := range probes {
		var c perCall
		if p.applies {
			var err error
			if c, err = probeLayer(tr, p.name, p.calls, p.body); err != nil {
				return nil, err
			}
		}
		out[p.ns] = c.ns
		if p.allc != "" {
			out[p.allc] = c.allocs
		}
	}
	return out, nil
}
