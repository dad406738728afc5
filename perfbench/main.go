// Command perfbench measures the host cost of running the caf2go
// simulator: wall-clock, CPU, allocation and memory per workload run,
// end to end, and a per-layer split of that cost in a separate traced
// invocation. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload ra-fs --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md explains the
// workloads, the metrics and how to read the traced output.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced invocation (--trace 0).
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"allocs_per_event", "allocs"},
	{"bytes_per_event", "B"},
	{"peak_live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced invocation (--trace 1).
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.event_ns", "ns"},
	{"sim.event_allocs", "allocs"},
	{"sim.switch_ns", "ns"},
	{"sim.switch_allocs", "allocs"},
	{"sim.proc_ns", "ns"},
	{"sim.proc_allocs", "allocs"},
	{"sim.peak_goroutines", "count"},
	{"sim.cpu_share", "share"},
	{"fabric.packets", "count"},
	{"fabric.bytes", "B"},
	{"fabric.handler_runs", "count"},
	{"fabric.msgs_coalesced", "count"},
	{"fabric.flushes", "count"},
	{"fabric.send_ns", "ns"},
	{"fabric.send_allocs", "allocs"},
	{"fabric.send_coalesced_ns", "ns"},
	{"fabric.cpu_share", "share"},
	{"rt.cpu_share", "share"},
	{"core.finish_blocks", "count"},
	{"core.reduce_rounds", "count"},
	{"core.finish_ns", "ns"},
	{"core.cofence_ns", "ns"},
	{"core.cpu_share", "share"},
	{"collect.barrier_ns", "ns"},
	{"collect.cpu_share", "share"},
	{"caf.spawns", "count"},
	{"caf.copies", "count"},
	{"caf.spawn_ns", "ns"},
	{"caf.spawn_allocs", "allocs"},
	{"caf.lock_ns", "ns"},
	{"caf.cpu_share", "share"},
	{"load.requests", "count"},
	{"load.schedule_ns", "ns"},
	{"load.collector_ns", "ns"},
	{"load.cpu_share", "share"},
	{"observers.cpu_share", "share"},
	{"observers.overhead", "ratio"},
	{"observers.base_run_s", "s"},
	{"observers.allocs_per_event_delta", "allocs"},
	{"observers.base_allocs_per_event", "allocs"},
	{"path.mismatches", "count"},
	{"trace.dropped", "count"},
	{"app.cpu_share", "share"},
	{"other.cpu_share", "share"},
	{"go.cpu_share", "share"},
	{"go.alloc_share", "share"},
	{"go.gc_share", "share"},
	{"go.sched_share", "share"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "share"},
	{"bench.trace_overhead", "ratio"},
	{"bench.base_run_s", "s"},
}

// Set-up is timed this many times before each measured run, so the
// reported median samples the same stretch of time as the runs do.
const setupsPerRun = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ra-fs, stencil-cofence, kv-locks or kv-ship-observed")
	seed := fs.Int64("seed", pinnedSeed, "seed of the workload's inputs and of the simulation")
	seconds := fs.Int("seconds", 25, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "0 for the end-to-end metrics, 1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// The simulation is sequential; a second P runs the GC beside it.
	// More Ps than that only add scheduler noise between machines.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	window := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = runTraced(w, *seed, window, stdout)
	} else {
		res = runEndToEnd(w, *seed, window, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd is the untraced invocation: one warm-up run, then
// measured runs until the window closes, each after a few timed
// set-ups.
func runEndToEnd(w *workload, seed int64, window time.Duration, stdout io.Writer) result {
	hw := newHeapWatch()
	defer hw.stop()
	g := newGate(w, seed)
	g.observe(w.run(seed)) // warm-up, of the set-up code too

	var samples []runSample
	var setups []float64
	for deadline := time.Now().Add(window); time.Now().Before(deadline); {
		setups = append(setups, timeSetups(w, seed, nil, setupsPerRun)...)
		runtime.GC()
		s, o, err := measureRun(hw, func() (outcome, error) { return w.run(seed) })
		if g.observe(o, err) {
			samples = append(samples, s)
		}
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d gomaxprocs=%d: %d measured runs, digest %s\n",
		w.name, seed, runtime.GOMAXPROCS(0), len(samples), g.first)
	res := g.result(stdout)
	if len(samples) == 0 {
		return res
	}
	wall := column(samples, func(s runSample) float64 { return s.wall })
	cpu := column(samples, func(s runSample) float64 { return s.cpu })
	vals := map[string]float64{
		"run_s":             median(wall),
		"cpu_s":             median(cpu),
		"allocs_per_event":  median(column(samples, allocsPerEvent)),
		"bytes_per_event":   median(column(samples, func(s runSample) float64 { return float64(s.bytes) / float64(s.events) })),
		"peak_live_heap_mb": median(column(samples, func(s runSample) float64 { return float64(s.peakLive) / 1e6 })),
		"setup_s":           median(setups),
	}
	printRange := func(name string, xs []float64) {
		lo, hi := minMax(xs)
		fmt.Fprintf(stdout, "  %-18s median %.4f s, min %.4f, max %.4f over %d runs\n", name, vals[name], lo, hi, len(xs))
	}
	printRange("run_s", wall)
	printRange("cpu_s", cpu)
	fmt.Fprintf(stdout, "  failed_runs        %d of %d runs (share %g)\n", g.failed, g.attempted, float64(g.failed)/float64(g.attempted))
	res.Metrics = fill(endToEnd, vals)
	printMetrics(stdout, endToEnd, res.Metrics)
	return res
}

func allocsPerEvent(s runSample) float64 { return float64(s.allocs) / float64(s.events) }

// timeSetups times n set-ups of the workload and returns them in
// seconds. Each set-up starts from a collected heap with the collector
// paused: whether a GC cycle would fall inside a set-up of a few
// milliseconds depends on the heap the benchmark left behind, not on
// the set-up, and made the reading bimodal. The allocations themselves
// are still timed.
func timeSetups(w *workload, seed int64, tr *spanRecorder, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		sp := tr.begin("setup")
		t0 := time.Now()
		m := w.setup(seed)
		xs[i] = time.Since(t0).Seconds()
		tr.end(sp)
		debug.SetGCPercent(gcPercent)
		m.Shutdown()
	}
	return xs
}

// variant is one configuration the traced invocation alternates
// between: the profiled run, the same run untraced (the base of the
// tracing overhead), and for kv-ship-observed the run with the
// program's observers off.
type variant struct {
	name     string
	run      func(seed int64) (outcome, error)
	gate     *gate
	profiled bool
	samples  []runSample
}

// runTraced is the traced invocation: set-up and the isolated layer
// probes under spans, then the workload's runs with a CPU profile,
// alternated with untraced runs so the difference is the tracing
// overhead. Spans and profiles are written to traceDir when it ends.
func runTraced(w *workload, seed int64, window time.Duration, stdout io.Writer) (result, error) {
	tr := newSpanRecorder()
	hw := newHeapWatch()
	defer hw.stop()
	root := tr.begin("perfbench " + w.name)
	g := newGate(w, seed)
	timeSetups(w, seed, tr, setupsPerRun)
	sp := tr.begin("warmup")
	g.observe(w.run(seed))
	tr.end(sp)

	vals, err := layerCosts(w, seed, tr)
	if err != nil {
		return result{}, err
	}

	// Two profiled runs per round against one of each other variant:
	// the profile needs the samples, the medians only a few runs.
	prof := &variant{name: "traced", run: w.run, gate: g, profiled: true}
	base := &variant{name: "untraced", run: w.run, gate: g}
	variants := []*variant{prof, base, prof}
	var obsOff *variant
	if w.observersOff != nil {
		obsOff = &variant{name: "observers-off", run: w.observersOff.run, gate: newGate(w.observersOff, seed)}
		variants = append(variants, obsOff)
	}
	var (
		profiles [][]byte
		peakG    uint64
		last     outcome
	)
	deadline := time.Now().Add(window)
	for round := 0; time.Now().Before(deadline); round++ {
		for i := range variants {
			v := variants[i]
			if round%2 == 1 {
				v = variants[len(variants)-1-i] // alternate the order between rounds
			}
			runtime.GC()
			var buf bytes.Buffer
			var gs *goroutineSampler
			if v.profiled {
				if err := pprof.StartCPUProfile(&buf); err != nil {
					return result{}, err
				}
				gs = startGoroutineSampler()
			}
			sp := tr.begin("run " + v.name)
			s, o, runErr := measureRun(hw, func() (outcome, error) { return v.run(seed) })
			tr.end(sp)
			if v.profiled {
				peakG = max(peakG, gs.stop())
				pprof.StopCPUProfile()
				profiles = append(profiles, buf.Bytes())
			}
			sp = tr.begin("check " + v.name)
			ok := v.gate.observe(o, runErr)
			if ok && v == obsOff && last.SLO != nil && o.SLO.Digest() != last.SLO.Digest() {
				v.gate.fail(fmt.Errorf("%s: SLO digest with observers off differs from observers on:\n  off %s\n   on %s",
					w.name, o.SLO.Digest(), last.SLO.Digest()))
				ok = false
			}
			tr.end(sp)
			if ok {
				v.samples = append(v.samples, s)
				if v != obsOff {
					last = o
				}
			}
		}
	}
	tr.end(root)

	fmt.Fprintf(stdout, "perfbench %s seed=%d gomaxprocs=%d traced: %d profiled, %d untraced runs, digest %s\n",
		w.name, seed, runtime.GOMAXPROCS(0), len(prof.samples), len(base.samples), g.first)
	res := g.result(stdout)
	if obsOff != nil {
		off := obsOff.gate.result(stdout)
		res.Attempted += off.Attempted
		res.Failed += off.Failed
		res.Correct = res.Correct && off.Correct
	}
	if len(prof.samples) == 0 || len(base.samples) == 0 || (obsOff != nil && len(obsOff.samples) == 0) {
		res.Correct = false
		return res, writeTrace(tr, profiles, w.name, seed)
	}

	attr := newCPUAttribution()
	for _, p := range profiles {
		stacks, err := decodeCPUProfile(p)
		if err != nil {
			return result{}, err
		}
		attr.add(stacks)
	}
	for _, l := range layerNames {
		vals[l+".cpu_share"] = attr.layerShare(l)
	}
	for _, c := range goClassPrefixes {
		vals["go."+c.class+"_share"] = attr.goShare(c.class)
	}

	r := last.Report
	baseRun := median(column(base.samples, func(s runSample) float64 { return s.wall }))
	vals["sim.events"] = float64(r.EventsRun)
	vals["sim.ns_per_event"] = baseRun / float64(r.EventsRun) * 1e9
	vals["sim.peak_goroutines"] = float64(peakG)
	vals["fabric.packets"] = float64(last.Fabric.MsgsSent)
	vals["fabric.bytes"] = float64(last.Fabric.BytesSent)
	vals["fabric.handler_runs"] = float64(last.Fabric.HandlerRuns)
	vals["fabric.msgs_coalesced"] = float64(last.Fabric.MsgsCoalesced)
	vals["fabric.flushes"] = float64(last.Fabric.Flushes)
	vals["core.finish_blocks"] = float64(r.FinishBlocks)
	vals["core.reduce_rounds"] = float64(r.ReduceRounds)
	vals["caf.spawns"] = float64(r.SpawnsSent)
	vals["caf.copies"] = float64(r.Copies)
	// Layers a workload does not use report 0: load on the two
	// non-service workloads, the observer comparison outside
	// kv-ship-observed.
	vals["load.requests"] = 0
	if last.SLO != nil {
		vals["load.requests"] = float64(last.SLO.Requests)
	}
	vals["path.mismatches"] = float64(last.PathMismatches)
	vals["trace.dropped"] = float64(last.TraceDropped)
	vals["go.gc_cycles"] = median(column(base.samples, func(s runSample) float64 { return float64(s.gcCycles) }))
	vals["go.gc_cpu_frac"] = median(column(base.samples, func(s runSample) float64 { return s.gcCPU / s.allCPU }))
	profRun := median(column(prof.samples, func(s runSample) float64 { return s.wall }))
	vals["bench.trace_overhead"] = profRun/baseRun - 1
	vals["bench.base_run_s"] = baseRun
	for _, k := range []string{"observers.overhead", "observers.base_run_s", "observers.allocs_per_event_delta", "observers.base_allocs_per_event"} {
		vals[k] = 0
	}
	if obsOff != nil {
		offRun := median(column(obsOff.samples, func(s runSample) float64 { return s.wall }))
		offAllocs := median(column(obsOff.samples, allocsPerEvent))
		vals["observers.overhead"] = baseRun/offRun - 1
		vals["observers.base_run_s"] = offRun
		vals["observers.allocs_per_event_delta"] = median(column(base.samples, allocsPerEvent)) - offAllocs
		vals["observers.base_allocs_per_event"] = offAllocs
	}
	fmt.Fprintf(stdout, "  profile: %d samples in %d profiles\n", attr.total, len(profiles))
	res.Metrics = fill(perLayer, vals)
	printMetrics(stdout, perLayer, res.Metrics)
	return res, writeTrace(tr, profiles, w.name, seed)
}

// traceDir is where the traced invocation writes its output, inside
// the directory the benchmark runs in.
var traceDir = filepath.Join(".bench_build", "trace")

// writeTrace stores the spans and every CPU profile of the traced runs.
// The profiles open with `go tool pprof`, which merges several given
// together.
func writeTrace(tr *spanRecorder, profiles [][]byte, name string, seed int64) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := tr.write(stem + ".spans.json"); err != nil {
		return err
	}
	stale, err := filepath.Glob(stem + ".cpu*.pb.gz")
	if err != nil {
		return err
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	for i, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pb.gz", stem, i), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fill builds the metrics object from computed values. Every listed
// metric must have been computed, and as a finite number.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("perfbench: metric %s not computed (%v)", d.name, v))
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}
