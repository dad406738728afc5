package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/load"
	"caf2go/internal/prof"
	"caf2go/internal/ra"
)

// A workload is one simulated program whose host cost the benchmark
// measures. Every workload runs through the library's own entry points
// (ra.RunCapture, workloads.Stencil, workloads.KVService); the benchmark
// only chooses the inputs and checks the simulated answer.
type workload struct {
	name   string
	images int
	// usesLoad marks the service workloads driven by internal/load.
	usesLoad bool
	// setup builds the workload's inputs and a launched machine, up to
	// the first simulated event. The caller shuts the machine down.
	setup func(seed int64) *caf.Machine
	// run executes one whole simulation.
	run func(seed int64) (outcome, error)
	// check validates the simulated answer of one run beyond the
	// cross-run digest comparison.
	check func(o outcome) error
	// observersOff is the same workload with the program's observers
	// off; the traced invocation measures the observers' cost against it.
	observersOff *workload
}

// outcome is what one workload run produced: the machine report, the
// workload's answer digest, and the layer counters read after the run.
type outcome struct {
	Report caf.Report
	Check  string
	Fabric caf.FabricStats
	// SLO is the service report (nil for the non-service workloads).
	SLO *load.SLO
	// PathMismatches counts traced requests whose latency buckets do not
	// sum to their latency; TraceDropped counts trace records dropped at
	// capacity. Both must be 0.
	PathMismatches int
	TraceDropped   int
	// machine keeps the finished machine reachable until the caller has
	// measured the live heap it retains.
	machine *caf.Machine
}

// digest fingerprints everything a run must reproduce exactly: the
// whole Report (virtual time, traffic, finish rounds, event count,
// metrics snapshot) and the workload's answer.
func (o outcome) digest() string {
	b, err := json.Marshal(o.Report)
	if err != nil {
		panic(err) // Report holds only plain data
	}
	h := sha256.New()
	h.Write(b)
	h.Write([]byte("\n" + o.Check))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Workload sizes. Each was sized so one run takes roughly a second of
// host time on a 2-vCPU machine, enough for a stable per-run reading.
const (
	raImages       = 64
	raTableBits    = 8
	raBunch        = 256
	stencilImages  = 64
	stencilBlock   = 64
	stencilIters   = 800
	kvImages       = 16
	kvServers      = kvImages / 2
	kvRequests     = 20_000
	kvRate         = 600_000
	kvWriteFrac    = 0.3
	kvKeys         = 16 * kvServers
	kvTraceRecords = 4_000_000
)

var kvStart = 20 * caf.Microsecond

// kvCoalescing is kv-ship-observed's aggregation setting: 16 messages,
// 4 KiB or 10µs, whichever comes first.
var kvCoalescing = caf.Coalescing{MaxMsgs: 16, MaxBytes: 4096, FlushAfter: 10 * caf.Microsecond}

var allWorkloads = []*workload{
	{
		name:   "ra-fs",
		images: raImages,
		setup: func(seed int64) *caf.Machine {
			return launchIdle(raMachineConfig(seed))
		},
		run:   runRA,
		check: checkRA,
	},
	{
		name:   "stencil-cofence",
		images: stencilImages,
		setup: func(seed int64) *caf.Machine {
			return launchIdle(caf.Config{Images: stencilImages, Seed: seed})
		},
		run:   runStencil,
		check: checkStencil,
	},
	{
		name:     "kv-locks",
		images:   kvImages,
		usesLoad: true,
		setup:    func(seed int64) *caf.Machine { return setupKV(seed, false, false) },
		run:      func(seed int64) (outcome, error) { return runKV(seed, false, false) },
		check:    checkKV,
	},
	{
		name:     "kv-ship-observed",
		images:   kvImages,
		usesLoad: true,
		setup:    func(seed int64) *caf.Machine { return setupKV(seed, true, true) },
		run:      func(seed int64) (outcome, error) { return runKV(seed, true, true) },
		check:    checkKV,
		observersOff: &workload{
			name:     "kv-ship-observed/observers-off",
			images:   kvImages,
			usesLoad: true,
			run:      func(seed int64) (outcome, error) { return runKV(seed, true, false) },
			check:    checkKV,
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// launchIdle is the machine half of a workload's set-up: NewMachine and
// Launch at the workload's size. Launch creates every image's main proc;
// the program body does not matter because no event runs before the
// caller shuts the machine down.
func launchIdle(cfg caf.Config) *caf.Machine {
	m := caf.NewMachine(cfg)
	m.Launch(func(*caf.Image) {})
	return m
}

// raMachineConfig is the Fig. 14 cost model: the default fabric plus a
// 2µs flow-control penalty on credit-stalled injections.
func raMachineConfig(seed int64) caf.Config {
	fab := caf.DefaultFabric()
	fab.StallPenalty = 2 * caf.Microsecond
	return caf.Config{Images: raImages, Seed: seed, Fabric: fab}
}

func runRA(seed int64) (outcome, error) {
	cfg := ra.DefaultConfig(ra.FunctionShipping)
	cfg.LocalTableBits = raTableBits
	cfg.BunchSize = raBunch
	var m *caf.Machine
	res, err := ra.RunCapture(raMachineConfig(seed), cfg, &m)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		Report: res.Report,
		Check: fmt.Sprintf("ra-fs updates=%d finishes=%d time=%d errors=%d",
			res.Updates, res.Finishes, res.Time, res.Errors),
		Fabric:  m.FabricStats(),
		machine: m,
	}, nil
}

func checkRA(o outcome) error {
	if !strings.HasPrefix(o.Check, fmt.Sprintf("ra-fs updates=%d ", raImages*4<<raTableBits)) {
		return fmt.Errorf("ra-fs: unexpected update count in %q", o.Check)
	}
	if !strings.HasSuffix(o.Check, " errors=0") {
		return fmt.Errorf("ra-fs: table errors in %q", o.Check)
	}
	return nil
}

func runStencil(seed int64) (outcome, error) {
	var m *caf.Machine
	res, err := workloads.Stencil(caf.Config{Images: stencilImages, Seed: seed},
		stencilBlock, stencilIters, true, workloads.CaptureMachine(&m))
	if err != nil {
		return outcome{}, err
	}
	return outcome{Report: res.Report, Check: res.Check, Fabric: m.FabricStats(), machine: m}, nil
}

// stencilWant is the checksum a sequential Jacobi sweep over the same
// periodic domain produces, with the same per-image summation.
var stencilWant = stencilReference(stencilImages, stencilBlock, stencilIters)

func checkStencil(o outcome) error {
	if o.Check != stencilWant {
		return fmt.Errorf("stencil-cofence: got %q, sequential reference %q", o.Check, stencilWant)
	}
	return nil
}

// stencilReference recomputes workloads.Stencil's answer sequentially:
// images×block cells on a ring, cell k of image r starting at r*block+k,
// each sweep n[i] = 0.5*c[i] + 0.25*(c[i-1]+c[i+1]).
func stencilReference(images, block, iters int) string {
	n := images * block
	cur := make([]float64, n)
	next := make([]float64, n)
	for k := range cur {
		cur[k] = float64(k + 1)
	}
	for it := 0; it < iters; it++ {
		for k := range cur {
			next[k] = 0.5*cur[k] + 0.25*(cur[(k+n-1)%n]+cur[(k+1)%n])
		}
		cur, next = next, cur
	}
	var total int64
	for r := 0; r < images; r++ {
		sum := 0.0
		for _, v := range cur[r*block : (r+1)*block] {
			sum += v
		}
		total += int64(sum * 1000)
	}
	return fmt.Sprintf("checksum=%.3f", float64(total)/1000)
}

// kvConfig is the shared KV service set-up. shipping selects function
// shipping with coalescing; observers turns on the program's own
// observers (path tracing, metrics registry, execution trace) with a
// trace capacity large enough that nothing is dropped.
func kvConfig(seed int64, shipping, observers bool) (caf.Config, workloads.ServiceOpts) {
	cfg := caf.Config{Images: kvImages, Seed: seed}
	if shipping {
		cfg.Coalescing = kvCoalescing
	}
	if observers {
		cfg.PathTracing = true
		cfg.Metrics = true
		cfg.TraceCapacity = kvTraceRecords
	}
	return cfg, workloads.ServiceOpts{
		Servers:   kvServers,
		Requests:  kvRequests,
		Rate:      kvRate,
		Keys:      kvKeys,
		WriteFrac: kvWriteFrac,
		Shipping:  shipping,
		Start:     kvStart,
	}
}

// kvSchedule is the input generation KVService performs for the same
// options: one Poisson arrival schedule over the client images.
func kvSchedule(seed int64) []load.Request {
	return load.Schedule(load.ArrivalConfig{
		Kind:      load.Poisson,
		Seed:      seed,
		Clients:   kvImages - kvServers,
		Requests:  kvRequests,
		Rate:      kvRate,
		Keys:      kvKeys,
		WriteFrac: kvWriteFrac,
		Start:     kvStart,
	})
}

func setupKV(seed int64, shipping, observers bool) *caf.Machine {
	cfg, _ := kvConfig(seed, shipping, observers)
	if sched := kvSchedule(seed); len(sched) != kvRequests {
		panic(fmt.Sprintf("kv: schedule has %d requests, want %d", len(sched), kvRequests))
	}
	return launchIdle(cfg)
}

func runKV(seed int64, shipping, observers bool) (outcome, error) {
	cfg, opts := kvConfig(seed, shipping, observers)
	var slo load.SLO
	var m *caf.Machine
	opts.SLOOut = &slo
	res, err := workloads.KVService(cfg, opts, workloads.CaptureMachine(&m))
	if err != nil {
		return outcome{}, err
	}
	o := outcome{Report: res.Report, Check: res.Check, Fabric: m.FabricStats(), SLO: &slo, machine: m}
	for _, n := range res.Report.TraceDropped {
		o.TraceDropped += n
	}
	if observers {
		o.PathMismatches = len(prof.PathMismatches(m.Profile()))
	}
	return o, nil
}

func checkKV(o outcome) error {
	if o.SLO == nil {
		return errors.New("kv: no SLO report")
	}
	if o.SLO.Requests != kvRequests || o.SLO.Completed != kvRequests || o.SLO.Failed != 0 {
		return fmt.Errorf("kv: %d of %d requests completed, %d failed",
			o.SLO.Completed, o.SLO.Requests, o.SLO.Failed)
	}
	if o.PathMismatches != 0 {
		return fmt.Errorf("kv: %d requests' latency buckets do not sum to their latency", o.PathMismatches)
	}
	if o.TraceDropped != 0 {
		return fmt.Errorf("kv: %d trace records dropped at capacity", o.TraceDropped)
	}
	return nil
}
