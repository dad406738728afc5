package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	caf "caf2go"
	"caf2go/internal/load"
)

func TestLayerOfChargesInnermostCafFrame(t *testing.T) {
	cases := []struct {
		frames []string
		layer  string
		class  string
	}{
		// Allocation inside the engine counts against sim, and as alloc.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "caf2go/internal/sim.(*Engine).GoAtOn", "caf2go/internal/rt.(*ImageKernel).Go"}, "sim", "alloc"},
		// An allocation that assists the GC is GC work.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "caf2go/internal/fabric.(*Endpoint).Send"}, "fabric", "gc"},
		// Channel hand-off charged to the proc that parks.
		{[]string{"runtime.futex", "runtime.chansend1", "caf2go/internal/sim.(*Proc).yieldToEngine", "caf2go.(*Image).Lock"}, "sim", "sched"},
		// Generic instantiations and closures resolve to their package.
		{[]string{"caf2go.Get[go.shape.int64]", "caf2go/examples/workloads.KVService.func1.2"}, "caf", ""},
		{[]string{"caf2go/internal/path.(*Tracker).Claim", "caf2go.(*Image).Spawn"}, "observers", ""},
		{[]string{"caf2go/internal/load.(*Collector).Done"}, "load", ""},
		{[]string{"caf2go/internal/ra.runFS.func1"}, "app", ""},
		{[]string{"caf2go/internal/team.(*Team).Size"}, "other", ""},
		// No caf2go frame at all: the Go runtime's own goroutines.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "go", "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "go", "sched"},
		// A runtime leaf below non-runtime code is classified only by
		// that leaf run: memmove is none of the three classes.
		{[]string{"runtime.memmove", "caf2go/internal/core.(*Plane).End", "runtime.mallocgc"}, "core", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.layer {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.layer)
		}
		if got := goClassOf(c.frames); got != c.class {
			t.Errorf("goClassOf(%v) = %q, want %q", c.frames, got, c.class)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	a := newCPUAttribution()
	a.add([]profStack{
		{frames: []string{"caf2go/internal/sim.(*Engine).RunUntil"}, weight: 3},
		{frames: []string{"runtime.gcBgMarkWorker"}, weight: 2},
		{frames: []string{"caf2go/internal/zzz.New"}, weight: 1},
		{frames: []string{"main.main"}, weight: 4},
	})
	sum := 0.0
	for _, l := range layerNames {
		sum += a.layerShare(l)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("layer shares sum to %v, want 1", sum)
	}
	if got := a.layerShare("go"); got != 0.6 {
		t.Errorf("go share %v, want 0.6", got)
	}
	if got := a.goShare("gc"); got != 0.2 {
		t.Errorf("gc share %v, want 0.2", got)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.weight
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.weight
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("%d of %d samples in spin; the decoder lost the stacks", inSpin, total)
	}
	if _, err := decodeCPUProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func testWorkload(check func(outcome) error) *workload {
	return &workload{name: "test", check: check}
}

func TestGateFailsDigestMismatch(t *testing.T) {
	g := newGate(testWorkload(func(outcome) error { return nil }), 7)
	a := outcome{Report: caf.Report{EventsRun: 10}, Check: "sum=1"}
	if !g.observe(a, nil) || !g.observe(a, nil) {
		t.Fatal("identical runs failed the gate")
	}
	b := a
	b.Report.EventsRun = 11 // same answer, different schedule
	if g.observe(b, nil) {
		t.Error("a run whose report differs passed the gate")
	}
	c := a
	c.Check = "sum=2"
	if g.observe(c, nil) {
		t.Error("a run whose answer differs passed the gate")
	}
	if g.observe(outcome{}, errors.New("deadlock")) {
		t.Error("a run that returned an error passed the gate")
	}
	if res := g.result(&bytes.Buffer{}); res.Correct || res.Attempted != 5 || res.Failed != 3 {
		t.Errorf("result %+v, want 3 of 5 failed", res)
	}
}

func TestGateChecksPinnedDigestAtDefaultSeed(t *testing.T) {
	w := testWorkload(func(outcome) error { return nil })
	w.name = "kv-locks"
	o := outcome{Check: "not the pinned answer"}
	if newGate(w, pinnedSeed).observe(o, nil) {
		t.Error("a run at the pinned seed with another digest passed")
	}
	if !newGate(w, pinnedSeed+1).observe(o, nil) {
		t.Error("the pinned digest was applied at another seed")
	}
}

func TestGateAppliesWorkloadCheck(t *testing.T) {
	if checkStencil(outcome{Check: "checksum=1.000"}) == nil {
		t.Error("a wrong stencil checksum passed")
	}
	if checkStencil(outcome{Check: stencilWant}) != nil {
		t.Error("the reference stencil checksum failed")
	}
	if checkRA(outcome{Check: "ra-fs updates=65536 finishes=4 time=1 errors=3"}) == nil {
		t.Error("an RA run with table errors passed")
	}
	slo := load.SLO{Requests: kvRequests, Completed: kvRequests - 1, Failed: 1}
	if checkKV(outcome{SLO: &slo}) == nil {
		t.Error("a KV run with a failed request passed")
	}
	slo.Completed, slo.Failed = kvRequests, 0
	if checkKV(outcome{SLO: &slo, PathMismatches: 1}) == nil {
		t.Error("a KV run with a path mismatch passed")
	}
	if checkKV(outcome{SLO: &slo}) != nil {
		t.Error("a healthy KV run failed")
	}
}

// TestMetricNames pins the metric lists to BENCHMARK.json: same names,
// same units, names of the allowed alphabet and each used once.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	compare := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newSpanRecorder()
	outer := r.begin("run")
	inner := r.begin("check")
	r.end(inner)
	r.end(outer)
	r.spans[outer].Start, r.spans[outer].End = 0, 100
	r.spans[inner].Start, r.spans[inner].End = 10, 40
	for _, st := range r.selfTimes() {
		if st.Name == "run" && st.Self != 70e-9 {
			t.Errorf("run self time %v s, want 70ns", st.Self)
		}
	}
	if r.spans[inner].Parent != outer {
		t.Errorf("check's parent %d, want %d", r.spans[inner].Parent, outer)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ra-fs", "--seconds", "0"},
		{"--workload", "ra-fs", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &bytes.Buffer{}); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// TestEndToEndRun runs one short untraced invocation and checks its
// result line.
func TestEndToEndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload for a few seconds")
	}
	var out bytes.Buffer
	if code := run([]string{"--workload", "kv-locks", "--seconds", "1"}, &out, os.Stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
}
