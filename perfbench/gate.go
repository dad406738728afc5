package main

import (
	"fmt"
	"io"
)

// pinnedSeed is the default --seed. Its digests are pinned below: a
// change that moves any simulated answer, event count or traffic figure
// of a workload at this seed fails the benchmark. Host-cost work must
// leave the simulation bit-identical.
const pinnedSeed = 1

var pinnedDigests = map[string]string{
	"ra-fs":            "f6fee5d59e7bb4ca",
	"stencil-cofence":  "53c28b9cb6f0638d",
	"kv-locks":         "990c3a2a691503c9",
	"kv-ship-observed": "963144f813683b17",
}

// gate is the output check every run of an invocation passes through:
// the workload's own check, then the digest, which must be identical
// across every run of the invocation and, at pinnedSeed, equal the
// pinned one.
type gate struct {
	w         *workload
	seed      int64
	first     string
	attempted int
	failed    int
	errs      []error
}

func newGate(w *workload, seed int64) *gate { return &gate{w: w, seed: seed} }

// observe checks one run and reports whether it passed. A failed run is
// counted and its error kept for the report.
func (g *gate) observe(o outcome, runErr error) bool {
	g.attempted++
	err := g.verify(o, runErr)
	if err != nil {
		g.failed++
		g.errs = append(g.errs, err)
	}
	return err == nil
}

func (g *gate) verify(o outcome, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("%s: run failed: %w", g.w.name, runErr)
	}
	if err := g.w.check(o); err != nil {
		return err
	}
	d := o.digest()
	if g.first == "" {
		g.first = d
	} else if d != g.first {
		return fmt.Errorf("%s: digest %s differs from this invocation's first run %s", g.w.name, d, g.first)
	}
	if want, ok := pinnedDigests[g.w.name]; ok && g.seed == pinnedSeed && d != want {
		return fmt.Errorf("%s: digest %s at seed %d, pinned %s", g.w.name, d, g.seed, want)
	}
	return nil
}

// fail marks a run that observe passed as failed by a later check.
func (g *gate) fail(err error) {
	g.failed++
	g.errs = append(g.errs, err)
}

// result reports the invocation's run counts, and prints every failure.
func (g *gate) result(w io.Writer) result {
	for _, err := range g.errs {
		fmt.Fprintln(w, "  FAILED:", err)
	}
	return result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed}
}
