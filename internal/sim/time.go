// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine multiplexes an arbitrary number of simulated processes
// (bodies on pooled runtime coroutines, see Proc) against a single virtual clock.
// Exactly one process or event callback executes at a time, and all
// scheduling ties are broken by insertion order, so a simulation run is a
// pure function of its inputs and seed. This is the substrate on which the
// caf2go virtual cluster, network fabric, and CAF 2.0 runtime are built.
package sim

import "fmt"

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever sorts after every reachable simulation instant.
const Forever Time = 1<<63 - 1

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}
