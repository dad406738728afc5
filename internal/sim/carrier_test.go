package sim

import (
	"errors"
	"testing"
)

// TestCarrierReusedAfterPanic: a body that panics leaves its carrier
// idle, and the next proc started before the queue drains runs on that
// same carrier as if nothing had happened.
func TestCarrierReusedAfterPanic(t *testing.T) {
	e := NewEngine(1)
	e.Go("bad", func(p *Proc) { panic("boom") })
	var got *carrier
	ran := false
	good := e.GoAt(10, "good", func(p *Proc) {
		got = p.c
		p.Sleep(5)
		ran = true
	})
	err := e.Run()
	if want := `sim: proc "bad" panicked: boom`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if len(e.idle) != 1 {
		t.Fatalf("idle carriers after the panic = %d, want 1", len(e.idle))
	}
	c := e.idle[0]
	e.procErr = nil // the caller has seen the error and goes on
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || got != c {
		t.Fatalf("good ran=%v on carrier %p, want the panicked proc's %p", ran, got, c)
	}
	if good.State() != "done" || e.LiveProcs() != 0 {
		t.Fatalf("good is %s with %d live procs", good.State(), e.LiveProcs())
	}
	if len(e.idle) != 0 {
		t.Errorf("drained run left %d idle carriers", len(e.idle))
	}
}

// TestCarrierReusedAfterAbort: a parked proc unwound the way Shutdown
// does it hands its carrier back, and a proc started afterwards runs
// its body normally on it.
func TestCarrierReusedAfterAbort(t *testing.T) {
	e := NewEngine(1)
	unwound := false
	stuck := e.Go("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park("never woken")
		t.Error("aborted proc resumed its body")
	})
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	c := stuck.c
	e.abort(stuck)
	if !unwound || stuck.State() != "done" {
		t.Fatalf("abort: unwound=%v state=%s", unwound, stuck.State())
	}
	if len(e.idle) != 1 || e.idle[0] != c {
		t.Fatalf("aborted proc's carrier not back in the pool: %v", e.idle)
	}
	var got *carrier
	sum := 0
	e.Go("next", func(p *Proc) {
		got = p.c
		for i := 1; i <= 3; i++ {
			p.Sleep(1)
			sum += i
		}
	})
	stuck.Unpark() // stale: must not disturb the carrier's new proc
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != c || sum != 6 {
		t.Fatalf("next ran on %p (want %p) with sum %d, want 6", got, c, sum)
	}
}

// TestLiveSetBoundedByLiveProcs creates 100k short procs, at most a few
// hundred alive at once. The live set must end empty, and its backing
// array must stay within a small multiple of the peak live count rather
// than grow with the total.
func TestLiveSetBoundedByLiveProcs(t *testing.T) {
	const total = 100_000
	e := NewEngine(1)
	peakLive, peakCap := 0, 0
	var last *Proc
	e.Go("driver", func(p *Proc) {
		for i := 0; i < total; i++ {
			last = e.Go("short", func(q *Proc) { q.Sleep(Time(i % 13)) })
			peakLive = max(peakLive, e.LiveProcs())
			peakCap = max(peakCap, cap(e.procs.procs))
			if i%32 == 31 {
				p.Sleep(1)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.procs.Live()); n != 0 || e.LiveProcs() != 0 {
		t.Fatalf("after the run: %d procs in the live set, %d live", n, e.LiveProcs())
	}
	if peakCap > 4*peakLive {
		t.Errorf("live set grew to %d slots for at most %d live procs", peakCap, peakLive)
	}
	if last.ID() != total {
		t.Errorf("last proc id = %d, want %d", last.ID(), total)
	}
}

// TestProcNameJoinedLazily pins the joined form of a numbered name.
func TestProcNameJoinedLazily(t *testing.T) {
	e := NewEngine(1)
	p := e.GoOn(0, ProcName{Prefix: "img3/", Base: "spawn", Seq: 12}, func(*Proc) {})
	q := e.Go("plain", func(*Proc) {})
	if p.Name() != "img3/spawn#12" || q.Name() != "plain" {
		t.Fatalf("names %q, %q", p.Name(), q.Name())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
