package core

import (
	"testing"
	"testing/quick"

	"caf2go/internal/sim"
)

func TestPassesTruthTable(t *testing.T) {
	cases := []struct {
		class OpClass
		allow Allow
		want  bool
	}{
		{OpReads, AllowNone, false},
		{OpWrites, AllowNone, false},
		{OpReads | OpWrites, AllowNone, false},
		{OpReads, AllowRead, true},
		{OpWrites, AllowRead, false},
		{OpReads | OpWrites, AllowRead, false}, // §III-B: mixed op can't cross a single-class fence
		{OpReads, AllowWrite, false},
		{OpWrites, AllowWrite, true},
		{OpReads | OpWrites, AllowWrite, false},
		{OpReads, AllowAny, true},
		{OpWrites, AllowAny, true},
		{OpReads | OpWrites, AllowAny, true},
		{0, AllowNone, true}, // op touching no local data crosses anything
	}
	for _, c := range cases {
		if got := passes(c.class, c.allow); got != c.want {
			t.Errorf("passes(%v, %v) = %v, want %v", c.class, c.allow, got, c.want)
		}
	}
}

func TestClassAndAllowStrings(t *testing.T) {
	if OpReads.String() != "read" || OpWrites.String() != "write" ||
		(OpReads|OpWrites).String() != "read|write" || OpClass(0).String() != "none" {
		t.Error("OpClass strings wrong")
	}
	if AllowNone.String() != "none" || AllowAny.String() != "any" ||
		AllowRead.String() != "read" || AllowWrite.String() != "write" {
		t.Error("Allow strings wrong")
	}
}

func TestCofenceBlocksUntilLocalData(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	var doneAt sim.Time
	var op *PendingOp
	eng.Go("main", func(p *sim.Proc) {
		op = ct.Register(OpReads, InitFunc(func() {}))
		ct.Cofence(p, AllowNone, AllowNone)
		doneAt = p.Now()
	})
	eng.At(50*sim.Microsecond, func() { op.CompleteLocalData() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 50*sim.Microsecond {
		t.Errorf("cofence returned at %v, want 50us", doneAt)
	}
	if ct.Pending() != 0 {
		t.Errorf("pending = %d after completion", ct.Pending())
	}
}

func TestCofenceDownwardLetsClassPass(t *testing.T) {
	// cofence(DOWNWARD=WRITE): a pending op that only writes local data
	// may complete after the fence — the fence must not wait for it.
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	var fenceAt sim.Time
	eng.Go("main", func(p *sim.Proc) {
		readOp := ct.Register(OpReads, InitFunc(func() {}))
		ct.Register(OpWrites, InitFunc(func() {})) // never completed in this test
		eng.At(10*sim.Microsecond, func() { readOp.CompleteLocalData() })
		ct.Cofence(p, AllowWrite, AllowNone)
		fenceAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fenceAt != 10*sim.Microsecond {
		t.Errorf("fence at %v: should wait only for the read op", fenceAt)
	}
	if ct.Pending() != 1 {
		t.Errorf("pending = %d, the write op should survive the fence", ct.Pending())
	}
}

func TestCofenceMixedOpBlockedBySingleClassFence(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	var fenceAt sim.Time
	eng.Go("main", func(p *sim.Proc) {
		mixed := ct.Register(OpReads|OpWrites, InitFunc(func() {}))
		eng.At(30*sim.Microsecond, func() { mixed.CompleteLocalData() })
		ct.Cofence(p, AllowRead, AllowNone) // read-only passage: mixed op must block
		fenceAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fenceAt != 30*sim.Microsecond {
		t.Errorf("fence at %v, want 30us (mixed op must not pass)", fenceAt)
	}
}

func TestCofenceAllowAnyIsNoop(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	returned := false
	eng.Go("main", func(p *sim.Proc) {
		ct.Register(OpReads, InitFunc(func() {}))
		ct.Register(OpWrites, InitFunc(func() {}))
		ct.Cofence(p, AllowAny, AllowAny)
		returned = true
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("cofence(ANY, ANY) blocked")
	}
}

func TestEagerModeInitiatesImmediately(t *testing.T) {
	ct := NewCofenceTracker(false, 0)
	ran := false
	ct.Register(OpReads, InitFunc(func() { ran = true }))
	if !ran {
		t.Fatal("eager mode did not initiate")
	}
	if ct.Delayed() != 0 {
		t.Fatal("eager mode buffered")
	}
}

func TestRelaxedModeBuffersAndFlushes(t *testing.T) {
	ct := NewCofenceTracker(true, 8)
	order := []int{}
	for i := 0; i < 3; i++ {
		i := i
		ct.Register(OpReads, InitFunc(func() { order = append(order, i) }))
	}
	if len(order) != 0 || ct.Delayed() != 3 {
		t.Fatalf("relaxed mode initiated early: order=%v delayed=%d", order, ct.Delayed())
	}
	ct.Flush()
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("flush order = %v, want FIFO", order)
	}
}

func TestRelaxedModeCapTriggersFlush(t *testing.T) {
	ct := NewCofenceTracker(true, 2)
	count := 0
	for i := 0; i < 5; i++ {
		ct.Register(OpWrites, InitFunc(func() { count++ }))
	}
	// Cap is 2: pushing a 3rd buffers then flushes all; by op 5 at least
	// the first batch has initiated.
	if count == 0 {
		t.Fatal("cap never triggered a flush")
	}
	ct.Flush()
	if count != 5 {
		t.Fatalf("after flush count = %d, want 5", count)
	}
}

func TestCofenceFlushRespectsDownwardClass(t *testing.T) {
	// A fence letting WRITE pass must leave buffered write-initiations
	// deferred but force read-initiations.
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(true, 10)
	readStarted, writeStarted := false, false
	eng.Go("main", func(p *sim.Proc) {
		rop := ct.Register(OpReads, InitFunc(func() {
			readStarted = true
		}))
		ct.Register(OpWrites, InitFunc(func() { writeStarted = true }))
		// Complete the read op as soon as it initiates so the fence can
		// retire.
		eng.At(1, func() {
			if readStarted {
				rop.CompleteLocalData()
			}
		})
		ct.Cofence(p, AllowWrite, AllowNone)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !readStarted {
		t.Error("read op not initiated by fence")
	}
	if writeStarted {
		t.Error("write op initiated although it may defer past the fence")
	}
	if ct.Delayed() != 1 {
		t.Errorf("delayed = %d, want 1", ct.Delayed())
	}
}

func TestCompleteLocalDataIdempotent(t *testing.T) {
	ct := NewCofenceTracker(false, 0)
	op := ct.Register(OpReads, InitFunc(func() {}))
	op.CompleteLocalData()
	op.CompleteLocalData() // must not panic or corrupt
	if ct.Pending() != 0 {
		t.Error("pending after double complete")
	}
	if !op.LocalDataDone() || op.Class() != OpReads {
		t.Error("op accessors wrong")
	}
}

func TestMultipleWaitersAllWake(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	op := ct.Register(OpWrites, InitFunc(func() {}))
	woke := 0
	for i := 0; i < 3; i++ {
		eng.Go("w", func(p *sim.Proc) {
			ct.Cofence(p, AllowNone, AllowNone)
			woke++
		})
	}
	eng.At(5, func() { op.CompleteLocalData() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Errorf("woke = %d, want 3", woke)
	}
}

// Property: a cofence with DOWNWARD=d waits for exactly the pending ops
// whose class does not pass d; afterwards only passing ops remain pending.
func TestPropertyCofenceFiltering(t *testing.T) {
	prop := func(classesRaw []uint8, dRaw uint8) bool {
		d := Allow(dRaw % 4)
		eng := sim.NewEngine(int64(dRaw))
		ct := NewCofenceTracker(false, 0)
		ok := true
		eng.Go("main", func(p *sim.Proc) {
			var mustWait []*PendingOp
			for _, c := range classesRaw {
				class := OpClass(c%3 + 1)
				op := ct.Register(class, InitFunc(func() {}))
				if !passes(class, d) {
					mustWait = append(mustWait, op)
				}
			}
			// Complete the must-wait ops at staggered times.
			for i, op := range mustWait {
				op := op
				eng.At(sim.Time(i+1)*10, func() { op.CompleteLocalData() })
			}
			start := p.Now()
			ct.Cofence(p, d, AllowNone)
			want := sim.Time(len(mustWait)) * 10
			if len(mustWait) == 0 {
				want = start
			}
			if p.Now() != want {
				ok = false
			}
			for _, op := range ct.pending {
				if !op.done && !passes(op.class, d) {
					ok = false
				}
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
