package caf_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	caf "caf2go"
)

// spawnStorm has every image ship short functions to every image inside
// a finish, so a run starts and retires many procs.
func spawnStorm(img *caf.Image) {
	img.Finish(nil, func() {
		for i := 0; i < 16; i++ {
			img.Spawn((img.Rank()+i)%img.NumImages(), func(s *caf.Image) {
				s.Compute(caf.Microsecond)
			})
		}
	})
}

// goroutinesBack waits briefly for the goroutine count to fall back to
// n and returns the last count seen.
func goroutinesBack(n int) int {
	got := runtime.NumGoroutine()
	for i := 0; i < 100 && got > n; i++ {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// TestRunsLeaveNoGoroutines: finished machines keep no goroutines, and
// neither does one abandoned mid-flight once it is shut down. Procs run
// on pooled coroutines, so this pins that the idle ones are stopped.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := caf.Run(caf.Config{Images: 8, Seed: seed}, spawnStorm); err != nil {
			t.Fatal(err)
		}
	}
	if got := goroutinesBack(before); got > before {
		t.Fatalf("%d goroutines after three runs, %d before", got, before)
	}
	m := caf.NewMachine(caf.Config{Images: 8, Seed: 4})
	m.Launch(func(img *caf.Image) {
		spawnStorm(img)
		img.Compute(caf.Millisecond)
	})
	if err := m.Engine().RunUntil(5 * caf.Microsecond); err != nil {
		t.Fatal(err)
	}
	if m.Engine().LiveProcs() == 0 {
		t.Fatal("machine finished before it could be abandoned")
	}
	m.Shutdown()
	if got := goroutinesBack(before); got > before {
		t.Fatalf("%d goroutines after an abandoned machine's Shutdown, %d before", got, before)
	}
}

// TestSpawnRunsAfterAbortedSpawn: a shipped function that ends in a
// failure abort (it locks on a dead image) frees its proc's coroutine;
// the functions shipped after it run normally.
func TestSpawnRunsAfterAbortedSpawn(t *testing.T) {
	ran := 0
	_, err := caf.Run(crashCfg(3, 5), func(img *caf.Image) {
		if img.Rank() != 2 {
			img.Compute(caf.Millisecond)
			return
		}
		img.Compute(50 * caf.Microsecond) // past rank 1's declaration
		img.Spawn(2, func(s *caf.Image) {
			s.Lock(1, 0)
			t.Error("Lock on a dead host was granted")
		})
		img.Compute(20 * caf.Microsecond)
		for i := 0; i < 3; i++ {
			img.Spawn(2, func(s *caf.Image) {
				s.Compute(caf.Microsecond)
				ran++
			})
			img.Compute(10 * caf.Microsecond)
		}
	})
	wantImageFailed(t, err, 1)
	if ran != 3 {
		t.Fatalf("%d of 3 functions shipped after the aborted one ran", ran)
	}
}

// TestDeadlockErrorText pins the deadlock report byte for byte: proc
// names are joined only when the report is built, and ids count every
// proc the engine created, finished ones included.
func TestDeadlockErrorText(t *testing.T) {
	_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		if img.Rank() == 1 {
			img.Spawn(0, func(s *caf.Image) { s.Compute(caf.Microsecond) })
			img.Spawn(0, func(s *caf.Image) { s.EventWait(s.NewEvent()) })
			return
		}
		img.EventWait(img.NewEvent())
	})
	var dl *caf.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := "caf: deadlock at 3.632us: 2 blocked proc(s)\n" +
		"  image 0: img0/main#1[0] parked (event wait); img0/spawn#3[3] parked (event wait)"
	if err.Error() != want {
		t.Errorf("caf report:\n%s\nwant:\n%s", err, want)
	}
	wantSim := "sim: deadlock at 3.632us: 2 blocked proc(s): " +
		"img0/main#1[0] parked (event wait), img0/spawn#3[3] parked (event wait)"
	if dl.Sim.Error() != wantSim {
		t.Errorf("sim report:\n%s\nwant:\n%s", dl.Sim, wantSim)
	}
}
