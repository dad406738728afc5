package caf_test

import (
	"testing"

	caf "caf2go"
)

// allocsPerOp reports the allocations one operation adds to a whole
// simulated run: run(n) performs n operations, and the difference
// between two run lengths cancels the machine's own set-up cost.
func allocsPerOp(run func(n int)) float64 {
	const short, long = 20, 220
	a := testing.AllocsPerRun(3, func() { run(short) })
	b := testing.AllocsPerRun(3, func() { run(long) })
	return (b - a) / (long - short)
}

// TestCopyAsyncPutAllocs is the allocation budget of one CopyAsync put
// under Cofence: the copy's record (state, completion handle, delivery
// token, cofence registration), the source snapshot and the message's
// env: three allocations.
func TestCopyAsyncPutAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under -race")
	}
	run := func(n int) {
		_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
			ca := caf.NewCoarray[float64](img, nil, 8)
			if img.Rank() == 0 {
				for i := 0; i < n; i++ {
					caf.CopyAsync(img, ca.Sec(1, 0, 8), ca.Sec(0, 0, 8))
					img.Cofence(caf.AllowNone, caf.AllowNone)
					// Let the ack return: the budget is one copy's steady
					// cost, not a growing backlog of sends.
					img.Compute(10 * caf.Microsecond)
				}
			}
			img.Barrier(nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := allocsPerOp(run)
	t.Logf("%.2f allocs per CopyAsync put + Cofence", got)
	if got > 3.05 {
		t.Errorf("CopyAsync put under Cofence: %.2f allocs, budget 3", got)
	}
}

// TestBarrierAllocs is the allocation budget of one 64-image Barrier,
// per image: the instance (with its handle embedded) plus, per tree
// message, its payload and its env: 4.94 allocations.
func TestBarrierAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under -race")
	}
	const images = 64
	run := func(n int) {
		_, err := caf.Run(caf.Config{Images: images, Seed: 1}, func(img *caf.Image) {
			for i := 0; i < n; i++ {
				img.Barrier(nil)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := allocsPerOp(run) / images
	t.Logf("%.2f allocs per image per Barrier", got)
	if got > 5.0 {
		t.Errorf("64-image Barrier: %.2f allocs per image, budget 5.0", got)
	}
}
