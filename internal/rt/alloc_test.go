package rt

import "testing"

// countDone counts completion stages; one value serves every send.
type countDone struct{ delivered int }

func (c *countDone) Injected()  {}
func (c *countDone) Delivered() { c.delivered++ }
func (c *countDone) Abandoned() {}

// TestSendAllocs is the runtime's allocation budget per message: a Send
// → dispatch → ack costs one allocation, the env that holds the fabric
// message, the receiver's Delivery and the sender's completion. That
// holds for an untracked message and for a tracked one whose tracker
// keeps its context (the finish plane's stamping is its own cost).
func TestSendAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under -race")
	}
	for _, tracked := range []bool{false, true} {
		eng, k := newTestKernel(2)
		tr := &countingTracker{}
		var track any
		if tracked {
			k.SetTracker(tr)
			track = tr // any pointer works as a context
		}
		handled := 0
		k.RegisterHandler(tagWork, func(d *Delivery) { handled++ })
		done := &countDone{}
		payload := &struct{ v int }{}
		send := func() {
			k.Image(0).Send(1, tagWork, payload, SendOpts{Track: track, Done: done, Bytes: 16})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 200
		got := testing.AllocsPerRun(runs, send)
		t.Logf("tracked=%v: %v allocs per message", tracked, got)
		if got > 1 {
			t.Errorf("tracked=%v: %v allocs per message, want 1 (the env)", tracked, got)
		}
		n := runs + 1
		if handled != n || done.delivered != n {
			t.Errorf("tracked=%v: handled %d, delivered %d, want %d", tracked, handled, done.delivered, n)
		}
		if tracked && (tr.sends != n || tr.recvs != n || tr.completes != n || tr.acks != n) {
			t.Errorf("tracker phases %+v, want %d each", *tr, n)
		}
	}
}
