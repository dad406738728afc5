package fabric

import "testing"

// countDone counts completion stages; one value serves every send, so
// registering it allocates nothing.
type countDone struct{ injected, delivered, abandoned int }

func (c *countDone) Injected()  { c.injected++ }
func (c *countDone) Delivered() { c.delivered++ }
func (c *countDone) Abandoned() { c.abandoned++ }

// TestSendAllocs is the idealized transport's allocation budget: one
// send → deliver → ack, with an injection notice, costs one allocation,
// the caller's Msg. The flight record that carries the message's stages
// comes off the fabric's free list once it is warm.
func TestSendAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under -race")
	}
	eng, f := newTestFabric(t, 2, DefaultConfig())
	handled := 0
	f.Endpoint(1).RegisterHandler(tagTest, func(*Endpoint, *Msg) { handled++ })
	src := f.Endpoint(0)
	done := &countDone{}
	send := func() {
		src.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 16},
			SendOpts{Done: done, NotifyInjected: true})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	got := testing.AllocsPerRun(runs, send)
	t.Logf("%v allocs per message", got)
	if got > 1 {
		t.Errorf("send → deliver → ack: %v allocs per message, want 1 (the Msg)", got)
	}
	if n := runs + 1; handled != n || done.injected != n || done.delivered != n || done.abandoned != 0 {
		t.Errorf("handled %d, injected/delivered/abandoned %d/%d/%d, want %d/%d/%d/0",
			handled, done.injected, done.delivered, done.abandoned, n, n, n)
	}
}
