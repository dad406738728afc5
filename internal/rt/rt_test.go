package rt

import (
	"fmt"
	"testing"

	"caf2go/internal/fabric"
	"caf2go/internal/sim"
)

const (
	tagPing uint16 = 10
	tagEcho uint16 = 11
	tagWork uint16 = 12
)

func newTestKernel(n int) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine(1)
	return eng, NewKernel(eng, n, fabric.DefaultConfig())
}

func TestOneWaySend(t *testing.T) {
	eng, k := newTestKernel(2)
	var got any
	var onImg int
	k.RegisterHandler(tagPing, func(d *Delivery) {
		got = d.Payload
		onImg = d.Img.Rank()
		if d.Src != 0 {
			t.Errorf("src = %d", d.Src)
		}
		if d.CanReply() {
			t.Error("one-way send should not allow reply")
		}
	})
	k.Image(0).Send(1, tagPing, "payload", SendOpts{Class: fabric.AMMedium, Bytes: 16})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "payload" || onImg != 1 {
		t.Fatalf("got %v on image %d", got, onImg)
	}
}

func TestCallRoundTrip(t *testing.T) {
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagEcho, func(d *Delivery) {
		d.Reply(fmt.Sprintf("echo:%v", d.Payload), 8)
	})
	var reply any
	k.Image(0).Go("caller", func(p *sim.Proc) {
		reply = k.Image(0).Call(p, 1, tagEcho, "hi", SendOpts{Class: fabric.AMShort, Bytes: 4})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if reply != "echo:hi" {
		t.Fatalf("reply = %v", reply)
	}
}

func TestCallFromDetachedProcReply(t *testing.T) {
	// The callee defers the reply to a spawned proc (models a shipped
	// function that computes before responding).
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagWork, func(d *Delivery) {
		d.Detach()
		d.Img.Go("worker", func(p *sim.Proc) {
			p.Sleep(50 * sim.Microsecond)
			d.Reply(42, 8)
			d.Complete()
		})
	})
	var reply any
	var elapsed sim.Time
	k.Image(0).Go("caller", func(p *sim.Proc) {
		start := p.Now()
		reply = k.Image(0).Call(p, 1, tagWork, nil, SendOpts{})
		elapsed = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if reply != 42 {
		t.Fatalf("reply = %v", reply)
	}
	if elapsed < 50*sim.Microsecond {
		t.Errorf("call returned in %v, before worker finished", elapsed)
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	eng, k := newTestKernel(3)
	k.RegisterHandler(tagEcho, func(d *Delivery) {
		d.Detach()
		v := d.Payload.(int)
		// Delay inversely so replies come back out of order.
		d.Img.Engine().After(sim.Time(1000-v)*sim.Microsecond, func() {
			d.Reply(v*10, 8)
			d.Complete()
		})
	})
	results := make([]any, 4)
	for i := 0; i < 4; i++ {
		i := i
		k.Image(0).Go("caller", func(p *sim.Proc) {
			results[i] = k.Image(0).Call(p, 1+i%2, tagEcho, i, SendOpts{})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*10 {
			t.Errorf("call %d got %v, want %d", i, r, i*10)
		}
	}
}

type recordingTracker struct {
	log []string
}

func (r *recordingTracker) OnSend(src *ImageKernel, dst int, ctx any) any {
	r.log = append(r.log, fmt.Sprintf("send@%d", src.Rank()))
	return fmt.Sprintf("%v+stamped", ctx)
}
func (r *recordingTracker) OnReceive(dst *ImageKernel, ctx any) any {
	r.log = append(r.log, fmt.Sprintf("recv@%d:%v", dst.Rank(), ctx))
	return ctx
}
func (r *recordingTracker) OnComplete(dst *ImageKernel, ctx any) {
	r.log = append(r.log, fmt.Sprintf("complete@%d", dst.Rank()))
}
func (r *recordingTracker) OnAck(src *ImageKernel, ctx any) {
	r.log = append(r.log, fmt.Sprintf("ack@%d", src.Rank()))
}
func (r *recordingTracker) OnAbandoned(src *ImageKernel, ctx any) {
	r.log = append(r.log, fmt.Sprintf("abandon@%d", src.Rank()))
}

func TestTrackerLifecycle(t *testing.T) {
	eng, k := newTestKernel(2)
	tr := &recordingTracker{}
	k.SetTracker(tr)
	k.RegisterHandler(tagPing, func(d *Delivery) {
		if d.Track() != "ctx+stamped" {
			t.Errorf("handler saw track %v", d.Track())
		}
	})
	k.Image(0).Send(1, tagPing, nil, SendOpts{Track: "ctx"})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"send@0", "recv@1:ctx+stamped", "complete@1", "ack@0"}
	if len(tr.log) != len(want) {
		t.Fatalf("log = %v", tr.log)
	}
	for i := range want {
		if tr.log[i] != want[i] {
			t.Fatalf("log = %v, want %v", tr.log, want)
		}
	}
}

func TestTrackerDetachedCompletion(t *testing.T) {
	eng, k := newTestKernel(2)
	tr := &recordingTracker{}
	k.SetTracker(tr)
	k.RegisterHandler(tagWork, func(d *Delivery) {
		d.Detach()
		d.Img.Go("shipped", func(p *sim.Proc) {
			p.Sleep(10 * sim.Millisecond) // longer than the ack round trip
			d.Complete()
		})
	})
	k.Image(0).Send(1, tagWork, nil, SendOpts{Track: "f"})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// With a detached long-running handler the ack (delivered) precedes
	// completion — exactly the split the finish counters rely on.
	want := []string{"send@0", "recv@1:f+stamped", "ack@0", "complete@1"}
	for i := range want {
		if i >= len(tr.log) || tr.log[i] != want[i] {
			t.Fatalf("log = %v, want %v", tr.log, want)
		}
	}
}

func TestUntrackedMessagesSkipTracker(t *testing.T) {
	eng, k := newTestKernel(2)
	tr := &recordingTracker{}
	k.SetTracker(tr)
	k.RegisterHandler(tagPing, func(d *Delivery) {})
	k.Image(0).Send(1, tagPing, nil, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.log) != 0 {
		t.Fatalf("untracked message hit tracker: %v", tr.log)
	}
}

func TestNextIDUnique(t *testing.T) {
	_, k := newTestKernel(1)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		id := k.NextID()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestReservedTagPanics(t *testing.T) {
	_, k := newTestKernel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("registering reserved tag did not panic")
		}
	}()
	k.RegisterHandler(tagReply, func(d *Delivery) {})
}

func TestDuplicateCompletePanics(t *testing.T) {
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagPing, func(d *Delivery) {
		d.Detach()
		d.Complete()
		defer func() {
			if recover() == nil {
				t.Error("duplicate Complete did not panic")
			}
		}()
		d.Complete()
	})
	k.Image(0).Send(1, tagPing, nil, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPerImageRngIndependentAndStable(t *testing.T) {
	_, k1 := newTestKernel(2)
	_, k2 := newTestKernel(2)
	if k1.Image(0).Rng().Int63() != k2.Image(0).Rng().Int63() {
		t.Error("image rng not stable across identical machines")
	}
	if k1.Image(0).Rng().Int63() == k1.Image(1).Rng().Int63() {
		t.Error("images 0 and 1 share a random stream (suspicious)")
	}
}

// TestProcsHoldsOnlyLiveProcs starts 100k short procs on one image. The
// names keep the "img<rank>/<name>#<n>" form, and Procs stays bounded by
// the procs alive at the time instead of by every proc ever started.
func TestProcsHoldsOnlyLiveProcs(t *testing.T) {
	const total = 100_000
	eng, k := newTestKernel(2)
	img := k.Image(1)
	peakLive, peakSlots := 0, 0
	img.Go("driver", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			q := img.Go("short", func(q *sim.Proc) { q.Sleep(sim.Time(i % 5)) })
			if want := fmt.Sprintf("img1/short#%d", i+2); i%9999 == 0 && q.Name() != want {
				t.Errorf("name %q, want %q", q.Name(), want)
			}
			peakLive = max(peakLive, eng.LiveProcs())
			peakSlots = max(peakSlots, cap(img.procs.Live()))
			if i%16 == 15 {
				p.Sleep(1)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(img.Procs()); n != 0 {
		t.Fatalf("Procs() holds %d procs after the run, want 0", n)
	}
	if peakSlots > 4*peakLive {
		t.Errorf("Procs grew to %d slots for at most %d live procs", peakSlots, peakLive)
	}
}
