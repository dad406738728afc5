package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"caf2go/internal/sim"
)

func coalesceConfig() Config {
	cfg := DefaultConfig()
	cfg.Coalescing = Coalescing{MaxMsgs: 4, MaxBytes: 1024, FlushAfter: 5 * sim.Microsecond}
	return cfg
}

// TestCoalesceSizeFlush: MaxMsgs small messages to one destination go out
// as ONE wire packet whose inner handlers run in send order.
func TestCoalesceSizeFlush(t *testing.T) {
	eng, f := newTestFabric(t, 2, coalesceConfig())
	var got []int
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		got = append(got, m.Payload.(int))
	})
	for i := 0; i < 4; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}, SendOpts{})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("handler order = %v, want %v", got, want)
	}
	s := f.Stats()
	if s.MsgsSent != 1 {
		t.Errorf("MsgsSent = %d, want 1 batch packet", s.MsgsSent)
	}
	if s.MsgsCoalesced != 4 {
		t.Errorf("MsgsCoalesced = %d, want 4", s.MsgsCoalesced)
	}
	if s.FlushBySize != 1 || s.Flushes != 1 {
		t.Errorf("flushes = %+v, want exactly one size flush", s)
	}
	if s.HandlerRuns != 4 {
		t.Errorf("HandlerRuns = %d, want 4 (one per inner message)", s.HandlerRuns)
	}
	if f.Endpoint(1).Received != 4 {
		t.Errorf("Received = %d, want 4 logical deliveries", f.Endpoint(1).Received)
	}
	// The batch consumed exactly one flow-control credit / ack.
	if s.Acks != 1 {
		t.Errorf("Acks = %d, want 1", s.Acks)
	}
}

// TestCoalesceTimerFlush: a lone buffered message leaves after FlushAfter
// of virtual time, not never.
func TestCoalesceTimerFlush(t *testing.T) {
	cfg := coalesceConfig()
	eng, f := newTestFabric(t, 2, cfg)
	var handledAt sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { handledAt = eng.Now() })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	if got := f.Endpoint(0).CoalescedPending(); got != 1 {
		t.Fatalf("CoalescedPending = %d, want 1 buffered message", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if handledAt == 0 {
		t.Fatal("buffered message never delivered")
	}
	if handledAt < cfg.Coalescing.FlushAfter {
		t.Errorf("delivered at %v, before the %v flush timeout", handledAt, cfg.Coalescing.FlushAfter)
	}
	s := f.Stats()
	if s.FlushByTimer != 1 {
		t.Errorf("FlushByTimer = %d, want 1", s.FlushByTimer)
	}
	// A batch of one is sent plain: nothing was actually coalesced.
	if s.MsgsCoalesced != 0 {
		t.Errorf("MsgsCoalesced = %d, want 0 for a singleton flush", s.MsgsCoalesced)
	}
}

// TestCoalesceBarrierFlush: FlushCoalesced empties every buffer at once.
func TestCoalesceBarrierFlush(t *testing.T) {
	eng, f := newTestFabric(t, 3, coalesceConfig())
	delivered := 0
	for _, dst := range []int{1, 2} {
		f.Endpoint(dst).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { delivered++ })
	}
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 2, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 2, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	if got := f.Endpoint(0).CoalescedPending(); got != 3 {
		t.Fatalf("CoalescedPending = %d, want 3", got)
	}
	f.Endpoint(0).FlushCoalesced()
	if got := f.Endpoint(0).CoalescedPending(); got != 0 {
		t.Fatalf("CoalescedPending after barrier = %d, want 0", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Errorf("delivered = %d, want 3", delivered)
	}
	s := f.Stats()
	if s.FlushByBarrier != 2 {
		t.Errorf("FlushByBarrier = %d, want 2 (one per destination)", s.FlushByBarrier)
	}
	if s.FlushByTimer != 0 {
		t.Errorf("FlushByTimer = %d, want 0 — the barrier must cancel the timers", s.FlushByTimer)
	}
}

// TestCoalesceFIFOWithNonCoalescible: a non-coalescible message (RDMA, or
// NoCoalesce) to a destination with buffered traffic must not overtake
// it — the buffer flushes first and delivery order is send order.
func TestCoalesceFIFOWithNonCoalescible(t *testing.T) {
	eng, f := newTestFabric(t, 2, coalesceConfig())
	var got []string
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		got = append(got, m.Payload.(string))
	})
	ep := f.Endpoint(0)
	ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: "a"}, SendOpts{})
	ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: "b"}, SendOpts{})
	ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: RDMA, Bytes: 4096, Payload: "bulk"}, SendOpts{})
	ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: "c"}, SendOpts{NoCoalesce: true})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "bulk", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivery order = %v, want %v (FIFO preserved)", got, want)
	}
}

// TestCoalesceMediumCutoff: small mediums coalesce, big ones do not.
func TestCoalesceMediumCutoff(t *testing.T) {
	cfg := coalesceConfig()
	cfg.Coalescing.MediumCutoff = 64
	eng, f := newTestFabric(t, 2, cfg)
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	ep := f.Endpoint(0)
	ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 64}, SendOpts{})
	if got := ep.CoalescedPending(); got != 1 {
		t.Errorf("64B medium not buffered: pending = %d", got)
	}
	ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 65}, SendOpts{})
	if got := ep.CoalescedPending(); got != 0 {
		t.Errorf("65B medium should flush the channel and go plain: pending = %d", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceSelfSendBypasses: loopback traffic never buffers.
func TestCoalesceSelfSendBypasses(t *testing.T) {
	eng, f := newTestFabric(t, 2, coalesceConfig())
	ran := false
	f.Endpoint(0).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { ran = true })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 0, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	if got := f.Endpoint(0).CoalescedPending(); got != 0 {
		t.Errorf("self-send buffered: pending = %d", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("self-send not delivered")
	}
}

// TestCoalesceMaxBytesFlush: the byte threshold triggers independently of
// the message-count threshold.
func TestCoalesceMaxBytesFlush(t *testing.T) {
	cfg := coalesceConfig()
	cfg.Coalescing.MaxMsgs = 100
	cfg.Coalescing.MaxBytes = 200
	cfg.Coalescing.MediumCutoff = 128
	eng, f := newTestFabric(t, 2, cfg)
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	ep := f.Endpoint(0)
	ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 120}, SendOpts{})
	if got := ep.CoalescedPending(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 120}, SendOpts{})
	if got := ep.CoalescedPending(); got != 0 {
		t.Fatalf("pending = %d, want 0 after crossing MaxBytes", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.FlushBySize != 1 || s.MsgsCoalesced != 2 {
		t.Errorf("stats = %+v, want one size flush of two messages", s)
	}
}

// TestCoalesceCallbacksFirePerInnerMessage: every inner Injected and
// Delivered fires exactly once when the batch completes.
func TestCoalesceCallbacksFirePerInnerMessage(t *testing.T) {
	eng, f := newTestFabric(t, 2, coalesceConfig())
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	injected, delivered := 0, 0
	for i := 0; i < 4; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{
			Done:           calls{injected: func() { injected++ }, delivered: func() { delivered++ }},
			NotifyInjected: true,
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if injected != 4 || delivered != 4 {
		t.Errorf("injected/delivered = %d/%d, want 4/4", injected, delivered)
	}
}

// TestCoalesceZeroConfigBitIdentical: the same traffic on a zero-valued
// Coalescing fabric produces the exact stats of a default fabric — the
// disabled path is the legacy path.
func TestCoalesceZeroConfigBitIdentical(t *testing.T) {
	run := func(cfg Config) (Stats, sim.Time) {
		eng := sim.NewEngine(7)
		f := New(eng, 4, cfg)
		for i := 1; i < 4; i++ {
			i := i
			f.Endpoint(i).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
				// Fan each delivery back out, exercising credits/FIFO.
				if m.Payload.(int) > 0 {
					ep.Send(&Msg{Src: ep.Rank(), Dst: (ep.Rank() % 3) + 1, Tag: tagTest,
						Class: AMShort, Bytes: 16, Payload: m.Payload.(int) - 1}, SendOpts{})
				}
			})
		}
		f.Endpoint(1).RegisterHandler(tagTest+1, func(ep *Endpoint, m *Msg) {})
		for i := 0; i < 10; i++ {
			f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 16, Payload: 5}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return f.Stats(), eng.Now()
	}
	sa, ta := run(DefaultConfig())
	legacy := DefaultConfig()
	legacy.Coalescing = Coalescing{} // explicit zero: must change nothing
	sb, tb := run(legacy)
	if sa != sb || ta != tb {
		t.Errorf("zero-valued Coalescing perturbed the run:\n default: %+v @%v\n zeroed:  %+v @%v", sa, ta, sb, tb)
	}
}

// TestCoalesceDeterministic: same seed, same traffic → identical stats
// and makespan with coalescing on.
func TestCoalesceDeterministic(t *testing.T) {
	run := func() (Stats, sim.Time) {
		eng := sim.NewEngine(3)
		f := New(eng, 8, coalesceConfig())
		for i := 0; i < 8; i++ {
			f.Endpoint(i).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
		}
		rng := eng.DeriveRand(99)
		for i := 0; i < 200; i++ {
			src := rng.Intn(8)
			dst := rng.Intn(8)
			f.Endpoint(src).Send(&Msg{Src: src, Dst: dst, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return f.Stats(), eng.Now()
	}
	sa, ta := run()
	sb, tb := run()
	if sa != sb || ta != tb {
		t.Errorf("coalesced runs diverged:\n 1st: %+v @%v\n 2nd: %+v @%v", sa, ta, sb, tb)
	}
}

// TestCoalesceBatchDropRetransmitsAsUnit: under a fault plan a batch is
// one logical message — a dropped batch retransmits whole, a duplicated
// batch dedups whole, and every inner handler still runs exactly once.
func TestCoalesceBatchDropRetransmitsAsUnit(t *testing.T) {
	for _, fault := range []struct {
		name string
		plan FaultPlan
	}{
		{"drop", FaultPlan{Seed: 5, Drop: 0.3}},
		{"dup", FaultPlan{Seed: 5, Dup: 0.4}},
		{"drop+dup", FaultPlan{Seed: 5, Drop: 0.2, Dup: 0.3}},
	} {
		t.Run(fault.name, func(t *testing.T) {
			cfg := coalesceConfig()
			plan := fault.plan
			cfg.Faults = &plan
			eng := sim.NewEngine(11)
			f := New(eng, 2, cfg)
			counts := make(map[int]int)
			f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
				counts[m.Payload.(int)]++
			})
			const n = 40
			delivered := 0
			for i := 0; i < n; i++ {
				f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}, SendOpts{
					Done: calls{delivered: func() { delivered++ }},
				})
			}
			f.Endpoint(0).FlushCoalesced()
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if counts[i] != 1 {
					t.Errorf("inner message %d handled %d times, want exactly once", i, counts[i])
				}
			}
			if delivered != n {
				t.Errorf("Delivered fired %d times, want %d", delivered, n)
			}
			s := f.Stats()
			if fault.plan.Drop > 0 && s.Retransmits == 0 {
				t.Error("expected retransmissions under drops")
			}
			if fault.plan.Dup > 0 && s.DupsDropped == 0 {
				t.Error("expected dedup suppressions under dups")
			}
		})
	}
}

// TestCoalesceFaultDeterministic: coalescing + faults, same seed →
// bit-identical stats.
func TestCoalesceFaultDeterministic(t *testing.T) {
	run := func() (Stats, sim.Time) {
		cfg := coalesceConfig()
		cfg.Faults = &FaultPlan{Seed: 21, Drop: 0.15, Dup: 0.15}
		eng := sim.NewEngine(13)
		f := New(eng, 4, cfg)
		for i := 0; i < 4; i++ {
			f.Endpoint(i).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
		}
		for i := 0; i < 100; i++ {
			src, dst := i%4, (i+1)%4
			f.Endpoint(src).Send(&Msg{Src: src, Dst: dst, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}, SendOpts{})
		}
		for i := 0; i < 4; i++ {
			f.Endpoint(i).FlushCoalesced()
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return f.Stats(), eng.Now()
	}
	sa, ta := run()
	sb, tb := run()
	if sa != sb || ta != tb {
		t.Errorf("faulty coalesced runs diverged:\n 1st: %+v @%v\n 2nd: %+v @%v", sa, ta, sb, tb)
	}
}

// TestCoalesceCrashAbandonsBufferedMessages: a flush on a crashed NIC
// abandons the buffer without callbacks, like any send on a dead NIC.
func TestCoalesceCrashAbandonsBufferedMessages(t *testing.T) {
	cfg := coalesceConfig()
	cfg.Coalescing.FlushAfter = 10 * sim.Microsecond
	cfg.Faults = &FaultPlan{Seed: 1, Crash: map[int]sim.Time{0: 2 * sim.Microsecond}}
	eng := sim.NewEngine(17)
	f := New(eng, 2, cfg)
	handled := 0
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { handled++ })
	delivered := 0
	// Buffered before the crash; the timer flush at 10us finds the NIC
	// dead at 2us and must abandon all three.
	for i := 0; i < 3; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}, SendOpts{
			Done: calls{delivered: func() { delivered++ }},
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 0 || delivered != 0 {
		t.Errorf("handled/delivered = %d/%d, want 0/0 after crash", handled, delivered)
	}
	if s := f.Stats(); s.Abandoned != 3 {
		t.Errorf("Abandoned = %d, want 3", s.Abandoned)
	}
}

// TestCoalesceObserverSeesFlushes: the FlushObserver hook receives one
// call per flush with the right shape.
func TestCoalesceObserverSeesFlushes(t *testing.T) {
	cfg := coalesceConfig()
	obs := &recordingObserver{}
	cfg.FlushObserver = obs
	eng, f := newTestFabric(t, 2, cfg)
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	for i := 0; i < 4; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"0->1 4msgs 32B size"}; !reflect.DeepEqual(obs.calls, want) {
		t.Errorf("observer calls = %v, want %v", obs.calls, want)
	}
}

type recordingObserver struct{ calls []string }

func (r *recordingObserver) CoalesceFlush(src, dst, msgs, bytes int, reason FlushReason, now sim.Time) {
	r.calls = append(r.calls, fmt.Sprintf("%d->%d %dmsgs %dB %s", src, dst, msgs, bytes, reason))
}

// TestCoalesceReservedTagPanics: the batch tag cannot be registered.
func TestCoalesceReservedTagPanics(t *testing.T) {
	_, f := newTestFabric(t, 1, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("registering the reserved batch tag did not panic")
		}
	}()
	f.Endpoint(0).RegisterHandler(tagBatch, func(ep *Endpoint, m *Msg) {})
}
