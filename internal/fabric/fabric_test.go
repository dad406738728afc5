package fabric

import (
	"testing"
	"testing/quick"

	"caf2go/internal/sim"
)

const tagTest uint16 = 1

// calls adapts per-stage funcs to a Completion; nil stages are ignored.
type calls struct{ injected, delivered, abandoned func() }

func (c calls) Injected() {
	if c.injected != nil {
		c.injected()
	}
}

func (c calls) Delivered() {
	if c.delivered != nil {
		c.delivered()
	}
}

func (c calls) Abandoned() {
	if c.abandoned != nil {
		c.abandoned()
	}
}

func newTestFabric(t testing.TB, n int, cfg Config) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine(1)
	f := New(eng, n, cfg)
	return eng, f
}

func TestBasicDelivery(t *testing.T) {
	cfg := DefaultConfig()
	eng, f := newTestFabric(t, 2, cfg)
	var gotPayload any
	var deliveredAt sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		gotPayload = m.Payload
		deliveredAt = eng.Now()
	})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 80, Payload: "hello"}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotPayload != "hello" {
		t.Fatalf("payload = %v", gotPayload)
	}
	want := sim.Time(80)*cfg.GapPerByte + cfg.Latency + cfg.AMOverhead
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestCompletionCallbackOrdering(t *testing.T) {
	cfg := DefaultConfig()
	eng, f := newTestFabric(t, 2, cfg)
	var injectedAt, handledAt, deliveredAt sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { handledAt = eng.Now() })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 100}, SendOpts{
		Done:           calls{injected: func() { injectedAt = eng.Now() }, delivered: func() { deliveredAt = eng.Now() }},
		NotifyInjected: true,
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !(injectedAt < handledAt && handledAt < deliveredAt) {
		t.Errorf("want injected < handled < delivered, got %v %v %v", injectedAt, handledAt, deliveredAt)
	}
	// Local data completion must be strictly cheaper than local operation
	// completion — the premise of the paper's cofence-vs-events comparison.
	if deliveredAt-injectedAt < cfg.Latency {
		t.Errorf("delivery ack returned faster than one latency: %v", deliveredAt-injectedAt)
	}
}

func TestSelfSend(t *testing.T) {
	cfg := DefaultConfig()
	eng, f := newTestFabric(t, 2, cfg)
	delivered := false
	f.Endpoint(0).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { delivered = true })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 0, Tag: tagTest, Class: AMShort}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("self-send not delivered")
	}
	if eng.Now() > cfg.SelfLatency+cfg.AMOverhead+cfg.SelfLatency {
		t.Errorf("self-send took %v, should use SelfLatency", eng.Now())
	}
}

func TestInjectionSerializesOnBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GapPerByte = 10
	eng, f := newTestFabric(t, 2, cfg)
	var arrivals []sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		arrivals = append(arrivals, eng.Now())
	})
	for i := 0; i < 3; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 100}, SendOpts{})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("got %d deliveries", len(arrivals))
	}
	// Messages injected back-to-back must be spaced by ≥ Bytes*Gap.
	gap := sim.Time(100) * cfg.GapPerByte
	for i := 1; i < 3; i++ {
		if d := arrivals[i] - arrivals[i-1]; d < gap {
			t.Errorf("arrival spacing %v < injection gap %v", d, gap)
		}
	}
}

func TestFIFOOrderingPerPair(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FIFO = true
	eng, f := newTestFabric(t, 2, cfg)
	var got []int
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		got = append(got, m.Payload.(int))
	})
	for i := 0; i < 50; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: i % 7, Payload: i}, SendOpts{})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

func TestCreditsStallAndDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Credits = 2
	eng, f := newTestFabric(t, 2, cfg)
	delivered := 0
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { delivered++ })
	ep := f.Endpoint(0)
	for i := 0; i < 10; i++ {
		ep.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	}
	if q := ep.QueuedSends(); q != 8 {
		t.Errorf("queued = %d, want 8 (credits=2)", q)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 10 {
		t.Errorf("delivered = %d, want 10", delivered)
	}
	if ep.QueuedSends() != 0 || ep.Outstanding() != 0 {
		t.Errorf("queue=%d outstanding=%d after drain", ep.QueuedSends(), ep.Outstanding())
	}
	if f.Stats().CreditStall == 0 {
		t.Error("expected nonzero credit stall time")
	}
}

func TestCreditStallIncreasesLatency(t *testing.T) {
	// The Fig. 14 flow-control effect: with small credit windows, bursts
	// take longer end-to-end than with large windows.
	finish := func(credits int) sim.Time {
		cfg := DefaultConfig()
		cfg.Credits = credits
		eng, f := newTestFabric(t, 2, cfg)
		var last sim.Time
		f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { last = eng.Now() })
		for i := 0; i < 256; i++ {
			f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	small, large := finish(4), finish(1024)
	if small <= large {
		t.Errorf("credit-limited burst (%v) should finish later than open window (%v)", small, large)
	}
}

func TestMediumCapPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMedium = 128
	_, f := newTestFabric(t, 2, cfg)
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized medium AM did not panic")
		}
	}()
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 129}, SendOpts{})
}

func TestRDMAUncapped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMedium = 128
	eng, f := newTestFabric(t, 2, cfg)
	ok := false
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { ok = true })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: RDMA, Bytes: 1 << 20}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("RDMA message not delivered")
	}
}

func TestUnknownTagPanics(t *testing.T) {
	_, f := newTestFabric(t, 2, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("send to unregistered tag did not panic")
		}
	}()
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: 99, Class: AMShort}, SendOpts{})
}

func TestDuplicateHandlerPanics(t *testing.T) {
	_, f := newTestFabric(t, 1, DefaultConfig())
	f.Endpoint(0).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handler registration did not panic")
		}
	}()
	f.Endpoint(0).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
}

func TestStatsCounters(t *testing.T) {
	eng, f := newTestFabric(t, 3, DefaultConfig())
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	f.Endpoint(2).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium, Bytes: 40}, SendOpts{})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 2, Tag: tagTest, Class: AMMedium, Bytes: 60}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.MsgsSent != 2 || s.BytesSent != 100 || s.Acks != 2 || s.HandlerRuns != 2 {
		t.Errorf("stats = %+v", s)
	}
	if f.Endpoint(0).Sent != 2 || f.Endpoint(1).Received != 1 || f.Endpoint(2).Received != 1 {
		t.Error("per-endpoint counters wrong")
	}
}

func TestHandlerReplies(t *testing.T) {
	// Request/reply round trip: handler sends back; measures 2 latencies.
	const tagReq, tagRep = 10, 11
	cfg := DefaultConfig()
	cfg.GapPerByte = 0
	cfg.AMOverhead = 0
	eng, f := newTestFabric(t, 2, cfg)
	var repliedAt sim.Time
	f.Endpoint(1).RegisterHandler(tagReq, func(ep *Endpoint, m *Msg) {
		ep.Send(&Msg{Src: 1, Dst: 0, Tag: tagRep, Class: AMShort}, SendOpts{})
	})
	f.Endpoint(0).RegisterHandler(tagRep, func(ep *Endpoint, m *Msg) { repliedAt = eng.Now() })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagReq, Class: AMShort}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * cfg.Latency; repliedAt != want {
		t.Errorf("round trip = %v, want %v", repliedAt, want)
	}
}

func TestJitterReordersWithoutFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FIFO = false
	cfg.Jitter = 100 * sim.Microsecond
	cfg.GapPerByte = 0
	eng, f := newTestFabric(t, 2, cfg)
	var got []int
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		got = append(got, m.Payload.(int))
	})
	for i := 0; i < 64; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Payload: i}, SendOpts{})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	inOrder := true
	for i, v := range got {
		if v != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("64 jittered messages all arrived in order (jitter ineffective)")
	}
}

func TestTopologyLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GapPerByte = 0
	cfg.AMOverhead = 0
	cfg.Topology = Hypercube{}
	cfg.HopLatency = 500 * sim.Nanosecond
	eng, f := newTestFabric(t, 8, cfg)
	var at1, at7 sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { at1 = eng.Now() })
	f.Endpoint(7).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { at7 = eng.Now() })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort}, SendOpts{}) // 1 hop
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 7, Tag: tagTest, Class: AMShort}, SendOpts{}) // 3 hops
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := at1 + 2*cfg.HopLatency; at7 != want {
		t.Errorf("3-hop arrival %v, want %v (1-hop %v + 2 hop latencies)", at7, want, at1)
	}
}

func TestTorus3DHops(t *testing.T) {
	tor := Torus3D{X: 4, Y: 4, Z: 4}
	if h := tor.Hops(0, 0); h != 0 {
		t.Errorf("self hops = %d", h)
	}
	if h := tor.Hops(0, 1); h != 1 {
		t.Errorf("x-neighbour hops = %d", h)
	}
	if h := tor.Hops(0, 3); h != 1 {
		t.Errorf("wraparound hops = %d, want 1", h)
	}
	// (0,0,0) -> (2,2,2) = 2+2+2.
	if h := tor.Hops(0, 2+2*4+2*16); h != 6 {
		t.Errorf("diagonal hops = %d, want 6", h)
	}
}

func TestHypercubeHops(t *testing.T) {
	h := Hypercube{}
	if got := h.Hops(0b1010, 0b0110); got != 2 {
		t.Errorf("hamming hops = %d, want 2", got)
	}
	if got := h.Hops(5, 5); got != 0 {
		t.Errorf("self hops = %d", got)
	}
}

// Property: message conservation — for random traffic patterns every send
// is delivered exactly once and acked exactly once.
func TestPropertyConservation(t *testing.T) {
	prop := func(seed int64, nMsgs uint8, credits uint8) bool {
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig()
		cfg.Credits = int(credits % 16) // includes 0 = unlimited
		const n = 5
		f := New(eng, n, cfg)
		delivered := 0
		for i := 0; i < n; i++ {
			f.Endpoint(i).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { delivered++ })
		}
		rng := eng.DeriveRand(99)
		total := int(nMsgs)
		for i := 0; i < total; i++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			f.Endpoint(src).Send(&Msg{Src: src, Dst: dst, Tag: tagTest, Class: AMShort, Bytes: rng.Intn(64)}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		s := f.Stats()
		return delivered == total && s.MsgsSent == uint64(total) && s.Acks == uint64(total)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	eng := sim.NewEngine(1)
	f := New(eng, 2, DefaultConfig())
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
	msg := func() *Msg { return &Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Endpoint(0).Send(msg(), SendOpts{})
		if i%256 == 255 {
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = eng.Run()
}

func TestAckLatencyConfigurable(t *testing.T) {
	// A shorter ack path returns delivery notifications sooner.
	delivered := func(ackLat sim.Time) sim.Time {
		cfg := DefaultConfig()
		cfg.GapPerByte = 0
		cfg.AMOverhead = 0
		cfg.AckLatency = ackLat
		eng := sim.NewEngine(1)
		f := New(eng, 2, cfg)
		f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {})
		var at sim.Time
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort}, SendOpts{
			Done: calls{delivered: func() { at = eng.Now() }},
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	fast, slow := delivered(100*sim.Nanosecond), delivered(10*sim.Microsecond)
	if fast >= slow {
		t.Errorf("ack latency ignored: fast=%v slow=%v", fast, slow)
	}
}

func TestStallPenaltyChargedOnlyToQueuedMessages(t *testing.T) {
	finishAt := func(penalty sim.Time, msgs int) sim.Time {
		cfg := DefaultConfig()
		cfg.Credits = 2
		cfg.StallPenalty = penalty
		eng := sim.NewEngine(1)
		f := New(eng, 2, cfg)
		var last sim.Time
		f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { last = eng.Now() })
		for i := 0; i < msgs; i++ {
			f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	// Within the credit window: penalty must not change anything.
	if a, b := finishAt(0, 2), finishAt(5*sim.Microsecond, 2); a != b {
		t.Errorf("penalty charged without queueing: %v vs %v", a, b)
	}
	// Beyond the window: the penalized run must be slower.
	if a, b := finishAt(0, 32), finishAt(5*sim.Microsecond, 32); b <= a {
		t.Errorf("stall penalty had no effect: %v vs %v", a, b)
	}
}

func TestBandwidthBoundForLargeTransfer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GapPerByte = 2 // 2 ns per byte
	eng := sim.NewEngine(1)
	f := New(eng, 2, cfg)
	var at sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { at = eng.Now() })
	const bytes = 1 << 20
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: RDMA, Bytes: bytes}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantMin := sim.Time(bytes) * cfg.GapPerByte
	if at < wantMin {
		t.Errorf("1MB transfer arrived at %v, before serialization bound %v", at, wantMin)
	}
}

func TestImagesPerNodeSharedNIC(t *testing.T) {
	// Two images on one node contend for the injection pipe; on separate
	// nodes they inject concurrently.
	lastArrival := func(perNode int) sim.Time {
		cfg := DefaultConfig()
		cfg.GapPerByte = 10
		cfg.ImagesPerNode = perNode
		eng := sim.NewEngine(1)
		f := New(eng, 3, cfg)
		var at sim.Time
		f.Endpoint(2).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { at = eng.Now() })
		// Images 0 and 1 each blast a 1KB message to image 2.
		for src := 0; src < 2; src++ {
			f.Endpoint(src).Send(&Msg{Src: src, Dst: 2, Tag: tagTest, Class: RDMA, Bytes: 1024}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	shared, private := lastArrival(2), lastArrival(1)
	if shared <= private {
		t.Errorf("shared NIC (%v) should finish later than private NICs (%v)", shared, private)
	}
}

func TestImagesPerNodeIntraNodeLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GapPerByte = 0
	cfg.AMOverhead = 0
	cfg.ImagesPerNode = 4
	eng := sim.NewEngine(1)
	f := New(eng, 8, cfg)
	var atSame, atCross sim.Time
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { atSame = eng.Now() })
	f.Endpoint(5).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { atCross = eng.Now() })
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort}, SendOpts{}) // same node
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 5, Tag: tagTest, Class: AMShort}, SendOpts{}) // cross node
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if atSame != cfg.SelfLatency {
		t.Errorf("intra-node arrival %v, want SelfLatency %v", atSame, cfg.SelfLatency)
	}
	if atCross != cfg.Latency {
		t.Errorf("cross-node arrival %v, want Latency %v", atCross, cfg.Latency)
	}
}

// TestDrainedQueueHoldsNoMessage: a credit-stalled send leaves no trace
// in the queue's array once it has been drained — neither the message
// (and with it the payload) nor its completion stays reachable from the
// endpoint.
func TestDrainedQueueHoldsNoMessage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Credits = 2
	eng, f := newTestFabric(t, 2, cfg)
	f.Endpoint(1).RegisterHandler(tagTest, func(*Endpoint, *Msg) {})
	src := f.Endpoint(0)
	done := &countDone{}
	for i := 0; i < 8; i++ {
		src.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: make([]byte, 64)},
			SendOpts{Done: done})
	}
	if src.QueuedSends() != 6 {
		t.Fatalf("%d sends queued for credits, want 6", src.QueuedSends())
	}
	backing := src.sendq[:cap(src.sendq)]
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if src.QueuedSends() != 0 || done.delivered != 8 {
		t.Fatalf("queued %d, delivered %d after the run, want 0 and 8", src.QueuedSends(), done.delivered)
	}
	for i, q := range backing {
		if q.m != nil || q.opts.Done != nil {
			t.Errorf("drained slot %d still holds %+v", i, q)
		}
	}
}
