// Package fabric models the communication fabric of a distributed-memory
// machine on top of the sim engine: per-image network endpoints exchanging
// active messages with configurable one-way latency, injection bandwidth,
// handler occupancy, credit-based flow control, and delivery acknowledgements.
//
// It plays the role the Gemini interconnect + GASNet conduit played for
// CAF 2.0 on Jaguar/Hopper: everything above it (the gasnet package, the
// CAF runtime, finish/cofence) only sees Send and handler callbacks.
package fabric

import (
	"fmt"
	"math/rand"
	"sort"

	"caf2go/internal/metrics"
	"caf2go/internal/path"
	"caf2go/internal/sim"
)

// Class describes the message service level, mirroring GASNet's AM
// categories. Medium AMs have a bounded payload (the limit the paper notes
// caps UTS steals at 9 tree nodes); Long/RDMA transfers are unbounded.
type Class uint8

const (
	// AMShort is a header-only active message (control traffic).
	AMShort Class = iota
	// AMMedium is an active message with a bounded payload.
	AMMedium
	// RDMA is a one-sided bulk transfer (unbounded payload).
	RDMA
)

func (c Class) String() string {
	switch c {
	case AMShort:
		return "short"
	case AMMedium:
		return "medium"
	case RDMA:
		return "rdma"
	}
	return "?"
}

// Config sets the fabric cost model. The defaults (see DefaultConfig)
// resemble a Gemini-class torus NIC: ~1.5us latency, ~5GB/s effective
// injection bandwidth, sub-microsecond handler occupancy.
type Config struct {
	Latency     sim.Time // one-way wire latency between distinct images
	SelfLatency sim.Time // loopback latency (dst == src)
	GapPerByte  sim.Time // sender injection cost per payload byte
	AMOverhead  sim.Time // receiver-side handler dispatch occupancy
	AckLatency  sim.Time // delivery-ack return latency (0 ⇒ Latency)
	MaxMedium   int      // AMMedium payload cap in bytes (0 ⇒ 512)
	Credits     int      // max un-acked sends per endpoint (0 ⇒ unlimited)
	// StallPenalty is an extra injection cost paid by each message that
	// had to queue for credits, modeling flow-control retry/backoff in
	// the conduit (the GASNet behaviour behind the paper's Fig. 14
	// anomaly, §IV-B).
	StallPenalty sim.Time
	FIFO         bool     // enforce per-(src,dst) ordered delivery
	Jitter       sim.Time // max random extra delivery delay when !FIFO
	Topology     Topology // optional hop model; nil ⇒ uniform 1 hop
	HopLatency   sim.Time // extra latency per hop beyond the first
	// ImagesPerNode groups consecutive endpoints onto shared NICs: they
	// contend for one injection pipe and exchange intra-node messages at
	// SelfLatency — the paper's runs placed 8 images per node (§IV).
	// 0 or 1 means one NIC per image.
	ImagesPerNode int
	// Faults, when non-nil, injects deterministic packet loss,
	// duplication, reorder, receiver stalls, and NIC crashes (fault.go),
	// and switches the fabric onto its reliability protocol: sequence
	// numbers, receiver dedup, and ack-timeout retransmission. nil keeps
	// the idealized exactly-once transport, bit-identical to a fabric
	// built before fault injection existed. Note that a faulty fabric
	// never delivers in FIFO order (retransmission alone breaks it), so
	// Config.FIFO is ignored when Faults is set.
	Faults *FaultPlan
	// Coalescing, when non-zero, aggregates small AMs per destination
	// into batched wire packets (coalesce.go). The zero value keeps the
	// fabric bit-identical to one built before coalescing existed.
	Coalescing Coalescing
	// FlushObserver, when non-nil, is notified of every coalescing flush
	// (per-flush trace events). Ignored when Coalescing is off.
	FlushObserver FlushObserver
	// Metrics, when non-nil, receives per-link traffic counters, queue
	// depth high-water marks, credit-stall time, and coalescing batch
	// occupancy. nil (the default) records nothing and keeps the fabric
	// bit-identical to a build without the registry.
	Metrics *metrics.Registry
	// Path, when non-nil, receives critical-path bucket claims for
	// messages carrying a request tag (Msg.Path): coalesce-hold time at
	// flush, credit/retransmit stall time, and the wire leg at delivery.
	// nil (the default) records nothing and an untagged message never
	// claims — the fabric stays bit-identical either way.
	Path *path.Tracker
}

// DefaultConfig returns the cost model used by the benchmark harness.
func DefaultConfig() Config {
	return Config{
		Latency:     1500 * sim.Nanosecond,
		SelfLatency: 100 * sim.Nanosecond,
		GapPerByte:  sim.Time(1), // ≈1GB/s per byte-ns; scaled below
		AMOverhead:  300 * sim.Nanosecond,
		MaxMedium:   512,
		Credits:     64,
		FIFO:        true,
	}
}

// Topology maps an (src, dst) pair to a hop count ≥ 1, letting experiments
// model non-uniform machines (tori, fat trees).
type Topology interface {
	Hops(src, dst int) int
}

// Msg is one message in flight. Payload carries structured data by
// reference (the simulation shares one address space); Bytes is the
// modeled wire size used for bandwidth accounting and medium-AM limits.
type Msg struct {
	Src, Dst int
	Tag      uint16
	Class    Class
	Bytes    int
	Payload  any
	// Path names the traced request whose causal path this message is
	// on (zero = untagged). The fabric claims the message's buffering,
	// stalling, and wire time against that request's decomposition.
	Path path.Tag
}

// Handler processes a delivered message on the destination endpoint. It
// runs as a simulation event on the receiving image's comm context.
type Handler func(ep *Endpoint, m *Msg)

// Completion receives the sender-side completion stages of one message.
// The sender hands one Completion per message, usually the record that
// already describes the operation, so that watching the stages allocates
// nothing. On the reliable path (a fabric with a fault plan) exactly one
// of Delivered and Abandoned fires per logical message, except that
// messages still in a coalescing buffer when their NIC dies vanish with
// neither; the idealized transport never abandons. Injected fires before
// either, and only when the send asked for it (SendOpts.NotifyInjected).
type Completion interface {
	// Injected fires when the payload has left the source buffer
	// (local data completion for the sender).
	Injected()
	// Delivered fires on the *sender* when the delivery ack returns
	// (local operation completion for the sender).
	Delivered()
	// Abandoned fires on the sender when the fabric gives up on the
	// message for good: the sending NIC was dead at injection, the
	// destination NIC was declared dead at an ack timeout, or the
	// retransmission attempt budget ran out. Failure-aware layers use
	// this to charge off work resident on dead images instead of
	// waiting forever.
	Abandoned()
}

// SendOpts carries the completion of one Send.
type SendOpts struct {
	// Done receives the message's completion stages; nil watches none.
	Done Completion
	// NotifyInjected asks for Done.Injected at injection. It costs one
	// engine event per message, so only senders that watch source-buffer
	// reuse set it.
	NotifyInjected bool
	// NoCoalesce exempts this message from the coalescing buffer:
	// latency-critical control traffic (blocking RPCs and their replies,
	// event notifies, collective reductions) must not wait out a flush
	// timer. A NoCoalesce message still flushes its destination's buffer
	// first, preserving per-channel FIFO order.
	NoCoalesce bool
}

// notifiesInjected reports whether the send schedules an injection event.
func (o SendOpts) notifiesInjected() bool { return o.NotifyInjected && o.Done != nil }

// Stats aggregates fabric-wide counters. MsgsSent counts transmissions
// (retransmits included); the fault/reliability counters below it are all
// zero when Config.Faults is nil.
type Stats struct {
	MsgsSent    uint64
	BytesSent   uint64
	Acks        uint64
	HandlerRuns uint64
	CreditStall sim.Time // total virtual time messages waited for credits

	Retransmits    uint64 // transmissions beyond each message's first
	DupsDropped    uint64 // duplicate data deliveries suppressed by dedup
	DupAcks        uint64 // redundant acks ignored by the sender
	FaultsInjected uint64 // drops + duplications + stalls injected
	Dropped        uint64 // transmissions (data or ack) lost on the wire
	Duplicated     uint64 // deliveries duplicated on the wire
	Stalls         uint64 // receiver handler-context stalls injected
	Abandoned      uint64 // messages given up on (crash or MaxAttempts)

	// Coalescing counters (coalesce.go), all zero when Config.Coalescing
	// is the zero value. MsgsCoalesced counts inner messages that rode in
	// multi-message batches; each batch counts once in MsgsSent.
	MsgsCoalesced  uint64
	Flushes        uint64
	FlushBySize    uint64
	FlushByTimer   uint64
	FlushByBarrier uint64
}

// Fabric is a set of endpoints sharing one cost model and engine.
type Fabric struct {
	eng   *sim.Engine
	cfg   Config
	eps   []*Endpoint
	stats Stats

	// Fault-injection state (fault.go); reliable is cfg.Faults != nil.
	reliable bool
	plan     FaultPlan
	frng     *rand.Rand

	// Coalescing state (coalesce.go); coalescing is cfg.Coalescing
	// enabled, coal the defaulted thresholds.
	coalescing bool
	coal       Coalescing

	// Idle flight records of the idealized transport, reused by later
	// sends (see flight).
	free []*flight

	// Metrics instruments, resolved once at construction (all nil — and
	// every call a no-op — when cfg.Metrics is nil).
	mLinkMsgs    *metrics.Counter
	mLinkBytes   *metrics.Counter
	mSendqPeak   *metrics.Gauge
	mCreditStall *metrics.Counter
	mBatchMsgs   *metrics.Histogram
	mFlushes     *metrics.Counter
}

// New builds a fabric with n endpoints (image 0..n-1).
func New(eng *sim.Engine, n int, cfg Config) *Fabric {
	if cfg.MaxMedium == 0 {
		cfg.MaxMedium = 512
	}
	if cfg.AckLatency == 0 {
		cfg.AckLatency = cfg.Latency
	}
	f := &Fabric{eng: eng, cfg: cfg}
	reg := cfg.Metrics
	f.mLinkMsgs = reg.Counter("caf_fabric_msgs_total", "wire packets sent per (image, peer) link")
	f.mLinkBytes = reg.Counter("caf_fabric_bytes_total", "payload bytes sent per (image, peer) link")
	f.mSendqPeak = reg.Gauge("caf_fabric_sendq_peak", "credit-stalled send queue high-water mark")
	f.mCreditStall = reg.Counter("caf_fabric_credit_stall_ns_total", "virtual time messages spent queued for injection credits")
	f.mBatchMsgs = reg.Histogram("caf_fabric_batch_msgs", "messages per coalesced wire packet")
	f.mFlushes = reg.Counter("caf_fabric_flushes_total", "coalescing buffer flushes")
	if cfg.Coalescing.Enabled() {
		f.coalescing = true
		f.coal = cfg.Coalescing.withDefaults()
	}
	if cfg.Faults != nil {
		f.reliable = true
		f.plan = cfg.Faults.withDefaults(cfg)
		f.frng = eng.DeriveRand(0x4641554C ^ f.plan.Seed)
	}
	f.eps = make([]*Endpoint, n)
	// Per-destination arrival floors for FIFO delivery, one row per
	// endpoint carved out of one array. A faulty fabric never delivers in
	// order, so it needs none.
	var arrivals []sim.Time
	if cfg.FIFO && !f.reliable {
		arrivals = make([]sim.Time, n*n)
	}
	nics := make(map[int]*nicState)
	for i := range f.eps {
		node := i
		if cfg.ImagesPerNode > 1 {
			node = i / cfg.ImagesPerNode
		}
		nic, ok := nics[node]
		if !ok {
			nic = &nicState{}
			nics[node] = nic
		}
		f.eps[i] = &Endpoint{
			f:        f,
			rank:     i,
			nic:      nic,
			handlers: make(map[uint16]Handler),
		}
		if arrivals != nil {
			f.eps[i].lastArrival = arrivals[i*n : (i+1)*n : (i+1)*n]
		}
	}
	return f
}

// claimPath attributes [cursor, now) of every tagged message inside m
// (fanning out through batches) to bucket b on the request tracker. A
// no-op without a tracker or for untagged messages.
func (f *Fabric) claimPath(m *Msg, b path.Bucket) {
	if f.cfg.Path == nil {
		return
	}
	now := f.eng.Now()
	if m.Tag == tagBatch {
		for _, inner := range m.Payload.(*batch).msgs {
			f.cfg.Path.ClaimTag(inner.Path, b, now)
		}
		return
	}
	f.cfg.Path.ClaimTag(m.Path, b, now)
}

// claimPathDelivered claims each tagged message's own delivery bucket
// (Wire for ordinary AMs, ReplMirror for mirror writes) at dispatch.
func (f *Fabric) claimPathDelivered(m *Msg) {
	if f.cfg.Path == nil {
		return
	}
	now := f.eng.Now()
	if m.Tag == tagBatch {
		for _, inner := range m.Payload.(*batch).msgs {
			f.cfg.Path.ClaimTag(inner.Path, inner.Path.Bucket, now)
		}
		return
	}
	f.cfg.Path.ClaimTag(m.Path, m.Path.Bucket, now)
}

// nicState is the injection pipe shared by the images of one node.
type nicState struct {
	free sim.Time // busy-until
}

// Engine returns the underlying simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Config returns the fabric cost model.
func (f *Fabric) Config() Config { return f.cfg }

// NumEndpoints reports the endpoint count.
func (f *Fabric) NumEndpoints() int { return len(f.eps) }

// Endpoint returns endpoint i.
func (f *Fabric) Endpoint(i int) *Endpoint { return f.eps[i] }

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// MaxMedium reports the medium-AM payload cap in bytes.
func (f *Fabric) MaxMedium() int { return f.cfg.MaxMedium }

func (f *Fabric) hops(src, dst int) int {
	if f.cfg.Topology == nil {
		return 1
	}
	h := f.cfg.Topology.Hops(src, dst)
	if h < 1 {
		h = 1
	}
	return h
}

// nodeOf maps an endpoint rank to its NIC-sharing node.
func (f *Fabric) nodeOf(rank int) int {
	if f.cfg.ImagesPerNode <= 1 {
		return rank
	}
	return rank / f.cfg.ImagesPerNode
}

// shardOf maps an endpoint rank to the engine shard that owns its
// events. Delivery and ack events are posted to the receiving side's
// shard, so each image's traffic flows through its own shard's queue
// (the conservative-PDES inbox).
func (f *Fabric) shardOf(rank int) int {
	return sim.ShardOf(rank, len(f.eps), f.eng.NumShards())
}

// MinLatency returns the smallest scheduling offset the fabric ever
// uses for traffic between distinct endpoints — the lower bound on how
// far in the future one shard can schedule into another, i.e. the
// conservative lookahead for sharded admission. Machine construction
// feeds this to Engine.SetLookahead.
func (f *Fabric) MinLatency() sim.Time {
	min := f.cfg.Latency
	if f.cfg.SelfLatency < min {
		min = f.cfg.SelfLatency
	}
	if f.cfg.AckLatency > 0 && f.cfg.AckLatency < min {
		min = f.cfg.AckLatency
	}
	if min < 1 {
		min = 1
	}
	return min
}

// wireLatency is the one-way latency between src and dst. Images on the
// same node talk over shared memory (SelfLatency).
func (f *Fabric) wireLatency(src, dst int) sim.Time {
	if f.nodeOf(src) == f.nodeOf(dst) {
		return f.cfg.SelfLatency
	}
	lat := f.cfg.Latency
	if extra := f.hops(src, dst) - 1; extra > 0 {
		lat += sim.Time(extra) * f.cfg.HopLatency
	}
	return lat
}

type queuedSend struct {
	m        *Msg
	opts     SendOpts
	queuedAt sim.Time
}

// Endpoint is one image's attachment point to the fabric.
type Endpoint struct {
	f    *Fabric
	rank int
	nic  *nicState // injection pipe (shared across a node's images)

	handlers map[uint16]Handler

	recvFree sim.Time // receiver handler context busy-until

	outstanding int          // un-acked sends (credit accounting)
	sendq       []queuedSend // waiting for credits, from sendqHead on
	sendqHead   int

	lastArrival []sim.Time // per-destination FIFO floor, indexed by rank

	// Reliability-protocol state, used only when the fabric has a fault
	// plan: per-destination sequence numbers, un-acked transmissions, and
	// per-source delivery dedup.
	nextSeq map[int]uint64
	pending map[txKey]*txState
	dedup   map[int]*dedupState

	// Per-destination aggregation buffers, used only when the fabric has
	// coalescing enabled (coalesce.go).
	coalesce map[int]*coalesceBuf

	// Per-endpoint counters. Sent counts transmissions (retransmits
	// included); Received counts unique deliveries (dups excluded).
	Sent     uint64
	Received uint64
}

// txKey names one logical message on the sender: destination rank plus
// the per-destination sequence number.
type txKey struct {
	dst int
	seq uint64
}

// txState tracks one logical message from first injection until its ack
// lands (or the sender gives up).
type txState struct {
	m         *Msg
	opts      SendOpts
	seq       uint64
	attempts  int
	acked     bool
	abandoned bool
	timer     *sim.Timer
}

// Rank returns the endpoint's image index.
func (ep *Endpoint) Rank() int { return ep.rank }

// Fabric returns the owning fabric.
func (ep *Endpoint) Fabric() *Fabric { return ep.f }

// RegisterHandler binds tag to fn. Registering a tag twice panics: tags
// are a static protocol namespace owned by the runtime layers.
func (ep *Endpoint) RegisterHandler(tag uint16, fn Handler) {
	checkBatchTag(tag)
	if _, dup := ep.handlers[tag]; dup {
		panic(fmt.Sprintf("fabric: endpoint %d: duplicate handler for tag %d", ep.rank, tag))
	}
	ep.handlers[tag] = fn
}

// Send initiates an active message from this endpoint. It never blocks:
// if flow-control credits are exhausted the message queues locally and
// the caller learns about progress only through opts.Done. Send
// panics if a medium AM exceeds the fabric payload cap or the tag has no
// handler at the destination — both are protocol bugs, not runtime
// conditions.
func (ep *Endpoint) Send(m *Msg, opts SendOpts) {
	if m.Class == AMMedium && m.Bytes > ep.f.cfg.MaxMedium {
		panic(fmt.Sprintf("fabric: medium AM of %d bytes exceeds cap %d", m.Bytes, ep.f.cfg.MaxMedium))
	}
	if m.Src != ep.rank {
		panic(fmt.Sprintf("fabric: message src %d sent from endpoint %d", m.Src, ep.rank))
	}
	if m.Dst < 0 || m.Dst >= len(ep.f.eps) {
		panic(fmt.Sprintf("fabric: message dst %d out of range [0,%d)", m.Dst, len(ep.f.eps)))
	}
	if _, ok := ep.f.eps[m.Dst].handlers[m.Tag]; !ok {
		panic(fmt.Sprintf("fabric: no handler for tag %d at endpoint %d", m.Tag, m.Dst))
	}
	if ep.f.coalescing {
		if ep.coalescible(m, opts) {
			ep.enqueueCoalesced(m, opts)
			return
		}
		// A non-coalescible message must not overtake buffered traffic
		// on its own channel: flush that destination first.
		ep.flushDst(m.Dst, FlushByBarrier)
	}
	ep.post(m, opts)
}

// post is the transport tail of Send, shared with the coalescing flush
// path: crash gate, flow-control credits, then the reliable or idealized
// injection path. Validation already happened (in Send, per inner message
// for batches).
func (ep *Endpoint) post(m *Msg, opts SendOpts) {
	if ep.f.reliable && ep.f.crashedNow(ep.rank) {
		// A dead NIC injects nothing; the message vanishes with no
		// success callback — supervising layers must never conclude
		// success from silence. Done.Abandoned (if any) still fires so
		// failure-aware layers can account for the loss.
		ep.f.stats.Abandoned++
		if opts.Done != nil {
			opts.Done.Abandoned()
		}
		return
	}
	if ep.f.cfg.Credits > 0 && ep.outstanding >= ep.f.cfg.Credits {
		ep.enqueue(queuedSend{m: m, opts: opts, queuedAt: ep.f.eng.Now()})
		ep.f.mSendqPeak.SetMax(ep.rank, int64(ep.QueuedSends()))
		return
	}
	if ep.f.reliable {
		ep.startTx(m, opts)
		return
	}
	ep.inject(m, opts)
}

// QueuedSends reports how many messages are stalled waiting for credits.
func (ep *Endpoint) QueuedSends() int { return len(ep.sendq) - ep.sendqHead }

// enqueue appends a credit-stalled send. The drained prefix of the
// queue's array is reused: the live tail moves down when the array is
// full, so the array is bounded by the queue's peak length.
func (ep *Endpoint) enqueue(q queuedSend) {
	if len(ep.sendq) == cap(ep.sendq) && ep.sendqHead > 0 {
		n := copy(ep.sendq, ep.sendq[ep.sendqHead:])
		clear(ep.sendq[n:])
		ep.sendq, ep.sendqHead = ep.sendq[:n], 0
	}
	ep.sendq = append(ep.sendq, q)
}

// dequeue removes the oldest credit-stalled send. Its slot is cleared,
// so the array keeps neither the message, its payload nor its
// completion reachable; a queue drained empty starts over at the front.
func (ep *Endpoint) dequeue() queuedSend {
	q := ep.sendq[ep.sendqHead]
	ep.sendq[ep.sendqHead] = queuedSend{}
	ep.sendqHead++
	if ep.sendqHead == len(ep.sendq) {
		ep.sendq, ep.sendqHead = ep.sendq[:0], 0
	}
	return q
}

// PendingRetx reports how many logical messages are in flight on the
// reliability protocol (sent, not yet acked or abandoned). Always 0 on
// a fault-free fabric.
func (ep *Endpoint) PendingRetx() int { return len(ep.pending) }

// Outstanding reports un-acked sends currently counted against credits.
func (ep *Endpoint) Outstanding() int { return ep.outstanding }

func (ep *Endpoint) inject(m *Msg, opts SendOpts) {
	f := ep.f
	eng := f.eng
	now := eng.Now()

	ep.outstanding++
	ep.Sent++
	f.stats.MsgsSent++
	f.stats.BytesSent += uint64(m.Bytes)
	f.mLinkMsgs.AddLink(m.Src, m.Dst, 1)
	f.mLinkBytes.AddLink(m.Src, m.Dst, int64(m.Bytes))

	// Serialize injection on the sender NIC.
	start := now
	if ep.nic.free > start {
		start = ep.nic.free
	}
	injected := start + sim.Time(m.Bytes)*f.cfg.GapPerByte
	ep.nic.free = injected

	arrival := injected + f.wireLatency(m.Src, m.Dst)
	if ep.lastArrival != nil {
		if last := ep.lastArrival[m.Dst]; arrival < last {
			arrival = last
		}
		ep.lastArrival[m.Dst] = arrival
	} else if f.cfg.Jitter > 0 {
		arrival += sim.Time(eng.Rand().Int63n(int64(f.cfg.Jitter) + 1))
	}

	fl := f.newFlight(m, ep, opts.Done)
	if opts.notifiesInjected() {
		// The injection notice runs before the arrival: it is no later
		// and is scheduled first.
		fl.stage = flightInjected
		eng.At(injected, fl.fn)
	}
	eng.AtShard(f.shardOf(m.Dst), arrival, fl.fn)
}

// flight is one message's trip through the idealized transport. One
// record carries every stage — the optional injection notice, arrival at
// the destination, handler dispatch and the returning ack — and one
// engine callback (fn, bound once when the record is made) runs them in
// turn. The record is made only at injection, never while a message
// waits for credits. The message is dropped from it at dispatch, so the
// ack leg pins neither the message nor its payload. After the ack the
// record goes back to the fabric's free list, so once the list is warm a
// send allocates no transport state of its own.
type flight struct {
	f     *Fabric
	fn    func() // fl.step, bound once
	stage flightStage
	m     *Msg
	src   *Endpoint
	dst   *Endpoint
	done  Completion
}

type flightStage uint8

const (
	flightInjected flightStage = iota // payload left the source buffer
	flightArrive                      // message reached the destination
	flightDispatch                    // handler context free: run the handler
	flightAck                         // delivery ack back at the sender
)

// newFlight takes a record off the free list (or makes one) for m.
func (f *Fabric) newFlight(m *Msg, src *Endpoint, done Completion) *flight {
	var fl *flight
	if n := len(f.free); n > 0 {
		fl = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		fl = &flight{f: f}
		fl.fn = fl.step
	}
	fl.stage = flightArrive
	fl.m, fl.src, fl.dst, fl.done = m, src, f.eps[m.Dst], done
	return fl
}

// step runs the flight's next stage.
func (fl *flight) step() {
	f := fl.f
	eng := f.eng
	switch fl.stage {
	case flightInjected:
		fl.stage = flightArrive
		fl.done.Injected()
	case flightArrive:
		// Claim the receiver's handler context.
		ep := fl.dst
		handlerAt := eng.Now()
		if ep.recvFree > handlerAt {
			handlerAt = ep.recvFree
		}
		done := handlerAt + f.cfg.AMOverhead
		ep.recvFree = done
		fl.stage = flightDispatch
		eng.At(done, fl.fn)
	case flightDispatch:
		m := fl.m
		fl.m = nil
		fl.dst.dispatch(m)
		// Delivery ack back to the sender (credit release + callback).
		ackAt := eng.Now() + f.wireLatency(m.Dst, m.Src)
		if f.cfg.AckLatency != f.cfg.Latency && m.Src != m.Dst {
			ackAt = eng.Now() + f.cfg.AckLatency
		}
		fl.stage = flightAck
		eng.AtShard(f.shardOf(m.Src), ackAt, fl.fn)
	case flightAck:
		src, done := fl.src, fl.done
		fl.src, fl.dst, fl.done = nil, nil, nil
		f.free = append(f.free, fl)
		f.stats.Acks++
		src.outstanding--
		if done != nil {
			done.Delivered()
		}
		src.drainQueue()
	}
}

// drainQueue launches stalled sends as credits free up. Each stalled
// message pays the flow-control penalty on its way out.
func (ep *Endpoint) drainQueue() {
	f := ep.f
	for ep.QueuedSends() > 0 && (f.cfg.Credits == 0 || ep.outstanding < f.cfg.Credits) {
		q := ep.dequeue()
		stall := f.eng.Now() - q.queuedAt
		f.stats.CreditStall += stall
		f.mCreditStall.Add(ep.rank, int64(stall))
		f.claimPath(q.m, path.CreditStall)
		if f.cfg.StallPenalty > 0 {
			ep.nic.free += f.cfg.StallPenalty
		}
		if f.reliable {
			ep.startTx(q.m, q.opts)
		} else {
			ep.inject(q.m, q.opts)
		}
	}
}

// ---------------------------------------------------------------------
// Reliability protocol (active only with a fault plan, see fault.go).
//
// Sequence numbers per (src,dst) pair, receiver-side dedup, and
// ack-timeout retransmission turn the lossy faulty wire back into an
// exactly-once transport for the layers above: the handler runs once per
// logical message and Delivered fires once per logical message, no
// matter how many transmissions, duplications, or lost acks it took.
// ---------------------------------------------------------------------

// startTx assigns the next sequence number toward m.Dst, takes a credit,
// and performs the first transmission.
func (ep *Endpoint) startTx(m *Msg, opts SendOpts) {
	if ep.nextSeq == nil {
		ep.nextSeq = make(map[int]uint64)
		ep.pending = make(map[txKey]*txState)
	}
	seq := ep.nextSeq[m.Dst]
	ep.nextSeq[m.Dst] = seq + 1
	tx := &txState{m: m, opts: opts, seq: seq}
	ep.pending[txKey{m.Dst, seq}] = tx
	ep.outstanding++
	tx.timer = ep.f.eng.NewTimer(func() { ep.onAckTimeout(tx) })
	ep.transmit(tx)
}

// retransmitAfter is the ack timeout for the given attempt number:
// exponential backoff on the plan's base, capped at BackoffCap doublings.
func (f *Fabric) retransmitAfter(attempts int) sim.Time {
	shift := attempts - 1
	if shift > f.plan.BackoffCap {
		shift = f.plan.BackoffCap
	}
	return f.plan.AckTimeout << uint(shift)
}

// transmit performs one (re)transmission of tx: it pays the injection
// cost, arms the ack timer, and — faults permitting — schedules delivery.
func (ep *Endpoint) transmit(tx *txState) {
	f := ep.f
	eng := f.eng
	m := tx.m
	tx.attempts++
	if tx.attempts > 1 {
		f.stats.Retransmits++
		// The gap a lost packet cost the request is a flow-control
		// stall: claim it at the moment the retransmission goes out.
		f.claimPath(m, path.CreditStall)
	}
	ep.Sent++
	f.stats.MsgsSent++
	f.stats.BytesSent += uint64(m.Bytes)
	f.mLinkMsgs.AddLink(m.Src, m.Dst, 1)
	f.mLinkBytes.AddLink(m.Src, m.Dst, int64(m.Bytes))

	// Serialize injection on the sender NIC (every attempt pays again).
	start := eng.Now()
	if ep.nic.free > start {
		start = ep.nic.free
	}
	injected := start + sim.Time(m.Bytes)*f.cfg.GapPerByte
	ep.nic.free = injected
	if tx.attempts == 1 && tx.opts.notifiesInjected() {
		eng.At(injected, tx.opts.Done.Injected)
	}

	// Arm the retransmission timer from the moment the payload is on the
	// wire, with this attempt's backoff.
	tx.timer.Reset(injected - eng.Now() + f.retransmitAfter(tx.attempts))

	// Wire faults: loss first, then duplication/jitter on what survives.
	if f.roll(f.plan.Drop) {
		f.stats.Dropped++
		f.stats.FaultsInjected++
		return // lost; the ack timer recovers
	}
	dst := f.eps[m.Dst]
	base := injected + f.wireLatency(m.Src, m.Dst)
	dstShard := f.shardOf(m.Dst)
	eng.AtShard(dstShard, base+f.jitterDelay(), func() { dst.deliverReliable(m, ep, tx.seq) })
	if f.roll(f.plan.Dup) {
		f.stats.Duplicated++
		f.stats.FaultsInjected++
		eng.AtShard(dstShard, base+f.jitterDelay(), func() { dst.deliverReliable(m, ep, tx.seq) })
	}
}

// onAckTimeout fires when a transmission's ack did not return in time:
// retransmit, or abandon if the peer (or this NIC) is dead or the attempt
// budget is spent.
func (ep *Endpoint) onAckTimeout(tx *txState) {
	if tx.acked || tx.abandoned {
		return
	}
	f := ep.f
	if f.crashedNow(ep.rank) || f.crashedNow(tx.m.Dst) || tx.attempts >= f.plan.MaxAttempts {
		tx.abandoned = true
		f.stats.Abandoned++
		delete(ep.pending, txKey{tx.m.Dst, tx.seq})
		// Release the flow-control credit so unrelated traffic keeps
		// moving, but fire no success callback: the supervising layer
		// must observe the loss (a finish block will simply never
		// terminate — the never-early side of Theorem 1). Abandoned
		// is the explicit loss notification for failure-aware layers.
		ep.outstanding--
		if tx.opts.Done != nil {
			tx.opts.Done.Abandoned()
		}
		ep.drainQueue()
		return
	}
	ep.transmit(tx)
}

// AbandonForDead abandons, immediately and deterministically, every
// pending reliable transmission that can no longer succeed because rank
// is dead: rank's own un-acked sends (its NIC can neither retransmit nor
// hear acks) and every other endpoint's un-acked sends toward rank. The
// failure layer calls this at declaration time so charge-off callbacks
// fire promptly instead of trickling out of backed-off ack timeouts.
// Endpoints are walked in rank order and each endpoint's victims in
// (dst, seq) order, so the Abandoned callback order is reproducible.
func (f *Fabric) AbandonForDead(rank int) {
	if !f.reliable {
		return
	}
	for _, ep := range f.eps {
		var victims []txKey
		for k := range ep.pending {
			if ep.rank == rank || k.dst == rank {
				victims = append(victims, k)
			}
		}
		if len(victims) == 0 && (ep.rank != rank || ep.QueuedSends() == 0) {
			continue
		}
		sort.Slice(victims, func(i, j int) bool {
			if victims[i].dst != victims[j].dst {
				return victims[i].dst < victims[j].dst
			}
			return victims[i].seq < victims[j].seq
		})
		for _, k := range victims {
			tx := ep.pending[k]
			tx.abandoned = true
			tx.timer.Stop()
			f.stats.Abandoned++
			delete(ep.pending, k)
			ep.outstanding--
			if tx.opts.Done != nil {
				tx.opts.Done.Abandoned()
			}
		}
		if ep.rank == rank {
			// The dead endpoint's credit-stalled queue can never inject:
			// abandon it outright rather than draining it into a dead NIC.
			q := ep.sendq[ep.sendqHead:]
			ep.sendq, ep.sendqHead = nil, 0
			for _, qs := range q {
				f.stats.Abandoned++
				if qs.opts.Done != nil {
					qs.opts.Done.Abandoned()
				}
			}
			continue
		}
		ep.drainQueue()
	}
}

// deliverReliable runs at (possibly duplicated, possibly reordered)
// message arrival on the destination endpoint: dedup decides whether the
// handler runs; an ack is returned either way so the sender stops
// retransmitting even when its first ack was lost.
func (ep *Endpoint) deliverReliable(m *Msg, src *Endpoint, seq uint64) {
	f := ep.f
	eng := f.eng
	if f.crashedNow(ep.rank) {
		return // dead NIC: arriving packets vanish
	}
	handlerAt := eng.Now()
	if f.roll(f.plan.StallProb) {
		f.stats.Stalls++
		f.stats.FaultsInjected++
		stallFrom := ep.recvFree
		if handlerAt > stallFrom {
			stallFrom = handlerAt
		}
		ep.recvFree = stallFrom + f.plan.Stall
	}
	if ep.recvFree > handlerAt {
		handlerAt = ep.recvFree
	}
	done := handlerAt + f.cfg.AMOverhead
	ep.recvFree = done

	eng.At(done, func() {
		if ep.dedup == nil {
			ep.dedup = make(map[int]*dedupState)
		}
		d := ep.dedup[src.rank]
		if d == nil {
			d = &dedupState{}
			ep.dedup[src.rank] = d
		}
		if d.mark(seq) {
			ep.dispatch(m)
		} else {
			f.stats.DupsDropped++
		}

		// Ack back to the sender — also for dups, since the duplicate may
		// be a retransmission whose original ack was lost. The ack is a
		// packet too: it can be dropped.
		if f.roll(f.plan.Drop) {
			f.stats.Dropped++
			f.stats.FaultsInjected++
			return
		}
		ackAt := eng.Now() + f.wireLatency(m.Dst, m.Src)
		if f.cfg.AckLatency != f.cfg.Latency && m.Src != m.Dst {
			ackAt = eng.Now() + f.cfg.AckLatency
		}
		eng.AtShard(f.shardOf(m.Src), ackAt, func() { src.onAckArrival(m.Dst, seq) })
	})
}

// onAckArrival processes a delivery ack on the sender. Exactly the first
// ack per logical message releases the credit and fires Delivered;
// redundant acks (from dups or retransmissions) are counted and ignored.
func (ep *Endpoint) onAckArrival(peer int, seq uint64) {
	f := ep.f
	if f.crashedNow(ep.rank) {
		return
	}
	tx, ok := ep.pending[txKey{peer, seq}]
	if !ok || tx.acked {
		f.stats.DupAcks++
		return
	}
	tx.acked = true
	tx.timer.Stop()
	delete(ep.pending, txKey{peer, seq})
	f.stats.Acks++
	ep.outstanding--
	if tx.opts.Done != nil {
		tx.opts.Done.Delivered()
	}
	ep.drainQueue()
}
