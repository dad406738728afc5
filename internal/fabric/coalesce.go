package fabric

import (
	"fmt"
	"sort"

	"caf2go/internal/path"
	"caf2go/internal/sim"
)

// Adaptive message coalescing.
//
// Fine-grained algorithms (RandomAccess updates, work-stealing spawns)
// inject storms of tiny active messages whose cost is dominated by
// per-message overheads: wire headers, handler dispatch occupancy, acks,
// and flow-control credits. The coalescing layer aggregates small AMs
// headed for the same destination into one wire packet, flushed when the
// aggregation buffer fills (size), when the oldest buffered message has
// waited FlushAfter of virtual time (timer), or when a synchronization
// point above demands the wire be empty (barrier).
//
// A batch is ONE logical message to the transport: it consumes one
// flow-control credit and — under a fault plan — one sequence number, so
// a dropped or duplicated batch retransmits and dedups as a unit while
// every inner handler still runs exactly once. FIFO per (src,dst) is
// preserved: a non-coalescible send to a destination first flushes that
// destination's buffer, so nothing ever overtakes a buffered message on
// its own channel.
//
// With a zero-valued Coalescing config the layer is inert and the fabric
// is bit-identical to one built before coalescing existed (the same
// contract Config.Faults == nil makes for the reliability protocol).

// Coalescing configures the aggregation layer. The zero value disables
// coalescing entirely; any non-zero value enables it, with unset fields
// taking the defaults noted on each field.
type Coalescing struct {
	// MaxBytes flushes a destination's buffer once the inner payload
	// bytes reach this threshold (default 4096).
	MaxBytes int
	// MaxMsgs flushes a destination's buffer once it holds this many
	// messages (default 16).
	MaxMsgs int
	// FlushAfter bounds how long the oldest buffered message may wait
	// before a timer flush (default 10us of virtual time). It is the
	// latency price of coalescing; size-triggered flushes never wait.
	FlushAfter sim.Time
	// MediumCutoff is the largest AMMedium payload that will coalesce
	// (default 128 bytes). AMShort always coalesces; RDMA never does.
	MediumCutoff int
}

// Enabled reports whether the config turns coalescing on.
func (c Coalescing) Enabled() bool { return c != Coalescing{} }

// withDefaults fills unset fields of an enabled config.
func (c Coalescing) withDefaults() Coalescing {
	if c.MaxBytes == 0 {
		c.MaxBytes = 4096
	}
	if c.MaxMsgs == 0 {
		c.MaxMsgs = 16
	}
	if c.FlushAfter == 0 {
		c.FlushAfter = 10 * sim.Microsecond
	}
	if c.MediumCutoff == 0 {
		c.MediumCutoff = 128
	}
	return c
}

// FlushReason says why an aggregation buffer was flushed.
type FlushReason uint8

const (
	// FlushBySize: the buffer reached MaxBytes or MaxMsgs.
	FlushBySize FlushReason = iota
	// FlushByTimer: the oldest buffered message waited FlushAfter.
	FlushByTimer
	// FlushByBarrier: a synchronization point (finish, cofence, event,
	// collective, program exit) or a non-coalescible message on the same
	// channel forced the buffer out.
	FlushByBarrier
)

func (r FlushReason) String() string {
	switch r {
	case FlushBySize:
		return "size"
	case FlushByTimer:
		return "timer"
	case FlushByBarrier:
		return "barrier"
	}
	return "?"
}

// FlushObserver is notified of every coalescing flush (tracing hook).
// It is an interface rather than a func so Config stays comparable.
type FlushObserver interface {
	CoalesceFlush(src, dst, msgs, bytes int, reason FlushReason, now sim.Time)
}

// tagBatch marks an aggregated wire packet. It is reserved: batches are
// recognized by tag + payload type in dispatch and never hit the handler
// table.
const tagBatch uint16 = 0xFFFE

// batch is the payload of one aggregated wire packet.
type batch struct {
	msgs []*Msg
	opts []SendOpts
}

// coalesceBuf is the per-destination aggregation buffer of one endpoint.
type coalesceBuf struct {
	msgs  []*Msg
	opts  []SendOpts
	bytes int
	timer *sim.Timer
}

// coalescible reports whether m may enter the aggregation buffer.
// Loopback traffic is excluded: SelfLatency is already cheaper than any
// batching gain and buffering it only adds FlushAfter of latency.
func (ep *Endpoint) coalescible(m *Msg, opts SendOpts) bool {
	if !ep.f.coalescing || opts.NoCoalesce || m.Dst == ep.rank {
		return false
	}
	switch m.Class {
	case AMShort:
		return true
	case AMMedium:
		return m.Bytes <= ep.f.coal.MediumCutoff
	}
	return false
}

// enqueueCoalesced buffers m toward its destination and flushes if the
// buffer crossed a size threshold.
func (ep *Endpoint) enqueueCoalesced(m *Msg, opts SendOpts) {
	if ep.coalesce == nil {
		ep.coalesce = make(map[int]*coalesceBuf)
	}
	b := ep.coalesce[m.Dst]
	if b == nil {
		b = &coalesceBuf{}
		ep.coalesce[m.Dst] = b
	}
	if len(b.msgs) == 0 {
		if b.timer == nil {
			dst := m.Dst
			b.timer = ep.f.eng.NewTimer(func() { ep.flushDst(dst, FlushByTimer) })
		}
		b.timer.Reset(ep.f.coal.FlushAfter)
	}
	b.msgs = append(b.msgs, m)
	b.opts = append(b.opts, opts)
	b.bytes += m.Bytes
	if b.bytes >= ep.f.coal.MaxBytes || len(b.msgs) >= ep.f.coal.MaxMsgs {
		ep.flushDst(m.Dst, FlushBySize)
	}
}

// flushDst empties the aggregation buffer toward dst, posting its content
// as one batch packet (or as a plain message when only one is buffered).
func (ep *Endpoint) flushDst(dst int, reason FlushReason) {
	b := ep.coalesce[dst]
	if b == nil || len(b.msgs) == 0 {
		return
	}
	msgs, opts, bytes := b.msgs, b.opts, b.bytes
	b.msgs, b.opts, b.bytes = nil, nil, 0
	b.timer.Stop()

	f := ep.f
	f.stats.Flushes++
	f.mFlushes.Add(ep.rank, 1)
	f.mBatchMsgs.Observe(ep.rank, int64(len(msgs)))
	switch reason {
	case FlushBySize:
		f.stats.FlushBySize++
	case FlushByTimer:
		f.stats.FlushByTimer++
	case FlushByBarrier:
		f.stats.FlushByBarrier++
	}
	if f.cfg.FlushObserver != nil {
		f.cfg.FlushObserver.CoalesceFlush(ep.rank, dst, len(msgs), bytes, reason, f.eng.Now())
	}
	if f.cfg.Path != nil {
		// Time spent in the buffer is the latency price of coalescing:
		// claim it for every tagged inner message at the flush.
		now := f.eng.Now()
		for _, m := range msgs {
			f.cfg.Path.ClaimTag(m.Path, path.CoalesceHold, now)
		}
	}

	if f.reliable && f.crashedNow(ep.rank) {
		// The NIC died while the messages sat in the buffer: they vanish
		// without completion callbacks, exactly as an un-coalesced send
		// on a dead NIC would.
		f.stats.Abandoned += uint64(len(msgs))
		return
	}

	if len(msgs) == 1 {
		// A batch of one buys nothing; send it plain.
		ep.post(msgs[0], opts[0])
		return
	}

	f.stats.MsgsCoalesced += uint64(len(msgs))
	pkt := &batch{msgs: msgs, opts: opts}
	ep.post(&Msg{
		Src:     ep.rank,
		Dst:     dst,
		Tag:     tagBatch,
		Class:   AMMedium,
		Bytes:   bytes,
		Payload: pkt,
	}, batchOpts(pkt))
}

// batchOpts makes the batch packet its inner messages' completion: the
// batch injecting/acking IS every inner message injecting/acking.
func batchOpts(b *batch) SendOpts {
	out := SendOpts{Done: b}
	for _, o := range b.opts {
		if o.notifiesInjected() {
			out.NotifyInjected = true
		}
	}
	return out
}

// Injected fans the batch's injection out to the inner messages that
// watch it, in FIFO order.
func (b *batch) Injected() {
	for _, o := range b.opts {
		if o.notifiesInjected() {
			o.Done.Injected()
		}
	}
}

// Delivered fans the batch's ack out to the inner messages.
func (b *batch) Delivered() {
	for _, o := range b.opts {
		if o.Done != nil {
			o.Done.Delivered()
		}
	}
}

// Abandoned fans the batch's abandonment out to the inner messages.
func (b *batch) Abandoned() {
	for _, o := range b.opts {
		if o.Done != nil {
			o.Done.Abandoned()
		}
	}
}

// FlushCoalesced flushes every non-empty aggregation buffer of this
// endpoint (deterministically, in destination order). Synchronization
// points above the fabric — finish, cofence, events, collectives,
// program exit — call this so nothing lingers in a buffer across a
// barrier. A no-op when coalescing is off.
func (ep *Endpoint) FlushCoalesced() {
	if len(ep.coalesce) == 0 {
		return
	}
	dsts := make([]int, 0, len(ep.coalesce))
	for d, b := range ep.coalesce {
		if len(b.msgs) > 0 {
			dsts = append(dsts, d)
		}
	}
	sort.Ints(dsts)
	for _, d := range dsts {
		ep.flushDst(d, FlushByBarrier)
	}
}

// CoalescedPending reports how many messages sit in this endpoint's
// aggregation buffers (tests and diagnostics).
func (ep *Endpoint) CoalescedPending() int {
	n := 0
	for _, b := range ep.coalesce {
		n += len(b.msgs)
	}
	return n
}

// dispatch runs the handler(s) for a delivered wire packet: a batch fans
// out to its inner messages in FIFO order, each counting as one unique
// delivery; a plain message runs its single handler. Both deliver (the
// idealized path) and deliverReliable (the fault path) funnel through
// here, so an inner handler runs exactly once per logical message no
// matter how the packet travelled.
func (ep *Endpoint) dispatch(m *Msg) {
	ep.f.claimPathDelivered(m)
	if m.Tag == tagBatch {
		b := m.Payload.(*batch)
		for _, inner := range b.msgs {
			ep.Received++
			ep.f.stats.HandlerRuns++
			ep.handlers[inner.Tag](ep, inner)
		}
		return
	}
	ep.Received++
	ep.f.stats.HandlerRuns++
	ep.handlers[m.Tag](ep, m)
}

// checkBatchTag guards the reserved batch tag in RegisterHandler.
func checkBatchTag(tag uint16) {
	if tag == tagBatch {
		panic(fmt.Sprintf("fabric: tag %#x is reserved for message coalescing", tag))
	}
}
