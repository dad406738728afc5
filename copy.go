package caf

import (
	"fmt"

	"caf2go/internal/core"
	"caf2go/internal/fabric"
	"caf2go/internal/path"
	"caf2go/internal/race"
	"caf2go/internal/rt"
	"caf2go/internal/trace"
)

// CopyOpt configures one asynchronous copy.
type CopyOpt func(*copyOpts)

type copyOpts struct {
	pred  *Event
	srcE  *Event
	destE *Event
}

// Pred gates the copy on a predicate event: it proceeds only after e has
// been posted (copy_async's preE, §II-C1). e may live on any image.
func Pred(e *Event) CopyOpt { return func(o *copyOpts) { o.pred = e } }

// SrcEvent requests notification of e when the source data has been read
// and the source buffer may be overwritten (copy_async's srcE).
// Supplying any completion event makes the copy explicitly synchronized:
// it is then invisible to cofence and to the enclosing finish.
func SrcEvent(e *Event) CopyOpt { return func(o *copyOpts) { o.srcE = e } }

// DestEvent requests notification of e when the data has been delivered
// to the destination (copy_async's destE).
func DestEvent(e *Event) CopyOpt { return func(o *copyOpts) { o.destE = e } }

// chainMsg registers a predicate continuation on a remote event's owner.
type chainMsg struct {
	e          *Event
	resumeRank int
	resume     func(clk race.Clock)
}

// resumeMsg carries a predicate continuation home with the clock of the
// consumed post.
type resumeMsg struct {
	fn  func(clk race.Clock)
	clk race.Clock
}

// copyOp is one CopyAsync: the state of every stage, the completion
// handle, the delivery token and the data in flight, in one heap record.
// It travels as the payload of the copy's messages and is the sender-side
// completion of the message the initiator sends, so its methods are the
// stages: start (initiation), Injected and the embedded opMessage's
// Delivered/Abandoned (the initiator's completion callbacks), serveGet
// (the source's owner reading, for a get or a third-party copy) and land
// (the destination write).
type copyOp[T any] struct {
	img      *Image
	dst, src Sec[T]
	opts     copyOpts
	// The completion handle CopyAsync returns and the remote update's
	// delivery token; the ack (or abandonment) of the message the
	// initiator sends completes them.
	opMessage
	me       int  // initiator's world rank
	dstRank  int  // the image the data lands on
	srcLocal bool // source on the initiator
	dstLocal bool // destination on the initiator
	implicit bool // no completion events: cofence and finish see it
	bytes    int
	class    fabric.Class
	track    any   // enclosing finish context (implicit copies only)
	tid      int64 // enclosing finish id for the race detector (0 = none)

	// Cofence bookkeeping (implicit copies touching initiator-local
	// data): the registration and how many local buffers it still owes.
	pending *core.PendingOp // &cofence once registered
	cofence core.PendingOp
	signals int
	// ldLeft counts the local buffers the completion handle's local-data
	// level still waits for, independent of the cofence signals.
	ldLeft int

	// Race detector state (nil/-1 when off): the initiator's call-point
	// snapshot, the consumed predicate post's clock, the op's read and
	// write clocks with their component ids, and the clock of the
	// initiator-local access that cofence orders.
	base, predClk, rclk, wclk, localClk race.Clock
	rid, wid                            int

	relSrc, relDst func() // conflict-detection claims
	data           []T    // the snapshot in flight to the destination
}

// CopyAsync initiates a one-sided asynchronous copy from src to dst
// (§II-C1). Either side may be a coarray section on any image or a
// process-local buffer; the initiator needs to own neither. The call
// guarantees only initiation completion. Without completion events the
// copy is implicitly synchronized: its local data completion is observed
// by cofence and its global completion by the enclosing finish.
//
// Completion points (Fig. 4):
//   - source on the initiator: local data completion when the data is on
//     the wire (source buffer reusable);
//   - destination on the initiator: local data completion when the data
//     has landed (destination readable);
//   - srcE / destE fire at source-read and destination-write wherever
//     those happen.
//
// The returned Op is the copy's completion handle: register
// continuations on its levels (or put it in a PollSet) instead of — or
// alongside — event-based completion. Discarding it is always safe.
func CopyAsync[T any](img *Image, dst, src Sec[T], opts ...CopyOpt) *Op {
	c := &copyOp[T]{img: img, dst: dst, src: src, rid: -1, wid: -1}
	for _, opt := range opts {
		opt(&c.opts)
	}
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("caf: copy length mismatch: dst %d, src %d", dst.Len(), src.Len()))
	}
	st := img.st
	st.copies++
	img.traceInstant("copy_async", "copy")
	me := img.Rank()
	c.me = me
	c.srcLocal = src.isLocalBuf() || src.rank == me
	c.dstLocal = dst.isLocalBuf() || dst.rank == me
	c.implicit = c.opts.srcE == nil && c.opts.destE == nil
	c.bytes = src.Len()*src.elemBytes() + 16
	c.class = classForBytes(img.m, c.bytes)
	c.dstRank = me
	if !c.dstLocal {
		c.dstRank = dst.rank
	}

	// Lifecycle tracking: the op's peer is the remote side (the
	// destination for puts and third-party copies, the source for gets).
	peer := me
	if !c.dstLocal {
		peer = dst.rank
	} else if !c.srcLocal {
		peer = src.rank
	}
	img.opInit(&c.op, "copy", peer)

	if c.implicit {
		c.track = img.track()
		c.tid = img.trackID()
	}

	// Race detector: the op runs under its own clock components — a read
	// component for the source access and a write component derived from
	// it for the destination access — forked from the initiator's clock
	// at this program point (plus the predicate's clock once it fires).
	// The initiator is NOT ordered after the op's accesses until some
	// synchronization construct (cofence, finish, event) says so.
	rs := img.m.race
	if rs != nil && img.rc != nil {
		c.base = img.rc.Snapshot()
	}

	// Cofence bookkeeping: how the op touches the initiator's local data,
	// with one cofence signal and one local-data tick per local buffer.
	var class core.OpClass
	if c.srcLocal {
		class |= core.OpReads
		c.signals++
		c.ldLeft++
	}
	if c.dstLocal {
		class |= core.OpWrites
		c.signals++
		c.ldLeft++
	}

	if c.implicit && class != 0 {
		img.tracker().Add(&c.cofence, class, c)
		c.pending = &c.cofence
		if rs != nil {
			img.raceOps = append(img.raceOps, raceOp{op: c.pending, class: class, clkRef: &c.localClk})
		}
	} else {
		c.Initiate()
	}
	return &c.op
}

// Initiate starts the copy, once the predicate event (if any) has a post
// available. Cofence registration defers it in relaxed mode.
func (c *copyOp[T]) Initiate() {
	if c.opts.pred == nil {
		c.start()
		return
	}
	c.img.m.gatePredicate(c.me, c.opts.pred, func(clk race.Clock) {
		c.predClk = clk
		c.start()
	})
}

// forkOpClocks runs at actual initiation (the predicate may defer it):
// the read clock forks from the initiator's call-point snapshot joined
// with the consumed predicate post's clock; the write clock forks from
// the read clock (the write follows the read). The enclosing finish
// eagerly joins the op's clocks — its exit cannot happen before the op
// globally completes.
func (c *copyOp[T]) forkOpClocks() {
	rs := c.img.m.race
	if rs == nil || c.img.rc == nil {
		return
	}
	b := c.base
	if c.predClk != nil {
		b = race.Join(race.CopyClock(c.base), c.predClk)
	}
	c.rclk, c.rid = rs.d.OpClock(b)
	c.wclk, c.wid = rs.d.OpClock(c.rclk)
	if c.dstLocal {
		c.localClk = c.wclk
	} else {
		c.localClk = c.rclk
	}
	if c.tid != 0 {
		fs := rs.finishSyncFor(c.tid)
		race.JoinInto(&fs.ops, c.wclk)
	}
}

// start initiates the copy: a put when the source is here (the data goes
// out now), otherwise a request asking the source's owner to read and
// forward (a get when the destination is here, a third-party copy
// otherwise).
func (c *copyOp[T]) start() {
	m, st := c.img.m, c.img.st
	c.forkOpClocks()
	m.opStageAt(&c.op, c.me, trace.StageInit)
	if c.srcLocal {
		relSrc := claimSec(m, c.src, false, "copy_async read")
		raceRecord(m, c.src, false, c.rid, c.rclk, "copy_async read")
		c.data = c.src.read() // snapshot at initiation
		relSrc()
		c.relDst = claimSec(m, c.dst, true, "copy_async write")
		st.addDelivToken(&c.tok, c.wclk)
		st.kern.Send(c.dstRank, tagCopyPut, c, rt.SendOpts{
			Track:          c.track,
			Done:           c,
			NotifyInjected: true,
			Class:          c.class,
			Bytes:          c.bytes,
			Path:           path.WireTag(c.op.pctx),
		})
		return
	}
	if c.ldLeft == 0 {
		// Third-party copy: no initiator-local buffers, so local data
		// completes at initiation.
		m.opStageAt(&c.op, c.me, trace.StageLocalData)
	}
	c.relSrc = claimSec(m, c.src, false, "copy_async read")
	c.relDst = claimSec(m, c.dst, true, "copy_async write")
	// The notify token completes when the read request lands — the read
	// has happened then, the data hop has not, so only the read clock is
	// released to event waiters.
	st.addDelivToken(&c.tok, c.rclk)
	st.kern.Send(c.src.rank, tagCopyGetReq, c, rt.SendOpts{
		Track: c.track,
		Done:  c,
		Class: fabric.AMShort,
		Bytes: 32,
		Path:  path.WireTag(c.op.pctx),
	})
}

// Injected runs when the put's data is on the wire: the source buffer is
// reusable.
func (c *copyOp[T]) Injected() {
	c.localDone()
	if c.opts.srcE != nil {
		c.img.m.notifyFrom(c.me, c.opts.srcE, c.rclk)
	}
}

// localDone retires one initiator-local buffer: the handle's local data
// level when the last one is free, and the cofence signal of an implicit
// copy.
func (c *copyOp[T]) localDone() {
	c.ldLeft--
	if c.ldLeft == 0 {
		c.img.m.opStageAt(&c.op, c.me, trace.StageLocalData)
	}
	if c.implicit {
		c.signals--
		if c.signals == 0 && c.pending != nil {
			c.pending.CompleteLocalData()
		}
	}
}

// copyHop is a copy as its message handlers see it.
type copyHop interface {
	serveGet(m *Machine, d *rt.Delivery)
	land(m *Machine, d *rt.Delivery)
}

func (m *Machine) handleCopyPut(d *rt.Delivery) { d.Payload.(copyHop).land(m, d) }

func (m *Machine) handleCopyGetReq(d *rt.Delivery) { d.Payload.(copyHop).serveGet(m, d) }

// serveGet runs on the source's owner: read the section and forward it
// to the destination.
func (c *copyOp[T]) serveGet(m *Machine, d *rt.Delivery) {
	here := d.Img.Rank()
	eff := m.raceChanArrive(d.Src, here, c.rclk)
	c.data = c.src.read()
	c.relSrc()
	raceRecord(m, c.src, false, c.rid, eff, "copy_async read")
	if c.opts.srcE != nil {
		// Source read complete: the source buffer may be overwritten.
		m.notifyFrom(here, c.opts.srcE, eff)
	}
	// The data hop is tracked by the enclosing finish too: c.track is its
	// unstamped context, the same one the request carried.
	m.states[here].kern.Send(c.dstRank, tagCopyPut, c, rt.SendOpts{
		Track: c.track,
		Class: c.class,
		Bytes: c.bytes,
		Path:  path.WireTag(c.op.pctx),
	})
}

// land runs on the destination: apply the write. The data is on the
// destination now, so the copy is complete everywhere.
func (c *copyOp[T]) land(m *Machine, d *rt.Delivery) {
	here := d.Img.Rank()
	// FIFO channel edge: this delivery is ordered after every earlier
	// delivery on the same (src, dst) channel.
	eff := m.raceChanArrive(d.Src, here, c.wclk)
	c.dst.write(c.data)
	c.data = nil
	c.relDst()
	raceRecord(m, c.dst, true, c.wid, eff, "copy_async write")
	if c.dstLocal {
		c.localDone()
	}
	m.opStageAt(&c.op, here, trace.StageGlobal)
	if c.opts.destE != nil {
		m.notifyFrom(here, c.opts.destE, eff)
	}
}

// gatePredicate runs fn once e has a post available, routing through e's
// owner image when remote (one message each way). fn receives the
// event's accumulated release clock at consumption (nil when the race
// detector is off).
func (m *Machine) gatePredicate(fromRank int, e *Event, fn func(clk race.Clock)) {
	if e.owner == fromRank {
		m.whenPosted(e, func() { fn(m.eventClock(e)) })
		return
	}
	m.states[fromRank].kern.Send(e.owner, tagEventChain, &chainMsg{
		e:          e,
		resumeRank: fromRank,
		resume:     fn,
	}, rt.SendOpts{Class: fabric.AMShort, Bytes: 24, NoCoalesce: true})
}

// eventClock copies the event's accumulated release clock.
func (m *Machine) eventClock(e *Event) race.Clock {
	if m.race == nil {
		return nil
	}
	return race.CopyClock(m.eventState(e).rclk)
}

func (m *Machine) handleEventNotify(d *rt.Delivery) {
	msg := d.Payload.(*eventNotifyMsg)
	m.eventRelease(msg.e, msg.clk)
	// The post is visible on the owner: the notify is globally complete.
	m.opStageAt(msg.op, d.Img.Rank(), trace.StageGlobal)
	m.post(msg.e)
}

func (m *Machine) handleEventChain(d *rt.Delivery) {
	msg := d.Payload.(*chainMsg)
	here := d.Img.Rank()
	m.whenPosted(msg.e, func() {
		m.states[here].kern.Send(msg.resumeRank, tagResume,
			&resumeMsg{fn: msg.resume, clk: m.eventClock(msg.e)},
			rt.SendOpts{Class: fabric.AMShort, Bytes: 16, NoCoalesce: true})
	})
}

func (m *Machine) handleResume(d *rt.Delivery) {
	msg := d.Payload.(*resumeMsg)
	msg.fn(msg.clk)
}

// ---------------------------------------------------------------------
// Blocking one-sided operations (the reference get/put style the paper's
// Figs. 2 and 13 contrast function shipping against). Each is one full
// network round trip.
// ---------------------------------------------------------------------

type blockingGetMsg struct {
	read  func() any
	bytes int
}

type blockingPutMsg struct {
	write func()
}

// claimSec registers a conflict-detection claim for a coarray section
// (no-op for local buffers or when detection is off).
func claimSec[T any](m *Machine, s Sec[T], write bool, op string) func() {
	if s.ca == nil {
		return func() {}
	}
	return m.beginAccess(s.ca, s.rank, s.lo, s.hi, s.step, write, op)
}

// Get performs a blocking one-sided read of a (possibly remote) section.
// The caller is parked for the round trip, so the happens-before tier
// records the access under the caller's own clock — its program point
// orders it, including on the local fast path the overlap tier skips
// (an instantaneous access cannot temporally overlap, but it can still
// be unordered with a remote writer).
func Get[T any](img *Image, src Sec[T]) []T {
	if src.isLocalBuf() || src.rank == img.Rank() {
		raceRecordCtx(img, src, false, "get")
		return src.read()
	}
	rel := claimSec(img.m, src, false, "get")
	raceRecordCtx(img, src, false, "get")
	bytes := src.Len()*src.elemBytes() + 16
	oph := img.opNew("get", src.rank)
	img.opStage(oph, trace.StageInit)
	tok := img.beginBlock("get")
	reply := img.st.kern.Call(img.proc, src.rank, tagBlockingGet, &blockingGetMsg{
		read: func() any {
			v := src.read()
			rel()
			return v
		},
		bytes: bytes,
	}, rt.SendOpts{Class: fabric.AMShort, Bytes: 24})
	// The blocking round trip is pure network time on a traced request.
	img.m.path.Claim(img.pctx, path.Wire, img.Now())
	// A blocking round trip collapses the completion levels at return;
	// stamped before endBlock so the park is attributed to this op.
	img.opStage(oph, trace.StageLocalData)
	img.opStage(oph, trace.StageLocalOp)
	img.opStage(oph, trace.StageGlobal)
	img.endBlock(tok)
	return reply.([]T)
}

// Put performs a blocking one-sided write of vals into a (possibly
// remote) section, returning after the write is visible there.
func Put[T any](img *Image, dst Sec[T], vals []T) {
	if dst.Len() != len(vals) {
		panic(fmt.Sprintf("caf: put length mismatch: dst %d, vals %d", dst.Len(), len(vals)))
	}
	if dst.isLocalBuf() || dst.rank == img.Rank() {
		raceRecordCtx(img, dst, true, "put")
		dst.write(vals)
		return
	}
	rel := claimSec(img.m, dst, true, "put")
	raceRecordCtx(img, dst, true, "put")
	data := append([]T(nil), vals...)
	bytes := len(vals)*dst.elemBytes() + 16
	oph := img.opNew("put", dst.rank)
	img.opStage(oph, trace.StageInit)
	tok := img.beginBlock("put")
	img.st.kern.Call(img.proc, dst.rank, tagBlockingPut, &blockingPutMsg{
		write: func() {
			dst.write(data)
			rel()
		},
	}, rt.SendOpts{Class: classForBytes(img.m, bytes), Bytes: bytes})
	img.m.path.Claim(img.pctx, path.Wire, img.Now())
	img.opStage(oph, trace.StageLocalData)
	img.opStage(oph, trace.StageLocalOp)
	img.opStage(oph, trace.StageGlobal)
	img.endBlock(tok)
}

func (m *Machine) handleBlockingGet(d *rt.Delivery) {
	msg := d.Payload.(*blockingGetMsg)
	d.Reply(msg.read(), msg.bytes)
}

func (m *Machine) handleBlockingPut(d *rt.Delivery) {
	msg := d.Payload.(*blockingPutMsg)
	msg.write()
	d.Reply(nil, 8)
}
