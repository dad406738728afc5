package caf

import (
	"fmt"

	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/race"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// Event is a CAF 2.0 event variable: a counting synchronization object
// hosted on one image (§II-B). Events manage explicit completion of
// asynchronous operations — passed as copy/collective/spawn parameters
// they are notified at the operation's completion points — and support
// direct pair-wise coordination via EventNotify / EventWait.
//
// EventNotify has release semantics: it is not observed by a waiter until
// the notifier's prior implicitly-synchronized remote writes have been
// delivered, but operations after the notify may start before it.
// EventWait has acquire semantics: it blocks the calling proc until a
// notification arrives and orders subsequent operations after it.
type Event struct {
	owner int // world rank hosting the state
	id    int
	m     *Machine
}

// eventState lives on the owner image.
type eventState struct {
	count   int64
	waiters []*sim.Proc
	cbs     []func() // one-shot callbacks, each consuming one post

	// rclk accumulates the release clocks of all notifies when the race
	// detector runs. A consumer acquires the whole accumulation — the
	// counting-semaphore approximation: it may be ordered after more
	// notifies than the one it consumed, which only hides races, never
	// invents them.
	rclk race.Clock
}

// Owner returns the world rank hosting the event.
func (e *Event) Owner() int { return e.owner }

func (e *Event) String() string {
	return fmt.Sprintf("event(%d@%d)", e.id, e.owner)
}

// NewEvent allocates an event hosted on the calling image. The returned
// handle may be shared with other images (through coarrays or spawn
// arguments) and notified remotely.
func (img *Image) NewEvent() *Event {
	st := img.st
	st.events = append(st.events, &eventState{})
	return &Event{owner: img.Rank(), id: len(st.events) - 1, m: img.m}
}

func (m *Machine) eventState(e *Event) *eventState {
	return m.states[e.owner].events[e.id]
}

// post increments the event on its owner image and wakes waiters. Must
// run "on" the owner (i.e. from a delivery or local call).
func (m *Machine) post(e *Event) {
	es := m.eventState(e)
	es.count++
	for es.count > 0 && len(es.cbs) > 0 {
		cb := es.cbs[0]
		// Nil the consumed slot before re-slicing: the shrinking slice
		// keeps its backing array, and a retained closure there would
		// hold its captures (continuations, clocks) alive across event
		// reuse cycles — and look like a stale waiter to anyone dumping
		// the state.
		es.cbs[0] = nil
		es.cbs = es.cbs[1:]
		es.count--
		cb()
	}
	if len(es.cbs) == 0 {
		// Release the drained backing array so a long-lived, repeatedly
		// reused event does not pin every closure ever registered on it.
		es.cbs = nil
	}
	// A registered callback has priority over blocked waiters and may
	// have consumed the post just delivered; unparking waiters then
	// would be spurious — they would re-evaluate count == 0 and park
	// again, burning simulator events.
	if es.count > 0 {
		for _, w := range es.waiters {
			w.Unpark()
		}
	}
}

// whenPosted arranges fn to run (on the owner image's context) when a
// post is available, consuming it. Used for predicate events on
// asynchronous copies.
func (m *Machine) whenPosted(e *Event, fn func()) {
	es := m.eventState(e)
	if es.count > 0 {
		es.count--
		fn()
		return
	}
	es.cbs = append(es.cbs, fn)
}

// eventNotifyMsg carries a notification and its release clock.
type eventNotifyMsg struct {
	e   *Event
	clk race.Clock
	op  *Op // completion handle of the notify (nil = internal signal)
}

// notifyFrom delivers one post to e with the given release clock (nil
// when the race detector is off), sending an active message when the
// signal originates on a different image than the owner.
func (m *Machine) notifyFrom(fromRank int, e *Event, clk race.Clock) {
	m.notifyFromOp(fromRank, e, clk, nil)
}

// notifyFromOp is notifyFrom carrying a completion handle: the notify op
// completes globally when the post lands on the owner.
func (m *Machine) notifyFromOp(fromRank int, e *Event, clk race.Clock, op *Op) {
	if e.owner == fromRank {
		m.eventRelease(e, clk)
		m.opStageAt(op, fromRank, trace.StageGlobal)
		m.post(e)
		return
	}
	// Notifies release waiters parked on the owner: never coalesce them.
	m.states[fromRank].kern.Send(e.owner, tagEventNotify, &eventNotifyMsg{e: e, clk: clk, op: op}, rt.SendOpts{
		Class:      fabric.AMShort,
		Bytes:      16,
		NoCoalesce: true,
	})
}

// eventRelease joins a notify's clock into the event's accumulation.
func (m *Machine) eventRelease(e *Event, clk race.Clock) {
	if m.race == nil || clk == nil {
		return
	}
	es := m.eventState(e)
	es.rclk = race.Join(es.rclk, clk)
}

// EventNotify posts the event with release semantics: the notification is
// deferred until every implicitly-synchronized operation this image
// initiated earlier has been delivered (so a waiter observes their
// effects), but this call itself returns immediately — later operations
// may proceed before the notify lands (§III-B4a).
//
// The returned Op is the notify's completion handle: local levels fire
// when the release precondition holds (prior updates delivered), global
// completion when the post is visible on the owner.
func (img *Image) EventNotify(e *Event) *Op {
	st := img.st
	// Release boundary: deferred initiations must actually start, and
	// buffered coalesced messages must be on the wire before the notify —
	// a waiter must observe their effects.
	img.flushImplicit()
	img.st.kern.FlushCoalesced()
	from := img.Rank()
	oph := img.opNew("notify", e.owner)
	img.opStage(oph, trace.StageInit)
	// Release clock: the notifier's clock at the notify, joined below
	// with the clocks of the outstanding remote updates the notify waits
	// on — a waiter is ordered after those updates' writes too.
	rel := img.raceRelease()
	m := img.m
	m.afterOutstandingDeliveries(st, func(dclk race.Clock) {
		// The release precondition holds: every outstanding update has
		// been delivered, nothing more is pending locally.
		m.opStageAt(oph, from, trace.StageLocalData)
		m.opStageAt(oph, from, trace.StageLocalOp)
		m.notifyFromOp(from, e, race.Join(rel, dclk), oph)
	})
	return oph
}

// EventWait blocks until a notification is available and consumes it
// (acquire semantics, §III-B4b). The event must be hosted on the calling
// image: waiting on a remote image's event state is not meaningful in
// CAF 2.0 — share a local event instead.
func (img *Image) EventWait(e *Event) {
	if e.owner != img.Rank() {
		panic(fmt.Sprintf("caf: image %d waiting on %v hosted elsewhere", img.Rank(), e))
	}
	// Acquire is a synchronization point for deferred initiations and
	// for this image's coalescing buffers.
	img.flushImplicit()
	img.st.kern.FlushCoalesced()
	start := img.Now()
	btok := img.beginBlock("event_wait")
	es := img.m.eventState(e)
	det := img.m.det
	es.waiters = append(es.waiters, img.proc)
	img.proc.WaitUntil("event wait", func() bool { return es.count > 0 || det.AnyDead() })
	img.endBlock(btok)
	img.traceSpan("event_wait", "sync", start)
	for i, w := range es.waiters {
		if w == img.proc {
			es.waiters = append(es.waiters[:i], es.waiters[i+1:]...)
			break
		}
	}
	if es.count == 0 {
		// Woken by a failure declaration, not a notification: the post
		// this image is waiting for may be lost with the dead image.
		// Fail-stop rather than block forever. (The wait condition is
		// evaluated before first park, so a declaration racing this
		// image between enqueue and park is seen, never lost.)
		panic(failure.Abort{Err: det.ErrFor("event wait")})
	}
	es.count--
	// Acquire: subsequent operations are ordered after the notifies.
	img.raceAcquire(es.rclk)
}

// EventTryWait consumes a notification if one is available.
func (img *Image) EventTryWait(e *Event) bool {
	if e.owner != img.Rank() {
		panic(fmt.Sprintf("caf: image %d trying %v hosted elsewhere", img.Rank(), e))
	}
	es := img.m.eventState(e)
	if es.count > 0 {
		es.count--
		img.raceAcquire(es.rclk)
		return true
	}
	return false
}

// EventCount reports the pending notification count (local events only).
func (img *Image) EventCount(e *Event) int64 {
	if e.owner != img.Rank() {
		panic(fmt.Sprintf("caf: image %d reading %v hosted elsewhere", img.Rank(), e))
	}
	return img.m.eventState(e).count
}
