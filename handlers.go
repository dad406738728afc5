package caf

import (
	"caf2go/internal/race"
	"caf2go/internal/trace"
)

// Fabric tag allocation for the caf runtime layer. internal/collect owns
// tag 100; everything else lives here.
const (
	tagSpawn       uint16 = 300
	tagSpawnNamed  uint16 = 301
	tagCopyPut     uint16 = 310
	tagCopyGetReq  uint16 = 311
	tagEventNotify uint16 = 313
	tagEventChain  uint16 = 314
	tagResume      uint16 = 315
	tagLock        uint16 = 320
	tagUnlock      uint16 = 321
	tagBlockingGet uint16 = 330
	tagBlockingPut uint16 = 331
)

// registerHandlers installs every caf AM handler on all images.
func (m *Machine) registerHandlers() {
	m.k.RegisterHandler(tagSpawn, m.handleSpawn)
	m.k.RegisterHandler(tagSpawnNamed, m.handleSpawnNamed)
	m.k.RegisterHandler(tagCopyPut, m.handleCopyPut)
	m.k.RegisterHandler(tagCopyGetReq, m.handleCopyGetReq)
	m.k.RegisterHandler(tagEventNotify, m.handleEventNotify)
	m.k.RegisterHandler(tagEventChain, m.handleEventChain)
	m.k.RegisterHandler(tagResume, m.handleResume)
	m.k.RegisterHandler(tagLock, m.handleLock)
	m.k.RegisterHandler(tagUnlock, m.handleUnlock)
	m.k.RegisterHandler(tagBlockingGet, m.handleBlockingGet)
	m.k.RegisterHandler(tagBlockingPut, m.handleBlockingPut)
}

// delivToken tracks one outstanding remote update for release-semantics
// event notification. clk is the clock covering the update's delivered
// effects (the op's write clock for a put, read clock for a get request;
// nil when the race detector is off) — an EventNotify waiting on the
// token releases it to waiters along with the notifier's own clock.
type delivToken struct {
	done bool
	cbs  []func()
	clk  race.Clock
}

func (t *delivToken) complete() {
	if t.done {
		return
	}
	t.done = true
	cbs := t.cbs
	t.cbs = nil
	for _, cb := range cbs {
		cb()
	}
}

// addDelivToken registers an outstanding remote update on the image,
// with the clock covering its effects. The token lives in the
// operation's own record. Completed tokens are swept out whenever the
// list is full, and the list only grows when a sweep frees less than
// half of it, so it is bounded by the updates in flight rather than
// growing until the next EventNotify prunes it.
func (st *imageState) addDelivToken(t *delivToken, clk race.Clock) {
	t.clk = clk
	if n := len(st.pendingDeliv); n > 0 && n == cap(st.pendingDeliv) {
		st.pendingDeliv = liveTokens(st.pendingDeliv)
		if len(st.pendingDeliv) > n/2 {
			st.pendingDeliv = append(make([]*delivToken, 0, 2*n), st.pendingDeliv...)
		}
	}
	st.pendingDeliv = append(st.pendingDeliv, t)
}

// liveTokens compacts ts in place to its not-yet-delivered tokens,
// keeping their order and clearing the vacated slots.
func liveTokens(ts []*delivToken) []*delivToken {
	live := ts[:0]
	for _, t := range ts {
		if !t.done {
			live = append(live, t)
		}
	}
	for i := len(live); i < len(ts); i++ {
		ts[i] = nil
	}
	return live
}

// opMessage is the initiator's side of an operation carried by one
// message: its completion handle and its delivery token, embedded in the
// operation's record so that the operation costs one allocation. It is
// that message's completion. The ack is the op's local completion. An
// abandoned message (dead destination) completes the token too, so that
// an EventNotify does not wait forever on a delivery the fabric has
// charged off, and closes the op, whose remote side will never run, so
// that blocked-time attribution still sees it.
type opMessage struct {
	op  Op
	tok delivToken
}

func (o *opMessage) Injected() {}

func (o *opMessage) Delivered() {
	o.op.m.opStageAt(&o.op, o.op.img, trace.StageLocalOp)
	o.tok.complete()
}

func (o *opMessage) Abandoned() {
	m := o.op.m
	m.opStageAt(&o.op, o.op.img, trace.StageLocalOp)
	m.opStageAt(&o.op, o.op.img, trace.StageGlobal)
	o.tok.complete()
}

// afterOutstandingDeliveries runs fn once every remote update outstanding
// at call time has been delivered, passing the join of those updates'
// clocks (nil when the race detector is off). Updates issued later do not
// delay fn — exactly the porousness EventNotify needs.
func (m *Machine) afterOutstandingDeliveries(st *imageState, fn func(clk race.Clock)) {
	// Prune finished tokens while collecting the live ones.
	st.pendingDeliv = liveTokens(st.pendingDeliv)
	waitFor := append([]*delivToken(nil), st.pendingDeliv...)
	var clk race.Clock
	for _, t := range waitFor {
		clk = race.Join(clk, t.clk)
	}
	if len(waitFor) == 0 {
		fn(nil)
		return
	}
	remaining := len(waitFor)
	for _, t := range waitFor {
		t.cbs = append(t.cbs, func() {
			remaining--
			if remaining == 0 {
				fn(clk)
			}
		})
	}
}
