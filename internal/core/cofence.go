package core

import (
	"caf2go/internal/failure"
	"caf2go/internal/sim"
)

// OpClass describes how an asynchronous operation touches the initiating
// image's local data — the classification cofence's directional arguments
// filter on (§III-B).
type OpClass uint8

// OpClass bits.
const (
	// OpReads marks operations that read local data (e.g. an async copy
	// out of a local source buffer).
	OpReads OpClass = 1 << iota
	// OpWrites marks operations that write local data (e.g. an async
	// copy into a local destination buffer).
	OpWrites
)

func (c OpClass) String() string {
	switch c {
	case 0:
		return "none"
	case OpReads:
		return "read"
	case OpWrites:
		return "write"
	case OpReads | OpWrites:
		return "read|write"
	}
	return "?"
}

// Allow is a cofence directional argument: which class of implicitly-
// synchronized operations may cross the fence in that direction.
type Allow uint8

// Allow values, mirroring cofence(DOWNWARD=READ/WRITE/ANY, UPWARD=…).
// The zero value AllowNone is the default full fence: nothing crosses.
const (
	AllowNone  Allow = 0
	AllowRead  Allow = Allow(OpReads)
	AllowWrite Allow = Allow(OpWrites)
	AllowAny   Allow = Allow(OpReads | OpWrites)
)

func (a Allow) String() string {
	switch a {
	case AllowNone:
		return "none"
	case AllowRead:
		return "read"
	case AllowWrite:
		return "write"
	case AllowAny:
		return "any"
	}
	return "?"
}

// passes reports whether an operation of class c may defer its local data
// completion past a fence that allows a. An operation crosses only if
// every way it touches local data is allowed: an op that both reads and
// writes cannot cross a WRITE-only fence (§III-B: "a cofence that allows
// either a read or write to pass across may not have any practical
// effect if the unconstrained action must occur before a constrained
// action").
func passes(c OpClass, a Allow) bool {
	return c&^OpClass(a) == 0
}

// PendingOp is one implicitly-synchronized asynchronous operation whose
// local data completion has not yet been observed by a fence.
type PendingOp struct {
	class OpClass
	done  bool
	ct    *CofenceTracker
	cbs   []func()
}

// Class returns the operation's local-data classification.
func (op *PendingOp) Class() OpClass { return op.class }

// LocalDataDone reports whether the op reached local data completion.
func (op *PendingOp) LocalDataDone() bool { return op.done }

// OnLocalData registers fn to run at the op's local data completion,
// immediately if it already completed. Callbacks run after fence waiters
// have been unparked, in registration order, exactly once.
func (op *PendingOp) OnLocalData(fn func()) {
	if fn == nil {
		return
	}
	if op.done {
		fn()
		return
	}
	op.cbs = append(op.cbs, fn)
}

// CompleteLocalData marks the operation locally data complete and wakes
// any fence waiting on it. It is idempotent.
func (op *PendingOp) CompleteLocalData() {
	if op.done {
		return
	}
	op.done = true
	op.ct.sweep()
	for _, w := range op.ct.waiters {
		w.Unpark()
	}
	cbs := op.cbs
	op.cbs = nil
	for i, fn := range cbs {
		cbs[i] = nil // consumed callbacks must not be retained
		fn()
	}
}

// Initiator starts an implicitly-synchronized operation. An operation
// record implements it directly, so registering the record allocates no
// closure; InitFunc adapts a plain func.
type Initiator interface {
	Initiate()
}

// InitFunc is a func used as an Initiator.
type InitFunc func()

// Initiate calls f.
func (f InitFunc) Initiate() { f() }

// delayedOp is an initiation the relaxed runtime has buffered.
type delayedOp struct {
	class OpClass
	init  Initiator
}

// CofenceTracker is the per-image registry of implicitly-synchronized
// asynchronous operations. It provides the cofence wait and, in relaxed
// mode, an initiation buffer that models the runtime's freedom to defer
// starting implicit operations until a synchronization point demands
// them — the operational face of the paper's relaxed memory model.
type CofenceTracker struct {
	pending []*PendingOp
	waiters []*sim.Proc

	// Relaxed-mode initiation buffering.
	relaxed  bool
	maxDelay int // flush threshold; <=0 means flush immediately
	delayed  []delayedOp

	det *failure.Detector // nil ⇒ fences may block forever on lost ops
}

// NewCofenceTracker returns a tracker. With relaxed=false, operations
// initiate eagerly (GASNet-style); with relaxed=true up to maxDelay
// initiations are buffered and released by fences and flushes.
func NewCofenceTracker(relaxed bool, maxDelay int) *CofenceTracker {
	return &CofenceTracker{relaxed: relaxed, maxDelay: maxDelay}
}

// Pending reports the number of registered ops not yet local-data
// complete.
func (ct *CofenceTracker) Pending() int { return len(ct.pending) }

// Delayed reports the number of buffered initiations (relaxed mode).
func (ct *CofenceTracker) Delayed() int { return len(ct.delayed) }

// Register records an implicitly-synchronized operation of the given
// class and schedules its initiation. In eager mode init runs
// immediately; in relaxed mode it may be buffered. The returned PendingOp
// must be marked via CompleteLocalData when the op's local buffers are
// free.
func (ct *CofenceTracker) Register(class OpClass, init Initiator) *PendingOp {
	op := &PendingOp{}
	ct.Add(op, class, init)
	return op
}

// Add is Register for an op that lives inside its operation's own
// record: op must be a zero PendingOp, which Add fills in.
func (ct *CofenceTracker) Add(op *PendingOp, class OpClass, init Initiator) {
	*op = PendingOp{class: class, ct: ct}
	ct.pending = append(ct.pending, op)
	if ct.relaxed && ct.maxDelay > 0 {
		ct.delayed = append(ct.delayed, delayedOp{class: class, init: init})
		if len(ct.delayed) > ct.maxDelay {
			ct.flushDelayed(AllowNone)
		}
	} else {
		init.Initiate()
	}
}

// sweep drops completed ops from the pending list.
func (ct *CofenceTracker) sweep() {
	live := ct.pending[:0]
	for _, op := range ct.pending {
		if !op.done {
			live = append(live, op)
		}
	}
	for i := len(live); i < len(ct.pending); i++ {
		ct.pending[i] = nil
	}
	ct.pending = live
}

// flushDelayed initiates buffered ops that may not defer past a fence
// allowing `down`. Ops whose class passes stay buffered (their initiation
// may legally move below the fence).
func (ct *CofenceTracker) flushDelayed(down Allow) {
	keep := ct.delayed[:0]
	for _, d := range ct.delayed {
		if passes(d.class, down) {
			keep = append(keep, d)
		} else {
			d.init.Initiate()
		}
	}
	for i := len(keep); i < len(ct.delayed); i++ {
		ct.delayed[i] = delayedOp{}
	}
	ct.delayed = keep
}

// Flush initiates every buffered op unconditionally (used by event
// notify/wait, finish boundaries, and program exit).
func (ct *CofenceTracker) Flush() { ct.flushDelayed(AllowNone) }

// Constrained returns the registered ops a fence allowing `down` would
// wait on: not yet local-data complete and not allowed to pass. Buffered
// initiations that may not defer past such a fence are started first,
// exactly as Cofence would — this is the non-parking face of the fence,
// for callers that register completion callbacks instead of blocking.
func (ct *CofenceTracker) Constrained(down Allow) []*PendingOp {
	ct.flushDelayed(down)
	var out []*PendingOp
	for _, op := range ct.pending {
		if !op.done && !passes(op.class, down) {
			out = append(out, op)
		}
	}
	return out
}

// Cofence blocks process p until every registered implicitly-synchronized
// operation not allowed to pass downward is local data complete. The up
// argument is accepted for API fidelity: it constrains compile-time
// hoisting of later operations above the fence, which a runtime executing
// in program order never performs; it also does not affect which buffered
// initiations may remain deferred (that is down's job).
func (ct *CofenceTracker) Cofence(p *sim.Proc, down, up Allow) {
	_ = up
	ct.flushDelayed(down)
	sat := func() bool {
		for _, op := range ct.pending {
			if !op.done && !passes(op.class, down) {
				return false
			}
		}
		return true
	}
	ct.waiters = append(ct.waiters, p)
	p.WaitUntil("cofence", func() bool { return sat() || ct.det.AnyDead() })
	for i, w := range ct.waiters {
		if w == p {
			ct.waiters = append(ct.waiters[:i], ct.waiters[i+1:]...)
			break
		}
	}
	ct.sweep()
	if !sat() {
		// A failure declaration woke the fence while constrained ops
		// were still pending: some may have been lost with the dead
		// image. Fail-stop rather than wait forever.
		panic(failure.Abort{Err: ct.det.ErrFor("cofence")})
	}
}

// SetDetector makes fences failure-aware: a cofence blocked on ops that
// can no longer complete (their peer was declared dead) aborts with an
// ImageFailedError instead of hanging. nil preserves legacy blocking.
func (ct *CofenceTracker) SetDetector(d *failure.Detector) { ct.det = d }
