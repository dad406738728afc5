package sim

import (
	"fmt"
	"strconv"
)

type procState uint8

const (
	procNew procState = iota
	procRunning
	procParked
	procSleeping
	procDone
)

func (s procState) String() string {
	switch s {
	case procNew:
		return "new"
	case procRunning:
		return "running"
	case procParked:
		return "parked"
	case procSleeping:
		return "sleeping"
	case procDone:
		return "done"
	}
	return "?"
}

// procAbort is the panic payload used by Engine.Shutdown to unwind procs.
type procAbort struct{}

// Proc is a simulated process: a body that runs only when the engine
// hands it control, and that advances virtual time via Sleep/Park rather
// than real blocking. Bodies run on pooled carrier coroutines (see
// carrier); each Proc is used once, so a stale Unpark on a finished
// proc stays a no-op even after its carrier has moved on. All Proc
// methods must be called from the proc's own body, except Unpark, which
// is called by whoever wakes it.
type Proc struct {
	eng   *Engine
	id    int
	name  ProcName
	shard int // owning shard: all of this proc's wakeups are admitted there

	fn    func(p *Proc) // body, cleared when it returns
	c     *carrier      // coroutine running the body, nil before start and after exit
	step  func()        // pre-bound onEvent: the start, sleep and wake callback
	state procState

	wakePending bool // an unpark event is already queued
	permit      bool // a stored unpark for a proc not currently parked
	aborted     bool
	blockReason string
}

// ProcName is a proc name kept in parts and joined only when Name is
// called: Prefix+Base, followed by "#"+Seq when Seq > 0. Runtimes that
// number their procs pass the parts instead of formatting a name for
// every proc, since names are only read by diagnostics.
type ProcName struct {
	Prefix, Base string
	Seq          int
}

// String joins the name.
func (n ProcName) String() string {
	if n.Seq <= 0 {
		return n.Prefix + n.Base
	}
	return n.Prefix + n.Base + "#" + strconv.Itoa(n.Seq)
}

// Go creates a process named name and schedules it to start immediately,
// owned by the shard of the creating strand.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAtOn(e.cur, e.now, name, fn)
}

// GoAt creates a process that starts at virtual time t, owned by the
// shard of the creating strand.
func (e *Engine) GoAt(t Time, name string, fn func(p *Proc)) *Proc {
	return e.GoAtOn(e.cur, t, name, fn)
}

// GoOn creates a process owned by a specific shard and schedules it to
// start immediately. Image procs use this so each image's work is
// admitted through its owning shard's queue; their numbered names are
// passed in parts and joined only if something reads them.
func (e *Engine) GoOn(shard int, name ProcName, fn func(p *Proc)) *Proc {
	return e.goAt(shard, e.now, name, fn)
}

// GoAtOn creates a process owned by a specific shard, starting at t.
func (e *Engine) GoAtOn(shard int, t Time, name string, fn func(p *Proc)) *Proc {
	return e.goAt(shard, t, ProcName{Base: name}, fn)
}

func (e *Engine) goAt(shard int, t Time, name ProcName, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:   e,
		id:    e.nextID,
		name:  name,
		shard: shard,
		fn:    fn,
		state: procNew,
	}
	p.step = p.onEvent
	e.nextID++
	e.procs.Add(p)
	e.live++
	e.AtShard(shard, t, p.step)
	return p
}

// onEvent is the proc's one engine callback, pre-bound at creation. A
// proc has at most one resumption queued at a time (its start, the end
// of its sleep, or an Unpark's wake), so the state tells them apart.
func (p *Proc) onEvent() {
	if p.wakePending {
		p.wakePending = false
		if p.aborted || p.state != procParked {
			// Woken by something else in the meantime; convert this
			// wake into a permit so it is not lost.
			if p.state != procDone {
				p.permit = true
			}
			return
		}
	} else if p.aborted || (p.state != procNew && p.state != procSleeping) {
		return
	}
	p.state = procRunning
	p.eng.resumeProc(p)
}

// run executes the body on the proc's carrier. A panic other than
// Shutdown's abort becomes the engine's error; either way the proc is
// finished when run returns, and the carrier is free for the next body.
func (p *Proc) run() {
	defer func() {
		r := recover()
		if _, ok := r.(procAbort); !ok && r != nil && p.eng.procErr == nil {
			p.eng.procErr = fmt.Errorf("sim: proc %q panicked: %v", p.Name(), r)
		}
		p.state = procDone
		p.fn = nil
		p.eng.live--
	}()
	if !p.aborted {
		p.fn(p)
	}
}

// ID returns the process id, unique within its engine.
func (p *Proc) ID() int { return p.id }

// Shard returns the id of the shard that owns this proc's events.
func (p *Proc) Shard() int { return p.shard }

// Name returns the process name.
func (p *Proc) Name() string { return p.name.String() }

// Engine returns the engine the proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// State returns the proc's scheduling state ("new", "running", "parked",
// "sleeping", "done") for diagnostics.
func (p *Proc) State() string { return p.state.String() }

// BlockReason returns what a parked proc is waiting on ("" if not
// parked), for diagnostics.
func (p *Proc) BlockReason() string { return p.blockReason }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

func (p *Proc) describe() string {
	s := fmt.Sprintf("%s[%d] %s", p.Name(), p.id, p.state)
	if p.blockReason != "" {
		s += " (" + p.blockReason + ")"
	}
	return s
}

// yieldToEngine suspends the body and gives control back to the engine
// loop, returning when the engine resumes this proc.
func (p *Proc) yieldToEngine() {
	if !p.c.yield(struct{}{}) || p.aborted {
		panic(procAbort{})
	}
}

// Sleep advances this process's virtual time by d, letting other events run.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Even a zero-length sleep is a scheduling point: it lets
		// same-timestamp events queued earlier run first.
		d = 0
	}
	p.state = procSleeping
	p.eng.AtShard(p.shard, p.eng.now+d, p.step)
	p.yieldToEngine()
}

// Park blocks the process until another strand calls Unpark. If an unpark
// permit is already stored (Unpark ran while this proc was not parked),
// Park consumes it and returns immediately. Callers waiting on a condition
// must re-check it in a loop: wakeups may be spurious when a proc waits on
// several sources.
func (p *Proc) Park(reason string) {
	if p.permit {
		p.permit = false
		return
	}
	p.state = procParked
	p.blockReason = reason
	p.yieldToEngine()
	p.blockReason = ""
}

// Unpark wakes p if it is parked, or stores a permit so p's next Park
// returns immediately. Safe to call from event callbacks or other procs;
// the wake is delivered as a same-time event, preserving determinism.
func (p *Proc) Unpark() {
	switch p.state {
	case procParked:
		if p.wakePending {
			return
		}
		p.wakePending = true
		// The wake is admitted through the proc's owning shard: wakers
		// on other shards post into its inbox, keeping every resumption
		// of p in its own shard's admission stream.
		p.eng.AtShard(p.shard, p.eng.now, p.step)
	case procDone:
		// nothing to wake
	default:
		p.permit = true
	}
}

// WaitUntil parks the process until cond() holds. The waker must call
// Unpark (directly or via a Cond) whenever the condition may have changed.
func (p *Proc) WaitUntil(reason string, cond func() bool) {
	for !cond() {
		p.Park(reason)
	}
}

// ProcSet holds unfinished procs in creation order. Finished procs are
// swept out when the backing array fills, and the array only grows when
// a sweep frees less than half of it, so its size is bounded by the
// peak number of live procs rather than by how many were ever created.
// The zero value is an empty set.
type ProcSet struct {
	procs []*Proc
}

// Add appends p, sweeping out finished procs first if the set is full.
func (s *ProcSet) Add(p *Proc) {
	if n := len(s.procs); n > 0 && n == cap(s.procs) {
		s.sweep()
		if len(s.procs) > n/2 {
			s.procs = append(make([]*Proc, 0, 2*n), s.procs...)
		}
	}
	s.procs = append(s.procs, p)
}

// Live returns the unfinished procs in creation order. The slice is
// owned by the set and valid until the next Add.
func (s *ProcSet) Live() []*Proc {
	s.sweep()
	return s.procs
}

func (s *ProcSet) sweep() {
	keep := s.procs[:0]
	for _, p := range s.procs {
		if p.state != procDone {
			keep = append(keep, p)
		}
	}
	clear(s.procs[len(keep):])
	s.procs = keep
}

// Cond is a condition-variable analogue for simulated processes.
// The zero value is ready to use.
type Cond struct {
	waiters []*Proc
}

// Wait enqueues p and parks it. Like sync.Cond, callers must re-check
// their predicate in a loop around Wait.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.Park("cond wait")
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	w.Unpark()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.Unpark()
	}
}

// Waiters reports how many procs are queued on the Cond.
func (c *Cond) Waiters() int { return len(c.waiters) }
