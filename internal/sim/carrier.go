//go:build go1.23

package sim

import "iter"

// carrier is a runtime coroutine that runs proc bodies one after
// another. The engine switches into it with next and the running body
// switches back with yield; both are direct coroutine switches rather
// than channel operations through the scheduler. When a body returns,
// the carrier goes back to the engine's idle pool, so a new proc reuses
// a suspended coroutine instead of starting a goroutine.
type carrier struct {
	p     *Proc // proc whose body runs here, nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func newCarrier() *carrier {
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine: run the bound proc's body, hand control back,
// and wait for the next proc, until stop makes yield return false.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// resumeProc transfers control to p until it yields back. A proc's
// first resumption binds it to an idle carrier, or a new one; when its
// body returns the carrier goes back to the pool.
func (e *Engine) resumeProc(p *Proc) {
	prev := e.current
	e.current = p
	c := p.c
	if c == nil {
		if n := len(e.idle); n > 0 {
			c = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else {
			c = newCarrier()
		}
		c.p, p.c = p, c
	}
	c.next()
	if p.state == procDone {
		c.p, p.c = nil, nil
		e.idle = append(e.idle, c)
	}
	e.current = prev
}

// releaseCarriers stops every idle carrier so its goroutine exits.
// Carriers still running a body are untouched.
func (e *Engine) releaseCarriers() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}
