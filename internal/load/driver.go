package load

import (
	"fmt"

	caf "caf2go"
	"caf2go/internal/path"
)

// Issuer launches one request from the driving image. It runs on the
// driver's proc at the request's issue time and must not block; fire
// spawns, register continuations on d.PS, and settle the request later
// through d.Col (or immediately, e.g. when the target is already dead).
type Issuer func(d *Driver, r Request)

// Driver is the per-client handle an Issuer works with.
type Driver struct {
	Img *caf.Image
	PS  *caf.PollSet
	Col *Collector
}

// DriveOpts tunes the client event loop.
type DriveOpts struct {
	// Tick is the polling quantum while requests are outstanding
	// (default 2µs). Completions observed via PollSet continuations are
	// quantized to tick boundaries; completions the service delivers by
	// reply-spawn land at exact virtual times. Both are deterministic.
	Tick caf.Time
	// Reconcile enables the per-tick ReconcileDead pass, failing
	// outstanding requests whose target image has been declared dead.
	// Required for request/reply protocols (a reply can be lost in the
	// crash window); leave off for protocols whose continuations always
	// fire, such as spawn ops observed via OnGlobalCompletion.
	Reconcile bool
	// Replay enables the per-tick ReplayDead pass: outstanding requests
	// whose target's death has been committed by the replication epoch
	// agreement are withdrawn and re-issued (through the same Issuer)
	// instead of failed — the issuer routes them to the promoted backup.
	// Use with replicated services; composes with Reconcile (replay
	// first, then reconcile what still has no live route).
	Replay bool
	// GiveUpAfter bounds how long the loop will spin with outstanding
	// requests and no progress before panicking with a diagnostic
	// (default 1 virtual second). A deterministic loud failure beats a
	// silent test hang.
	GiveUpAfter caf.Time
}

// Drive runs the open-loop client event loop on img for client index
// `client` of the schedule: issue every arrival at its scheduled
// virtual time (regardless of how many earlier requests are still in
// flight — open loop), poll continuations, reconcile crashed targets,
// and return once every one of this client's requests is settled. If
// img itself is declared dead, the loop stops and charges its unissued
// and outstanding requests as lost to img.
//
// The loop never parks in PollSet.Wait: after an image death, Wait
// aborts the whole proc when woken with nothing ready, which is exactly
// wrong for a server that must keep serving through the crash. Instead
// it alternates Poll with Compute-sleeps to the next arrival or tick
// boundary — the sim.Proc permit semantics make those sleeps exact, so
// the loop's timing is deterministic.
func Drive(img *caf.Image, client int, sched []Request, col *Collector, o DriveOpts, issue Issuer) {
	if o.Tick <= 0 {
		o.Tick = 2 * caf.Microsecond
	}
	if o.GiveUpAfter <= 0 {
		o.GiveUpAfter = caf.Second
	}
	d := &Driver{Img: img, PS: img.NewPollSet(), Col: col}
	me := img.Rank()
	m := img.Machine()

	// Every initiation the issuer makes runs under the request's root
	// path context, so its ops land on the request's causal DAG. With
	// path tracing off the scope is a plain field swap and opNew ignores
	// it entirely.
	traced := func(r Request) {
		prev := img.PathScope(path.ReqCtx(r.Seq))
		issue(d, r)
		img.PathScope(prev)
	}

	var mine []Request
	for _, r := range sched {
		if r.Client == client {
			mine = append(mine, r)
		}
	}

	i := 0
	lastProgress := img.Now()
	prevOut := -1
	for {
		now := img.Now()
		if m.ImageDead(me) {
			// This client has been declared dead: nothing it issued can
			// be observed and nothing more will be issued. Settle its
			// share as lost to itself so the survivors' SLO still lands.
			col.Abandon(m, now, me, mine[i:])
			return
		}
		for i < len(mine) && mine[i].At <= now {
			r := mine[i]
			i++
			traced(r)
		}
		d.PS.Poll()
		if o.Replay {
			for _, r := range col.ReplayDead(m, me) {
				traced(r)
			}
		}
		if o.Reconcile {
			col.ReconcileDead(m, now, me)
		}
		out := col.Outstanding(me)
		if i >= len(mine) && out == 0 {
			break
		}
		if out != prevOut {
			prevOut = out
			lastProgress = now
		}
		if out > 0 && now-lastProgress > o.GiveUpAfter {
			panic(fmt.Sprintf(
				"load: client image %d stalled at t=%v with %d requests outstanding (issued %d/%d) — no progress for %v",
				me, now, out, i, len(mine), o.GiveUpAfter))
		}
		next := now + o.Tick
		if out == 0 {
			// Nothing in flight: skip straight to the next arrival
			// instead of burning idle ticks.
			next = mine[i].At
		} else if i < len(mine) && mine[i].At < next {
			next = mine[i].At
		}
		if next <= now {
			next = now + 1
		}
		img.Compute(next - now)
	}
	d.PS.Poll()
}
