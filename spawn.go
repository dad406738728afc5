package caf

import (
	"caf2go/internal/core"
	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/path"
	"caf2go/internal/race"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// SpawnFn is the body of a shipped function. It executes on the target
// image in its own simulated process, with an Image bound to that target.
// Values captured by the closure live in the simulation's shared address
// space; to model CAF 2.0's copy-by-value argument passing (and have the
// bytes charged to the network), pass data through WithPayload.
type SpawnFn func(img *Image)

// SpawnOpt configures one Spawn.
type SpawnOpt func(*spawnOpts)

type spawnOpts struct {
	event  *Event
	bytes  int
	data   []byte
	mirror bool
}

// WithEvent makes the spawn explicitly completed: e is notified when the
// shipped function finishes executing on the target (§II-C2). An
// explicitly-completed spawn is not covered by cofence or by the
// enclosing finish — though implicit operations it initiates still are
// (Fig. 4, spawn row).
func WithEvent(e *Event) SpawnOpt { return func(o *spawnOpts) { o.event = e } }

// WithBytes sets the modeled argument payload size without shipping real
// data (default 32 bytes of header).
func WithBytes(n int) SpawnOpt { return func(o *spawnOpts) { o.bytes = n } }

// withMirrorPath marks the spawn as a replication mirror write for path
// tracing: its fabric legs claim the ReplMirror bucket instead of Wire,
// so a traced request's decomposition separates replication cost from
// ordinary network time.
func withMirrorPath() SpawnOpt { return func(o *spawnOpts) { o.mirror = true } }

// WithPayload ships a copied byte payload to the target; the shipped
// function retrieves it with Payload. The slice is copied at initiation,
// so the caller may reuse its buffer after the spawn's local data
// completion (argument evaluation, §III-B3).
func WithPayload(data []byte) SpawnOpt {
	return func(o *spawnOpts) {
		o.data = data
		o.bytes = len(data) + 32
	}
}

// spawnMsg is one shipped function: its wire payload and, in the same
// record, the spawning side's initiation state and completion.
type spawnMsg struct {
	fn        SpawnFn
	finishID  int64
	event     *Event
	data      []byte
	opMessage            // completion handle and delivery token
	rclk      race.Clock // spawner's clock at initiation (fork edge)
	pctx      path.Ctx   // traced request context the shipped fn runs under

	// Initiation state, used on the spawning image.
	st      *imageState
	target  int
	cofence core.PendingOp // registration of an implicit spawn
	args    []byte         // WithPayload's buffer, copied at initiation
	send    rt.SendOpts
}

// Initiate ships the function. Argument evaluation — the payload is
// copied here — is also the spawn's local data completion.
func (msg *spawnMsg) Initiate() {
	m, me := msg.op.m, msg.op.img
	m.opStageAt(&msg.op, me, trace.StageInit)
	m.opStageAt(&msg.op, me, trace.StageLocalData)
	if msg.args != nil {
		msg.data = append([]byte(nil), msg.args...)
	}
	msg.st.addDelivToken(&msg.tok, msg.rclk)
	msg.st.kern.Send(msg.target, tagSpawn, msg, msg.send)
}

// payloadKey carries the spawn payload to the shipped function's Image.
type payloadCarrier struct{ data []byte }

// Payload returns the byte payload shipped with the spawn that started
// this proc, or nil.
func (img *Image) Payload() []byte {
	if img.payload == nil {
		return nil
	}
	return img.payload.data
}

// Spawn ships fn to the target image for asynchronous execution
// (§II-C2). Without WithEvent the spawn completes implicitly: the
// enclosing finish tracks its global completion, and a cofence observes
// its local data completion (argument evaluation). The shipped function
// inherits the spawning context's innermost finish, so functions it
// spawns transitively remain covered (§III-A).
//
// The returned Op is the spawn's completion handle: local data fires at
// argument evaluation, local completion when the target accepted the
// function, global completion when the shipped function has finished
// executing there. Discarding it is always safe.
func (img *Image) Spawn(target int, fn SpawnFn, opts ...SpawnOpt) *Op {
	o := spawnOpts{bytes: 32}
	for _, opt := range opts {
		opt(&o)
	}
	if target < 0 || target >= img.NumImages() {
		panic("caf: spawn target out of range")
	}
	st := img.st
	st.spawnsSent++
	img.traceInstant("spawn", "ship")

	// Fork edge: the child's clock starts from the spawner's at this
	// program point (snapshotted before any relaxed-mode deferral).
	msg := &spawnMsg{fn: fn, finishID: img.trackID(), event: o.event, rclk: img.raceRelease(),
		st: st, target: target, args: o.data}
	img.opInit(&msg.op, "spawn", target)
	if msg.op.pctx.Active() {
		// The shipped function continues the traced request's causal
		// path: it runs under the spawn op's span as its parent.
		msg.pctx = path.Ctx{Req: msg.op.pctx.Req, Span: msg.op.span}
	}
	msg.send = rt.SendOpts{
		Done:  msg,
		Class: classForBytes(img.m, o.bytes),
		Bytes: o.bytes,
		Path:  path.WireTag(msg.pctx),
	}
	if o.mirror {
		msg.send.Path = path.MirrorTag(msg.pctx)
	}

	if o.event == nil {
		msg.send.Track = img.track()
		// Local data completion of a spawn is argument evaluation; with
		// payload copied at initiation, initiation is that point.
		img.tracker().Add(&msg.cofence, core.OpReads, msg)
		msg.cofence.CompleteLocalData()
	} else {
		msg.Initiate()
	}
	return &msg.op
}

// handleSpawn executes a shipped function on the destination image.
func (m *Machine) handleSpawn(d *rt.Delivery) {
	msg := d.Payload.(*spawnMsg)
	st := m.states[d.Img.Rank()]
	from := d.Src
	d.Detach()
	st.kern.Go("spawn", func(p *sim.Proc) {
		st.spawnsExecuted++
		// Each shipped function carries its own cofence tracker: a
		// cofence inside it observes only operations it launched
		// (dynamic scoping, paper Fig. 10 / §III-B3). It also gets its
		// own trace strand id, so handler spans render on their own
		// Perfetto track instead of interleaving with the main's.
		st.nextTid++
		img := &Image{m: m, st: st, proc: p, tid: st.nextTid,
			inheritedFinish: msg.finishID,
			pctx:            msg.pctx}
		if m.det != nil {
			// A shipped function aborted by a failure declaration still
			// completes its delivery: the enclosing finish's received ==
			// completed invariant must hold even for activities that
			// died blocked on a dead peer.
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				ab, ok := r.(failure.Abort)
				if !ok {
					panic(r)
				}
				m.recordAbort(st.kern.Rank(), ab.Err)
				d.Complete()
			}()
		}
		if rs := m.race; rs != nil {
			img.rc = rs.d.NewCtx(m.raceChanArrive(from, st.kern.Rank(), msg.rclk))
		}
		if msg.data != nil {
			img.payload = &payloadCarrier{data: msg.data}
		}
		execStart := p.Now()
		msg.fn(img)
		img.traceSpan("spawn-exec", "ship", execStart)
		// Spawned context exit is a synchronization point for any
		// initiations it deferred.
		img.flushImplicit()
		// The shipped function has finished executing on the target: the
		// spawn is globally complete.
		m.opStageAt(&msg.op, img.Rank(), trace.StageGlobal)
		m.spawnJoin(img, msg.event, msg.finishID, d)
	})
}

// spawnJoin installs a completed shipped function's join edge: an
// implicit spawn releases its final clock into the enclosing finish (the
// finish exit is ordered after the child's body), an explicit one into
// its completion event; then the delivery completes.
func (m *Machine) spawnJoin(img *Image, event *Event, finishID int64, d *rt.Delivery) {
	if rs := m.race; rs != nil && img.rc != nil && event == nil && finishID != 0 {
		fs := rs.finishSyncFor(finishID)
		img.rc.ReleaseInto(&fs.ops)
	}
	if event != nil {
		m.notifyFrom(img.Rank(), event, img.raceRelease())
	}
	d.Complete()
}

// classForBytes picks the message class by payload size.
func classForBytes(m *Machine, bytes int) fabric.Class {
	if bytes > m.k.Fabric().MaxMedium() {
		return fabric.RDMA
	}
	return fabric.AMMedium
}

// MaxSpawnPayload reports the medium-AM payload cap — the limit that
// bounds how much work a single shipped steal can carry (§IV-C1a).
func (img *Image) MaxSpawnPayload() int { return img.m.k.Fabric().MaxMedium() - 32 }
