// Package rt is the runtime kernel of the simulated CAF 2.0 machine: one
// ImageKernel per process image, typed active-message dispatch with
// request/reply correlation, per-image simulated processes, and the
// message-lifecycle tracking hooks that the finish termination-detection
// plane (internal/core) observes.
//
// Layering: fabric moves bytes; rt moves typed messages and knows what an
// image is; core counts tracked messages; the caf package on top exposes
// the language-level constructs.
package rt

import (
	"fmt"
	"math/rand"
	"strconv"

	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/path"
	"caf2go/internal/sim"
)

// Reserved fabric tags used by rt itself.
const (
	tagReply uint16 = 0xFFFF
)

// Tracker observes the lifecycle of tracked messages. A message sent with
// a non-nil track context triggers, in order: OnSend on the source (which
// may transform the context, e.g. stamping the sender's epoch parity),
// OnReceive on the destination at delivery, OnComplete on the destination
// when the handler (or the detached work it started) finishes, and OnAck
// on the source when the delivery acknowledgement returns. The finish
// plane implements this to maintain its sent/received/completed/delivered
// counters (paper Fig. 7).
type Tracker interface {
	// OnSend may transform the context (stamp parity, bind the sender's
	// epoch, record the destination); the returned value travels with
	// the message.
	OnSend(src *ImageKernel, dst int, ctx any) any
	// OnReceive may transform the context again (bind the receiver's
	// epoch); the returned value is what OnComplete later sees.
	OnReceive(dst *ImageKernel, ctx any) any
	OnComplete(dst *ImageKernel, ctx any)
	OnAck(src *ImageKernel, ctx any)
	// OnAbandoned fires on the source when the fabric gives up on a
	// tracked message for good (dead destination NIC, dead source NIC,
	// or exhausted retransmission budget). It replaces the OnAck that
	// will never come; only fired when a failure detector is attached.
	OnAbandoned(src *ImageKernel, ctx any)
}

// Handler processes a delivered message on an image.
type Handler func(d *Delivery)

// env is one message's runtime record: the fabric message, the
// receiver's Delivery view and the sender's completion, in a single
// allocation. The fabric message's payload is the env itself. The
// sender's stamped tracking context and completion ride along so that
// the env can stand in as the fabric-level Completion, forwarding the
// ack to the tracker before the sender's own callback.
type env struct {
	msg   fabric.Msg
	d     Delivery          // Payload, replyTo and replyID are set at send
	from  *ImageKernel      // the sender
	track any               // OnSend's stamped context, nil if untracked
	done  fabric.Completion // the sender's completion, or nil
}

// Injected forwards the injection notice to the sender's completion;
// send asks for it only when there is one.
func (e *env) Injected() { e.done.Injected() }

// Delivered counts the ack with the tracker, then runs the sender's
// completion.
func (e *env) Delivered() {
	if e.track != nil {
		e.from.k.tracker.OnAck(e.from, e.track)
	}
	if e.done != nil {
		e.done.Delivered()
	}
}

// Abandoned reconciles the tracker and runs the sender's completion —
// only with a failure detector attached: without one, abandonment stays
// silent, exactly as it was before the detector existed.
func (e *env) Abandoned() {
	if e.from.k.det == nil {
		return
	}
	if e.track != nil {
		e.from.k.tracker.OnAbandoned(e.from, e.track)
	}
	if e.done != nil {
		e.done.Abandoned()
	}
}

// Kernel is the whole simulated machine.
type Kernel struct {
	eng     *sim.Engine
	fab     *fabric.Fabric
	images  []*ImageKernel
	tracker Tracker
	det     *failure.Detector // nil unless a failure detector is attached
	nextID  int64             // generator for team ids etc.
}

// NewKernel builds a machine with n images over the given fabric config.
func NewKernel(eng *sim.Engine, n int, cfg fabric.Config) *Kernel {
	k := &Kernel{
		eng: eng,
		fab: fabric.New(eng, n, cfg),
	}
	k.images = make([]*ImageKernel, n)
	for i := 0; i < n; i++ {
		img := &ImageKernel{
			k:     k,
			rank:  i,
			ep:    k.fab.Endpoint(i),
			rng:   eng.DeriveRand(int64(i)),
			calls: make(map[uint64]*callWait),

			procPrefix: "img" + strconv.Itoa(i) + "/",
		}
		k.images[i] = img
		img.ep.RegisterHandler(tagReply, func(ep *fabric.Endpoint, m *fabric.Msg) {
			img.handleReply(m)
		})
	}
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Fabric returns the communication fabric.
func (k *Kernel) Fabric() *fabric.Fabric { return k.fab }

// NumImages reports the machine size.
func (k *Kernel) NumImages() int { return len(k.images) }

// Image returns image kernel i.
func (k *Kernel) Image(i int) *ImageKernel { return k.images[i] }

// SetTracker installs the message-lifecycle tracker (the finish plane).
func (k *Kernel) SetTracker(t Tracker) { k.tracker = t }

// Tracker returns the installed tracker, or nil.
func (k *Kernel) Tracker() Tracker { return k.tracker }

// SetDetector attaches the failure detector. With a detector attached,
// blocking Calls abort (via failure.Abort) instead of hanging when an
// image is declared dead, tracked sends report abandonment to the
// tracker, and late replies for aborted calls are dropped instead of
// panicking. nil (the default) keeps all legacy behavior.
func (k *Kernel) SetDetector(d *failure.Detector) { k.det = d }

// Detector returns the attached failure detector, or nil.
func (k *Kernel) Detector() *failure.Detector { return k.det }

// NextID returns a machine-wide unique id (team ids, finish ids). It is
// safe because the simulation is single-threaded.
func (k *Kernel) NextID() int64 {
	k.nextID++
	return k.nextID
}

// RegisterHandler installs h for tag on every image. Panics on duplicate
// tags or rt-reserved tags.
func (k *Kernel) RegisterHandler(tag uint16, h Handler) {
	if tag == tagReply {
		panic(fmt.Sprintf("rt: tag %d is reserved", tag))
	}
	for _, img := range k.images {
		img := img
		img.ep.RegisterHandler(tag, func(ep *fabric.Endpoint, m *fabric.Msg) {
			img.dispatch(m, h)
		})
	}
}

// ImageKernel is one process image's runtime state.
type ImageKernel struct {
	k    *Kernel
	rank int
	ep   *fabric.Endpoint
	rng  *rand.Rand

	nextCallID uint64
	calls      map[uint64]*callWait

	procSeq    int         // numbers the procs started on this image
	procPrefix string      // "img<rank>/", the prefix of their names
	procs      sim.ProcSet // unfinished procs started on this image (diagnostics)
}

// Rank returns the image's world rank.
func (img *ImageKernel) Rank() int { return img.rank }

// Kernel returns the owning machine.
func (img *ImageKernel) Kernel() *Kernel { return img.k }

// Rng returns the image's deterministic private random stream.
func (img *ImageKernel) Rng() *rand.Rand { return img.rng }

// Engine returns the simulation engine.
func (img *ImageKernel) Engine() *sim.Engine { return img.k.eng }

// Endpoint returns the image's fabric endpoint.
func (img *ImageKernel) Endpoint() *fabric.Endpoint { return img.ep }

// Go starts a simulated process on this image, named
// "img<rank>/<name>#<n>" for the image's n-th proc. The proc is owned by
// the image's engine shard, so its start and every later wakeup are
// admitted through that shard's queue.
func (img *ImageKernel) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	img.procSeq++
	eng := img.k.eng
	shard := sim.ShardOf(img.rank, len(img.k.images), eng.NumShards())
	p := eng.GoOn(shard, sim.ProcName{Prefix: img.procPrefix, Base: name, Seq: img.procSeq}, fn)
	img.procs.Add(p)
	return p
}

// Procs returns the unfinished processes started on this image via Go,
// in start order — the per-image wait-state dump for deadlock
// diagnostics reads their states from here. The slice is valid until
// the image starts another proc.
func (img *ImageKernel) Procs() []*sim.Proc { return img.procs.Live() }

// SendOpts carry the fabric completion plus the tracking context.
type SendOpts struct {
	Track any // finish-plane context; nil = untracked
	// Done receives the message's completion stages (see
	// fabric.Completion): Injected when the source buffer is reusable
	// (local data completion, only with NotifyInjected), Delivered when
	// the delivery ack returned (local op completion). Abandoned, when
	// the fabric gives up on the message, is only honored when a failure
	// detector is attached — without one, legacy behavior (silence on
	// loss) is preserved bit-for-bit.
	Done           fabric.Completion
	NotifyInjected bool
	Class          fabric.Class
	Bytes          int
	// NoCoalesce exempts latency-critical control traffic from the
	// fabric's coalescing buffer (see fabric.SendOpts.NoCoalesce).
	NoCoalesce bool
	// Path tags the message with the traced request whose causal path
	// it rides (see fabric.Msg.Path). Zero = untagged.
	Path path.Tag
}

// Send delivers payload to handler tag on image dst.
func (img *ImageKernel) Send(dst int, tag uint16, payload any, opts SendOpts) {
	img.send(dst, tag, payload, -1, 0, opts)
}

// send builds the message's env and hands it to the fabric. replyTo is
// the world rank awaiting a reply (-1 for none), replyID the
// correlation id there.
func (img *ImageKernel) send(dst int, tag uint16, payload any, replyTo int, replyID uint64, opts SendOpts) {
	e := &env{from: img, done: opts.Done}
	e.d.Payload, e.d.replyTo, e.d.replyID = payload, replyTo, replyID
	if opts.Track != nil {
		if tr := img.k.tracker; tr != nil {
			e.track = tr.OnSend(img, dst, opts.Track)
		}
	}
	e.msg = fabric.Msg{
		Src:     img.rank,
		Dst:     dst,
		Tag:     tag,
		Class:   opts.Class,
		Bytes:   opts.Bytes,
		Payload: e,
		Path:    opts.Path,
	}
	fo := fabric.SendOpts{NoCoalesce: opts.NoCoalesce}
	if e.done != nil || e.track != nil {
		fo.Done = e
		fo.NotifyInjected = opts.NotifyInjected && e.done != nil
	}
	img.ep.Send(&e.msg, fo)
}

// FlushCoalesced flushes this image's fabric aggregation buffers — the
// barrier hook synchronization points above (finish, cofence, events,
// collectives, program exit) invoke. A no-op when coalescing is off.
func (img *ImageKernel) FlushCoalesced() { img.ep.FlushCoalesced() }

// Delivery is the receiving-side view of one message. It lives in the
// message's runtime record; Payload is cleared once the delivery has
// completed (when the handler returns, or at Complete for a detached
// delivery), so the returning ack does not keep the payload reachable.
type Delivery struct {
	Img     *ImageKernel // the destination image
	Src     int          // sender world rank
	Payload any
	Bytes   int

	track    any
	replyTo  int
	replyID  uint64
	detached bool
	done     bool
	replied  bool
}

// Track returns the message's (stamped) tracking context, or nil.
func (d *Delivery) Track() any { return d.track }

// Detach tells rt that completion will be signalled later via Complete —
// used by shipped functions that run as their own simulated process.
func (d *Delivery) Detach() { d.detached = true }

// Complete signals completion of a detached delivery. Calling it twice,
// or on a non-detached delivery, panics.
func (d *Delivery) Complete() {
	if !d.detached {
		panic("rt: Complete on non-detached delivery")
	}
	d.finishCompletion()
	d.Payload = nil
}

func (d *Delivery) finishCompletion() {
	if d.done {
		panic("rt: duplicate completion")
	}
	d.done = true
	if d.track != nil {
		if tr := d.Img.k.tracker; tr != nil {
			tr.OnComplete(d.Img, d.track)
		}
	}
}

// CanReply reports whether the sender awaits a reply.
func (d *Delivery) CanReply() bool { return d.replyTo >= 0 && !d.replied }

// Reply sends a response for a Call. Panics if the message was not a Call
// or was already replied to.
func (d *Delivery) Reply(payload any, bytes int) {
	if d.replyTo < 0 {
		panic("rt: Reply to a one-way message")
	}
	if d.replied {
		panic("rt: duplicate Reply")
	}
	d.replied = true
	class := fabric.AMMedium
	if bytes > d.Img.k.fab.MaxMedium() {
		class = fabric.RDMA
	}
	// The caller is parked on this reply: never coalesce it.
	// The reply's env carries the correlation id in its replyID.
	d.Img.send(d.replyTo, tagReply, payload, -1, d.replyID, SendOpts{
		Class:      class,
		Bytes:      bytes,
		NoCoalesce: true,
	})
}

func (img *ImageKernel) dispatch(m *fabric.Msg, h Handler) {
	e := m.Payload.(*env)
	d := &e.d
	d.Img, d.Src, d.Bytes, d.track = img, m.Src, m.Bytes, e.track
	if e.track != nil {
		if tr := img.k.tracker; tr != nil {
			d.track = tr.OnReceive(img, e.track)
		}
	}
	h(d)
	if !d.detached {
		d.finishCompletion()
		d.Payload = nil
	}
}

type callWait struct {
	proc    *sim.Proc
	payload any
	done    bool
}

func (img *ImageKernel) handleReply(m *fabric.Msg) {
	e := m.Payload.(*env)
	id := e.d.replyID
	w, ok := img.calls[id]
	if !ok {
		if img.k.det != nil {
			// With a failure detector, a Call can be aborted while its
			// reply is in flight from a still-live peer; the late reply
			// is dropped, not a protocol bug.
			return
		}
		panic(fmt.Sprintf("rt: image %d: reply for unknown call %d", img.rank, id))
	}
	delete(img.calls, id)
	w.payload = e.d.Payload
	w.done = true
	w.proc.Unpark()
}

// Call performs a blocking request/reply round trip from process p on this
// image to handler tag on image dst, returning the reply payload. The
// handler must call Delivery.Reply (possibly later, from a detached proc).
// With a failure detector attached, a Call parked while any image is
// declared dead aborts via failure.Abort instead of hanging — the reply
// may depend on the dead image (a lock holder, a chained handler), and
// fail-stop semantics charge the whole blocked operation to the failure.
func (img *ImageKernel) Call(p *sim.Proc, dst int, tag uint16, payload any, opts SendOpts) any {
	img.nextCallID++
	id := img.nextCallID
	w := &callWait{proc: p}
	img.calls[id] = w
	// This proc blocks until the reply: coalescing the request would
	// trade its latency for nothing.
	opts.NoCoalesce = true
	img.send(dst, tag, payload, img.rank, id, opts)
	det := img.k.det
	p.WaitUntil("rpc reply", func() bool { return w.done || det.AnyDead() })
	if !w.done {
		delete(img.calls, id)
		panic(failure.Abort{Err: det.ErrFor("rpc")})
	}
	return w.payload
}
