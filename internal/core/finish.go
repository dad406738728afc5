// Package core implements the primary contribution of the paper: the
// finish construct's SPMD termination-detection algorithm (Fig. 7) and the
// cofence local-data-completion tracker (§III-B), together with the
// epoch machinery both rely on.
//
// The Plane type implements rt.Tracker: every asynchronous operation
// initiated with implicit completion inside a finish block is sent as a
// tracked message, and the plane maintains the per-image, per-epoch
// counters (sent, delivered, received, completed) that the detection
// loop sum-reduces.
package core

import (
	"fmt"
	"sort"

	"caf2go/internal/collect"
	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/metrics"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

// Ref identifies a finish block on the wire. ID is identical on every
// member image (derived from the team id and a per-team sequence number);
// ParityOdd is stamped by the sender's OnSend with the sender's present
// epoch parity, implementing the paper's fromOddEpoch bit. The epoch-box
// pointers bind each message's delivery/completion credits to the epoch
// objects that counted its send/receipt — on real hardware these are
// per-image table lookups keyed by (ID, parity, round); carrying pointers
// is the shared-address-space simulation's shortcut for the same thing.
type Ref struct {
	ID        int64
	ParityOdd bool
	// Src and Dst are the world ranks of the sender and destination,
	// stamped at OnSend. The resilient-finish reconciliation keys its
	// per-peer charge-off tallies on them.
	Src, Dst int
	sBox     *epochBox // sender's epoch at send time (ack credit target)
	rBox     *epochBox // receiver's epoch at delivery (completion target)
}

// FinishID derives the globally consistent id of the seq-th finish block
// executed on a team. Every image entering its seq-th finish on the same
// team computes the same value — no coordination needed.
func FinishID(t *team.Team, seq uint64) int64 {
	return t.ID()<<32 | int64(seq&0xFFFFFFFF)
}

// epoch holds the four counters of Fig. 7.
type epoch struct {
	sent      int64 // messages this image initiated
	delivered int64 // delivery acks received for its sends
	received  int64 // messages delivered to this image
	completed int64 // received messages whose execution finished
}

func (e *epoch) add(o epoch) {
	e.sent += o.sent
	e.delivered += o.delivered
	e.received += o.received
	e.completed += o.completed
}

// quiescent is the wait_until precondition (Fig. 7 line 4): everything
// this image sent has landed, and everything it received has completed.
func (e *epoch) quiescent() bool {
	return e.sent == e.delivered && e.completed == e.received
}

// epochBox is an epoch with a forwarding pointer. When the odd epoch is
// folded into the even epoch (next_epoch, Fig. 7 lines 16-26), credits
// still in flight for messages counted in the old odd epoch must land in
// the fold target; the forward pointer routes them there.
type epochBox struct {
	epoch
	fwd *epochBox
}

func (b *epochBox) resolve() *epochBox {
	for b.fwd != nil {
		b = b.fwd
	}
	return b
}

// State is one image's view of one finish block.
type State struct {
	id         int64
	track      any       // Ref() as a tracking context, boxed once (see Track)
	even       *epochBox // permanent fold target
	odd        *epochBox // current odd epoch, nil when not in one
	presentOdd bool

	// Grand totals (all epochs), used by the no-wait four-counter
	// variant and by garbage collection.
	tSent, tDelivered, tReceived, tCompleted int64

	t      *team.Team // set at Begin
	begun  bool
	done   bool
	rounds int // allreduce rounds used to detect termination

	// RoundAt records the virtual time each detection round completed
	// (diagnostic; used by the benchmark harness to attribute rounds to
	// run phases).
	RoundAt []sim.Time

	waiter *sim.Proc // detection loop parked on the quiescence condition

	// Resilient-mode reconciliation state, touched only when the plane
	// has a failure detector. ackedTo/completedFrom are the per-peer
	// mirror tallies consumed when a peer is declared dead; adjSent and
	// adjCompleted are the virtual counter pairs standing in for the
	// dead image's contribution in the survivor reduction (each adjSent
	// pairs a virtual {sent, delivered}, each adjCompleted a virtual
	// {received, completed} — so the Fig. 7 local quiescence predicate,
	// which only compares reals, is untouched). lost counts activities
	// charged off on this image.
	ackedTo       map[int]int64
	completedFrom map[int]int64
	adjSent       int64
	adjCompleted  int64
	lost          int64

	// Degraded-mode (post-declaration) poll protocol state.
	pollRound   int
	pollReplies map[int][5]int64
	ferr        *failure.ImageFailedError
}

func newState(id int64) *State {
	return &State{id: id, even: &epochBox{}}
}

// Rounds reports how many sum-reduction rounds detection used so far.
func (s *State) Rounds() int { return s.rounds }

// Team returns the team the finish block synchronizes (set at Begin).
func (s *State) Team() *team.Team { return s.t }

// ensureOdd returns the current odd epoch box, creating it if needed.
func (s *State) ensureOdd() *epochBox {
	if s.odd == nil {
		s.odd = &epochBox{}
	}
	return s.odd
}

// currentBox is the epoch new activity on this image is counted in.
func (s *State) currentBox() *epochBox {
	if s.presentOdd {
		return s.ensureOdd()
	}
	return s.even
}

// boxByParity returns the epoch box a message of the given stamp parity
// is counted in on this image.
func (s *State) boxByParity(odd bool) *epochBox {
	if odd {
		return s.ensureOdd()
	}
	return s.even
}

// fold implements next_epoch's second branch: odd counters are folded
// into the even epoch, late credits for odd-counted messages are
// forwarded there, and the image returns to the even epoch.
func (s *State) fold() {
	if s.odd != nil {
		s.even.add(s.odd.epoch)
		s.odd.fwd = s.even
		s.odd = nil
	}
	s.presentOdd = false
}

// totalQuiescent reports whether no acks or completions are outstanding —
// the garbage-collection condition for done states.
func (s *State) totalQuiescent() bool {
	return s.tSent == s.tDelivered && s.tReceived == s.tCompleted
}

// Config selects detection-algorithm variants.
type Config struct {
	// WaitQuiescent enables the Fig. 7 line-4 precondition, which bounds
	// detection to L+1 reduction rounds (Theorem 1). Disabling it yields
	// the "algorithm without upper bound" the paper compares against in
	// Fig. 18: the loop speculatively reduces as fast as it can; for
	// soundness it then needs Mattern-style four-counter double rounds
	// (two consecutive identical all-complete snapshots), which is
	// exactly why it burns roughly twice the reductions.
	WaitQuiescent bool
}

// Stats aggregates plane-wide observations.
type Stats struct {
	Finishes       int   // completed finish blocks (per-image count)
	ReduceRounds   int64 // total allreduce rounds across all finishes
	TrackedSends   int64
	TrackedArrives int64
	// LostActivities counts tracked operations charged off because they
	// were resident on (or in flight toward) a declared-dead image.
	// Always 0 without a failure detector.
	LostActivities int64
}

// Finish-plane fabric tags (degraded-mode survivor polls). The caf
// layer owns 300+, collect owns 100; these sit in their own range.
const (
	tagFinishPoll      uint16 = 290
	tagFinishPollReply uint16 = 291
)

// pollReq asks a survivor for its reconciled counter snapshot of one
// finish state; pollReply returns it. Vec is {sent', delivered',
// received', completed', lost} with the virtual charge-off pairs folded
// in.
type pollReq struct {
	ID    int64
	Round int
	From  int
}

type pollReply struct {
	ID    int64
	Round int
	Vec   [5]int64
}

// Plane is the finish termination-detection plane for one machine.
type Plane struct {
	k         *rt.Kernel
	comm      *collect.Comm
	cfg       Config
	nodes     []map[int64]*State
	seqs      []map[int64]uint64 // per-image, per-team finish sequence numbers
	stats     Stats
	lastState []*State

	det     *failure.Detector // nil ⇒ legacy, non-resilient plane
	charged map[int]bool      // dead ranks whose tallies were consumed

	// Metrics instruments (nil — and every call a no-op — until
	// SetMetrics installs a registry).
	mFinishes *metrics.Counter
	mRounds   *metrics.Counter
	mPerBlock *metrics.Histogram
	mRoundNs  *metrics.Histogram
}

// NewPlane builds the plane and installs it as k's message tracker.
func NewPlane(k *rt.Kernel, comm *collect.Comm, cfg Config) *Plane {
	pl := &Plane{k: k, comm: comm, cfg: cfg}
	pl.nodes = make([]map[int64]*State, k.NumImages())
	pl.seqs = make([]map[int64]uint64, k.NumImages())
	for i := range pl.nodes {
		pl.nodes[i] = make(map[int64]*State)
		pl.seqs[i] = make(map[int64]uint64)
	}
	k.SetTracker(pl)
	k.RegisterHandler(tagFinishPoll, pl.handlePoll)
	k.RegisterHandler(tagFinishPollReply, pl.handlePollReply)
	return pl
}

// SetDetector switches the plane into resilient mode: tracked traffic
// keeps per-peer charge-off tallies, abandoned sends are reconciled,
// and End falls back to the survivor poll protocol once any image is
// declared dead. Must be called before the run starts; nil keeps the
// legacy plane bit-identical.
func (pl *Plane) SetDetector(d *failure.Detector) {
	pl.det = d
	if d != nil && pl.charged == nil {
		pl.charged = make(map[int]bool)
	}
}

// SetMetrics wires the plane's termination-detection accounting into a
// registry: per-image finish/round totals, a rounds-per-block histogram
// (the observational check of Theorem 1's ≤ L+1 bound), and per-round
// virtual-time durations. nil is fine and records nothing.
func (pl *Plane) SetMetrics(reg *metrics.Registry) {
	pl.mFinishes = reg.Counter("caf_finish_blocks_total", "finish blocks completed")
	pl.mRounds = reg.Counter("caf_finish_rounds_total", "termination-detection allreduce rounds")
	pl.mPerBlock = reg.Histogram("caf_finish_rounds_per_block", "detection rounds per finish block (Theorem 1: ≤ L+1)")
	pl.mRoundNs = reg.Histogram("caf_finish_round_ns", "virtual duration of each detection round")
}

// Stats returns a snapshot of plane counters.
func (pl *Plane) Stats() Stats { return pl.stats }

// state returns image rank's state for finish id, creating it lazily —
// tracked messages may arrive before the local image enters the block.
func (pl *Plane) state(rank int, id int64) *State {
	s, ok := pl.nodes[rank][id]
	if !ok {
		s = newState(id)
		pl.nodes[rank][id] = s
	}
	return s
}

// ActiveStates reports how many finish states image rank currently holds
// (for leak tests).
func (pl *Plane) ActiveStates(rank int) int { return len(pl.nodes[rank]) }

// Begin enters a finish block on img over t and returns its state. The
// id is derived from the team and the image's per-team finish sequence;
// SPMD programs therefore match blocks without communication.
func (pl *Plane) Begin(img *rt.ImageKernel, t *team.Team) *State {
	if !t.Contains(img.Rank()) {
		panic(fmt.Sprintf("core: image %d enters finish on %v it is not a member of", img.Rank(), t))
	}
	pl.seqs[img.Rank()][t.ID()]++
	id := FinishID(t, pl.seqs[img.Rank()][t.ID()])
	s := pl.state(img.Rank(), id)
	if s.begun {
		panic(fmt.Sprintf("core: finish %d begun twice on image %d", id, img.Rank()))
	}
	s.begun = true
	s.t = t
	return s
}

// Ref returns the tracking context to attach to asynchronous operations
// initiated inside this finish block.
func (s *State) Ref() Ref { return Ref{ID: s.id} }

// Track returns Ref as the tracking context operations carry (the value
// rt.SendOpts.Track takes), boxing it once per block rather than once
// per operation.
func (s *State) Track() any {
	if s.track == nil {
		s.track = s.Ref()
	}
	return s.track
}

// End runs the termination-detection loop on the calling image's proc p
// and returns the number of sum-reduction rounds used. All images of the
// team must call End for their matching block. In resilient mode the
// error is non-nil when the finish had to charge off activities on a
// declared-dead image (or this image was itself declared dead): the
// block has terminated — in bounded rounds over the survivor team — but
// some of the work it supervised is lost.
func (pl *Plane) End(p *sim.Proc, img *rt.ImageKernel, s *State) (int, *failure.ImageFailedError) {
	if !s.begun || s.done {
		panic("core: End on a finish that is not active")
	}
	if pl.cfg.WaitQuiescent {
		pl.endFig7(p, img, s)
	} else {
		pl.endFourCounter(p, img, s)
	}
	s.done = true
	pl.stats.Finishes++
	rank := img.Rank()
	pl.mFinishes.Add(rank, 1)
	pl.mRounds.Add(rank, int64(s.rounds))
	pl.mPerBlock.Observe(rank, int64(s.rounds))
	if pl.mRoundNs != nil {
		for i, at := range s.RoundAt {
			if i > 0 {
				pl.mRoundNs.ObserveTime(rank, at-s.RoundAt[i-1])
			}
		}
	}
	if pl.lastState == nil {
		pl.lastState = make([]*State, pl.k.NumImages())
	}
	pl.lastState[img.Rank()] = s
	pl.maybeCollect(img.Rank(), s)
	return s.rounds, s.ferr
}

// LastState returns the most recently completed finish state on an image
// (diagnostics for the benchmark harness).
func (pl *Plane) LastState(rank int) *State {
	if pl.lastState == nil {
		return nil
	}
	return pl.lastState[rank]
}

// endFig7 is the paper's algorithm (Fig. 7). With a failure detector
// attached, any declared death diverts the loop to the degraded survivor
// protocol: the tree allreduce assumes every team member participates,
// which a dead (or already-exited) image cannot.
func (pl *Plane) endFig7(p *sim.Proc, img *rt.ImageKernel, s *State) {
	for {
		if pl.det.AnyDead() {
			pl.endDegraded(p, img, s)
			return
		}
		// wait_until: all sent delivered, all received completed
		// (line 4). The contribution below is computed in the same
		// simulation timeslice, so the snapshot is exactly the
		// quiescent state.
		s.waiter = p
		p.WaitUntil("finish quiescence", func() bool {
			return s.even.quiescent() || pl.det.AnyDead()
		})
		s.waiter = nil
		if pl.det.AnyDead() {
			pl.endDegraded(p, img, s)
			return
		}
		// next_epoch, first call: proceed into the odd epoch unless an
		// odd-parity message already forced us there (line 6-7).
		if !s.presentOdd {
			s.presentOdd = true
		}
		s.rounds++
		pl.stats.ReduceRounds++
		vec, ok := pl.allreduce(p, img, s, []int64{s.even.sent - s.even.completed})
		if !ok {
			pl.endDegraded(p, img, s)
			return
		}
		workLeft := vec[0]
		s.RoundAt = append(s.RoundAt, p.Now())
		// next_epoch, second call: fold odd into even (lines 16-26).
		s.fold()
		if workLeft == 0 {
			return
		}
	}
}

// allreduce runs one detection reduction over the finish team. In
// resilient mode it uses the async collective and gives up (ok=false)
// when a death is declared mid-round: the tree may include the dead
// image and never complete. Without a detector it is exactly the legacy
// synchronous call.
func (pl *Plane) allreduce(p *sim.Proc, img *rt.ImageKernel, s *State, vec []int64) ([]int64, bool) {
	if pl.det == nil {
		return pl.comm.Allreduce(p, img, s.t, collect.Sum, vec), true
	}
	h := pl.comm.AllreduceAsync(img, s.t, collect.Sum, vec, nil)
	if !h.WaitLocalDataErr(p) {
		return nil, false
	}
	return h.Result().([]int64), true
}

// endFourCounter is the speculative variant without the line-4 upper
// bound (the Fig. 18 comparator): before each wave it waits only for
// local execution to drain (received == completed) — NOT for delivery of
// the messages it sent — then reduces the grand totals. Without the full
// quiescence precondition a single zero sum can be inconsistent, so it
// terminates only after two consecutive identical all-complete snapshots
// (Mattern's four-counter safety condition). That extra confirmation
// wave, plus waves wasted on in-flight sends, is why it burns roughly
// twice the reductions of the Fig. 7 algorithm.
func (pl *Plane) endFourCounter(p *sim.Proc, img *rt.ImageKernel, s *State) {
	var prevSent, prevCompleted int64 = -1, -2
	for {
		if pl.det.AnyDead() {
			pl.endDegraded(p, img, s)
			return
		}
		// Pace each wave on local execution only: "does not wait for
		// delivery ... of shipped messages before starting termination
		// detection".
		s.waiter = p
		p.WaitUntil("finish local drain", func() bool {
			return s.tReceived == s.tCompleted || pl.det.AnyDead()
		})
		s.waiter = nil
		if pl.det.AnyDead() {
			pl.endDegraded(p, img, s)
			return
		}
		s.rounds++
		pl.stats.ReduceRounds++
		res, ok := pl.allreduce(p, img, s, []int64{s.tSent, s.tCompleted})
		if !ok {
			pl.endDegraded(p, img, s)
			return
		}
		s.RoundAt = append(s.RoundAt, p.Now())
		sent, completed := res[0], res[1]
		if sent == completed && prevSent == prevCompleted && sent == prevSent {
			// Fold any stale odd epoch so late parity bookkeeping
			// stays consistent with Fig. 7-mode finishes elsewhere.
			s.fold()
			return
		}
		prevSent, prevCompleted = sent, completed
	}
}

// ---------------------------------------------------------------------
// Degraded-mode termination: the survivor poll protocol.
// ---------------------------------------------------------------------

// snapshot returns rank's reconciled grand totals for finish id:
// {sent', delivered', received', completed', lost}, where the primed
// sums fold in the virtual charge-off pairs standing in for dead
// images. Answering creates the state lazily (all zeros) if this rank
// never touched the finish — a correct contribution.
func (pl *Plane) snapshot(rank int, id int64) [5]int64 {
	s := pl.state(rank, id)
	return [5]int64{
		s.tSent + s.adjSent,
		s.tDelivered + s.adjSent,
		s.tReceived + s.adjCompleted,
		s.tCompleted + s.adjCompleted,
		s.lost,
	}
}

// survivors returns the members of t not declared dead, ascending.
func (pl *Plane) survivors(t *team.Team) []int {
	members := t.Members()
	out := make([]int, 0, len(members))
	for _, r := range members {
		if !pl.det.Dead(r) {
			out = append(out, r)
		}
	}
	return out
}

// errForTeam builds the End error for a degraded finish: the lowest
// declared-dead member of t (or, if the deaths were all outside the
// team but activities were still lost, the lowest dead rank anywhere).
// Returns nil when nothing relevant to this finish failed.
func (pl *Plane) errForTeam(t *team.Team, lost int64) *failure.ImageFailedError {
	for _, r := range t.Members() {
		if pl.det.Dead(r) {
			at, _ := pl.det.DeadAt(r)
			return &failure.ImageFailedError{Rank: r, At: at, Op: "finish", Lost: lost}
		}
	}
	if lost > 0 {
		e := pl.det.ErrFor("finish")
		e.Lost = lost
		return e
	}
	return nil
}

// teamHasDead reports whether any member of t has been declared dead.
func (pl *Plane) teamHasDead(t *team.Team) bool {
	for _, r := range t.Members() {
		if pl.det.Dead(r) {
			return true
		}
	}
	return false
}

// endDegraded is the resilient termination protocol, entered once any
// image has been declared dead. The tree allreduce of the normal path
// assumes every team member participates; a dead image cannot, and a
// survivor may already have left this finish (partial delivery of an
// earlier down-phase). So each survivor still inside End instead polls
// the survivor subset of the team directly, and every polled image
// answers from plain event context — available even after its procs
// exited or were aborted — with its reconciled totals (snapshot). The
// loop exits on Mattern's four-counter condition over the primed sums:
// two consecutive identical balanced rounds (sent' == delivered' and
// received' == completed'). With the virtual pairs standing in for the
// dead images' counters, a stable balanced snapshot means no surviving
// work and no in-flight tracked message, so the finish may release; it
// returns an ImageFailedError when a team member died or activities
// were charged off. A new declaration mid-round restarts the round
// against the shrunken survivor set, so the loop terminates in a
// bounded number of polls after the last declaration.
func (pl *Plane) endDegraded(p *sim.Proc, img *rt.ImageKernel, s *State) {
	me := img.Rank()
	var prev [4]int64
	havePrev := false
	for {
		if pl.det.Dead(me) {
			// This image was itself declared dead; its polls would be
			// abandoned by the fabric and its finish can never conclude.
			at, _ := pl.det.DeadAt(me)
			s.ferr = &failure.ImageFailedError{Rank: me, At: at, Op: "finish"}
			return
		}
		// Local drain: everything delivered here has finished executing
		// (aborted activities complete through their recover wrappers).
		s.waiter = p
		p.WaitUntil("finish local drain", func() bool {
			return s.tReceived == s.tCompleted || pl.det.Dead(me)
		})
		s.waiter = nil
		if pl.det.Dead(me) {
			continue
		}
		epoch := pl.det.DeathCount()
		survivors := pl.survivors(s.t)
		s.pollRound++
		s.rounds++
		pl.stats.ReduceRounds++
		s.pollReplies = map[int][5]int64{me: pl.snapshot(me, s.id)}
		for _, r := range survivors {
			if r == me {
				continue
			}
			img.Send(r, tagFinishPoll,
				pollReq{ID: s.id, Round: s.pollRound, From: me},
				rt.SendOpts{Class: fabric.AMShort, Bytes: 24, NoCoalesce: true})
		}
		s.waiter = p
		p.WaitUntil("finish poll", func() bool {
			if pl.det.Dead(me) || pl.det.DeathCount() != epoch {
				return true
			}
			for _, r := range survivors {
				if _, ok := s.pollReplies[r]; !ok {
					return false
				}
			}
			return true
		})
		s.waiter = nil
		if pl.det.Dead(me) {
			continue
		}
		if pl.det.DeathCount() != epoch {
			// Survivor set shrank mid-round: snapshots are not
			// comparable across declarations. Restart.
			havePrev = false
			continue
		}
		var sum [5]int64
		for _, r := range survivors {
			v := s.pollReplies[r]
			for i := range sum {
				sum[i] += v[i]
			}
		}
		s.pollReplies = nil
		s.RoundAt = append(s.RoundAt, p.Now())
		cur := [4]int64{sum[0], sum[1], sum[2], sum[3]}
		balanced := sum[0] == sum[1] && sum[2] == sum[3]
		if balanced && havePrev && cur == prev {
			if lost := sum[4]; lost > 0 || pl.teamHasDead(s.t) {
				s.ferr = pl.errForTeam(s.t, lost)
			}
			return
		}
		prev, havePrev = cur, true
		// Pace the next poll. The round was unbalanced (or not yet
		// confirmed), the imbalance is remote — the local drain above
		// already held — and survivors push no notifications, so
		// re-polling before more messages can land would hot-spin the
		// network at RTT granularity. One heartbeat per round bounds
		// the poll count by the surviving work's duration over the
		// resilience timescale.
		p.Sleep(pl.det.Heartbeat())
	}
}

// handlePoll answers a degraded-mode survivor poll with this image's
// reconciled snapshot. Runs in event context: no proc participation
// needed, so images that already left the finish still answer.
func (pl *Plane) handlePoll(d *rt.Delivery) {
	req := d.Payload.(pollReq)
	vec := pl.snapshot(d.Img.Rank(), req.ID)
	d.Img.Send(req.From, tagFinishPollReply,
		pollReply{ID: req.ID, Round: req.Round, Vec: vec},
		rt.SendOpts{Class: fabric.AMShort, Bytes: 48, NoCoalesce: true})
}

// handlePollReply records a snapshot on the polling image and wakes its
// detection loop. Replies from superseded rounds are dropped.
func (pl *Plane) handlePollReply(d *rt.Delivery) {
	rep := d.Payload.(pollReply)
	s := pl.state(d.Img.Rank(), rep.ID)
	if s.pollReplies == nil || rep.Round != s.pollRound {
		return
	}
	s.pollReplies[d.Src] = rep.Vec
	if s.waiter != nil {
		s.waiter.Unpark()
	}
}

// maybeCollect garbage-collects a finished state once no acks or
// completions remain outstanding (they can trail the final reduction).
// Resilient planes keep done states: their totals answer degraded-mode
// polls for peers that are still reconciling, and recreating a
// collected state lazily would contribute zeros.
func (pl *Plane) maybeCollect(rank int, s *State) {
	if pl.det != nil {
		return
	}
	if s.done && s.totalQuiescent() {
		delete(pl.nodes[rank], s.id)
	}
}

// ---------------------------------------------------------------------
// rt.Tracker implementation.
// ---------------------------------------------------------------------

// OnSend counts the send in the sender's present epoch and stamps the
// message with that parity, epoch binding, and endpoints.
func (pl *Plane) OnSend(src *rt.ImageKernel, dst int, ctx any) any {
	ref := ctx.(Ref)
	s := pl.state(src.Rank(), ref.ID)
	box := s.currentBox()
	box.resolve().sent++
	s.tSent++
	pl.stats.TrackedSends++
	return Ref{ID: ref.ID, ParityOdd: s.presentOdd, Src: src.Rank(), Dst: dst, sBox: box}
}

// OnReceive counts the arrival; an odd-parity message forces the receiver
// into its odd epoch (Fig. 7 message_handler).
func (pl *Plane) OnReceive(dst *rt.ImageKernel, ctx any) any {
	ref := ctx.(Ref)
	s := pl.state(dst.Rank(), ref.ID)
	if ref.ParityOdd {
		s.presentOdd = true
		s.ensureOdd()
	}
	box := s.boxByParity(ref.ParityOdd)
	box.resolve().received++
	s.tReceived++
	pl.stats.TrackedArrives++
	ref.rBox = box
	return ref
}

// OnComplete counts handler/shipped-function completion in the epoch that
// counted the receipt, and wakes the local detection loop if waiting.
// In resilient mode it also mirrors the completion into completedFrom,
// keyed by the sender: if the sender later dies, each such completion
// becomes a virtual {sent, delivered} pair standing in for the send the
// dead image can no longer report. A completion arriving after the
// sender was already charged off applies the stand-in immediately.
func (pl *Plane) OnComplete(dst *rt.ImageKernel, ctx any) {
	ref := ctx.(Ref)
	s := pl.state(dst.Rank(), ref.ID)
	ref.rBox.resolve().completed++
	s.tCompleted++
	if pl.det != nil {
		if pl.charged[ref.Src] {
			s.adjSent++
		} else {
			if s.completedFrom == nil {
				s.completedFrom = make(map[int]int64)
			}
			s.completedFrom[ref.Src]++
		}
	}
	if s.waiter != nil {
		s.waiter.Unpark()
	}
	pl.maybeCollect(dst.Rank(), s)
}

// OnAck counts the delivery acknowledgement on the sender, in the epoch
// that counted the send. In resilient mode the ack is also mirrored into
// ackedTo, keyed by the destination: if that peer later dies, each acked
// send is charged off as a virtual {received, completed} pair (the work
// was resident on the dead image and will never be reported). An ack
// arriving after the peer was already charged off — the fabric event was
// scheduled before the crash — applies the charge-off immediately.
func (pl *Plane) OnAck(src *rt.ImageKernel, ctx any) {
	ref := ctx.(Ref)
	s := pl.state(src.Rank(), ref.ID)
	ref.sBox.resolve().delivered++
	s.tDelivered++
	if pl.det != nil {
		if pl.charged[ref.Dst] {
			s.adjCompleted++
			s.lost++
			pl.stats.LostActivities++
		} else {
			if s.ackedTo == nil {
				s.ackedTo = make(map[int]int64)
			}
			s.ackedTo[ref.Dst]++
		}
	}
	if s.waiter != nil {
		s.waiter.Unpark()
	}
	pl.maybeCollect(src.Rank(), s)
}

// OnAbandoned reconciles a tracked send the fabric gave up on (its
// destination NIC is dead, or retransmission was exhausted). The ack
// will never come, so the delivery is accounted locally — keeping the
// sender's sent == delivered quiescence predicate reachable — and the
// receipt + completion that will never happen remotely are charged off
// as a virtual pair. Only invoked when a failure detector is attached
// (rt strips the callback otherwise).
func (pl *Plane) OnAbandoned(src *rt.ImageKernel, ctx any) {
	ref := ctx.(Ref)
	s := pl.state(src.Rank(), ref.ID)
	ref.sBox.resolve().delivered++
	s.tDelivered++
	s.adjCompleted++
	s.lost++
	pl.stats.LostActivities++
	if s.waiter != nil {
		s.waiter.Unpark()
	}
	pl.maybeCollect(src.Rank(), s)
}

// OnDeath consumes the per-peer mirror tallies for a newly declared-dead
// rank: acked sends toward it become virtual {received, completed} pairs
// (charged-off lost activities), and completions of its messages become
// virtual {sent, delivered} pairs. Called by the machine's failure
// subscriber at declaration time, before parked procs are woken, so
// every survivor's next poll snapshot is already reconciled. Iteration
// is in (rank, finish-id) order for determinism.
func (pl *Plane) OnDeath(dead int) {
	if pl.det == nil || pl.charged[dead] {
		return
	}
	pl.charged[dead] = true
	for rank := range pl.nodes {
		if rank == dead {
			continue
		}
		ids := make([]int64, 0, len(pl.nodes[rank]))
		for id := range pl.nodes[rank] {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			s := pl.nodes[rank][id]
			if n := s.ackedTo[dead]; n > 0 {
				s.adjCompleted += n
				s.lost += n
				pl.stats.LostActivities += n
				delete(s.ackedTo, dead)
			}
			if n := s.completedFrom[dead]; n > 0 {
				s.adjSent += n
				delete(s.completedFrom, dead)
			}
			if s.waiter != nil {
				s.waiter.Unpark()
			}
		}
	}
}

var _ rt.Tracker = (*Plane)(nil)
