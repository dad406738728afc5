package caf

import (
	"fmt"

	"caf2go/internal/core"
	"caf2go/internal/race"
	"caf2go/internal/trace"
)

// Happens-before race detection: when Config.RaceDetector is set, every
// execution context (each image's SPMD main and every shipped function)
// and every asynchronous operation carries a vector-clock component
// (internal/race), and the synchronization constructs install
// release/acquire edges:
//
//   - EventNotify releases the notifier's clock (plus the clocks of the
//     remote updates the notify waits on) into the event; EventWait /
//     EventTryWait and predicate consumption acquire it. An event's clock
//     accumulates over notifies — the counting-semaphore approximation:
//     a waiter acquires all prior notifies, not just the one it consumed,
//     which can only hide races, never invent them.
//   - Lock transfers the releaser's clock to the next holder.
//   - Finish joins every member's end-of-body clock and the clocks of all
//     implicitly-completed operations initiated inside the block; each
//     member acquires the join when detection signals termination.
//   - Cofence acquires the local-data-completion clocks of the implicit
//     operations the fence's DOWNWARD filter does not let pass.
//   - Spawn forks the child's clock from the spawner's at initiation; an
//     implicit spawn releases its final clock into the enclosing finish,
//     an explicit one into its completion event.
//   - Collectives release participants' clocks into a per-instance sync
//     object and acquire it role-filtered (a broadcast orders receivers
//     after the root, a reduction orders the root after contributors).
//   - When the fabric guarantees per-(src,dst) FIFO delivery
//     (FabricConfig.FIFO, the default), each channel carries a clock so
//     successive deliveries on the same channel are ordered — e.g. two
//     back-to-back CopyAsyncs from one image into the same remote range
//     are not a race, matching what the ordered conduit guarantees.
//
// Every edge the runtime installs corresponds to an ordering the memory
// model actually promises. The conservative direction is the other one:
// an operation that merely completed early (without a synchronizing
// construct observing it) must NOT be acquired, or the detector would
// miss exactly the races the overlap tier already misses.
//
// Only runtime-mediated accesses are visible, as in the overlap tier;
// direct Coarray.Local slice access is the image's own memory (the DRF0
// side of the memory model) and is not tracked.

// raceState is the machine-wide detector state.
type raceState struct {
	d    *race.Detector
	fifo bool

	// chans holds one clock per (src, dst) fabric channel.
	chans map[[2]int]race.Clock

	// finish holds per-finish-block sync objects, keyed by the globally
	// consistent finish id.
	finish map[int64]*finishSync

	// colls holds per-collective-instance sync objects; collSeq counts
	// instances per (image, team) so SPMD program order matches them
	// (the carrSeq idiom).
	colls   map[collKey]*collSync
	collSeq map[collSeqKey]uint64
}

// finishSync accumulates the clocks a finish block's exit acquires.
type finishSync struct {
	// ops joins the clocks of implicitly-completed asynchronous
	// operations initiated inside the block (joined eagerly at
	// initiation: the exit cannot happen before they complete).
	ops race.Clock
	// members joins each member's clock at its end-of-body release.
	members race.Clock
	// refs point at collective sync clocks still accumulating at
	// registration time; dereferenced at exit.
	refs []*race.Clock
}

type collKey struct {
	team int64
	seq  uint64
}

type collSeqKey struct {
	rank int
	team int64
}

// collSync is one collective instance's accumulated release clock.
type collSync struct {
	clk race.Clock
}

func newRaceState(fifo bool) *raceState {
	return &raceState{
		d:       race.NewDetector(),
		fifo:    fifo,
		chans:   make(map[[2]int]race.Clock),
		finish:  make(map[int64]*finishSync),
		colls:   make(map[collKey]*collSync),
		collSeq: make(map[collSeqKey]uint64),
	}
}

func (rs *raceState) finishSyncFor(id int64) *finishSync {
	fs := rs.finish[id]
	if fs == nil {
		fs = &finishSync{}
		rs.finish[id] = fs
	}
	return fs
}

// collInstance returns the sync object of the image's next collective
// instance on team t, matching instances across images by per-team
// program order.
func (rs *raceState) collInstance(rank int, t *Team) *collSync {
	sk := collSeqKey{rank: rank, team: t.ID()}
	rs.collSeq[sk]++
	key := collKey{team: t.ID(), seq: rs.collSeq[sk]}
	cs := rs.colls[key]
	if cs == nil {
		cs = &collSync{}
		rs.colls[key] = cs
	}
	return cs
}

// raceOp tracks one implicitly-completed operation for cofence edges.
// clkRef points at the clock covering the op's local data completion
// (set when the op actually initiates, which relaxed mode may defer).
type raceOp struct {
	op     *core.PendingOp
	class  core.OpClass
	clkRef *race.Clock
}

// ---------------------------------------------------------------------
// Nil-safe helpers: every call site may run with the detector off.
// ---------------------------------------------------------------------

// raceCtx returns the image's context, or nil when detection is off.
func (img *Image) raceCtx() *race.Ctx { return img.rc }

// raceRelease snapshots the context's clock for a release edge and
// advances its epoch (so the released clock does not cover later
// activity). Returns nil when detection is off.
func (img *Image) raceRelease() race.Clock {
	if img.rc == nil {
		return nil
	}
	clk := img.rc.Snapshot()
	img.rc.Tick()
	return clk
}

// raceAcquire joins clk into the image's context.
func (img *Image) raceAcquire(clk race.Clock) {
	if img.rc != nil && clk != nil {
		img.rc.Acquire(clk)
	}
}

// raceChanArrive models one FIFO channel hop: the delivered message's
// clock joins the (from, to) channel clock, and the channel remembers
// the join so later deliveries on the same channel are ordered after it.
// Without FIFO delivery the message clock passes through unchanged.
func (m *Machine) raceChanArrive(from, to int, clk race.Clock) race.Clock {
	rs := m.race
	if rs == nil {
		return nil
	}
	if !rs.fifo {
		return clk
	}
	key := [2]int{from, to}
	eff := race.Join(race.CopyClock(clk), rs.chans[key])
	rs.chans[key] = race.Join(rs.chans[key], eff)
	return eff
}

// raceRecord registers one section access under an explicit (ctx, clock)
// pair — used for asynchronous operations running under op clocks.
func raceRecord[T any](m *Machine, s Sec[T], write bool, ctxID int, clk race.Clock, op string) {
	rs := m.race
	if rs == nil || s.ca == nil || ctxID < 0 {
		return
	}
	rs.d.Access(s.ca, s.rank, s.lo, s.hi, s.step, write, ctxID, clk, op, m.eng.Now())
}

// raceRecordCtx registers a section access by the image's own context —
// the blocking Get/Put case, where the caller is parked until the remote
// access completes, so the access is ordered exactly at its program
// point.
func raceRecordCtx[T any](img *Image, s Sec[T], write bool, op string) {
	if img.rc == nil {
		return
	}
	raceRecord(img.m, s, write, img.rc.ID(), img.rc.Clock(), op)
}

// collBracket installs a blocking collective's edges: a role-filtered
// release before the operation, and a deferred role-filtered acquire
// (call end on the returned bracket after the collective returns, when
// every releaser has contributed). It also brackets the call for the
// observability layer: one lifecycle op (a blocking collective runs all
// four stages inside the call) and one blocked interval, both inert
// when tracing is off. kind is the op kind ("coll:<name>"). The bracket
// is a value: it lives on the caller's stack.
func (img *Image) collBracket(kind string, t *Team, rel, acq bool) collSpan {
	b := collSpan{img: img}
	img.opInit(&b.op, kind, -1)
	img.opStage(&b.op, trace.StageInit)
	b.btok = img.beginBlock("collective")
	rs := img.m.race
	if rs == nil || img.rc == nil {
		return b
	}
	cs := rs.collInstance(img.Rank(), t)
	if rel {
		img.rc.ReleaseInto(&cs.clk)
	}
	if acq {
		b.acquire = cs
	}
	return b
}

// collSpan is one blocking collective call as collBracket opened it.
type collSpan struct {
	img     *Image
	op      Op
	btok    trace.BlockToken
	acquire *collSync // instance whose clock to acquire at the end, or nil
}

// end closes the bracket once the collective returned.
func (b *collSpan) end() {
	img := b.img
	if b.acquire != nil {
		img.rc.Acquire(b.acquire.clk)
	}
	img.opStage(&b.op, trace.StageLocalData)
	img.opStage(&b.op, trace.StageLocalOp)
	img.opStage(&b.op, trace.StageGlobal)
	img.endBlock(b.btok)
}

// ---------------------------------------------------------------------
// Unified conflict reporting (both tiers).
// ---------------------------------------------------------------------

// Conflict is one detected ordering violation, from either tier.
type Conflict struct {
	// Kind is "overlap" (in-flight temporal overlap, DetectConflicts) or
	// "race" (happens-before violation, RaceDetector).
	Kind string
	// Image is the world rank owning the conflicted shard.
	Image int
	// Lo, Hi bound the intersection of the two access windows.
	Lo, Hi int
	// First and Second describe the two access sites (operation names).
	First, Second string
	// Time is the virtual time of detection.
	Time Time
	// Missing describes the absent synchronization edge (races only).
	Missing string
}

// ConflictDetails returns structured descriptions of the recorded
// conflicts from both detection tiers, in chronological order.
func (m *Machine) ConflictDetails() []Conflict {
	var overlap []Conflict
	if cs := m.conflicts; cs != nil {
		for _, e := range cs.log {
			overlap = append(overlap, Conflict{
				Kind: "overlap", Image: e.image, Lo: e.lo, Hi: e.hi,
				First: e.first, Second: e.second, Time: e.t,
			})
		}
	}
	var races []Conflict
	if rs := m.race; rs != nil {
		for _, r := range rs.d.Races() {
			races = append(races, Conflict{
				Kind: "race", Image: r.Rank, Lo: r.Lo, Hi: r.Hi,
				First: r.Prior.Op, Second: r.Current.Op,
				Time: r.Detected, Missing: r.Missing(),
			})
		}
	}
	return mergeByTime(overlap, races)
}

// mergeByTime merges two chronologically ordered conflict lists.
func mergeByTime(a, b []Conflict) []Conflict {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Conflict, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].Time <= b[0].Time {
			out = append(out, a[0])
			a = a[1:]
		} else {
			out = append(out, b[0])
			b = b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// raceLogLines formats the race tier's reports for ConflictLog.
func (m *Machine) raceLogLines() []logEntry {
	rs := m.race
	if rs == nil {
		return nil
	}
	out := make([]logEntry, 0, len(rs.d.Races()))
	for _, r := range rs.d.Races() {
		out = append(out, logEntry{
			t: r.Detected,
			s: fmt.Sprintf("race at image %d [%d,%d): %s unordered with %s at t=%v",
				r.Rank, r.Lo, r.Hi, r.Current.Op, r.Prior.Op, r.Detected),
		})
	}
	return out
}
