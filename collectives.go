package caf

import (
	"fmt"

	"caf2go/internal/collect"
	"caf2go/internal/core"
	"caf2go/internal/race"
	"caf2go/internal/team"
	"caf2go/internal/trace"
)

// ReduceOp re-exports the reduction operator type.
type ReduceOp = collect.Op

// Reduction operators.
const (
	Sum  = collect.Sum
	Prod = collect.Prod
	Min  = collect.Min
	Max  = collect.Max
	BAnd = collect.BAnd
	BOr  = collect.BOr
	BXor = collect.BXor
)

// Collective is the handle of one asynchronous collective on one image.
type Collective struct {
	img *Image
	h   *collect.Handle
	op  *Op // completion handle (continuation registration)

	// Race-detector state: the per-instance sync clock and whether this
	// image's role acquires it (a broadcast receiver does, the root does
	// not need to — there is nothing upstream of it).
	cs  *collSync
	acq bool
}

// Op returns the collective's completion handle for continuation
// registration: local data fires when this image's buffers are usable,
// local and global completion together when all pair-wise communication
// involving this image is done (Fig. 4). Continuations observing the
// result should be registered via a PollSet (or call raceAcquire-free
// Result() only after LocalDataDone) — direct callbacks run in engine
// context and do not install the race detector's acquire edge.
func (c *Collective) Op() *Op { return c.op }

// CollOpt configures an asynchronous collective.
type CollOpt func(*collOpts)

type collOpts struct {
	dataE *Event // srcE in the paper's signature: local data completion
	opE   *Event // localE: local operation completion
}

// DataEvent requests notification of e at local data completion (the
// srcE parameter of team_broadcast_async, §II-C3). Supplying any event
// makes the collective explicitly synchronized (invisible to cofence and
// finish).
func DataEvent(e *Event) CollOpt { return func(o *collOpts) { o.dataE = e } }

// OpEvent requests notification of e at local operation completion (the
// localE parameter of team_broadcast_async).
func OpEvent(e *Event) CollOpt { return func(o *collOpts) { o.opE = e } }

// WaitLocalData blocks until the image's buffers are usable: inputs may
// be overwritten, outputs read (Fig. 4).
func (c *Collective) WaitLocalData() {
	btok := c.img.beginBlock("collective")
	c.h.WaitLocalData(c.img.proc)
	c.img.endBlock(btok)
	c.raceAcquire()
}

// WaitLocalOp blocks until all pair-wise communication involving this
// image is complete.
func (c *Collective) WaitLocalOp() {
	btok := c.img.beginBlock("collective")
	c.h.WaitLocalOp(c.img.proc)
	c.img.endBlock(btok)
	c.raceAcquire()
}

// LocalDataDone reports local data completion without blocking. Observing
// completion is an acquire point: the caller may read the result next.
func (c *Collective) LocalDataDone() bool {
	if c.h.LocalDataDone() {
		c.raceAcquire()
		return true
	}
	return false
}

// LocalOpDone reports local operation completion without blocking.
func (c *Collective) LocalOpDone() bool {
	if c.h.LocalOpDone() {
		c.raceAcquire()
		return true
	}
	return false
}

// raceAcquire joins the collective's accumulated release clock when this
// image's role is ordered after other participants.
func (c *Collective) raceAcquire() {
	if c.cs != nil && c.acq {
		c.img.raceAcquire(c.cs.clk)
	}
}

// Result returns the operation's local result (see the individual
// constructors); valid once LocalDataDone.
func (c *Collective) Result() any { return c.h.Result() }

// wrap finishes constructing an async collective handle: event
// notifications for explicit completion, cofence registration otherwise,
// plus the race detector's role-filtered release/acquire edges — rel
// images contribute their clock to the instance at initiation, acq
// images join the accumulation at their completion points.
func (img *Image) wrap(h *collect.Handle, kind string, class core.OpClass, o collOpts, t *Team, rel, acq bool) *Collective {
	implicit := o.dataE == nil && o.opE == nil
	// Lifecycle: a collective has no single peer; its local-op completion
	// is also its global completion from this image's perspective (all
	// pair-wise communication involving this image is done, Fig. 4).
	oph := img.opNew("coll:"+kind, -1)
	m, me := img.m, img.Rank()
	img.opStage(oph, trace.StageInit)
	h.OnLocalData(func() { m.opStageAt(oph, me, trace.StageLocalData) })
	h.OnLocalOp(func() {
		// Local-op completion implies the buffers are usable (Fig. 4), but
		// the collective engine does not structurally guarantee its
		// local-data hook ran first on every algorithm path; stamp
		// defensively — idempotent, so normal runs are unchanged.
		m.opStageAt(oph, me, trace.StageLocalData)
		m.opStageAt(oph, me, trace.StageLocalOp)
		m.opStageAt(oph, me, trace.StageGlobal)
	})
	var cs *collSync
	var selfClk race.Clock
	if rs := img.m.race; rs != nil && img.rc != nil {
		cs = rs.collInstance(img.Rank(), t)
		if rel {
			img.rc.ReleaseInto(&cs.clk)
		} else if !implicit {
			// Events still release the notifier's own clock to waiters.
			selfClk = img.raceRelease()
		}
		if implicit {
			if tid := img.trackID(); tid != 0 {
				// The enclosing finish's exit is ordered after the whole
				// instance; dereferenced there, once fully accumulated.
				fs := rs.finishSyncFor(tid)
				fs.refs = append(fs.refs, &cs.clk)
			}
		}
	}
	if implicit {
		if class != 0 {
			op := img.tracker().Register(class, core.InitFunc(func() {}))
			h.OnLocalData(op.CompleteLocalData)
			if cs != nil && acq {
				img.raceOps = append(img.raceOps, raceOp{op: op, class: class, clkRef: &cs.clk})
			}
		}
	} else {
		if e := o.dataE; e != nil {
			h.OnLocalData(func() { img.m.notifyFrom(me, e, collNotifyClk(cs, selfClk)) })
		}
		if e := o.opE; e != nil {
			h.OnLocalOp(func() { img.m.notifyFrom(me, e, collNotifyClk(cs, selfClk)) })
		}
	}
	return &Collective{img: img, h: h, op: oph, cs: cs, acq: acq}
}

// collNotifyClk builds the release clock a collective's completion event
// carries: the instance's accumulation plus the notifier's own clock.
func collNotifyClk(cs *collSync, selfClk race.Clock) race.Clock {
	if cs == nil {
		return nil
	}
	return race.Join(race.CopyClock(cs.clk), selfClk)
}

// track context for a collective: implicit collectives are covered by
// the enclosing finish, whose team must contain the collective's team
// (§III-A1).
func (img *Image) collTrack(t *Team, implicit bool) any {
	if !implicit {
		return nil
	}
	if n := len(img.finishStack); n > 0 {
		if !t.SubsetOf(img.finishTeam()) {
			panic("caf: asynchronous collective's team must be a subset of the enclosing finish's team")
		}
	}
	return img.track()
}

// finishTeam returns the innermost finish block's team.
func (img *Image) finishTeam() *Team {
	return img.finishStack[len(img.finishStack)-1].Team()
}

func (img *Image) resolveTeam(t *Team) *Team {
	if t == nil {
		return img.m.world
	}
	return t
}

// BarrierAsync begins a split-phase barrier over t.
func (img *Image) BarrierAsync(t *Team, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	h := img.m.comm.BarrierAsync(img.st.kern, t, img.collTrack(t, o.dataE == nil && o.opE == nil))
	return img.wrap(h, "barrier", 0, o, t, true, true)
}

// BroadcastAsync begins an asynchronous broadcast of val (bytes wide)
// from team rank root; Result returns the received value everywhere.
func (img *Image) BroadcastAsync(t *Team, root int, val any, bytes int, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	isRoot := t.MustRank(img.Rank()) == root
	class := core.OpWrites
	if isRoot {
		class = core.OpReads
	}
	h := img.m.comm.BroadcastAsync(img.st.kern, t, root, val, bytes,
		img.collTrack(t, o.dataE == nil && o.opE == nil))
	// Receivers are ordered after the root; the root after no one.
	return img.wrap(h, "broadcast", class, o, t, isRoot, true)
}

// ReduceAsync begins an asynchronous reduction of vec to team rank root.
func (img *Image) ReduceAsync(t *Team, root int, op ReduceOp, vec []int64, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	isRoot := t.MustRank(img.Rank()) == root
	class := core.OpReads
	if isRoot {
		class |= core.OpWrites
	}
	h := img.m.comm.ReduceAsync(img.st.kern, t, root, op, vec,
		img.collTrack(t, o.dataE == nil && o.opE == nil))
	// The root is ordered after every contributor; contributors continue.
	return img.wrap(h, "reduce", class, o, t, true, isRoot)
}

// AllreduceAsync begins an asynchronous all-reduce of vec.
func (img *Image) AllreduceAsync(t *Team, op ReduceOp, vec []int64, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	h := img.m.comm.AllreduceAsync(img.st.kern, t, op, vec,
		img.collTrack(t, o.dataE == nil && o.opE == nil))
	return img.wrap(h, "allreduce", core.OpReads|core.OpWrites, o, t, true, true)
}

// GatherAsync begins an asynchronous gather of val (bytes wide) to root.
func (img *Image) GatherAsync(t *Team, root int, val any, bytes int, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	isRoot := t.MustRank(img.Rank()) == root
	class := core.OpReads
	if isRoot {
		class |= core.OpWrites
	}
	h := img.m.comm.GatherAsync(img.st.kern, t, root, val, bytes,
		img.collTrack(t, o.dataE == nil && o.opE == nil))
	return img.wrap(h, "gather", class, o, t, true, isRoot)
}

// ScatterAsync begins an asynchronous scatter of vals (one per team rank,
// significant at the root).
func (img *Image) ScatterAsync(t *Team, root int, vals []any, bytes int, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	isRoot := t.MustRank(img.Rank()) == root
	class := core.OpWrites
	if isRoot {
		class = core.OpReads
	}
	h := img.m.comm.ScatterAsync(img.st.kern, t, root, vals, bytes,
		img.collTrack(t, o.dataE == nil && o.opE == nil))
	return img.wrap(h, "scatter", class, o, t, isRoot, true)
}

// AlltoallAsync begins an asynchronous all-to-all of vals (one per rank).
func (img *Image) AlltoallAsync(t *Team, vals []any, bytes int, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	h := img.m.comm.AlltoallAsync(img.st.kern, t, vals, bytes,
		img.collTrack(t, o.dataE == nil && o.opE == nil))
	return img.wrap(h, "alltoall", core.OpReads|core.OpWrites, o, t, true, true)
}

// ScanAsync begins an asynchronous inclusive prefix reduction in
// team-rank order.
func (img *Image) ScanAsync(t *Team, op ReduceOp, vec []int64, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	h := img.m.comm.ScanAsync(img.st.kern, t, op, vec,
		img.collTrack(t, o.dataE == nil && o.opE == nil))
	return img.wrap(h, "scan", core.OpReads|core.OpWrites, o, t, true, true)
}

// SortAsync begins an asynchronous global sort of keys (each image keeps
// its original count; team-rank order yields the sorted sequence).
func (img *Image) SortAsync(t *Team, keys []int64, opts ...CollOpt) *Collective {
	t = img.resolveTeam(t)
	var o collOpts
	for _, opt := range opts {
		opt(&o)
	}
	h := img.m.comm.SortAsync(img.st.kern, t, keys,
		img.collTrack(t, o.dataE == nil && o.opE == nil))
	return img.wrap(h, "sort", core.OpReads|core.OpWrites, o, t, true, true)
}

// ---------------------------------------------------------------------
// Synchronous conveniences (block until local data completion).
// ---------------------------------------------------------------------

// Barrier blocks until every member of t entered the barrier. It
// replaces Fortran 2008's SYNC ALL (§V). A barrier is a full
// release/acquire fence: every member is ordered after every other
// member's pre-barrier activity.
func (img *Image) Barrier(t *Team) {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:barrier", t, true, true)
	img.m.comm.Barrier(img.proc, img.st.kern, t)
	b.end()
}

// Broadcast distributes val (bytes wide) from team rank root.
func (img *Image) Broadcast(t *Team, root int, val any, bytes int) any {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:broadcast", t, t.MustRank(img.Rank()) == root, true)
	out := img.m.comm.Broadcast(img.proc, img.st.kern, t, root, val, bytes)
	b.end()
	return out
}

// Reduce folds vec to the root (result nil elsewhere).
func (img *Image) Reduce(t *Team, root int, op ReduceOp, vec []int64) []int64 {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:reduce", t, true, t.MustRank(img.Rank()) == root)
	out := img.m.comm.Reduce(img.proc, img.st.kern, t, root, op, vec)
	b.end()
	return out
}

// Allreduce folds vec across t, returning the result everywhere.
func (img *Image) Allreduce(t *Team, op ReduceOp, vec []int64) []int64 {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:allreduce", t, true, true)
	out := img.m.comm.Allreduce(img.proc, img.st.kern, t, op, vec)
	b.end()
	return out
}

// Gather collects each member's val at the root.
func (img *Image) Gather(t *Team, root int, val any, bytes int) []any {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:gather", t, true, t.MustRank(img.Rank()) == root)
	out := img.m.comm.Gather(img.proc, img.st.kern, t, root, val, bytes)
	b.end()
	return out
}

// Scatter distributes vals (one per team rank) from the root.
func (img *Image) Scatter(t *Team, root int, vals []any, bytes int) any {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:scatter", t, t.MustRank(img.Rank()) == root, true)
	out := img.m.comm.Scatter(img.proc, img.st.kern, t, root, vals, bytes)
	b.end()
	return out
}

// Alltoall exchanges vals pairwise.
func (img *Image) Alltoall(t *Team, vals []any, bytes int) []any {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:alltoall", t, true, true)
	out := img.m.comm.Alltoall(img.proc, img.st.kern, t, vals, bytes)
	b.end()
	return out
}

// Scan returns the inclusive prefix reduction in team-rank order.
func (img *Image) Scan(t *Team, op ReduceOp, vec []int64) []int64 {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:scan", t, true, true)
	out := img.m.comm.Scan(img.proc, img.st.kern, t, op, vec)
	b.end()
	return out
}

// SortKeys globally sorts the members' keys.
func (img *Image) SortKeys(t *Team, keys []int64) []int64 {
	t = img.resolveTeam(t)
	b := img.collBracket("coll:sort", t, true, true)
	out := img.m.comm.Sort(img.proc, img.st.kern, t, keys)
	b.end()
	return out
}

// TeamSplit collectively partitions parent (nil = team_world): images
// passing equal colors form a new team, ordered by key then world rank
// (§II-A). Every member of parent must call it; the new team containing
// the caller is returned.
func (img *Image) TeamSplit(parent *Team, color, key int) *Team {
	parent = img.resolveTeam(parent)
	spec := team.SplitSpec{World: img.Rank(), Color: color, Key: key}
	// Route through the bracketed collectives so a split also installs
	// its happens-before edges (a split is a synchronization point).
	gathered := img.Gather(parent, 0, spec, 24)
	var result map[int]*Team
	if parent.MustRank(img.Rank()) == 0 {
		specs := make([]team.SplitSpec, len(gathered))
		colors := make(map[int]bool)
		for i, g := range gathered {
			specs[i] = g.(team.SplitSpec)
			colors[specs[i].Color] = true
		}
		base := img.m.reserveTeamIDs(len(colors))
		var err error
		result, err = team.Split(parent, specs, base)
		if err != nil {
			// Every member of a live parent team contributed exactly one
			// spec via the gather above, so a typed split error here is a
			// runtime invariant violation, not a user mistake.
			panic(fmt.Sprintf("caf: team split failed: %v", err))
		}
	}
	shared := img.Broadcast(parent, 0, result, 16*parent.Size()).(map[int]*Team)
	return shared[color]
}

// reserveTeamIDs hands out a contiguous block of globally unique team ids.
func (m *Machine) reserveTeamIDs(n int) int64 {
	base := m.nextSplit + 1
	m.nextSplit += int64(n)
	return base
}
