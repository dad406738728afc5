// Package caf is a Go reproduction of the Coarray Fortran 2.0 (CAF 2.0)
// runtime described in "Managing Asynchronous Operations in Coarray
// Fortran 2.0" (Yang, Murthy, Mellor-Crummey; IPDPS 2013).
//
// A caf program is SPMD: Run launches the same function on every process
// image of a simulated distributed-memory machine (goroutines multiplexed
// over a deterministic virtual clock, internal/sim) connected by a modeled
// network fabric (internal/fabric). The Image handle passed to each copy
// exposes the language-level constructs:
//
//   - Coarrays (NewCoarray) — shared distributed data.
//   - CopyAsync — one-sided predicated asynchronous copies (§II-C1).
//   - Spawn — function shipping (§II-C2).
//   - BroadcastAsync, ReduceAsync, … — asynchronous collectives (§II-C3).
//   - Events — explicit completion: notify (release) / wait (acquire).
//   - Finish — global completion of implicitly-synchronized asynchronous
//     operations via the epoch-based SPMD termination detector (§III-A).
//   - Cofence — local data completion with directional READ/WRITE/ANY
//     filtering (§III-B).
//
// Times reported by the machine are virtual (simulated) seconds; the cost
// model is configured through Config.Fabric.
package caf

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"caf2go/internal/collect"
	"caf2go/internal/core"
	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/metrics"
	"caf2go/internal/path"
	"caf2go/internal/prof"
	"caf2go/internal/race"
	"caf2go/internal/repl"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
	"caf2go/internal/trace"
)

// MetricsSnapshot re-exports the deterministic metrics export embedded in
// Report.Metrics (export with WriteJSON / WritePrometheus).
type MetricsSnapshot = metrics.Snapshot

// Time re-exports the virtual time type for callers of the public API.
type Time = sim.Time

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// FabricConfig re-exports the network cost model configuration.
type FabricConfig = fabric.Config

// FaultPlan re-exports the deterministic fault-injection configuration:
// per-message drop/duplication probabilities, delivery jitter (reorder),
// transient receiver stalls, and hard NIC crashes, all driven off a
// seed-derived RNG so failing runs replay exactly. Attaching one to
// Config.Faults also enables the fabric's reliability protocol (sequence
// numbers, dedup, ack-timeout retransmission with capped backoff), which
// keeps every construct above — finish counters included — exact.
type FaultPlan = fabric.FaultPlan

// FailureDetectorConfig re-exports the heartbeat/lease failure-detector
// configuration. The zero value disables detection: crashed images
// behave exactly as before the detector existed (peers retry into the
// dead NIC and blocked synchronization hangs), preserving bit-identical
// replay of legacy runs.
type FailureDetectorConfig = failure.Config

// DefaultHeartbeat is the detector's default heartbeat period.
const DefaultHeartbeat = failure.DefaultHeartbeat

// ImageFailedError re-exports the typed error every blocking primitive
// surfaces when an image it depends on is declared dead: finish, event
// wait, lock/RPC, collectives, cofence, and async-copy completion all
// abort with one of these instead of hanging.
type ImageFailedError = failure.ImageFailedError

// Coalescing re-exports the fabric's adaptive message-coalescing
// configuration: per-destination aggregation of small AMs into batched
// wire packets, flushed by size threshold, virtual-time timeout, or a
// synchronization barrier. The zero value disables coalescing and keeps
// the fabric bit-identical to a build without it.
type Coalescing = fabric.Coalescing

// Flush reasons surfaced by the coalescing trace events and Stats.
const (
	FlushBySize    = fabric.FlushBySize
	FlushByTimer   = fabric.FlushByTimer
	FlushByBarrier = fabric.FlushByBarrier
)

// DefaultFabric returns the default network cost model (Gemini-like:
// 1.5us latency, ~1GB/s injection, 64 credits, FIFO delivery).
func DefaultFabric() FabricConfig { return fabric.DefaultConfig() }

// Config describes the simulated machine a program runs on.
type Config struct {
	// Images is the number of process images (required, ≥ 1).
	Images int
	// Seed drives all simulation randomness; equal seeds reproduce runs
	// bit-for-bit.
	Seed int64
	// Fabric is the network cost model; the zero value means
	// DefaultFabric().
	Fabric FabricConfig
	// Faults, when non-nil, injects deterministic network faults (loss,
	// duplication, reorder, stalls, crashes) and enables the recovery
	// protocol that survives them. Shorthand for setting Fabric.Faults;
	// when both are set, Faults wins. nil leaves the fabric's idealized
	// exactly-once behavior bit-identical to a fault-free build.
	Faults *FaultPlan
	// Relaxed enables the relaxed-memory-model initiation buffer:
	// implicitly-synchronized asynchronous operations may defer their
	// actual initiation until a synchronization point (cofence, event,
	// finish) demands them.
	Relaxed bool
	// MaxDelayed caps the relaxed-mode initiation buffer (default 8).
	MaxDelayed int
	// Coalescing, when non-zero, batches small AMs per destination in
	// the fabric. Shorthand for setting Fabric.Coalescing; when both are
	// set, Coalescing wins. The zero value leaves the fabric's
	// message-per-send behavior bit-identical to a build without
	// coalescing.
	Coalescing Coalescing
	// FinishNoWait selects the speculative termination-detection variant
	// without the Fig. 7 wait-until precondition (the Fig. 18 baseline).
	FinishNoWait bool
	// TraceCapacity, when positive, enables execution tracing with the
	// given event capacity; export via Machine.Trace(). Tracing also
	// enables the operation-lifecycle tracker: every async op gets a
	// stable ID, its Fig. 1 completion-level transitions are stamped and
	// linked as Chrome flow events, and parked intervals are attributed
	// to the ops that released them (Machine.Lifecycle, cmd/cafprof).
	TraceCapacity int
	// Metrics enables the deterministic per-image metrics registry
	// (fabric link traffic, queue depths, coalescing batch occupancy,
	// finish round timings, failure counters), snapshotted into
	// Report.Metrics. Off by default; when off, runs stay bit-identical
	// to builds without the registry.
	Metrics bool
	// PathTracing enables request-scoped causal tracing
	// (internal/path): operations initiated under an active request
	// context (Image.PathScope, set by the load harness per request)
	// assemble into per-request span DAGs, and every request's measured
	// latency is decomposed exactly into critical-path buckets (client
	// queue, coalesce hold, wire, credit stall, lock wait, handler
	// service, replication mirror, epoch stall, replay re-issue).
	// Export via Machine.Profile / WriteProfile and the cafprof
	// paths/tail views. Off by default; the zero value keeps every run
	// bit-identical to a build without the tracker.
	PathTracing bool
	// FlatCollectives replaces the binomial collective trees with a
	// centralized star — the O(p)-critical-path ablation baseline for
	// the finish cost analysis.
	FlatCollectives bool
	// DetectConflicts tracks coarray ranges touched by in-flight
	// one-sided operations and counts overlapping concurrent accesses
	// with a writer — the races of the reference RandomAccess (§IV-B).
	// Inspect with Machine.Conflicts / ConflictLog.
	DetectConflicts bool
	// RaceDetector enables the vector-clock happens-before tier
	// (race.go): conflicting accesses are flagged whenever no chain of
	// synchronization edges (events, locks, finish, cofence, spawn,
	// collectives) orders them, even if this execution happened to
	// serialize them in time. Costlier than DetectConflicts; reports
	// through the same Conflicts / ConflictLog / ConflictDetails API.
	RaceDetector bool
	// Shards partitions the event queue of the discrete-event engine
	// across that many conservative-PDES shards (contiguous blocks of
	// images, each shard with its own heap, virtual clock, and worker
	// goroutine for queue maintenance). Shard count NEVER changes
	// simulation results: cross-shard events are admitted in global
	// (time, seq) order, so the same seed produces a bit-identical
	// Report, trace, and metrics at any shard count and GOMAXPROCS.
	// 0 or 1 means a single shard; values above Images are clamped.
	Shards int
	// FailureDetector, when Enabled, declares images whose NIC the fault
	// plan crashes dead after a deterministic heartbeat/lease delay and
	// turns every blocking primitive failure-aware: instead of hanging
	// on a dead peer, finish runs the resilient survivor protocol and
	// returns an error, while event waits, locks, collectives, cofences,
	// and RPCs abort their image with an ImageFailedError (fail-stop).
	// The zero value keeps runs bit-identical to builds without it.
	FailureDetector FailureDetectorConfig
	// Replication, when Enabled, turns on primary-backup replication of
	// replicated coarrays (NewReplCoarray): writes are asynchronously
	// mirrored to a deterministic backup rank, and — when the failure
	// detector is also enabled — a committed failure declaration runs an
	// epoch-bump agreement over the surviving team, promotes backups,
	// and rewrites routing so in-flight requests can be replayed against
	// the new primary instead of erroring. The zero value keeps runs
	// bit-identical to builds without replication.
	Replication ReplicationConfig
}

// ReplicationConfig re-exports the primary-backup replication
// configuration (internal/repl.Config) so callers configure recovery
// without importing internal packages.
type ReplicationConfig = repl.Config

// ReplStats re-exports the epoch manager's recovery accounting
// (internal/repl.Stats), surfaced by Machine.ReplStats.
type ReplStats = repl.Stats

// Machine is a configured simulated cluster. Most programs use Run; the
// benchmark harness builds a Machine directly to inspect stats.
type Machine struct {
	cfg       Config
	eng       *sim.Engine
	k         *rt.Kernel
	comm      *collect.Comm
	plane     *core.Plane
	world     *team.Team
	states    []*imageState
	tracer    *trace.Recorder
	life      *trace.Lifecycle
	met       *metrics.Registry
	path      *path.Tracker
	registry  *fnRegistry
	conflicts *conflictState
	race      *raceState

	coarrays  map[carrKey]*carrSlot
	nextSplit int64

	// Failure-detector state (nil / zero when disabled).
	det        *failure.Detector
	imgErrs    []*failure.ImageFailedError // first abort per image
	opsAborted int64

	// Epoch manager for primary-backup recovery (nil unless
	// Config.Replication.Enabled and the failure detector is live).
	repl *repl.Manager
}

// imageState is per-image state shared by every proc running on that
// image (the SPMD main and any shipped functions).
type imageState struct {
	m      *Machine
	kern   *rt.ImageKernel
	events []*eventState
	locks  map[int]*lockState

	// pendingDeliv tracks outstanding remote updates for EventNotify's
	// release semantics.
	pendingDeliv []*delivToken

	// carrSeq matches collective coarray allocations per team.
	carrSeq map[int64]uint64

	// nextTid hands out trace strand ids: the SPMD main is tid 0, each
	// spawned handler proc on this image gets the next id, so Perfetto
	// renders handler work on its own track instead of folding it onto
	// the main strand.
	nextTid int

	// Per-image counters surfaced in Stats.
	spawnsSent     int64
	spawnsExecuted int64
	copies         int64
}

// NewMachine builds a machine without starting any program.
func NewMachine(cfg Config) *Machine {
	if cfg.Images < 1 {
		panic("caf: Config.Images must be ≥ 1")
	}
	if cfg.Fabric == (fabric.Config{}) {
		cfg.Fabric = fabric.DefaultConfig()
	}
	if cfg.Faults != nil {
		cfg.Fabric.Faults = cfg.Faults
	}
	if cfg.Coalescing.Enabled() {
		cfg.Fabric.Coalescing = cfg.Coalescing
	}
	if cfg.MaxDelayed == 0 {
		cfg.MaxDelayed = 8
	}
	var tracer *trace.Recorder
	var life *trace.Lifecycle
	if cfg.TraceCapacity > 0 {
		tracer = trace.NewRecorder(cfg.TraceCapacity)
		life = trace.NewLifecycle(tracer, cfg.TraceCapacity)
		if cfg.Fabric.Coalescing.Enabled() {
			// Per-flush trace instants; wired before the kernel copies
			// the fabric config.
			cfg.Fabric.FlushObserver = &flushTracer{tr: tracer}
		}
	}
	var met *metrics.Registry
	if cfg.Metrics {
		met = metrics.New()
		// Wired before the kernel copies the fabric config.
		cfg.Fabric.Metrics = met
	}
	var ptrack *path.Tracker
	if cfg.PathTracing {
		ptrack = path.New()
		// Wired before the kernel copies the fabric config, so the
		// fabric claims coalesce/credit/wire legs for tagged messages.
		cfg.Fabric.Path = ptrack
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.Images {
		shards = cfg.Images
	}
	eng := sim.NewEngineSharded(cfg.Seed, shards)
	k := rt.NewKernel(eng, cfg.Images, cfg.Fabric)
	eng.SetLookahead(k.Fabric().MinLatency())
	tree := collect.Binomial
	if cfg.FlatCollectives {
		tree = collect.Flat
	}
	m := &Machine{
		cfg:      cfg,
		eng:      eng,
		k:        k,
		comm:     collect.NewWithTree(k, tree),
		world:    team.World(cfg.Images),
		coarrays: make(map[carrKey]*carrSlot),
	}
	m.plane = core.NewPlane(k, m.comm, core.Config{WaitQuiescent: !cfg.FinishNoWait})
	m.plane.SetMetrics(met)
	m.tracer = tracer
	m.life = life
	m.met = met
	m.path = ptrack
	var crash map[int]sim.Time
	if cfg.Fabric.Faults != nil {
		crash = cfg.Fabric.Faults.Crash
	}
	if m.det = failure.New(eng, cfg.Images, cfg.FailureDetector, crash); m.det != nil {
		k.SetDetector(m.det)
		m.plane.SetDetector(m.det)
		m.imgErrs = make([]*failure.ImageFailedError, cfg.Images)
		m.det.Subscribe(m.onImageDeath)
	}
	if m.repl = repl.NewManager(eng, m.det, cfg.Images, cfg.Replication); m.repl != nil {
		m.repl.Subscribe(func(epoch int, _ sim.Time) {
			m.met.Counter("repl_epochs_total", "committed epoch-bump agreements").Add(0, 1)
		})
		// Parked clients re-evaluate routes at the new epoch.
		m.repl.SetWake(eng.WakeAllParked)
	}
	if cfg.DetectConflicts {
		m.conflicts = &conflictState{}
	}
	if cfg.RaceDetector {
		m.race = newRaceState(cfg.Fabric.FIFO)
	}
	m.states = make([]*imageState, cfg.Images)
	for i := range m.states {
		m.states[i] = &imageState{
			m:     m,
			kern:  k.Image(i),
			locks: make(map[int]*lockState),
		}
	}
	m.registerHandlers()
	return m
}

// Launch starts main as the SPMD program on every image. It returns
// immediately; call RunToCompletion (or drive the engine yourself) next.
func (m *Machine) Launch(main func(img *Image)) {
	for i := 0; i < m.cfg.Images; i++ {
		st := m.states[i]
		st.kern.Go("main", func(p *sim.Proc) {
			if m.det != nil {
				// Fail-stop: a blocking primitive aborted by a failure
				// declaration unwinds the image's main with an
				// ImageFailedError, recorded here. Anything else keeps
				// propagating to the engine as a real bug.
				defer func() {
					r := recover()
					if r == nil {
						return
					}
					if ab, ok := r.(failure.Abort); ok {
						m.recordAbort(st.kern.Rank(), ab.Err)
						return
					}
					panic(r)
				}()
			}
			img := &Image{m: m, st: st, proc: p}
			if m.race != nil {
				img.rc = m.race.d.NewCtx(nil)
			}
			main(img)
			// Program exit is a synchronization point: flush any
			// deferred initiations and coalescing buffers so the
			// machine drains.
			img.flushImplicit()
			st.kern.FlushCoalesced()
		})
	}
}

// RunToCompletion drives the simulation until it drains and returns the
// final report. A deadlock (blocked images with no pending events) is
// returned as a *DeadlockError carrying per-image wait-state dumps.
// With the failure detector enabled, a clean drain after image failures
// returns the lowest-ranked surviving image's ImageFailedError so
// callers see that work was lost.
func (m *Machine) RunToCompletion() (Report, error) {
	err := m.eng.Run()
	// The run is over: reclaim the shard workers' goroutines. The engine
	// respawns them if it is driven again.
	m.eng.ReleaseWorkers()
	if derr, ok := err.(*sim.DeadlockError); ok {
		err = m.wrapDeadlock(derr)
	}
	if err == nil && m.imgErrs != nil {
		for _, e := range m.imgErrs {
			if e != nil {
				err = e
				break
			}
		}
	}
	return m.report(), err
}

// ImageWaitState is one image's slice of a deadlock diagnostic: what
// each of its unfinished procs is blocked on, plus the fabric-side
// backlog that explains why no event can unblock them.
type ImageWaitState struct {
	Rank        int
	Blocked     []string // "name[procID] state (wait reason)" per unfinished proc
	QueuedSends int      // sends waiting for injection credits
	Outstanding int      // injected but unacknowledged messages
	PendingRetx int      // reliability-layer retransmissions still armed
}

// DeadlockError is RunToCompletion's quiescence-with-blocked-procs
// report: the raw simulator deadlock plus a per-image dump of every
// blocked proc's wait reason and in-flight fabric state. Unwrap yields
// the underlying *sim.DeadlockError.
type DeadlockError struct {
	Sim    *sim.DeadlockError
	Images []ImageWaitState
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "caf: deadlock at %v: %d blocked proc(s)", e.Sim.Now, len(e.Sim.Parked))
	for _, im := range e.Images {
		fmt.Fprintf(&b, "\n  image %d: %s", im.Rank, strings.Join(im.Blocked, "; "))
		if im.QueuedSends+im.Outstanding+im.PendingRetx > 0 {
			fmt.Fprintf(&b, " [fabric: %d queued, %d outstanding, %d retx pending]",
				im.QueuedSends, im.Outstanding, im.PendingRetx)
		}
	}
	return b.String()
}

func (e *DeadlockError) Unwrap() error { return e.Sim }

// wrapDeadlock builds the per-image wait-state dump for a simulator
// deadlock.
func (m *Machine) wrapDeadlock(derr *sim.DeadlockError) *DeadlockError {
	out := &DeadlockError{Sim: derr}
	for i, st := range m.states {
		ep := st.kern.Endpoint()
		ws := ImageWaitState{
			Rank:        i,
			QueuedSends: ep.QueuedSends(),
			Outstanding: ep.Outstanding(),
			PendingRetx: ep.PendingRetx(),
		}
		for _, p := range st.kern.Procs() {
			if p.State() == "done" {
				continue
			}
			desc := fmt.Sprintf("%s[%d] %s", p.Name(), p.ID(), p.State())
			if r := p.BlockReason(); r != "" {
				desc += " (" + r + ")"
			}
			ws.Blocked = append(ws.Blocked, desc)
		}
		if len(ws.Blocked) > 0 || ws.QueuedSends+ws.Outstanding+ws.PendingRetx > 0 {
			out.Images = append(out.Images, ws)
		}
	}
	return out
}

// Report summarizes a completed run.
type Report struct {
	// VirtualTime is the simulated makespan.
	VirtualTime Time
	// Msgs and Bytes count all fabric traffic, including runtime-internal
	// messages (acks are separate).
	Msgs, Bytes uint64
	// SpawnsSent / SpawnsExecuted count shipped functions.
	SpawnsSent, SpawnsExecuted int64
	// Copies counts asynchronous copy operations initiated.
	Copies int64
	// FinishBlocks and ReduceRounds summarize termination detection
	// (per-image finish entries and total allreduce rounds).
	FinishBlocks int
	ReduceRounds int64
	// EventsRun counts simulator events (a cost/complexity proxy).
	EventsRun uint64
	// Retransmits, DupsDropped, and FaultsInjected report the reliability
	// layer's work under fault injection: extra transmissions, duplicate
	// deliveries suppressed by receiver dedup, and total faults (drops +
	// duplications + stalls) the plan injected. All zero when
	// Config.Faults is nil.
	Retransmits, DupsDropped, FaultsInjected uint64
	// MsgsCoalesced counts messages that rode in multi-message batches
	// (each batch counts once in Msgs); Flushes breaks down why the
	// aggregation buffers emptied. All zero when Config.Coalescing is
	// the zero value.
	MsgsCoalesced  uint64
	Flushes        uint64
	FlushBySize    uint64
	FlushByTimer   uint64
	FlushByBarrier uint64
	// ImagesFailed counts images declared dead by the failure detector;
	// OpsAbortedByFailure counts blocking primitives that surfaced an
	// ImageFailedError instead of hanging; FinishLostActivities counts
	// tracked operations resilient finishes charged off as lost on dead
	// images. All zero when Config.FailureDetector is disabled.
	ImagesFailed         int
	OpsAbortedByFailure  int64
	FinishLostActivities int64
	// TraceDropped reports per-category counts of trace records dropped
	// at capacity (recorder events plus lifecycle logs); nil when nothing
	// was dropped or tracing is off.
	TraceDropped map[string]int `json:",omitempty"`
	// Metrics is the deterministic registry snapshot; nil when
	// Config.Metrics is off.
	Metrics *MetricsSnapshot `json:",omitempty"`
}

func (m *Machine) report() Report {
	fs := m.k.Fabric().Stats()
	ps := m.plane.Stats()
	r := Report{
		VirtualTime:    m.eng.Now(),
		Msgs:           fs.MsgsSent,
		Bytes:          fs.BytesSent,
		FinishBlocks:   ps.Finishes,
		ReduceRounds:   ps.ReduceRounds,
		EventsRun:      m.eng.EventsRun(),
		Retransmits:    fs.Retransmits,
		DupsDropped:    fs.DupsDropped,
		FaultsInjected: fs.FaultsInjected,
		MsgsCoalesced:  fs.MsgsCoalesced,
		Flushes:        fs.Flushes,
		FlushBySize:    fs.FlushBySize,
		FlushByTimer:   fs.FlushByTimer,
		FlushByBarrier: fs.FlushByBarrier,

		ImagesFailed:         m.det.DeathCount(),
		OpsAbortedByFailure:  m.opsAborted,
		FinishLostActivities: ps.LostActivities,
	}
	for _, st := range m.states {
		r.SpawnsSent += st.spawnsSent
		r.SpawnsExecuted += st.spawnsExecuted
		r.Copies += st.copies
	}
	for cat, n := range m.tracer.Dropped() {
		if r.TraceDropped == nil {
			r.TraceDropped = make(map[string]int)
		}
		r.TraceDropped[cat] += n
	}
	for cat, n := range m.life.Dropped() {
		if r.TraceDropped == nil {
			r.TraceDropped = make(map[string]int)
		}
		r.TraceDropped[cat] += n
	}
	if m.met.Enabled() {
		snap := m.met.Snapshot()
		r.Metrics = &snap
	}
	return r
}

// Engine exposes the simulation engine (benchmark harness use).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// FabricStats re-exports the fabric counter snapshot, including the
// fault/reliability counters (retransmits, dups dropped, abandoned
// messages) beyond what Report surfaces.
type FabricStats = fabric.Stats

// FabricStats returns the machine's fabric counters.
func (m *Machine) FabricStats() FabricStats { return m.k.Fabric().Stats() }

// FinishRoundTimes returns the virtual times at which each termination-
// detection round of an image's most recent finish completed
// (diagnostics for the benchmark harness).
func (m *Machine) FinishRoundTimes(rank int) []Time {
	s := m.plane.LastState(rank)
	if s == nil {
		return nil
	}
	return s.RoundAt
}

// Shutdown aborts all live simulated processes (test cleanup after a
// deadlock report).
func (m *Machine) Shutdown() { m.eng.Shutdown() }

// tracker returns this execution context's cofence tracker, making it
// on first use.
func (img *Image) tracker() *core.CofenceTracker {
	if img.ct == nil {
		img.ct = img.m.newTracker()
	}
	return img.ct
}

// flushImplicit initiates the context's buffered implicit operations
// (relaxed mode); a context that never made its tracker has none.
func (img *Image) flushImplicit() {
	if img.ct != nil {
		img.ct.Flush()
	}
}

// newTracker builds a cofence tracker for one execution context.
func (m *Machine) newTracker() *core.CofenceTracker {
	ct := core.NewCofenceTracker(m.cfg.Relaxed, m.cfg.MaxDelayed)
	ct.SetDetector(m.det)
	return ct
}

// onImageDeath runs inside the engine at each failure declaration. The
// order matters: first the finish plane consumes its mirror tallies
// (charge-off), then the fabric abandons traffic to/from the dead NIC
// (each abandoned tracked send reconciles through OnAbandoned against
// the already-charged state), and only then is every parked proc woken
// so blocked primitives re-evaluate their — now failure-aware — wait
// conditions against fully reconciled state.
func (m *Machine) onImageDeath(rank int, at sim.Time) {
	_ = at
	m.met.Counter("caf_images_failed_total", "images declared dead by the failure detector").Add(rank, 1)
	m.plane.OnDeath(rank)
	m.k.Fabric().AbandonForDead(rank)
	m.eng.WakeAllParked()
}

// recordAbort notes a blocking primitive aborted by a failure
// declaration; the first abort per image becomes that image's error.
func (m *Machine) recordAbort(rank int, err *failure.ImageFailedError) {
	m.opsAborted++
	m.met.Counter("caf_ops_aborted_total", "blocking primitives aborted by a failure declaration").Add(rank, 1)
	if m.imgErrs != nil && m.imgErrs[rank] == nil {
		m.imgErrs[rank] = err
	}
}

// ImageErrors returns, per image, the ImageFailedError that aborted it
// (nil entries for images that ran to completion). Only meaningful with
// the failure detector enabled; returns nil otherwise.
func (m *Machine) ImageErrors() []*ImageFailedError {
	if m.imgErrs == nil {
		return nil
	}
	out := make([]*ImageFailedError, len(m.imgErrs))
	copy(out, m.imgErrs)
	return out
}

// DeadImages returns the ranks declared dead by the failure detector,
// ascending (nil when the detector is off or nobody died).
func (m *Machine) DeadImages() []int { return m.det.DeadRanks() }

// ImageDead reports whether rank has been declared dead by the failure
// detector (always false with the detector off). Safe to call from
// inside proc bodies: declarations are engine events, so the answer is
// deterministic at any given virtual time.
func (m *Machine) ImageDead(rank int) bool { return m.det.Dead(rank) }

// ImageDeadAt returns rank's declaration time when it has been declared
// dead (false otherwise, and always with the detector off).
func (m *Machine) ImageDeadAt(rank int) (Time, bool) { return m.det.DeadAt(rank) }

// AnyImageDead reports whether any image has been declared dead.
func (m *Machine) AnyImageDead() bool { return m.det.AnyDead() }

// Epoch returns the committed recovery epoch: 0 before any failure has
// been agreed on (and always 0 with replication off). The epoch bumps
// atomically — at one virtual instant, for every image — when the
// shrink-and-recover agreement commits a set of declared deaths.
func (m *Machine) Epoch() int { return m.repl.Epoch() }

// DeathCommitted reports whether rank's death has been *committed* by
// an epoch agreement, as opposed to merely declared by the detector.
// Routing moves past a dead rank — and in-flight requests may be safely
// replayed against its backup — only once its death is committed.
func (m *Machine) DeathCommitted(rank int) bool { return m.repl.Committed(rank) }

// ReplicaOf returns the world rank holding rank's backup copy under the
// default whole-machine placement (the next rank on the world ring), or
// -1 when replication is off or the machine has a single image.
// Replicated coarrays allocated over an explicit chain use the chain's
// own ring instead (ReplCoarray.Backup).
func (m *Machine) ReplicaOf(rank int) int {
	if m.repl == nil || m.cfg.Images < 2 {
		return -1
	}
	return (rank + 1) % m.cfg.Images
}

// ReplStats snapshots the epoch manager's recovery accounting (zero
// value with replication off).
func (m *Machine) ReplStats() ReplStats { return m.repl.Stats() }

// SubscribeEpoch registers fn to run inside the engine at every epoch
// commit, after routing state has been rewritten. Inert with
// replication off.
func (m *Machine) SubscribeEpoch(fn func(epoch int, at Time)) {
	m.repl.Subscribe(func(epoch int, at sim.Time) { fn(epoch, at) })
}

// Trace returns the execution-trace recorder, or nil when tracing is
// disabled. Export with WriteChromeTrace / WriteSummary.
func (m *Machine) Trace() *trace.Recorder { return m.tracer }

// Lifecycle returns the operation-lifecycle tracker (op stage timings,
// blocked-interval attribution, finish round records), or nil when
// tracing is disabled.
func (m *Machine) Lifecycle() *trace.Lifecycle { return m.life }

// Metrics returns the metrics registry, or nil when Config.Metrics is
// off. Snapshot for export; also embedded in Report.Metrics.
func (m *Machine) Metrics() *metrics.Registry { return m.met }

// PathTracker returns the request-scoped causal tracing tracker, or nil
// when Config.PathTracing is off. All tracker methods are no-ops on a
// nil receiver, so callers (the load harness) need no guards.
func (m *Machine) PathTracker() *path.Tracker { return m.path }

// Profile assembles the run's observability export: operation
// lifecycles, blocked intervals, finish detection rounds, and the
// metrics snapshot. Analyze with internal/prof or the cafprof CLI.
func (m *Machine) Profile() *prof.Profile {
	p := &prof.Profile{
		Images:   len(m.states),
		Duration: m.eng.Now(),
		Ops:      m.life.Ops(),
		Blocks:   m.life.Blocks(),
		Finishes: m.life.FinishRounds(),
	}
	for cat, n := range m.tracer.Dropped() {
		if p.Dropped == nil {
			p.Dropped = make(map[string]int)
		}
		p.Dropped[cat] += n
	}
	for cat, n := range m.life.Dropped() {
		if p.Dropped == nil {
			p.Dropped = make(map[string]int)
		}
		p.Dropped[cat] += n
	}
	if m.met.Enabled() {
		snap := m.met.Snapshot()
		p.Metrics = &snap
	}
	p.Paths = m.path.Export()
	return p
}

// WriteProfile serializes Profile as JSON — the cafprof input format.
func (m *Machine) WriteProfile(w io.Writer) error { return prof.Write(w, m.Profile()) }

// traceSpan records a span attributed to the image's current strand.
func (img *Image) traceSpan(name, cat string, start Time) {
	if tr := img.m.tracer; tr.Enabled() {
		tr.Span(img.Rank(), img.tid, name, cat, start, img.Now()-start)
	}
}

// traceInstant records an instant on the image.
func (img *Image) traceInstant(name, cat string) {
	if tr := img.m.tracer; tr.Enabled() {
		tr.Instant(img.Rank(), img.tid, name, cat, img.Now())
	}
}

// opNew creates the completion handle for an async op initiated by this
// image, registering it with the lifecycle tracker when tracing is on
// (the handle's continuation machinery works either way). Under an
// active request context the op also becomes a span on the request's
// causal DAG, parented to the context's enclosing span.
func (img *Image) opNew(kind string, peer int) *Op {
	o := &Op{}
	img.opInit(o, kind, peer)
	return o
}

// opInit starts a completion handle that lives inside its operation's
// own record (see opNew).
func (img *Image) opInit(o *Op, kind string, peer int) {
	*o = Op{m: img.m, kind: kind, img: img.Rank(),
		id: img.m.life.OpNew(kind, img.Rank(), peer, img.Now())}
	if img.m.path != nil && img.pctx.Active() {
		o.pctx = img.pctx
		o.span = img.m.path.SpanNew(img.pctx, kind, img.Rank(), peer, img.Now())
	}
}

// opStage advances an op's completion level as observed on this image:
// the lifecycle stamp and the op's continuations fire together.
func (img *Image) opStage(o *Op, stage trace.Stage) {
	img.m.opAdvance(o, img.Rank(), stage)
}

// opStageAt advances a completion level as observed on image rank at the
// current engine time (for handler-side transitions without an Image).
func (m *Machine) opStageAt(o *Op, rank int, stage trace.Stage) {
	m.opAdvance(o, rank, stage)
}

// beginBlock opens a parked-interval record on this strand; redeem with
// endBlock after the primitive returns.
func (img *Image) beginBlock(prim string) trace.BlockToken {
	if img.m.life == nil {
		return trace.BlockToken{}
	}
	return img.m.life.BeginBlock(img.Rank(), img.tid, prim, img.Now())
}

func (img *Image) endBlock(tok trace.BlockToken) {
	img.m.life.EndBlock(tok, img.Now())
}

// Run builds a machine, runs main on every image, and returns the report.
func Run(cfg Config, main func(img *Image)) (Report, error) {
	m := NewMachine(cfg)
	m.Launch(main)
	rep, err := m.RunToCompletion()
	if err != nil {
		m.Shutdown()
	}
	return rep, err
}

// ---------------------------------------------------------------------
// Image
// ---------------------------------------------------------------------

// Image is one process image's view of the machine, bound to one
// simulated process: the SPMD main gets one, and every shipped function
// executing remotely gets its own (sharing the per-image state).
type Image struct {
	m    *Machine
	st   *imageState
	proc *sim.Proc

	// tid is the trace strand id: 0 for the SPMD main, a fresh per-image
	// id for each spawned handler proc (satisfying Perfetto's
	// one-track-per-strand rendering).
	tid int

	// ct tracks the implicitly-synchronized operations initiated by THIS
	// execution context. A cofence inside a shipped function captures
	// only operations launched by that function (dynamic scoping,
	// paper Fig. 10), so every proc carries its own tracker, made on
	// first use (see tracker): most shipped functions initiate nothing.
	ct *core.CofenceTracker

	// finishStack holds the dynamically enclosing finish blocks opened
	// by this proc; shipped functions instead inherit the spawning
	// operation's finish through inheritedFinish (dynamic scoping,
	// §III-B3).
	finishStack     []*core.State
	inheritedFinish int64 // 0 = none
	inheritedTrack  any   // inheritedFinish's tracking context, boxed once

	// payload carries the copied argument bytes of the spawn that
	// started this proc.
	payload *payloadCarrier

	// rc is this execution context's vector clock when the
	// happens-before race detector is enabled (nil otherwise), and
	// raceOps the implicitly-completed operations it initiated whose
	// local-data-completion clocks a cofence may acquire.
	rc      *race.Ctx
	raceOps []raceOp

	// pctx is the active request-scoped tracing context (zero outside a
	// traced request). It propagates along every causal edge: spawned
	// handlers inherit the spawning op's context, and continuation
	// firings restore the op's context around the callback.
	pctx path.Ctx
}

// Rank returns the image's world rank (0-based).
func (img *Image) Rank() int { return img.st.kern.Rank() }

// NumImages returns the machine size.
func (img *Image) NumImages() int { return img.m.cfg.Images }

// World returns team_world.
func (img *Image) World() *Team { return img.m.world }

// Now returns the current virtual time.
func (img *Image) Now() Time { return img.proc.Now() }

// Compute advances this image's virtual clock by d, modeling local work.
// Under an active request context the computed interval is claimed as
// handler-service time in the request's critical-path decomposition.
func (img *Image) Compute(d Time) {
	img.proc.Sleep(d)
	img.m.path.Claim(img.pctx, path.HandlerService, img.Now())
}

// PathCtx re-exports the request-scoped tracing context (internal/path).
// The zero value is inactive.
type PathCtx = path.Ctx

// PathScope installs c as this execution context's request-scoped
// tracing context and returns the previous one; restore it when the
// request-scoped work is done:
//
//	prev := img.PathScope(ctx)
//	defer img.PathScope(prev)
//
// Operations initiated while a context is active become spans on the
// request's causal DAG and their fabric legs claim critical-path
// buckets. A no-op machine-wide unless Config.PathTracing is set.
func (img *Image) PathScope(c PathCtx) PathCtx {
	prev := img.pctx
	img.pctx = c
	return prev
}

// Random returns the image's deterministic private random stream.
func (img *Image) Random() *rand.Rand { return img.st.kern.Rng() }

// Machine returns the machine the image belongs to.
func (img *Image) Machine() *Machine { return img.m }

// track returns the finish tracking context for implicitly-synchronized
// operations initiated by this proc, or nil outside any finish.
func (img *Image) track() any {
	if n := len(img.finishStack); n > 0 {
		return img.finishStack[n-1].Track()
	}
	if img.inheritedFinish != 0 {
		if img.inheritedTrack == nil {
			img.inheritedTrack = core.Ref{ID: img.inheritedFinish}
		}
		return img.inheritedTrack
	}
	return nil
}

// trackID returns the innermost finish id for propagation to spawns.
func (img *Image) trackID() int64 {
	if n := len(img.finishStack); n > 0 {
		return img.finishStack[n-1].Ref().ID
	}
	return img.inheritedFinish
}

func (img *Image) String() string {
	return fmt.Sprintf("image %d/%d", img.Rank(), img.NumImages())
}
