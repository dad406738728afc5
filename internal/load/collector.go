package load

import (
	"fmt"
	"sort"
	"strings"

	caf "caf2go"
	"caf2go/internal/failure"
	"caf2go/internal/path"
)

// pendReq is one issued-but-unfinished request.
type pendReq struct {
	r      Request
	client int // issuing image rank
	target int // image rank whose death strands the request
}

// Collector is the shared SLO accumulator for one run: one instance is
// captured by every client image's closure. All methods are called from
// proc bodies or completion continuations, which the engine serializes
// on the admission strand (the same shared-closure discipline the
// worksteal example relies on), so no locking is needed and every
// update lands in deterministic engine order.
type Collector struct {
	op   string
	hist *Histogram

	pend      map[int]pendReq // by Seq
	perClient map[int]int     // outstanding count by issuing image rank

	requests  int64
	issued    int64
	completed int64
	failed    int64
	failovers int64
	replayed  int64
	lostTo    map[int]int64 // failed requests by blamed dead rank

	first    caf.Time // scheduled span of the arrival process
	last     caf.Time
	lastDone caf.Time // completion time of the final settled request
}

// NewCollector builds a collector for the given schedule.
func NewCollector(op string, sched []Request) *Collector {
	c := &Collector{
		op:        op,
		hist:      NewHistogram(),
		pend:      make(map[int]pendReq),
		perClient: make(map[int]int),
		lostTo:    make(map[int]int64),
		requests:  int64(len(sched)),
	}
	c.first, c.last = Span(sched)
	return c
}

// Issued records that client (an image rank) issued r toward target.
// The target is remembered so ReconcileDead can fail the request with a
// typed error if target is later declared dead while the request is
// still outstanding.
func (c *Collector) Issued(m *caf.Machine, r Request, client, target int) {
	c.pend[r.Seq] = pendReq{r: r, client: client, target: target}
	c.perClient[client]++
	c.issued++
	// First issue opens the request's critical path (claiming client-side
	// queueing since the scheduled arrival); a re-issue after a failover
	// claims the replay gap instead.
	m.PathTracker().Begin(r.Seq, client, r.At, m.Engine().Now())
	m.Metrics().Counter("load_requests_total", "requests issued by the load generator").Add(client, 1)
}

// Done settles seq as completed at virtual time now; latency is
// measured from the request's *scheduled* arrival, so client-side
// queueing under overload counts against the SLO (no coordinated
// omission). Returns false if seq was already settled — the first
// outcome wins, which keeps the race between a late reply and a
// death-reconciliation pass deterministic and single-count.
func (c *Collector) Done(m *caf.Machine, now caf.Time, seq int) bool {
	p, ok := c.pend[seq]
	if !ok {
		return false
	}
	delete(c.pend, seq)
	c.perClient[p.client]--
	lat := int64(now - p.r.At)
	if lat < 0 {
		lat = 0
	}
	c.hist.Observe(lat)
	c.completed++
	// Close the critical path at the same instant the histogram observes,
	// so the bucket decomposition sums to exactly this latency.
	m.PathTracker().Finish(seq, now)
	if now > c.lastDone {
		c.lastDone = now
	}
	met := m.Metrics()
	met.Counter("load_requests_completed_total", "requests completed by the service").Add(p.client, 1)
	met.Histogram("load_request_latency_ns", "request latency from scheduled arrival to completion (ns)").Observe(p.client, lat)
	return true
}

// Fail settles seq as failed with a typed error. Failed requests do not
// enter the latency histogram; they are accounted per blamed rank.
func (c *Collector) Fail(m *caf.Machine, now caf.Time, seq int, err *caf.ImageFailedError) bool {
	p, ok := c.pend[seq]
	if !ok {
		return false
	}
	delete(c.pend, seq)
	c.perClient[p.client]--
	c.failed++
	m.PathTracker().Abort(seq)
	if err != nil {
		c.lostTo[err.Rank]++
	}
	if now > c.lastDone {
		c.lastDone = now
	}
	m.Metrics().Counter("load_requests_failed_total", "requests failed with a typed ImageFailedError").Add(p.client, 1)
	return true
}

// FailDead settles seq as lost to the declared-dead rank, building the
// typed error from the detector's declaration time.
func (c *Collector) FailDead(m *caf.Machine, now caf.Time, seq, rank int) bool {
	at, _ := m.ImageDeadAt(rank)
	return c.Fail(m, now, seq, &caf.ImageFailedError{Rank: rank, At: at, Op: c.op})
}

// Failover records that a request was redirected away from a dead
// primary to a surviving replica.
func (c *Collector) Failover(m *caf.Machine, client int) {
	c.failovers++
	m.Metrics().Counter("load_failovers_total", "requests redirected from a dead primary to a live replica").Add(client, 1)
}

// Outstanding returns the issuing image's in-flight request count.
func (c *Collector) Outstanding(client int) int { return c.perClient[client] }

// ReconcileDead fails every outstanding request of client whose target
// image has been declared dead. Once a rank is declared, nothing sent
// to it can complete (the fabric abandons traffic to dead NICs and the
// runtime drops its late replies), so this is safe — and it is the only
// way to settle a request whose reply was lost in the crash window
// between handler execution and reply delivery. Seqs are processed in
// sorted order for determinism. Returns the number of requests failed.
func (c *Collector) ReconcileDead(m *caf.Machine, now caf.Time, client int) int {
	if c.perClient[client] == 0 || !m.AnyImageDead() {
		return 0
	}
	var seqs []int
	for seq, p := range c.pend {
		if p.client == client && m.ImageDead(p.target) {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		c.FailDead(m, now, seq, c.pend[seq].target)
	}
	return len(seqs)
}

// Abandon settles everything client still owes once the client image
// itself has been declared dead: its outstanding requests and the
// unissued rest of its schedule fail, blamed on the client's own rank.
// Nothing the dead image issued can be observed any more, and nothing
// it has yet to issue ever will be.
func (c *Collector) Abandon(m *caf.Machine, now caf.Time, client int, unissued []Request) {
	at, _ := m.ImageDeadAt(client)
	err := &caf.ImageFailedError{Rank: client, At: at, Op: c.op}
	var seqs []int
	for seq, p := range c.pend {
		if p.client == client {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		c.Fail(m, now, seq, err)
	}
	if n := int64(len(unissued)); n > 0 {
		c.failed += n
		c.lostTo[client] += n
		if now > c.lastDone {
			c.lastDone = now
		}
		m.Metrics().Counter("load_requests_failed_total", "requests failed with a typed ImageFailedError").Add(client, n)
	}
}

// ReplayDead withdraws (and returns, in seq order) every outstanding
// request of client whose target's death has been *committed* by the
// replication epoch agreement. Unlike ReconcileDead this is not a loss:
// the caller re-issues each returned request against the promoted
// backup, where the replicated coarray's applied ledger makes the
// replay exactly-once even if the original request executed before the
// crash. Requests to a merely *declared* dead rank stay pending —
// routing hasn't moved yet, so a replay would have nowhere safe to go.
func (c *Collector) ReplayDead(m *caf.Machine, client int) []Request {
	if c.perClient[client] == 0 || !m.AnyImageDead() {
		return nil
	}
	var seqs []int
	for seq, p := range c.pend {
		if p.client == client && m.DeathCommitted(p.target) {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 {
		return nil
	}
	sort.Ints(seqs)
	out := make([]Request, 0, len(seqs))
	pt, now := m.PathTracker(), m.Engine().Now()
	for _, seq := range seqs {
		out = append(out, c.pend[seq].r)
		delete(c.pend, seq)
		c.perClient[client]--
		c.replayed++
		// Time since the request's last progress was spent waiting for
		// the epoch agreement to commit the target's death.
		pt.Claim(path.ReqCtx(seq), path.EpochStall, now)
	}
	m.Metrics().Counter("load_requests_replayed_total", "in-flight requests re-issued against a promoted backup after an epoch commit").Add(client, int64(len(seqs)))
	return out
}

// Settled reports whether every scheduled request has a final outcome.
func (c *Collector) Settled() bool { return c.completed+c.failed == c.requests }

// SLO is the end-of-run service-level report. All fields derive from
// virtual-time integers, so the report — including its float rates — is
// bit-identical for a given seed at any shard count and GOMAXPROCS.
type SLO struct {
	Requests  int64
	Completed int64
	Failed    int64
	Failovers int64
	// Replayed counts requests re-issued against a promoted backup
	// after an epoch commit (0 with replication off).
	Replayed int64 `json:",omitempty"`
	// LostTo counts failed requests by the dead rank blamed.
	LostTo map[int]int64 `json:",omitempty"`
	// Latency quantiles over *completed* requests, measured from
	// scheduled arrival (ns of virtual time).
	P50    caf.Time
	P99    caf.Time
	P999   caf.Time
	MaxLat caf.Time
	MeanNS int64
	// Duration spans first scheduled arrival to last settled outcome.
	Duration caf.Time
	// OfferedRPS is the measured arrival rate over the schedule span;
	// GoodputRPS is completed requests over Duration.
	OfferedRPS float64
	GoodputRPS float64
}

// SLO reduces the collector to its report.
func (c *Collector) SLO() SLO {
	s := SLO{
		Requests:  c.requests,
		Completed: c.completed,
		Failed:    c.failed,
		Failovers: c.failovers,
		Replayed:  c.replayed,
		P50:       caf.Time(c.hist.Quantile(0.50)),
		P99:       caf.Time(c.hist.Quantile(0.99)),
		P999:      caf.Time(c.hist.Quantile(0.999)),
		MaxLat:    caf.Time(c.hist.Max()),
		MeanNS:    c.hist.Mean(),
	}
	if len(c.lostTo) > 0 {
		s.LostTo = make(map[int]int64, len(c.lostTo))
		for r, n := range c.lostTo {
			s.LostTo[r] = n
		}
	}
	if c.lastDone > c.first {
		s.Duration = c.lastDone - c.first
		s.GoodputRPS = float64(s.Completed) / s.Duration.Seconds()
	}
	if span := c.last - c.first; span > 0 && c.requests > 1 {
		s.OfferedRPS = float64(c.requests-1) / span.Seconds()
	}
	return s
}

// ExportMetrics publishes the SLO digest into the machine's metrics
// registry, so profile exports and benchjson metrics snapshots carry
// the service-level numbers alongside the runtime's own counters. The
// gauges are machine-global, keyed to image 0; rates are scaled to
// integer milli-units so the export stays bit-identical (the registry
// stores int64). A disabled registry ignores the writes.
func (s SLO) ExportMetrics(m *caf.Machine) {
	met := m.Metrics()
	met.Gauge("slo_requests", "requests scheduled by the load generator").Set(0, s.Requests)
	met.Gauge("slo_completed", "requests completed within the run").Set(0, s.Completed)
	met.Gauge("slo_failed", "requests settled with a typed failure").Set(0, s.Failed)
	met.Gauge("slo_failovers", "requests redirected to a surviving replica").Set(0, s.Failovers)
	met.Gauge("slo_replayed", "requests re-issued after an epoch commit").Set(0, s.Replayed)
	met.Gauge("slo_p50_ns", "median request latency from scheduled arrival (ns)").Set(0, int64(s.P50))
	met.Gauge("slo_p99_ns", "p99 request latency from scheduled arrival (ns)").Set(0, int64(s.P99))
	met.Gauge("slo_p999_ns", "p999 request latency from scheduled arrival (ns)").Set(0, int64(s.P999))
	met.Gauge("slo_max_ns", "max request latency from scheduled arrival (ns)").Set(0, int64(s.MaxLat))
	met.Gauge("slo_mean_ns", "mean request latency from scheduled arrival (ns)").Set(0, s.MeanNS)
	met.Gauge("slo_goodput_millirps", "completed requests per virtual second, milli-units").Set(0, int64(s.GoodputRPS*1000))
	met.Gauge("slo_offered_millirps", "offered arrival rate, milli-units").Set(0, int64(s.OfferedRPS*1000))
	var lost int64
	for _, n := range s.LostTo {
		lost += n
	}
	met.Gauge("slo_lost", "failed requests blamed on dead images").Set(0, lost)
}

// Digest renders the report as one canonical line — the bit-identity
// token pinned by golden and chaos tests.
func (s SLO) Digest() string {
	lost := ""
	if len(s.LostTo) > 0 {
		ranks := make([]int, 0, len(s.LostTo))
		for r := range s.LostTo {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		parts := make([]string, len(ranks))
		for i, r := range ranks {
			parts[i] = fmt.Sprintf("r%d:%d", r, s.LostTo[r])
		}
		lost = strings.Join(parts, ",")
	}
	line := fmt.Sprintf(
		"req=%d done=%d fail=%d over=%d p50=%d p99=%d p999=%d max=%d mean=%d dur=%d off=%.6g good=%.6g lost=[%s]",
		s.Requests, s.Completed, s.Failed, s.Failovers,
		int64(s.P50), int64(s.P99), int64(s.P999), int64(s.MaxLat), s.MeanNS,
		int64(s.Duration), s.OfferedRPS, s.GoodputRPS, lost)
	// Appended only when replays happened, so replication-off digests —
	// pinned byte-for-byte by pre-replication goldens — are unchanged.
	if s.Replayed > 0 {
		line += fmt.Sprintf(" replay=%d", s.Replayed)
	}
	return line
}

// Protect runs fn, converting a failure.Abort unwind from any blocking
// primitive (lock, RPC get/put, event wait) into a returned typed error
// instead of letting it take down the whole simulated process. This is
// what lets a per-request worker proc fail *one request* with an
// ImageFailedError while the client image keeps serving the rest —
// fail-stop at request granularity rather than image granularity.
func Protect(fn func()) (ferr *caf.ImageFailedError) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ab, ok := r.(failure.Abort); ok {
			ferr = ab.Err
			return
		}
		panic(r)
	}()
	fn()
	return nil
}
