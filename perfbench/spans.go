package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanRecorder keeps the traced invocation's spans in memory: one span
// per call the benchmark makes into a layer (set-up, each workload run,
// each output check, each isolated layer probe and its repetitions).
// A nil recorder records nothing, which is how the untraced invocation
// runs the same code.
type spanRecorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes; the top is the parent
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *spanRecorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("spanRecorder: spans must close innermost first")
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
}

// selfTime sums, per span name, the duration not covered by child
// spans: the time the benchmark spent in that call itself.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (r *spanRecorder) selfTimes() []selfTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	var names []string
	for i, s := range r.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.Total += float64(s.End-s.Start) / 1e9
		st.Self += float64(s.End-s.Start-child[i]) / 1e9
	}
	sort.Strings(names)
	out := make([]selfTime, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// write stores the spans and their per-name self times as JSON.
func (r *spanRecorder) write(path string) error {
	b, err := json.MarshalIndent(struct {
		Spans    []span     `json:"spans"`
		SelfTime []selfTime `json:"self_time"`
	}{r.spans, r.selfTimes()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
