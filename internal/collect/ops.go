package collect

import (
	"fmt"
	"sort"

	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

const msgHeaderBytes = 16

// sendTree dispatches one tree message. Every tree message is watched
// to delivery (pair-wise completion); needInject also watches injection
// (source-buffer reuse). The instance is the message's completion.
func (n *node) sendTree(in *inst, dstTeamRank int, m *colMsg, needInject bool) {
	m.key = in.key
	m.t = in.t
	m.op = in.op
	m.elem = in.elemBytes
	dst := in.t.WorldRank(dstTeamRank)
	in.acksPending++
	if needInject {
		in.injPending++
	}
	n.img.Send(dst, Tag, m, rt.SendOpts{
		Track:          in.track,
		Done:           in,
		NotifyInjected: needInject,
		Class:          classFor(n.img.Kernel(), m.bytes),
		Bytes:          m.bytes,
		// Collective tree messages sit on the critical path of barriers
		// and finish termination rounds: never coalesce them.
		NoCoalesce: true,
	})
}

// Injected releases one pinned send buffer of the instance.
func (in *inst) Injected() {
	in.injPending--
	in.n.checkLocalData(in)
}

// Delivered counts one tree message's delivery ack.
func (in *inst) Delivered() {
	in.acksPending--
	in.n.maybeFinish(in)
}

// Abandoned ignores a tree message the fabric gave up on: the collective
// is then failed as a whole, through the failure detector.
func (in *inst) Abandoned() {}

// start begins this image's participation in a collective instance.
func (c *Comm) start(img *rt.ImageKernel, t *team.Team, kd kind, root int,
	op Op, vec []int64, data any, elemBytes int, track any) *Handle {

	if root < 0 || root >= t.Size() {
		panic(fmt.Sprintf("collect: root %d out of range for %v", root, t))
	}
	// A collective is a synchronization point: drain this image's
	// coalescing buffers before joining.
	img.FlushCoalesced()
	n := c.nodes[img.Rank()]
	key := instKey{teamID: t.ID(), kd: kd, root: root,
		seq: n.nextSeq(t.ID(), kd, root)}
	in := n.get(key, t, track)
	if in.started {
		panic("collect: duplicate start for instance " + kd.String())
	}
	if track != nil {
		in.track = track
	}
	in.started = true
	in.op = op
	in.elemBytes = elemBytes
	in.handle = Handle{img: img, kd: kd, inst: in}
	h := &in.handle
	in.h = h

	myTeamRank := t.MustRank(img.Rank())
	switch kd {
	case kBarrier:
		n.tryAdvanceUp(in)
	case kBcast:
		if in.relRank == 0 {
			in.dataIn = data
			in.haveData = true
			h.result = data
			n.forwardDown(in)
		} else if in.haveData {
			h.result = in.dataIn
		}
	case kReduce, kAllreduce:
		in.contrib(op, vec)
		n.tryAdvanceUp(in)
	case kGather:
		in.setRank(myTeamRank, data)
		n.tryAdvanceUp(in)
	case kScatter:
		if in.relRank == 0 {
			vals := data.([]any)
			if len(vals) != t.Size() {
				panic(fmt.Sprintf("collect: scatter got %d values for team of %d", len(vals), t.Size()))
			}
			bundle := make(map[int]any, len(vals))
			for tr, v := range vals {
				bundle[tr] = v
			}
			h.result = vals[myTeamRank]
			n.forwardBundles(in, bundle)
		} else if in.haveData {
			h.result = in.byRank[myTeamRank]
		}
	case kAlltoall:
		vals := data.([]any)
		if len(vals) != t.Size() {
			panic(fmt.Sprintf("collect: alltoall got %d values for team of %d", len(vals), t.Size()))
		}
		in.setRank(myTeamRank, vals[myTeamRank])
		for tr := 0; tr < t.Size(); tr++ {
			if tr == myTeamRank {
				continue
			}
			n.sendTree(in, tr, &colMsg{
				ph:      phaseDirect,
				fromRel: myTeamRank,
				data:    vals[tr],
				bytes:   elemBytes + msgHeaderBytes,
			}, true)
		}
		n.tryFinishDirect(in)
	case kScan, kSort:
		in.setRank(myTeamRank, append([]int64(nil), vec...))
		n.tryAdvanceUp(in)
	default:
		panic("collect: unknown kind")
	}

	n.checkLocalData(in)
	n.maybeFinish(in)
	return h
}

// contrib folds this image's vector into the partial reduction.
func (in *inst) contrib(op Op, vec []int64) {
	if !in.haveVec {
		in.vec = append([]int64(nil), vec...)
		in.haveVec = true
	} else {
		op.combine(in.vec, vec)
	}
}

// tryAdvanceUp fires when a node may pass its subtree contribution to its
// parent (or, at the tree root, complete the up phase).
func (n *node) tryAdvanceUp(in *inst) {
	if !in.started || in.upKids > 0 || in.upSent {
		return
	}
	in.upSent = true
	if in.relRank == 0 {
		n.rootUpComplete(in)
		return
	}
	parent := absOf(n.parentOf(in.relRank), in.key.root, in.t.Size())
	switch in.key.kd {
	case kBarrier:
		n.sendTree(in, parent, &colMsg{ph: phaseUp, bytes: msgHeaderBytes}, false)
	case kReduce, kAllreduce:
		needInject := in.key.kd == kReduce // reduce: local data = contribution on the wire
		n.sendTree(in, parent, &colMsg{
			ph:    phaseUp,
			vec:   in.vec,
			bytes: 8*len(in.vec) + msgHeaderBytes,
		}, needInject)
	case kGather, kScan, kSort:
		bytes := msgHeaderBytes
		for range in.byRank {
			bytes += in.elemBytes
		}
		n.sendTree(in, parent, &colMsg{
			ph:    phaseUp,
			data:  copyRankMap(in.byRank),
			bytes: bytes,
		}, in.key.kd == kGather)
	}
	n.checkLocalData(in)
}

// rootUpComplete runs on relative rank 0 when all contributions arrived.
func (n *node) rootUpComplete(in *inst) {
	t := in.t
	switch in.key.kd {
	case kBarrier:
		n.forwardDown(in)
	case kReduce:
		in.h.result = in.vec
	case kAllreduce:
		in.h.result = append([]int64(nil), in.vec...)
		in.dataIn = in.vec
		in.haveData = true
		n.forwardDown(in)
	case kGather:
		out := make([]any, t.Size())
		for tr, v := range in.byRank {
			out[tr] = v
		}
		in.h.result = out
	case kScan:
		// Inclusive prefix in team-rank order.
		bundle := make(map[int]any, t.Size())
		var acc []int64
		for tr := 0; tr < t.Size(); tr++ {
			v := in.byRank[tr].([]int64)
			if acc == nil {
				acc = append([]int64(nil), v...)
			} else {
				in.op.combine(acc, v)
			}
			bundle[tr] = append([]int64(nil), acc...)
		}
		my := t.MustRank(n.img.Rank())
		in.h.result = bundle[my].([]int64)
		n.forwardBundles(in, bundle)
	case kSort:
		// Concatenate, sort, and hand back blocks matching each image's
		// original contribution size, in team-rank order.
		counts := make([]int, t.Size())
		var all []int64
		for tr := 0; tr < t.Size(); tr++ {
			v := in.byRank[tr].([]int64)
			counts[tr] = len(v)
			all = append(all, v...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		bundle := make(map[int]any, t.Size())
		off := 0
		for tr := 0; tr < t.Size(); tr++ {
			bundle[tr] = append([]int64(nil), all[off:off+counts[tr]]...)
			off += counts[tr]
		}
		my := t.MustRank(n.img.Rank())
		in.h.result = bundle[my].([]int64)
		n.forwardBundles(in, bundle)
	}
	n.checkLocalData(in)
	n.maybeFinish(in)
}

// forwardDown pushes the down-phase payload (barrier pulse, broadcast
// data, or allreduce result) to this node's children.
func (n *node) forwardDown(in *inst) {
	for _, c := range in.children {
		dst := absOf(c, in.key.root, in.t.Size())
		m := &colMsg{ph: phaseDown, bytes: msgHeaderBytes}
		switch in.key.kd {
		case kBcast:
			m.data = in.dataIn
			m.bytes += in.elemBytes
		case kAllreduce:
			m.vec = in.dataIn.([]int64)
			m.bytes += 8 * len(m.vec)
		}
		needInject := in.key.kd == kBcast && in.relRank == 0
		n.sendTree(in, dst, m, needInject)
	}
	in.downDone = true
}

// forwardBundles routes per-team-rank payloads down the tree: each child
// receives the entries for its binomial subtree.
func (n *node) forwardBundles(in *inst, bundle map[int]any) {
	size := in.t.Size()
	for _, c := range in.children {
		span := n.spanOf(c, size)
		sub := make(map[int]any)
		bytes := msgHeaderBytes
		for rel := c; rel < c+span && rel < size; rel++ {
			tr := absOf(rel, in.key.root, size)
			if v, ok := bundle[tr]; ok {
				sub[tr] = v
				bytes += in.elemBytes
			}
		}
		dst := absOf(c, in.key.root, size)
		needInject := in.relRank == 0 && in.key.kd == kScatter
		n.sendTree(in, dst, &colMsg{ph: phaseDown, data: sub, bytes: bytes}, needInject)
	}
	in.downDone = true
}

// subtreeSpanOf returns the width of rel's contiguous binomial subtree.
func subtreeSpanOf(rel, size int) int {
	if rel == 0 {
		return size
	}
	return rel & -rel
}

// advanceDown processes a down-phase arrival.
func (n *node) advanceDown(in *inst) {
	switch in.key.kd {
	case kBarrier:
		n.forwardDown(in)
	case kBcast:
		if in.started {
			in.h.result = in.dataIn
		}
		n.forwardDown(in)
	case kAllreduce:
		vec := in.dataIn.([]int64)
		if in.started {
			in.h.result = append([]int64(nil), vec...)
		}
		n.forwardDown(in)
	case kScatter, kScan, kSort:
		bundle := in.dataIn.(map[int]any)
		my := in.t.MustRank(n.img.Rank())
		in.setRank(my, bundle[my])
		if in.started {
			in.h.result = bundle[my]
		}
		n.forwardBundles(in, bundle)
	}
	n.checkLocalData(in)
	n.maybeFinish(in)
}

// tryFinishDirect checks alltoall completion (all receipts present).
func (n *node) tryFinishDirect(in *inst) {
	if !in.started || in.direct > 0 {
		return
	}
	n.checkLocalData(in)
	n.maybeFinish(in)
}

// checkLocalData fires the handle's local-data completion when the
// per-kind condition holds (paper Fig. 4 semantics).
func (n *node) checkLocalData(in *inst) {
	if !in.started || in.h == nil || in.h.localData {
		return
	}
	ready := false
	switch in.key.kd {
	case kBarrier:
		// Down pulse observed (root: up phase complete).
		ready = in.downDone
	case kBcast:
		if in.relRank == 0 {
			ready = in.downDone && in.injPending == 0
		} else {
			ready = in.haveData
		}
	case kReduce:
		if in.relRank == 0 {
			ready = in.upSent // reduction complete at root
		} else {
			ready = in.upSent && in.injPending == 0
		}
	case kAllreduce:
		ready = in.h.result != nil
	case kGather:
		if in.relRank == 0 {
			ready = in.h.result != nil
		} else {
			ready = in.upSent && in.injPending == 0
		}
	case kScatter:
		if in.relRank == 0 {
			ready = in.downDone && in.injPending == 0
		} else {
			ready = in.haveData
		}
	case kAlltoall:
		ready = in.direct == 0 && in.injPending == 0
		if ready && in.h.result == nil {
			out := make([]any, in.t.Size())
			for tr, v := range in.byRank {
				out[tr] = v
			}
			in.h.result = out
		}
	case kScan, kSort:
		ready = in.h.result != nil
	}
	if ready {
		in.h.fireLocalData()
	}
}

func copyRankMap(m map[int]any) map[int]any {
	out := make(map[int]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------
// Public API — asynchronous variants.
// ---------------------------------------------------------------------

// BarrierAsync begins a split-phase barrier over t.
func (c *Comm) BarrierAsync(img *rt.ImageKernel, t *team.Team, track any) *Handle {
	return c.start(img, t, kBarrier, 0, Sum, nil, nil, 0, track)
}

// BroadcastAsync begins an asynchronous broadcast of val (bytes wide)
// from team rank root.
func (c *Comm) BroadcastAsync(img *rt.ImageKernel, t *team.Team, root int, val any, bytes int, track any) *Handle {
	return c.start(img, t, kBcast, root, Sum, nil, val, bytes, track)
}

// ReduceAsync begins an asynchronous reduction of vec to team rank root.
func (c *Comm) ReduceAsync(img *rt.ImageKernel, t *team.Team, root int, op Op, vec []int64, track any) *Handle {
	return c.start(img, t, kReduce, root, op, vec, nil, 0, track)
}

// AllreduceAsync begins an asynchronous all-reduce of vec.
func (c *Comm) AllreduceAsync(img *rt.ImageKernel, t *team.Team, op Op, vec []int64, track any) *Handle {
	return c.start(img, t, kAllreduce, 0, op, vec, nil, 0, track)
}

// GatherAsync begins an asynchronous gather of val (bytes wide) to root.
func (c *Comm) GatherAsync(img *rt.ImageKernel, t *team.Team, root int, val any, bytes int, track any) *Handle {
	return c.start(img, t, kGather, root, Sum, nil, val, bytes, track)
}

// ScatterAsync begins an asynchronous scatter. On the root, vals holds one
// value per team rank (each bytes wide); elsewhere vals is ignored.
func (c *Comm) ScatterAsync(img *rt.ImageKernel, t *team.Team, root int, vals []any, bytes int, track any) *Handle {
	var data any
	if t.MustRank(img.Rank()) == root {
		data = vals
	}
	return c.start(img, t, kScatter, root, Sum, nil, data, bytes, track)
}

// AlltoallAsync begins an asynchronous all-to-all exchange; vals holds one
// value per team rank.
func (c *Comm) AlltoallAsync(img *rt.ImageKernel, t *team.Team, vals []any, bytes int, track any) *Handle {
	anyVals := make([]any, len(vals))
	copy(anyVals, vals)
	return c.start(img, t, kAlltoall, 0, Sum, nil, anyVals, bytes, track)
}

// ScanAsync begins an asynchronous inclusive prefix reduction in
// team-rank order.
func (c *Comm) ScanAsync(img *rt.ImageKernel, t *team.Team, op Op, vec []int64, track any) *Handle {
	return c.start(img, t, kScan, 0, op, vec, nil, 8*len(vec), track)
}

// SortAsync begins an asynchronous parallel sort: the concatenation of all
// images' keys is sorted and redistributed so team rank order yields a
// globally sorted sequence, with each image keeping its original count.
func (c *Comm) SortAsync(img *rt.ImageKernel, t *team.Team, keys []int64, track any) *Handle {
	return c.start(img, t, kSort, 0, Sum, keys, nil, 8*max(1, len(keys)), track)
}

// ---------------------------------------------------------------------
// Public API — synchronous variants (block proc p until local data
// completion, which for rooted ops means "this image's role produced its
// value"; see package doc).
// ---------------------------------------------------------------------

// Barrier blocks until every member of t has entered the barrier.
func (c *Comm) Barrier(p *sim.Proc, img *rt.ImageKernel, t *team.Team) {
	c.BarrierAsync(img, t, nil).WaitLocalData(p)
}

// Broadcast distributes val (bytes wide) from team rank root and returns
// the received value.
func (c *Comm) Broadcast(p *sim.Proc, img *rt.ImageKernel, t *team.Team, root int, val any, bytes int) any {
	h := c.BroadcastAsync(img, t, root, val, bytes, nil)
	h.WaitLocalData(p)
	return h.Result()
}

// Reduce folds vec across t; the result is returned at the root, nil
// elsewhere.
func (c *Comm) Reduce(p *sim.Proc, img *rt.ImageKernel, t *team.Team, root int, op Op, vec []int64) []int64 {
	h := c.ReduceAsync(img, t, root, op, vec, nil)
	h.WaitLocalData(p)
	if h.Result() == nil {
		return nil
	}
	return h.Result().([]int64)
}

// Allreduce folds vec across t and returns the result on every member.
func (c *Comm) Allreduce(p *sim.Proc, img *rt.ImageKernel, t *team.Team, op Op, vec []int64) []int64 {
	h := c.AllreduceAsync(img, t, op, vec, nil)
	h.WaitLocalData(p)
	return h.Result().([]int64)
}

// Gather collects each member's val at root, returning the team-rank
// ordered slice there and nil elsewhere.
func (c *Comm) Gather(p *sim.Proc, img *rt.ImageKernel, t *team.Team, root int, val any, bytes int) []any {
	h := c.GatherAsync(img, t, root, val, bytes, nil)
	h.WaitLocalData(p)
	if h.Result() == nil {
		return nil
	}
	return h.Result().([]any)
}

// Scatter distributes vals from root; every member returns its element.
func (c *Comm) Scatter(p *sim.Proc, img *rt.ImageKernel, t *team.Team, root int, vals []any, bytes int) any {
	h := c.ScatterAsync(img, t, root, vals, bytes, nil)
	h.WaitLocalData(p)
	return h.Result()
}

// Alltoall exchanges vals pairwise; entry i of the result came from team
// rank i.
func (c *Comm) Alltoall(p *sim.Proc, img *rt.ImageKernel, t *team.Team, vals []any, bytes int) []any {
	h := c.AlltoallAsync(img, t, vals, bytes, nil)
	h.WaitLocalData(p)
	return h.Result().([]any)
}

// Scan returns the inclusive prefix reduction of vec in team-rank order.
func (c *Comm) Scan(p *sim.Proc, img *rt.ImageKernel, t *team.Team, op Op, vec []int64) []int64 {
	h := c.ScanAsync(img, t, op, vec, nil)
	h.WaitLocalData(p)
	return h.Result().([]int64)
}

// Sort globally sorts the members' keys (see SortAsync).
func (c *Comm) Sort(p *sim.Proc, img *rt.ImageKernel, t *team.Team, keys []int64) []int64 {
	h := c.SortAsync(img, t, keys, nil)
	h.WaitLocalData(p)
	return h.Result().([]int64)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
