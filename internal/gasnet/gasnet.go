// Package gasnet models the slice of the GASNet communication API that
// the paper positions finish and cofence against (§V): non-blocking
// one-sided put/get with explicit handles, implicit-handle operations,
// and access regions that synchronize every implicit operation initiated
// within — by one thread, unnested, with no direction control. The CAF
// 2.0 runtime in this repository does not build on this package (it
// drives the fabric directly through rt); gasnet exists as the
// related-work comparator for tests and ablation benches.
package gasnet

import (
	"fmt"

	"caf2go/internal/fabric"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
)

// Tags used by the conduit.
const (
	tagPut uint16 = 400
	tagGet uint16 = 401
)

// Conduit is a GASNet-like endpoint set over an rt kernel.
type Conduit struct {
	k     *rt.Kernel
	nodes []*node
}

type node struct {
	implicit  []*Handle // outstanding implicit-handle ops
	region    []*Handle // ops inside the open access region
	inRegion  bool
	nextSegID int
}

// New builds a conduit and registers its handlers.
func New(k *rt.Kernel) *Conduit {
	c := &Conduit{k: k, nodes: make([]*node, k.NumImages())}
	for i := range c.nodes {
		c.nodes[i] = &node{}
	}
	k.RegisterHandler(tagPut, func(d *rt.Delivery) {
		m := d.Payload.(*putMsg)
		copy(m.seg.data[d.Img.Rank()][m.off:], m.data)
	})
	k.RegisterHandler(tagGet, func(d *rt.Delivery) {
		m := d.Payload.(*getMsg)
		out := append([]byte(nil), m.seg.data[d.Img.Rank()][m.off:m.off+m.n]...)
		d.Reply(out, m.n+16)
	})
	return c
}

// Segment is a registered remote-access memory segment (one block per
// image, like a GASNet attached segment).
type Segment struct {
	c    *Conduit
	id   int
	data [][]byte
}

// AttachSegment registers a segment of size bytes on every image.
func (c *Conduit) AttachSegment(size int) *Segment {
	seg := &Segment{c: c, data: make([][]byte, c.k.NumImages())}
	for i := range seg.data {
		seg.data[i] = make([]byte, size)
	}
	return seg
}

// Local returns the calling image's block.
func (s *Segment) Local(rank int) []byte { return s.data[rank] }

// Handle tracks one non-blocking operation (gasnet_handle_t).
type Handle struct {
	done    bool
	data    []byte // get result
	waiters []*sim.Proc
	onDone  []func()
}

// Done reports completion without blocking (gasnet_try_syncnb).
func (h *Handle) Done() bool { return h.done }

// Data returns a get's result; valid once Done.
func (h *Handle) Data() []byte { return h.data }

// whenDone runs fn at completion (immediately if already complete).
func (h *Handle) whenDone(fn func()) {
	if h.done {
		fn()
		return
	}
	h.onDone = append(h.onDone, fn)
}

func (h *Handle) complete(data []byte) {
	h.done = true
	h.data = data
	cbs := h.onDone
	h.onDone = nil
	for _, fn := range cbs {
		fn()
	}
	for _, w := range h.waiters {
		w.Unpark()
	}
	h.waiters = nil
}

// Wait blocks proc p until the handle completes (gasnet_wait_syncnb).
func (h *Handle) Wait(p *sim.Proc) {
	h.waiters = append(h.waiters, p)
	p.WaitUntil("gasnet syncnb", func() bool { return h.done })
}

type putMsg struct {
	seg  *Segment
	off  int
	data []byte
}

type getMsg struct {
	seg *Segment
	off int
	n   int
}

// PutNB starts an explicit-handle non-blocking put of data into
// (dstRank, off) of seg, initiated by fromRank. GASNet's semantics make
// the source buffer reusable on return (the conduit copies), i.e. local
// data completion happens at initiation — the very behaviour that, per
// §III-B, makes it hard to overlap work between initiation and local
// completion and motivated cofence's finer control.
func (c *Conduit) PutNB(fromRank int, seg *Segment, dstRank, off int, data []byte) *Handle {
	h := &Handle{}
	snapshot := append([]byte(nil), data...)
	c.k.Image(fromRank).Send(dstRank, tagPut, &putMsg{seg: seg, off: off, data: snapshot}, rt.SendOpts{
		Class: classFor(c.k, len(data)+16),
		Bytes: len(data) + 16,
		Done:  (*putDone)(h),
	})
	return h
}

// putDone is a put's Handle seen as its message's completion: the
// delivery ack completes the handle.
type putDone Handle

func (p *putDone) Injected()  {}
func (p *putDone) Delivered() { (*Handle)(p).complete(nil) }
func (p *putDone) Abandoned() {}

// GetNB starts an explicit-handle non-blocking get of n bytes from
// (srcRank, off); the result is in Handle.Data after sync.
func (c *Conduit) GetNB(fromRank int, seg *Segment, srcRank, off, n int) *Handle {
	h := &Handle{}
	img := c.k.Image(fromRank)
	img.Go("gasnet-get", func(p *sim.Proc) {
		reply := img.Call(p, srcRank, tagGet, &getMsg{seg: seg, off: off, n: n}, rt.SendOpts{
			Class: fabric.AMShort,
			Bytes: 24,
		})
		h.complete(reply.([]byte))
	})
	return h
}

// PutNBI / GetNBI are the implicit-handle forms: completion is observed
// only through SyncNBIAll or the enclosing access region.
func (c *Conduit) PutNBI(fromRank int, seg *Segment, dstRank, off int, data []byte) {
	c.trackImplicit(fromRank, c.PutNB(fromRank, seg, dstRank, off, data))
}

// GetNBI is the implicit-handle get: the result lands in out once the
// operation completes (observe via SyncNBIAll or an access region).
func (c *Conduit) GetNBI(fromRank int, seg *Segment, srcRank, off, n int, out []byte) {
	h := c.GetNB(fromRank, seg, srcRank, off, n)
	h.whenDone(func() { copy(out, h.data) })
	c.trackImplicit(fromRank, h)
}

func (c *Conduit) trackImplicit(fromRank int, h *Handle) {
	n := c.nodes[fromRank]
	if n.inRegion {
		n.region = append(n.region, h)
	} else {
		n.implicit = append(n.implicit, h)
	}
}

// SyncNBIAll blocks until every implicit-handle operation initiated by
// fromRank (outside access regions) is complete (gasnet_wait_syncnbi_all).
func (c *Conduit) SyncNBIAll(p *sim.Proc, fromRank int) {
	n := c.nodes[fromRank]
	for _, h := range n.implicit {
		h.Wait(p)
	}
	n.implicit = n.implicit[:0]
}

// BeginAccessRegion opens an access region on fromRank. Regions cannot
// be nested (§V: "Unlike finish blocks, GASNet access regions cannot be
// nested") — nesting panics.
func (c *Conduit) BeginAccessRegion(fromRank int) {
	n := c.nodes[fromRank]
	if n.inRegion {
		panic("gasnet: access regions cannot be nested")
	}
	n.inRegion = true
	n.region = n.region[:0]
}

// EndAccessRegion closes the region and returns a handle covering every
// implicit operation initiated within.
func (c *Conduit) EndAccessRegion(fromRank int) *RegionHandle {
	n := c.nodes[fromRank]
	if !n.inRegion {
		panic("gasnet: EndAccessRegion without Begin")
	}
	n.inRegion = false
	rh := &RegionHandle{ops: append([]*Handle(nil), n.region...)}
	n.region = n.region[:0]
	return rh
}

// RegionHandle synchronizes an access region's operations.
type RegionHandle struct {
	ops []*Handle
}

// Wait blocks until all operations in the region completed. Note the
// contrast with finish: this covers only operations initiated by this
// image — nothing transitive, nothing collective.
func (rh *RegionHandle) Wait(p *sim.Proc) {
	for _, h := range rh.ops {
		h.Wait(p)
	}
}

// Done reports whether all operations completed.
func (rh *RegionHandle) Done() bool {
	for _, h := range rh.ops {
		if !h.done {
			return false
		}
	}
	return true
}

func classFor(k *rt.Kernel, bytes int) fabric.Class {
	if bytes > k.Fabric().MaxMedium() {
		return fabric.RDMA
	}
	return fabric.AMMedium
}

func (c *Conduit) String() string {
	return fmt.Sprintf("gasnet conduit over %d images", c.k.NumImages())
}
