package caf

import (
	"fmt"
	"reflect"

	"caf2go/internal/team"
)

// Team re-exports the CAF 2.0 team type (§II-A): a first-class process
// subset that scopes coarray allocation, rank naming, and collectives.
type Team = team.Team

// HypercubeNeighbors returns the lifeline neighbours of rank in a team of
// the given size (§IV-C2c).
func HypercubeNeighbors(rank, size int) []int {
	return team.HypercubeNeighbors(rank, size)
}

// carrKey matches collective coarray allocations across images.
type carrKey struct {
	teamID int64
	seq    uint64
}

type carrSlot struct {
	obj any
}

// Coarray is a shared distributed array: every member image of the
// allocating team owns a shard of n elements of T. Remote shards are
// reached through one-sided operations (CopyAsync, Get, Put) or by
// shipping functions to the owner — never by direct slice access from
// another image, mirroring PGAS locality discipline.
type Coarray[T any] struct {
	m         *Machine
	t         *Team
	n         int
	elemBytes int
	shards    map[int][]T // world rank -> shard
}

// NewCoarray collectively allocates a coarray of n elements per image
// over team t (nil means team_world). Every member must call it; calls
// are matched in program order per team. The call synchronizes the team
// (allocation is a collective in CAF 2.0).
func NewCoarray[T any](img *Image, t *Team, n int) *Coarray[T] {
	if t == nil {
		t = img.m.world
	}
	if !t.Contains(img.Rank()) {
		panic(fmt.Sprintf("caf: image %d allocating coarray on %v it is not in", img.Rank(), t))
	}
	st := img.st
	if st.carrSeq == nil {
		st.carrSeq = make(map[int64]uint64)
	}
	st.carrSeq[t.ID()]++
	key := carrKey{teamID: t.ID(), seq: st.carrSeq[t.ID()]}
	slot, ok := img.m.coarrays[key]
	if !ok {
		var zero T
		ca := &Coarray[T]{
			m:         img.m,
			t:         t,
			n:         n,
			elemBytes: int(reflect.TypeOf(zero).Size()),
			shards:    make(map[int][]T, t.Size()),
		}
		for _, w := range t.Members() {
			ca.shards[w] = make([]T, n)
		}
		slot = &carrSlot{obj: ca}
		img.m.coarrays[key] = slot
	}
	ca, ok := slot.obj.(*Coarray[T])
	if !ok || ca.n != n {
		panic("caf: mismatched collective coarray allocation (type or size differs across images)")
	}
	// Allocation is collective: synchronize before anyone touches it.
	// The barrier is also a race-detector fence over the team.
	b := img.collBracket("coll:barrier", t, true, true)
	img.m.comm.Barrier(img.proc, st.kern, t)
	b.end()
	return ca
}

// Team returns the team the coarray is allocated over.
func (ca *Coarray[T]) Team() *Team { return ca.t }

// Len returns the per-image shard length.
func (ca *Coarray[T]) Len() int { return ca.n }

// ElemBytes returns the modeled size of one element.
func (ca *Coarray[T]) ElemBytes() int { return ca.elemBytes }

// Local returns the calling image's shard for direct access.
func (ca *Coarray[T]) Local(img *Image) []T {
	s, ok := ca.shards[img.Rank()]
	if !ok {
		panic(fmt.Sprintf("caf: image %d has no shard of this coarray", img.Rank()))
	}
	return s
}

// shard returns the shard at a world rank (runtime internal).
func (ca *Coarray[T]) shard(rank int) []T {
	s, ok := ca.shards[rank]
	if !ok {
		panic(fmt.Sprintf("caf: image %d has no shard of this coarray", rank))
	}
	return s
}

// Sec names a section of data addressable by the copy engine: a
// (possibly strided) coarray section on some image, or a process-local
// buffer. Strided sections are the Go spelling of Fortran's A(lo:hi:step).
type Sec[T any] struct {
	ca     *Coarray[T]
	rank   int
	lo, hi int
	step   int // 0 or 1 = contiguous
	buf    []T
}

// Sec returns the contiguous section [lo, hi) of the coarray on the
// image with the given world rank — the Go spelling of A(lo:hi)[rank].
func (ca *Coarray[T]) Sec(rank, lo, hi int) Sec[T] {
	return ca.SecStride(rank, lo, hi, 1)
}

// SecStride returns the strided section (lo, lo+step, … < hi) of the
// coarray on an image — A(lo:hi:step)[rank].
func (ca *Coarray[T]) SecStride(rank, lo, hi, step int) Sec[T] {
	if lo < 0 || hi > ca.n || lo > hi {
		panic(fmt.Sprintf("caf: section [%d,%d) out of coarray bounds %d", lo, hi, ca.n))
	}
	if step < 1 {
		panic(fmt.Sprintf("caf: section stride %d must be ≥ 1", step))
	}
	if _, ok := ca.shards[rank]; !ok {
		panic(fmt.Sprintf("caf: image %d is not in the coarray's team", rank))
	}
	return Sec[T]{ca: ca, rank: rank, lo: lo, hi: hi, step: step}
}

// At returns the whole shard on the given image as a section.
func (ca *Coarray[T]) At(rank int) Sec[T] { return ca.Sec(rank, 0, ca.n) }

// Local wraps a process-local buffer as a copy source or destination.
func Local[T any](buf []T) Sec[T] { return Sec[T]{rank: -1, buf: buf, hi: len(buf), step: 1} }

// Len returns the number of elements the section covers.
func (s Sec[T]) Len() int {
	if s.buf != nil {
		return len(s.buf)
	}
	step := s.step
	if step <= 1 {
		return s.hi - s.lo
	}
	return (s.hi - s.lo + step - 1) / step
}

// isLocalBuf reports whether the section wraps a process-local buffer.
// Local buffers live on the image that created them, which the copy
// engine resolves from the initiator.
func (s Sec[T]) isLocalBuf() bool { return s.ca == nil }

// contiguous reports whether the section is unit-stride.
func (s Sec[T]) contiguous() bool { return s.step <= 1 }

// read materializes the section's current contents (gathering strided
// elements). Runtime internal; valid only on the owning image.
func (s Sec[T]) read() []T {
	if s.buf != nil {
		return append([]T(nil), s.buf...)
	}
	shard := s.ca.shard(s.rank)
	if s.contiguous() {
		return append([]T(nil), shard[s.lo:s.hi]...)
	}
	out := make([]T, 0, s.Len())
	for i := s.lo; i < s.hi; i += s.step {
		out = append(out, shard[i])
	}
	return out
}

// write stores vals into the section (scattering for strided sections).
// Runtime internal; valid only on the owning image.
func (s Sec[T]) write(vals []T) {
	if s.buf != nil {
		copy(s.buf, vals)
		return
	}
	shard := s.ca.shard(s.rank)
	if s.contiguous() {
		copy(shard[s.lo:s.hi], vals)
		return
	}
	j := 0
	for i := s.lo; i < s.hi && j < len(vals); i += s.step {
		shard[i] = vals[j]
		j++
	}
}

// elemBytes returns the modeled element size of the section.
func (s Sec[T]) elemBytes() int {
	if s.ca != nil {
		return s.ca.elemBytes
	}
	var zero T
	return int(reflect.TypeOf(zero).Size())
}
