package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzipped protobuf; the
// module has no dependencies, so the few message fields the attribution
// needs are decoded here by hand.

// profStack is one profile sample: its function names from the leaf
// outward (inlined frames expanded, innermost first) and its weight in
// samples.
type profStack struct {
	frames []string
	weight int64
}

// Layers of the simulator, named after the repository's modules. A
// sample is charged to the innermost caf2go frame on its stack, so
// allocator, GC-assist and channel work count against the layer that
// caused them. Samples with no caf2go frame (GC workers, the scheduler,
// the benchmark's own loop) are charged to "go".
var layerNames = []string{"sim", "fabric", "rt", "core", "collect", "caf", "load", "observers", "app", "other", "go"}

var packageLayer = map[string]string{
	"caf2go":                    "caf",
	"caf2go/internal/sim":       "sim",
	"caf2go/internal/fabric":    "fabric",
	"caf2go/internal/rt":        "rt",
	"caf2go/internal/core":      "core",
	"caf2go/internal/collect":   "collect",
	"caf2go/internal/load":      "load",
	"caf2go/internal/trace":     "observers",
	"caf2go/internal/metrics":   "observers",
	"caf2go/internal/path":      "observers",
	"caf2go/internal/prof":      "observers",
	"caf2go/examples/workloads": "app",
	"caf2go/internal/ra":        "app",
}

// Go runtime classes, a cut across the layers by the runtime frames at
// the leaf end of a stack. A class matches when any frame of that leaf
// run starts with one of its prefixes; GC is tested first so an
// allocation that assists the GC counts as GC, then the allocator, then
// channel and scheduler hand-off.
var goClassPrefixes = []struct {
	class    string
	prefixes []string
}{
	{"gc", []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.scanblock",
		"runtime.scanframeworker", "runtime.greyobject", "runtime.wbBufFlush",
		"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
	}},
	{"alloc", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.makechan", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime.nextFreeFast", "runtime.convT",
		"runtime.concatstring", "runtime.rawstring", "runtime.rawbyteslice", "runtime.slicebytetostring",
	}},
	{"sched", []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo",
		"runtime.send", "runtime.recv", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.goexit", "runtime.newproc", "runtime.execute", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.futex", "runtime.notesleep",
		"runtime.notewakeup", "runtime.lock2", "runtime.unlock2", "runtime.runq",
		"runtime.stealWork", "runtime.casgstatus", "runtime.gogo", "runtime.mstart",
		"runtime.usleep", "runtime.osyield", "runtime.procyield", "runtime.acquireSudog",
		"runtime.releaseSudog", "runtime.gfget", "runtime.gfput", "runtime.malg",
		"runtime.gdestroy", "runtime.handoffp", "runtime.injectglist", "runtime.resetspinning",
	}},
}

// funcPackage returns the import path of a profile function name such
// as "caf2go/internal/sim.(*Engine).RunUntil" or "caf2go.Get[...]".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf charges a stack to its innermost caf2go frame's layer.
func layerOf(frames []string) string {
	for _, f := range frames {
		pkg := funcPackage(f)
		if pkg != "caf2go" && !strings.HasPrefix(pkg, "caf2go/") {
			continue
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		return "other"
	}
	return "go"
}

// goClassOf classifies a stack's leaf run of runtime frames, or returns
// "" when the leaf is not runtime code of any class.
func goClassOf(frames []string) string {
	n := 0
	for n < len(frames) && strings.HasPrefix(frames[n], "runtime.") {
		n++
	}
	for _, c := range goClassPrefixes {
		for _, f := range frames[:n] {
			for _, p := range c.prefixes {
				if strings.HasPrefix(f, p) {
					return c.class
				}
			}
		}
	}
	return ""
}

// cpuAttribution accumulates sample weights by layer and by Go class.
type cpuAttribution struct {
	total   int64
	layer   map[string]int64
	goClass map[string]int64
}

func newCPUAttribution() *cpuAttribution {
	return &cpuAttribution{layer: map[string]int64{}, goClass: map[string]int64{}}
}

func (a *cpuAttribution) add(stacks []profStack) {
	for _, s := range stacks {
		a.total += s.weight
		a.layer[layerOf(s.frames)] += s.weight
		if c := goClassOf(s.frames); c != "" {
			a.goClass[c] += s.weight
		}
	}
}

// layerShare is layer l's share of all samples. The shares of
// layerNames sum to 1 whenever there is at least one sample.
func (a *cpuAttribution) layerShare(l string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.layer[l]) / float64(a.total)
}

func (a *cpuAttribution) goShare(c string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.goClass[c]) / float64(a.total)
}

// decodeCPUProfile parses a gzipped pprof profile into stacks weighted
// by the first sample value (the sample count of a CPU profile).
func decodeCPUProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples   []sample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			if err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		ps := profStack{weight: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, errors.New("profile: function name index out of range")
				}
				ps.frames = append(ps.frames, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields calls fn for each field of one protobuf message: v is the
// value of a varint field, b the payload of a length-delimited one.
// Fixed-width fields are skipped; no field the decoder reads uses them.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, whether it
// arrived as one unpacked varint (b == nil) or as a packed run.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
