package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzip-compressed
// protocol buffers, profile.proto), and the attribution of their samples to
// the repo's layers. Only the fields attribution needs are decoded.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// layers are the attribution buckets, in the order reports print them: the
// repo's internal packages along the stack, then the Go runtime's two
// pseudo-layers. "other" takes the remaining internal packages (workloads,
// params, obs, ...) and the benchmark's own frames.
var layers = []string{
	"sim", "hw", "xpu", "mem", "localos", "lang", "sandbox",
	"molecule", "cluster", "loadgen", "go.gc", "go.sched", "other",
}

// cpuProfile is the decoded part of a profile: per sample, its stack as
// function names leaf first, and its CPU time in nanoseconds.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireBytes  = 2
)

type pbField struct {
	num   int
	wire  int
	value uint64 // varint payload
	data  []byte // length-delimited payload
}

// pbFields splits one message into its fields. Fixed-width wire types do
// not occur in profile.proto and are rejected.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.value, n = uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case wireBytes:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// ints reads a repeated integer field, packed or not.
func (f pbField) ints() ([]uint64, error) {
	if f.wire == wireVarint {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a gzip-compressed CPU profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, values []uint64 }
	var (
		samples  []sample
		strtab   []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	for _, f := range top {
		switch f.num {
		case 2: // sample: location_id=1, value=2
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, g := range sub {
				vs, err := g.ints()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					s.values = append(s.values, vs...)
				}
			}
			samples = append(samples, s)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch {
				case g.num == 1 && g.wire == wireVarint:
					id = g.value
				case g.num == 4 && g.wire == wireBytes:
					line, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 && l.wire == wireVarint {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function: id=1, name=2
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				if g.wire != wireVarint {
					continue
				}
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(f.data))
		}
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; the last value is
	// the CPU time.
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx >= uint64(len(strtab)) {
					return nil, fmt.Errorf("profile: string index %d out of range", idx)
				}
				stack = append(stack, strtab[idx])
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, int64(s.values[len(s.values)-1]))
	}
	return p, nil
}

// layerOf charges a stack (leaf first) to its leaf-most repo frame, so GC
// assist and runtime work a layer triggers count against that layer. A
// stack with no repo frame is the runtime's own: background GC, or the
// scheduler and everything else.
func layerOf(stack []string) string {
	const internal = "repro/internal/"
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internal); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "/."); i >= 0 {
				pkg = pkg[:i]
			}
			if slices.Contains(layers, pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "go.gc"
		}
	}
	return "go.sched"
}

// attribute sums CPU nanoseconds per layer.
func (p *cpuProfile) attribute() map[string]int64 {
	out := make(map[string]int64, len(layers))
	for i, st := range p.stacks {
		out[layerOf(st)] += p.nanos[i]
	}
	return out
}
