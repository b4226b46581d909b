package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The CPU ledger: the process's runtime/pprof CPU profile over the
// traced phase, with every sample charged to the layer whose package
// holds its leaf frame (self time). Go's profile is a gzipped protobuf;
// decodeProfile reads the few fields the ledger needs, so the benchmark
// needs nothing beyond the standard library.

// layerPkgs maps each ledger layer to its packages. Samples of the
// harness goroutines (the load generator and its HTTP client) go to
// "harness" whatever their leaf; samples in the Go allocator or garbage
// collector go to "gc" whoever caused them; what is left goes to
// "other": the Go scheduler, the rest of the standard library, and the
// instrumentation every layer shares (internal/metrics, internal/obs).
var layerPkgs = []struct {
	layer string
	pkgs  []string
}{
	{"http", []string{"net/http", "net", "net/textproto", "net/url", "encoding/json", "bufio", "internal/poll", "syscall", "mime"}},
	{"serve", []string{"pimsim/internal/serve", "pimsim/internal/slo"}},
	{"nn", []string{"pimsim/internal/nn", "pimsim/internal/models"}},
	{"tensor", []string{"pimsim/internal/tensor"}},
	{"blas", []string{"pimsim/internal/blas"}},
	{"runtime", []string{"pimsim/internal/runtime", "pimsim/internal/engine", "pimsim/internal/driver"}},
	{"memctrl", []string{"pimsim/internal/memctrl"}},
	{"hbm", []string{"pimsim/internal/hbm"}},
	{"pim", []string{"pimsim/internal/pim", "pimsim/internal/isa"}},
	{"fp16", []string{"pimsim/internal/fp16"}},
	{"ecc", []string{"pimsim/internal/ecc"}},
	{"sim", []string{"pimsim/internal/sim", "pimsim/internal/host", "pimsim/internal/cache", "pimsim/internal/energy", "pimsim/internal/dse"}},
}

// gcFrames mark a sample as allocator or collector work when any frame
// of its stack is one of them and its leaf is in the Go runtime.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot",
	"runtime.GC", "runtime.gcStart", "runtime.sweepone",
}

type cpuSample struct {
	stack   []string // function names, leaf first
	ns      int64
	harness bool
}

type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() ([]cpuSample, error) {
	pprof.StopCPUProfile()
	return decodeProfile(p.buf.Bytes())
}

// attribute sums sample time per ledger layer.
func attribute(samples []cpuSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s)] += s.ns
	}
	return out
}

func layerOf(s cpuSample) string {
	if len(s.stack) == 0 {
		return "other"
	}
	leafPkg := pkgOf(s.stack[0])
	if leafPkg == "runtime" {
		for _, f := range s.stack {
			for _, g := range gcFrames {
				if f == g {
					return "gc"
				}
			}
		}
	}
	if s.harness {
		return "harness"
	}
	for _, l := range layerPkgs {
		for _, p := range l.pkgs {
			if leafPkg == p {
				return l.layer
			}
		}
	}
	return "other"
}

// pkgOf returns the import path of a symbolized Go function name such
// as "pimsim/internal/hbm.(*bank).row" or "net/http.(*conn).serve".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may hold paths and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// decodeProfile parses a gzipped profile.proto CPU profile into
// samples. Only the fields the ledger reads are decoded: sample
// (location ids, values, labels), location (lines), function (name),
// the string table and the sample types.
func decodeProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		samples   []rawSample
		types     [][2]int64              // type, unit
		locInline = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			if err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, vt)
		case 2: // sample
			var s rawSample
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					if b != nil {
						return varints(b, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2:
					if b != nil {
						return varints(b, func(x uint64) { s.values = append(s.values, int64(x)) })
					}
					s.values = append(s.values, int64(v))
				case 3:
					var kv [2]int64
					if err := fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id = 1
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locInline[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range types {
		if str(t[0]) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, rs := range samples {
		if cpuIdx >= len(rs.values) {
			continue
		}
		s := cpuSample{ns: rs.values[cpuIdx]}
		for _, l := range rs.locs {
			// A location lists its inlined frames innermost first.
			for _, f := range locInline[l] {
				s.stack = append(s.stack, str(funcNames[f]))
			}
		}
		for _, kv := range rs.labels {
			if str(kv[0]) == "side" && str(kv[1]) == "harness" {
				s.harness = true
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the protobuf message b, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints decodes a packed repeated varint field.
func varints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
