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

// stack is one CPU profile sample: its function names, innermost
// first (inlined callees before their callers), and its CPU time.
type stack struct {
	funcs []string
	nanos int64
}

// parseProfile decodes the gzipped protobuf a runtime/pprof CPU
// profile is written as, keeping only what layer bucketing needs:
// each sample's call stack and CPU nanoseconds. The module takes no
// dependencies, so this reads the wire format directly; see
// https://github.com/google/pprof/blob/main/proto/profile.proto.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu/nanoseconds value")
		}
		st := stack{nanos: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that arrived either
// unpacked (one varint v) or packed (data holds the varints).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}

// Layer buckets a CPU sample can be charged to. bucketMetric names the
// per-layer metric each one is reported as.
var bucketMetric = map[string]string{
	"guest":          "guest.host_s",
	"kern":           "kern.host_s",
	"core":           "core.host_s",
	"ooo.fetch":      "ooo.fetch_s",
	"ooo.rename":     "ooo.rename_s",
	"ooo.issue":      "ooo.issue_s",
	"ooo.writeback":  "ooo.writeback_s",
	"ooo.commit":     "ooo.commit_s",
	"ooo.other":      "ooo.other_s",
	"cache":          "cache.host_s",
	"tlb":            "tlb.host_s",
	"bpred":          "bpred.host_s",
	"uops":           "uops.exec_s",
	"decode":         "decode.host_s",
	"seqcore":        "seqcore.host_s",
	"audit":          "audit.host_s",
	"conformance":    "conformance.host_s",
	"jobd":           "jobd.host_s",
	"runtime.gc":     "runtime.gc_s",
	"runtime.malloc": "runtime.malloc_s",
	"other":          "other.host_s",
}

// packageLayer maps a package of this module to its layer. Packages
// not listed (vm, hv, x86, stats, ...) are transparent: a sample in
// them is charged to the nearest caller that belongs to a layer.
var packageLayer = map[string]string{
	"guest":       "guest",
	"kern":        "kern",
	"core":        "core",
	"cache":       "cache",
	"tlb":         "tlb",
	"mem":         "tlb",
	"bpred":       "bpred",
	"uops":        "uops",
	"decode":      "decode",
	"bbcache":     "decode",
	"seqcore":     "seqcore",
	"selfcheck":   "audit",
	"conformance": "conformance",
	"corpus":      "conformance",
	"jobd":        "jobd",
}

// oooStages are the methods of ooo.Core that Core.Cycle calls once per
// cycle; an ooo frame is charged to the nearest of these that encloses
// it.
var oooStages = map[string]string{
	"commit":    "ooo.commit",
	"writeback": "ooo.writeback",
	"issue":     "ooo.issue",
	"rename":    "ooo.rename",
	"fetch":     "ooo.fetch",
}

const modulePrefix = "ptlsim/internal/"

// splitFunc splits a symbol such as "ptlsim/internal/ooo.(*Core).fetch"
// into its package path and the rest.
func splitFunc(fn string) (pkg, rest string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// bucketOf charges one sample to exactly one bucket: the innermost
// frame that belongs to a layer decides, ooo frames go to their
// enclosing stage method, the runtime's GC and allocator frames go to
// runtime.gc and runtime.malloc, and a stack with no layer frame at
// all goes to other. The invariant auditor is spread over the layers
// it checks (ooo.Core.Audit calls cache.Cache.Audit, for one), so
// module code under an auditor function goes to audit.
func bucketOf(funcs []string) string {
	for i, fn := range funcs {
		pkg, rest := splitFunc(fn)
		if pkg == "runtime" {
			if b := runtimeBucket(rest); b != "" {
				return b
			}
			continue
		}
		if !strings.HasPrefix(pkg, modulePrefix) {
			continue
		}
		if underAuditor(funcs[i:]) {
			return "audit"
		}
		name := pkg[strings.LastIndexByte(pkg, '/')+1:]
		if name == "ooo" {
			return oooBucket(funcs[i:])
		}
		if l, ok := packageLayer[name]; ok {
			return l
		}
	}
	return "other"
}

// underAuditor reports whether any of funcs is an auditor function: a
// function or method of this module named Audit… or audit….
func underAuditor(funcs []string) bool {
	for _, fn := range funcs {
		pkg, rest := splitFunc(fn)
		if !strings.HasPrefix(pkg, modulePrefix) {
			continue
		}
		for _, part := range strings.Split(rest, ".") {
			if strings.HasPrefix(part, "Audit") || strings.HasPrefix(part, "audit") {
				return true
			}
		}
	}
	return false
}

// oooBucket finds the stage method enclosing the innermost ooo frame
// (funcs[0]), walking outward through the ooo frames above it.
func oooBucket(funcs []string) string {
	for _, fn := range funcs {
		pkg, rest := splitFunc(fn)
		if pkg != modulePrefix+"ooo" {
			continue
		}
		method := strings.TrimPrefix(rest, "(*Core).")
		if method == rest {
			continue
		}
		if i := strings.IndexByte(method, '.'); i >= 0 {
			method = method[:i] // closures: fetch.func1
		}
		if b, ok := oooStages[method]; ok {
			return b
		}
	}
	return "ooo.other"
}

// runtimeBucket classifies a runtime function as GC or allocation
// work. Other runtime frames (memmove, maps, scheduling, and the heap
// internals both the allocator and the collector call) are
// transparent, so they go to whichever of the two encloses them.
func runtimeBucket(fn string) string {
	for _, p := range []string{"gc", "mark", "scan", "sweep", "bgsweep", "bgscavenge",
		"greyobject", "findObject", "wbBuf", "(*gcWork)", "(*gcControllerState)", "(*sweepLocked)"} {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	for _, p := range []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice",
		"(*mcache)", "(*mcentral)", "nextFreeFast"} {
		if strings.HasPrefix(fn, p) {
			return "runtime.malloc"
		}
	}
	return ""
}

// bucketize charges every sample to one bucket and returns CPU
// seconds per bucket; the values sum to the profile total.
func bucketize(stacks []stack) (map[string]float64, float64) {
	out := map[string]float64{}
	var total int64
	for _, s := range stacks {
		out[bucketOf(s.funcs)] += float64(s.nanos) / 1e9
		total += s.nanos
	}
	return out, float64(total) / 1e9
}

// inclusive returns the CPU seconds of samples whose stack contains
// any of the named functions, counting each sample once.
func inclusive(stacks []stack, names ...string) float64 {
	var ns int64
	for _, s := range stacks {
	frames:
		for _, fn := range s.funcs {
			for _, n := range names {
				if fn == n {
					ns += s.nanos
					break frames
				}
			}
		}
	}
	return float64(ns) / 1e9
}
