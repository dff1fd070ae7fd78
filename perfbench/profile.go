package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run takes a runtime/pprof CPU profile around the workload's
// calls and attributes each sample's CPU time to a layer by its leaf
// frame. The profile is decoded here with a minimal protocol-buffer reader
// so the benchmark needs nothing beyond the standard library.

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns its samples.
func (p *cpuProfile) stop() ([]profSample, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// profSample is one stack (leaf first) with its CPU time.
type profSample struct {
	Stack []string
	NS    int64
}

// layerOf maps a leaf function name to a layer, and for the noc layer to
// its pipeline stage ("" when the function is noc glue outside the named
// stages).
func layerOf(fn string) (layer, stage string) {
	pkg, name := splitFunc(fn)
	switch {
	case pkg == "equinox/internal/noc":
		return "noc", nocStage(name)
	case pkg == "equinox/internal/geom":
		return "noc", "" // coordinate helpers the router hot path calls
	case pkg == "equinox/internal/hbm":
		return "hbm", ""
	case pkg == "equinox/internal/gpu":
		return "gpu", ""
	case pkg == "equinox/internal/sim", pkg == "equinox/internal/workloads", pkg == "equinox/internal/traffic":
		return "sim", ""
	case pkg == "equinox/internal/core", pkg == "equinox/internal/mcts",
		pkg == "equinox/internal/placement", pkg == "equinox/internal/interposer":
		return "core", ""
	case pkg == "equinox", pkg == "equinox/internal/power", pkg == "equinox/internal/stats":
		return "equinox", ""
	case pkg == "equinox/internal/fleet/store":
		return "fleet.store", ""
	case pkg == "equinox/internal/fleet", pkg == "equinox/internal/chaos":
		return "fleet", ""
	case pkg == "equinox/internal/service", strings.HasPrefix(pkg, "equinox/internal/obs"):
		return "service", ""
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || pkg == "internal/runtime" ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || pkg == "sync/atomic":
		return "runtime", ""
	case strings.HasPrefix(pkg, "net") || pkg == "internal/poll" || pkg == "syscall" ||
		pkg == "bufio" || pkg == "io" || strings.HasPrefix(pkg, "encoding/") ||
		strings.HasPrefix(pkg, "crypto/") || pkg == "mime":
		return "http", ""
	}
	return "other", ""
}

// nocStage classifies a noc function into the router pipeline stage it
// implements (mirroring Network.Step's phases).
func nocStage(name string) string {
	switch {
	case strings.Contains(name, "switchAllocate"), strings.Contains(name, "vcBuf"), strings.Contains(name, "applyCredits"):
		return "switch_alloc"
	case strings.Contains(name, "vcAllocate"), strings.Contains(name, "allocKey"), strings.Contains(name, "injectVC"):
		return "vc_alloc"
	case strings.Contains(name, "routeCandidates"), strings.Contains(name, "vcOrderByCredit"), strings.Contains(name, "classVCs"):
		return "route"
	case strings.Contains(name, "deliverArrivals"), strings.Contains(name, "accept"), strings.Contains(name, "markActive"):
		return "link"
	case strings.Contains(name, "NI)"), strings.Contains(name, "injBuffer"), strings.Contains(name, "makeFlits"),
		strings.Contains(name, "TryInject"), strings.Contains(name, "PopDelivered"), strings.Contains(name, "ejectFlit"),
		strings.Contains(name, "markNIActive"), strings.Contains(name, "popPacket"), strings.Contains(name, "InjectSpace"):
		return "ni"
	}
	return ""
}

// splitFunc splits "equinox/internal/noc.(*Router).vcAllocate" into its
// import path and the rest. The package ends at the first dot after the
// last slash.
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// isGC reports whether a stack belongs to garbage collection: background
// mark/sweep workers, mark assists, or a GC leaf.
func isGC(stack []string) bool {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
			"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain":
			return true
		}
	}
	if len(stack) > 0 {
		leaf := stack[0]
		return strings.HasPrefix(leaf, "runtime.gc") || strings.HasPrefix(leaf, "runtime.scanobject") ||
			strings.HasPrefix(leaf, "runtime.sweep") || strings.HasPrefix(leaf, "runtime.(*mspan).sweep") ||
			strings.HasPrefix(leaf, "runtime.greyobject") || strings.HasPrefix(leaf, "runtime.findObject")
	}
	return false
}

// attributionLayers are the layers self time is reported for.
var attributionLayers = []string{"noc", "hbm", "gpu", "sim", "core", "equinox", "service", "fleet", "fleet.store", "http", "runtime", "other"}

// nocStages are the noc pipeline stages reported separately.
var nocStages = []string{"switch_alloc", "vc_alloc", "route", "link", "ni"}

// attribute sums the samples' CPU time per layer ("<layer>.self_s"), per
// noc stage ("noc.<stage>_s"), for garbage collection ("runtime.gc_s") and
// in total ("profile.total_s").
func attribute(samples []profSample) map[string]float64 {
	out := map[string]float64{}
	for _, l := range attributionLayers {
		out[l+".self_s"] = 0
	}
	for _, s := range nocStages {
		out["noc."+s+"_s"] = 0
	}
	out["runtime.gc_s"] = 0
	var total int64
	for _, s := range samples {
		if len(s.Stack) == 0 {
			continue
		}
		sec := float64(s.NS) / 1e9
		total += s.NS
		layer, stage := layerOf(s.Stack[0])
		out[layer+".self_s"] += sec
		if stage != "" {
			out["noc."+stage+"_s"] += sec
		}
		if isGC(s.Stack) {
			out["runtime.gc_s"] += sec
		}
	}
	out["profile.total_s"] = float64(total) / 1e9
	return out
}

// --- minimal pprof (profile.proto) decoder ---

// parseProfile decodes a gzip-compressed profile.proto and returns its
// samples with function-name stacks (leaf first; inlined frames expanded)
// and the CPU nanoseconds of each.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id → string index
		locFuncs  = map[uint64][]uint64{}
		rawSample [][]byte
		types     [][2]int64 // sample_type (type, unit) string indexes
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
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
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU profile's value columns are (samples, count) and (cpu, nanoseconds).
	valueIx := -1
	for i, t := range types {
		if t[1] >= 0 && int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			valueIx = i
		}
	}
	if valueIx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	var out []profSample
	for _, sb := range rawSample {
		var locs []uint64
		var vals []int64
		if err := eachField(sb, func(f, wire int, v uint64, b []byte) error {
			switch f {
			case 1:
				if wire == 2 {
					return eachPacked(b, func(x uint64) { locs = append(locs, x) })
				}
				locs = append(locs, v)
			case 2:
				if wire == 2 {
					return eachPacked(b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				vals = append(vals, int64(v))
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if valueIx >= len(vals) {
			continue
		}
		var stack []string
		for _, l := range locs {
			for _, fid := range locFuncs[l] {
				stack = append(stack, str(funcName[fid]))
			}
		}
		out = append(out, profSample{Stack: stack, NS: vals[valueIx]})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the bytes.
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
