package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"equinox/internal/sim"
)

// pb is a tiny protocol-buffer encoder for hand-built test profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(field int, fill func(*pb)) {
	var m pb
	fill(&m)
	p.bytes(field, m.b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var m pb
	for _, v := range vs {
		m.varint(v)
	}
	p.bytes(field, m.b)
}

// knownProfile builds a CPU profile whose samples have the given leaf-first
// stacks and nanosecond values.
func knownProfile(t *testing.T, samples []profSample) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	p.msg(1, func(m *pb) { m.uint(1, strIx("samples")); m.uint(2, strIx("count")) })
	p.msg(1, func(m *pb) { m.uint(1, strIx("cpu")); m.uint(2, strIx("nanoseconds")) })
	funcs := map[string]uint64{}
	nextLoc := uint64(1)
	for _, s := range samples {
		// One location per sample holding the whole stack as inlined lines
		// exercises the multi-line path; real profiles mix both forms.
		loc := nextLoc
		nextLoc++
		var lines [][]byte
		for _, fn := range s.Stack {
			id, ok := funcs[fn]
			if !ok {
				id = uint64(len(funcs) + 1)
				funcs[fn] = id
				name := strIx(fn)
				p.msg(5, func(m *pb) { m.uint(1, id); m.uint(2, name) })
			}
			var l pb
			l.uint(1, id)
			lines = append(lines, l.b)
		}
		p.msg(4, func(m *pb) {
			m.uint(1, loc)
			for _, l := range lines {
				m.bytes(4, l)
			}
		})
		p.msg(2, func(m *pb) { m.packed(1, loc); m.packed(2, 1, uint64(s.NS)) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributionOnKnownProfile(t *testing.T) {
	ms := int64(time.Millisecond)
	want := []profSample{
		{Stack: []string{"equinox/internal/noc.(*Router).switchAllocate", "equinox/internal/noc.(*Network).Step"}, NS: 30 * ms},
		{Stack: []string{"equinox/internal/noc.(*Router).vcAllocate", "equinox/internal/noc.(*Network).Step"}, NS: 7 * ms},
		{Stack: []string{"equinox/internal/hbm.(*Controller).Step", "equinox/internal/sim.(*System).Step"}, NS: 20 * ms},
		{Stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, NS: 10 * ms},
		{Stack: []string{"runtime.mallocgc", "equinox/internal/gpu.(*PE).Step"}, NS: 4 * ms},
		{Stack: []string{"equinox/internal/fleet/store.(*Memory).Get"}, NS: 3 * ms},
		{Stack: []string{"main.(*f2mSource).runPoint"}, NS: 5 * ms},
	}
	got, err := parseProfile(knownProfile(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].NS != want[i].NS || strings.Join(got[i].Stack, ";") != strings.Join(want[i].Stack, ";") {
			t.Errorf("sample %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	a := attribute(got)
	for k, v := range map[string]float64{
		"noc.self_s":         0.037,
		"noc.switch_alloc_s": 0.030,
		"noc.vc_alloc_s":     0.007,
		"noc.route_s":        0,
		"hbm.self_s":         0.020,
		"runtime.self_s":     0.014, // mark worker leaf plus an allocation under gpu
		"runtime.gc_s":       0.010,
		"gpu.self_s":         0,
		"fleet.store.self_s": 0.003,
		"other.self_s":       0.005,
		"profile.total_s":    0.079,
		"service.self_s":     0,
		"fleet.self_s":       0,
		"core.self_s":        0,
		"sim.self_s":         0,
		"equinox.self_s":     0,
		"http.self_s":        0,
		"noc.link_s":         0,
		"noc.ni_s":           0,
	} {
		if math.Abs(a[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, a[k], v)
		}
	}
}

func TestParsesRuntimeProfile(t *testing.T) {
	prof, err := startProfile()
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if a["profile.total_s"] <= 0 {
		t.Fatalf("no CPU time in a 300ms busy loop (x=%v)", x)
	}
	var sum float64
	for _, l := range attributionLayers {
		sum += a[l+".self_s"]
	}
	if math.Abs(sum-a["profile.total_s"]) > 1e-9 {
		t.Errorf("layer self times sum to %v, profile total %v", sum, a["profile.total_s"])
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string][2]string{
		"equinox/internal/noc.(*Router).routeCandidates": {"noc", "route"},
		"equinox/internal/noc.(*Router).deliverArrivals": {"noc", "link"},
		"equinox/internal/noc.(*equiNoxNI).step":         {"noc", "ni"},
		"equinox/internal/noc.(*Network).pruneActive":    {"noc", ""},
		"equinox/internal/mcts.Search":                   {"core", ""},
		"equinox.RunEvaluationContext.func2":             {"equinox", ""},
		"equinox/internal/obs/trace.(*Trace).Start":      {"service", ""},
		"net/http.(*conn).serve":                         {"http", ""},
		"internal/runtime/maps.(*Map).getWithKey":        {"runtime", ""},
		"main.main": {"other", ""},
	} {
		l, s := layerOf(fn)
		if l != want[0] || s != want[1] {
			t.Errorf("layerOf(%q) = %q, %q; want %q, %q", fn, l, s, want[0], want[1])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: the rule must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		ok   bool
		rank int // value of the reported sample = its rank in 1..n
	}{
		{10, false, 0},
		{11, true, 1},
		{100, true, 90},
		{500, true, 490},
		{1000, true, 990},
		{5000, true, 4950},
	} {
		tl := tailPercentile(seq(c.n))
		if tl.OK != c.ok || tl.N != c.n {
			t.Errorf("n=%d: ok=%v n=%d, want ok=%v", c.n, tl.OK, tl.N, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if int(tl.Value) != c.rank {
			t.Errorf("n=%d: value %v, want rank %d", c.n, tl.Value, c.rank)
		}
		if beyond := c.n - int(tl.Value); beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
		if tl.Pct > 99 {
			t.Errorf("n=%d: percentile %v above 99", c.n, tl.Pct)
		}
	}
}

func TestEveryFailureKindCountsInFailRatio(t *testing.T) {
	cold := []byte(`{"runs":[{"execCycles":100},{"execCycles":200}]}`)
	e := &fleetEnv{warmResult: [][]byte{[]byte(`"warm"`)}}
	lr := loadResult{jobs: []jobResult{
		{cold: true, result: cold},                                                 // ok
		{idx: 0, result: []byte(`"warm"`)},                                         // ok
		{cold: true, refused: true, err: errRefused},                               // 429/503
		{cold: true, err: errors.New("job finished failed without a result")},      // failed job
		{cold: true, timedOut: true, err: errors.New("context deadline exceeded")}, // timeout
		{idx: 0, result: []byte(`"other"`)},                                        // warm mismatch
		{cold: true, result: []byte(`{"runs":[{"execCycles":1}]}`)},                // cold mismatch
	}}
	for i := range lr.jobs {
		e.summarize(&lr.jobs[i], 0)
	}
	o := &outcome{}
	tl := tallyJobs(o, e, lr)
	if tl.done != 2 || tl.failed != 3 || tl.mismatched != 2 || tl.refused != 1 || tl.timeouts != 1 {
		t.Fatalf("tally %+v", tl)
	}
	if got, want := tl.failRatio(), 5.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("fail ratio %v, want %v", got, want)
	}
	if o.Attempted != 7 || o.Failed != 5 {
		t.Errorf("attempted/failed %d/%d, want 7/5", o.Attempted, o.Failed)
	}
	if tl.cycles != 300 {
		t.Errorf("simulated cycles %d, want 300 (only the good cold job)", tl.cycles)
	}
	line, err := resultLine(&outcome{Attempted: 7, Failed: 5, E2E: fullE2E()}, false)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal(line, &res); err != nil || res.Correct || res.Failed != 5 {
		t.Errorf("result line %s", line)
	}
}

func fullE2E() map[string]float64 {
	m := map[string]float64{}
	for _, e := range endToEnd {
		m[e.name] = 1
	}
	return m
}

func TestResultLineKeys(t *testing.T) {
	for _, trace := range []bool{false, true} {
		line, err := resultLine(&outcome{Attempted: 3, E2E: fullE2E(), Problems: []string{"x"}}, trace)
		if err != nil {
			t.Fatal(err)
		}
		var res map[string]json.RawMessage
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("keys of %s", line)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if trace {
			want = len(perLayer())
		}
		if len(metrics) != want {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(metrics), want)
		}
		if string(res["correct"]) != "false" || string(res["failed"]) != "1" {
			t.Errorf("a failed check must make the run incorrect: %s", line)
		}
	}
	if _, err := resultLine(&outcome{Attempted: 1, E2E: map[string]float64{}}, false); err == nil {
		t.Error("missing end-to-end metrics must be an error")
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(benchWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(benchWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, endToEnd[i])
		}
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(pl))
	}
	for i, m := range b.PerLayer {
		if m.Name != pl[i].name || m.Unit != pl[i].unit || m.Better != pl[i].better() {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, pl[i])
		}
	}
}

// requireClean fails the test on any check failure or failed operation.
func requireClean(t *testing.T, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if o.Attempted == 0 || o.Failed != 0 || len(o.Problems) != 0 {
		t.Fatalf("attempted %d, failed %d, problems %v\nnotes %v", o.Attempted, o.Failed, o.Problems, o.Notes)
	}
}

// The workloads at a non-default seed, sized down, through the same checks
// the benchmark applies: the checks must not be tuned to the default seed.
func TestNonDefaultSeedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	rc := runConfig{Seed: 7, Seconds: 0.5, Trace: true}

	t.Run("fullsys", func(t *testing.T) {
		p := paperFullsys()
		p.Schemes = []sim.SchemeKind{sim.SingleBase, sim.EquiNox}
		p.Benchmarks = []string{"gaussian"}
		p.InstructionsPerPE = 200
		p.SetupRepeats = 1
		o, err := runFullsys(rc, p)
		requireClean(t, o, err)
		if o.Layers["noc.flit_hops"] <= 0 || o.Layers["sim.run_s.EquiNox"] <= 0 {
			t.Errorf("per-layer counts missing: %v", o.Layers)
		}
	})
	t.Run("noc", func(t *testing.T) {
		p := paperNoc()
		p.Loads = []float64{0.3, 2.5}
		p.WarmupCycles, p.MeasureCycles = 200, 800
		p.SetupRepeats = 1
		o, err := runNoc(rc, p)
		requireClean(t, o, err)
		if o.Layers["noc.interposer_flits"] <= 0 || o.Layers["noc.step_s.eir"] <= 0 {
			t.Errorf("per-layer counts missing: %v", o.Layers)
		}
	})
	t.Run("service", func(t *testing.T) {
		p := paperService()
		p.InstructionsPerPE = 100
		p.WarmPool, p.CheckSubset, p.SetupRepeats = 2, 2, 1
		o, err := runService(runConfig{Seed: 7, Seconds: 2, Trace: true}, p)
		requireClean(t, o, err)
		if o.Layers["store.hit_ratio"] <= 0 || o.Layers["fleet.run_ms.p50"] <= 0 {
			t.Errorf("per-layer metrics missing: %v", o.Layers)
		}
	})
}

// The committed expectation for the default seed still matches (the
// noc-reply-f2m workload is cheap enough to check in a unit test).
func TestDefaultSeedNocOutputsMatchExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the design flow and a full load sweep")
	}
	p := paperNoc()
	p.SetupRepeats = 1
	o, err := runNoc(runConfig{Seed: defaultSeed, Seconds: 0.1}, p)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs("noc-reply-f2m", defaultSeed, o, false)
	requireClean(t, o, nil)
}
