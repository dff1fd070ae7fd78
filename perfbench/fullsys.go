package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"equinox"
	"equinox/internal/core"
	"equinox/internal/sim"
	"equinox/internal/workloads"
)

// fullsysParams sizes the fullsys-paper workload.
type fullsysParams struct {
	Design            core.DesignConfig
	Schemes           []sim.SchemeKind
	Benchmarks        []string
	InstructionsPerPE int
	SetupRepeats      int
}

// paperFullsys is the paper's §6 sweep at its default size: the 8×8 mesh
// with 8 CBs, all seven schemes on a memory-bound (kmeans) and a
// compute-bound (gaussian) benchmark, 1200 instructions per PE.
func paperFullsys() fullsysParams {
	return fullsysParams{
		Design:            equinox.DefaultDesignConfig(),
		Schemes:           sim.AllSchemes(),
		Benchmarks:        []string{"kmeans", "gaussian"},
		InstructionsPerPE: 1200,
		SetupRepeats:      3,
	}
}

// fullsysOutput is one simulation's model outputs, compared exactly.
type fullsysOutput struct {
	Scheme     string  `json:"scheme"`
	Benchmark  string  `json:"benchmark"`
	ExecCycles int64   `json:"execCycles"`
	IPC        float64 `json:"ipc"`
	ReqQueueNS float64 `json:"reqQueueNs"`
	ReqNetNS   float64 `json:"reqNetNs"`
	RepQueueNS float64 `json:"repQueueNs"`
	RepNetNS   float64 `json:"repNetNs"`
	EnergyPJ   float64 `json:"energyPj"`
	L1HitRate  float64 `json:"l1HitRate"`
	L2HitRate  float64 `json:"l2HitRate"`
}

// fullsysRun is one measured simulation; build and run are process CPU
// time (see cpuNow).
type fullsysRun struct {
	combo          int
	build, run     time.Duration
	cycles, instr  int64
	flitHops, pkts int64
	interposer     int64
	l1, l2         float64
	out            fullsysOutput
}

func runFullsys(rc runConfig, p fullsysParams) (*outcome, error) {
	o := &outcome{E2E: map[string]float64{}, Layers: map[string]float64{}}

	// Set-up: the MCTS design flow, repeated; every repeat must agree. Like
	// the simulations, it is timed in process CPU time.
	var first *core.Design
	setup, design, err := medianOf(p.SetupRepeats, cpuNow, func() (*core.Design, error) {
		d, err := equinox.Design(p.Design)
		if err == nil && first != nil && !reflect.DeepEqual(d.Groups, first.Groups) {
			o.problem("design flow is not deterministic: EIR groups differ between repeats")
		}
		if first == nil {
			first = d
		}
		return d, err
	})
	if err != nil {
		return nil, fmt.Errorf("design: %w", err)
	}
	o.E2E["setup_s"] = setup
	o.Layers["core.design_s"] = setup

	type combo struct {
		scheme sim.SchemeKind
		bench  string
	}
	var combos []combo
	for _, s := range p.Schemes {
		for _, b := range p.Benchmarks {
			combos = append(combos, combo{s, b})
		}
	}
	runOne := func(c combo) (fullsysRun, error) {
		prof, err := workloads.ByName(c.bench)
		if err != nil {
			return fullsysRun{}, err
		}
		cfg := sim.DefaultConfig(c.scheme)
		cfg.InstructionsPerPE = p.InstructionsPerPE
		cfg.Seed = rc.Seed
		if c.scheme == sim.EquiNox {
			cfg.CBOverride = design.CBs
			cfg.EIRGroups = design.Groups
		}
		t0 := cpuNow()
		sys, err := sim.NewSystem(cfg, prof)
		if err != nil {
			return fullsysRun{}, err
		}
		t1 := cpuNow()
		res, err := sys.RunToCompletionContext(context.Background())
		t2 := cpuNow()
		if err != nil {
			return fullsysRun{}, err
		}
		r := fullsysRun{build: t1 - t0, run: t2 - t1, cycles: res.ExecCycles, instr: res.Instructions,
			l1: res.L1HitRate, l2: res.L2HitRate}
		for _, n := range sys.Networks() {
			r.flitHops += n.Stats.FlitHops
			r.pkts += n.Stats.TotalDelivered()
			r.interposer += n.Stats.InterposerFlits
		}
		r.out = fullsysOutput{
			Scheme: c.scheme.String(), Benchmark: c.bench,
			ExecCycles: res.ExecCycles, IPC: res.IPC,
			ReqQueueNS: res.ReqQueueNS, ReqNetNS: res.ReqNetNS, RepQueueNS: res.RepQueueNS, RepNetNS: res.RepNetNS,
			EnergyPJ: res.Energy.TotalPJ(), L1HitRate: res.L1HitRate, L2HitRate: res.L2HitRate,
		}
		return r, nil
	}

	// measure runs the sweep in order, repeating it, until at least one
	// whole sweep is done and the time is up.
	measure := func(seconds float64) []fullsysRun {
		var runs []fullsysRun
		start := time.Now()
		for i := 0; ; i++ {
			ci := i % len(combos)
			if i >= len(combos) && time.Since(start).Seconds() >= seconds {
				break
			}
			o.Attempted++
			r, err := runOne(combos[ci])
			if err != nil {
				o.Failed++
				o.note("%v/%s failed: %v", combos[ci].scheme, combos[ci].bench, err)
				continue
			}
			r.combo = ci
			runs = append(runs, r)
		}
		return runs
	}

	var runs []fullsysRun
	var traced []fullsysRun
	var samples []profSample
	var mem memDelta
	if rc.Trace {
		// Half untraced, half under the profiler: the difference is the
		// tracing overhead. Allocation counts come from the untraced half,
		// because the profiler allocates on its own.
		before := memNow()
		runs = measure(rc.Seconds / 2)
		mem = memSince(before)
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		traced = measure(rc.Seconds / 2)
		if samples, err = prof.stop(); err != nil {
			return nil, err
		}
	} else {
		runs = measure(rc.Seconds)
	}

	// Outputs: the first sweep, with every later repeat required to match.
	outs := make([]fullsysOutput, len(combos))
	seen := make([]bool, len(combos))
	for _, r := range append(append([]fullsysRun(nil), runs...), traced...) {
		if !seen[r.combo] {
			outs[r.combo], seen[r.combo] = r.out, true
		} else if r.out != outs[r.combo] {
			o.problem("%s/%s: repeated run gave different outputs", r.out.Scheme, r.out.Benchmark)
		}
	}
	for ci, r := range outs {
		if !seen[ci] {
			continue
		}
		if r.ExecCycles <= 0 || r.IPC <= 0 || r.L1HitRate < 0 || r.L1HitRate > 1 || r.L2HitRate < 0 || r.L2HitRate > 1 || r.EnergyPJ <= 0 {
			o.problem("%s/%s: implausible outputs %+v", r.Scheme, r.Benchmark, r)
		}
	}
	o.Outputs = outs
	reportPaperRatio(o, outs)

	e2e := fullsysMetrics(runs, len(combos))
	for k, v := range e2e {
		o.E2E[k] = v
	}
	o.E2E["max_rss_mb"] = maxRSSMB()
	o.note("fullsys-paper: %d simulations (%d schemes × %d benchmarks per sweep), %.0f simulated cycles/s",
		len(runs), len(p.Schemes), len(p.Benchmarks), e2e["sim_cycles_per_s"])

	if rc.Trace {
		tm := fullsysMetrics(traced, len(combos))
		o.Layers["trace.overhead_sim_cycles_pct"] = 100 * (e2e["sim_cycles_per_s"]/tm["sim_cycles_per_s"] - 1)
		o.Layers["trace.overhead_job_p50_pct"] = 100 * (tm["job_p50_ms"]/e2e["job_p50_ms"] - 1)
		for k, v := range attribute(samples) {
			o.Layers[k] = v
		}
		fullsysLayers(o, traced, len(combos))
		var cycles int64
		for _, r := range runs {
			cycles += r.cycles
		}
		o.Layers["host.allocs_per_kcycle"] = 1000 * float64(mem.Allocs) / float64(cycles)
		o.Layers["host.alloc_bytes_per_kcycle"] = 1000 * float64(mem.Bytes) / float64(cycles)
	}
	return o, nil
}

// fullsysMetrics computes the end-to-end metrics per (scheme, benchmark)
// and combines them with a geometric mean, so a run that stops part-way
// through a repeat sweep does not shift the scheme mix.
func fullsysMetrics(runs []fullsysRun, ncombo int) map[string]float64 {
	secs := make([]float64, ncombo)
	cycles := make([]float64, ncombo)
	count := make([]float64, ncombo)
	for _, r := range runs {
		secs[r.combo] += (r.build + r.run).Seconds()
		cycles[r.combo] += float64(r.cycles)
		count[r.combo]++
	}
	var rate, perRun []float64
	for i := range secs {
		if count[i] == 0 {
			continue
		}
		rate = append(rate, cycles[i]/secs[i])
		perRun = append(perRun, 1000*secs[i]/count[i])
	}
	return map[string]float64{
		"sim_cycles_per_s": geomean(rate),
		"jobs_per_s":       1000 / geomean(perRun),
		"job_p50_ms":       median(perRun),
	}
}

// fullsysLayers fills the per-layer metrics of the traced sweep. Counts
// come from the first pass over each (scheme, benchmark), so they repeat
// exactly for a given seed.
func fullsysLayers(o *outcome, runs []fullsysRun, ncombo int) {
	seen := make([]bool, ncombo)
	var hops, pkts, intp int64
	var build, run time.Duration
	var cycles, instr int64
	var l1, l2 float64
	perScheme := map[string]time.Duration{}
	perSchemeHops := map[string]int64{}
	for _, r := range runs {
		build += r.build
		run += r.run
		cycles += r.cycles
		instr += r.instr
		perScheme[r.out.Scheme] += r.run
		perSchemeHops[r.out.Scheme] += r.flitHops
		if !seen[r.combo] {
			seen[r.combo] = true
			hops += r.flitHops
			pkts += r.pkts
			intp += r.interposer
			l1 += r.l1 / float64(ncombo)
			l2 += r.l2 / float64(ncombo)
		}
	}
	var allHops int64
	for _, h := range perSchemeHops {
		allHops += h
	}
	o.Layers["noc.flit_hops"] = float64(hops)
	o.Layers["noc.packets_delivered"] = float64(pkts)
	o.Layers["noc.interposer_flits"] = float64(intp)
	o.Layers["noc.ns_per_flit_hop"] = float64(run.Nanoseconds()) / float64(allHops)
	o.Layers["gpu.l1_hit_rate"] = l1
	o.Layers["gpu.l2_hit_rate"] = l2
	o.Layers["sim.build_s"] = build.Seconds()
	o.Layers["sim.run_s"] = run.Seconds()
	o.Layers["sim.instr_per_s"] = float64(instr) / (build + run).Seconds()
	for s, d := range perScheme {
		o.Layers["sim.run_s."+s] = d.Seconds()
		o.Layers["noc.ns_per_flit_hop."+s] = float64(d.Nanoseconds()) / float64(perSchemeHops[s])
	}
}

// reportPaperRatio prints EquiNox's execution time relative to SingleBase
// beside the paper's headline figure. The model is not validated against
// hardware, so no error figure is given.
func reportPaperRatio(o *outcome, outs []fullsysOutput) {
	base := map[string]int64{}
	for _, r := range outs {
		if r.Scheme == sim.SingleBase.String() {
			base[r.Benchmark] = r.ExecCycles
		}
	}
	var logs []float64
	for _, r := range outs {
		if r.Scheme == sim.EquiNox.String() && base[r.Benchmark] > 0 {
			ratio := float64(r.ExecCycles) / float64(base[r.Benchmark])
			logs = append(logs, ratio)
			o.note("EquiNox/SingleBase exec time on %s: %.3f (%+.1f%%)", r.Benchmark, ratio, 100*(ratio-1))
		}
	}
	if len(logs) > 0 {
		g := geomean(logs)
		o.note("EquiNox/SingleBase exec time, geomean over %d benchmarks: %.3f (%+.1f%%); the paper reports -47.7%% as a geomean over 29 benchmarks. The model is not validated against hardware; no error figure is given.",
			len(logs), g, 100*(g-1))
	}
}
