package main

import (
	"fmt"
	"time"

	"equinox"
	"equinox/internal/core"
	"equinox/internal/geom"
	"equinox/internal/noc"
)

// nocParams sizes the noc-reply-f2m workload.
type nocParams struct {
	Design        core.DesignConfig
	Loads         []float64 // offered flits per CB per cycle
	WarmupCycles  int
	MeasureCycles int
	SetupRepeats  int
}

// paperNoc drives the paper's 8×8 reply mesh from the design's eight
// N-Queen CBs at offered loads from nearly idle to well past the standard
// NI's one-flit-per-cycle ceiling.
func paperNoc() nocParams {
	return nocParams{
		Design:        equinox.DefaultDesignConfig(),
		Loads:         []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.2, 1.6, 2.0, 2.5},
		WarmupCycles:  500,
		MeasureCycles: 2000,
		SetupRepeats:  3,
	}
}

// nocPoint is the model output at one load point.
type nocPoint struct {
	Offered    float64 `json:"offered"`
	Accepted   float64 `json:"accepted"`
	AvgLatency float64 `json:"avgLatencyCycles"`
	Delivered  int64   `json:"delivered"`
	Interposer int64   `json:"interposerFlits"`
}

// nocCurve is one NI kind's accepted-load curve.
type nocCurve struct {
	NI     string     `json:"ni"`
	Points []nocPoint `json:"points"`
}

// replyMesh is one reply network with the benchmark-side traffic state.
type replyMesh struct {
	kind string
	net  *noc.Network

	// Timers around the public calls, enabled in the traced run.
	stepNS, injectNS, ejectNS int64
}

// f2mSource generates few-to-many reply traffic. Packets come from a
// preallocated pool and source queues are fixed rings, so the cycle loop
// allocates nothing.
type f2mSource struct {
	cbs   []int // CB node IDs (sources)
	pes   []int // non-CB node IDs (destinations)
	flits int   // flits per reply packet

	pool  []noc.Packet
	free  []int32
	genAt []int64

	ring       [][]int32 // per-CB source queue of packet IDs
	head, size []int
}

func newF2MSource(cbs []geom.Point, w, h, maxPending int) *f2mSource {
	d := &f2mSource{flits: noc.SizeInFlits(noc.ReadReply, 16, 128)}
	isCB := make([]bool, w*h)
	for _, c := range cbs {
		d.cbs = append(d.cbs, c.ID(w))
		isCB[c.ID(w)] = true
	}
	for id := 0; id < w*h; id++ {
		if !isCB[id] {
			d.pes = append(d.pes, id)
		}
	}
	total := len(d.cbs) * maxPending
	d.pool = make([]noc.Packet, total)
	d.genAt = make([]int64, total)
	d.free = make([]int32, 0, total)
	for i := total - 1; i >= 0; i-- {
		d.free = append(d.free, int32(i))
	}
	d.ring = make([][]int32, len(d.cbs))
	for i := range d.ring {
		d.ring[i] = make([]int32, maxPending)
	}
	d.head = make([]int, len(d.cbs))
	d.size = make([]int, len(d.cbs))
	return d
}

// runPoint offers load (flits/CB/cycle) for warmup+measure cycles, then
// discards the undelivered source backlog and drains the network so the
// next point starts from an empty mesh.
func (d *f2mSource) runPoint(m *replyMesh, load float64, rng splitmix, p nocParams, timed bool) nocPoint {
	n := m.net
	pktProb := load / float64(d.flits)
	start := n.Now()
	measureFrom := start + int64(p.WarmupCycles)
	end := measureFrom + int64(p.MeasureCycles)
	intp0 := n.Stats.InterposerFlits
	var delivered, latSum int64

	eject := func(now int64) {
		if n.DeliveredPending() == 0 {
			return
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		for _, pe := range d.pes {
			for pk := n.PopDelivered(pe); pk != nil; pk = n.PopDelivered(pe) {
				id := int32(pk.ID)
				if pk.DeliveredAt >= measureFrom && pk.DeliveredAt < end {
					delivered++
					latSum += pk.DeliveredAt - d.genAt[id]
				}
				d.free = append(d.free, id)
			}
		}
		if timed {
			m.ejectNS += time.Since(t0).Nanoseconds()
		}
	}
	step := func() {
		if timed {
			t0 := time.Now()
			n.Step()
			m.stepNS += time.Since(t0).Nanoseconds()
			return
		}
		n.Step()
	}

	for now := start; now < end; now = n.Now() {
		for ci, src := range d.cbs {
			if rng.float64() < pktProb {
				id := d.free[len(d.free)-1]
				d.free = d.free[:len(d.free)-1]
				d.pool[id] = noc.Packet{ID: int64(id), Type: noc.ReadReply, Src: src, Dst: d.pes[rng.intn(len(d.pes))]}
				d.genAt[id] = now
				ring := d.ring[ci]
				ring[(d.head[ci]+d.size[ci])%len(ring)] = id
				d.size[ci]++
			}
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			for d.size[ci] > 0 {
				id := d.ring[ci][d.head[ci]]
				if !n.TryInject(&d.pool[id], now) {
					break
				}
				d.head[ci] = (d.head[ci] + 1) % len(d.ring[ci])
				d.size[ci]--
			}
			if timed {
				m.injectNS += time.Since(t0).Nanoseconds()
			}
		}
		step()
		eject(now)
	}
	// Discard the backlog that never entered the network, then drain.
	for ci := range d.cbs {
		for ; d.size[ci] > 0; d.size[ci]-- {
			d.free = append(d.free, d.ring[ci][d.head[ci]])
			d.head[ci] = (d.head[ci] + 1) % len(d.ring[ci])
		}
		d.head[ci] = 0
	}
	for !n.Quiescent() {
		step()
		eject(n.Now())
	}
	pt := nocPoint{
		Offered:    load,
		Accepted:   float64(delivered*int64(d.flits)) / float64(len(d.cbs)*p.MeasureCycles),
		Delivered:  delivered,
		Interposer: n.Stats.InterposerFlits - intp0,
	}
	if delivered > 0 {
		pt.AvgLatency = float64(latSum) / float64(delivered)
	}
	return pt
}

func runNoc(rc runConfig, p nocParams) (*outcome, error) {
	o := &outcome{E2E: map[string]float64{}, Layers: map[string]float64{}}

	// Set-up: the design flow (for the N-Queen CBs and EIR groups) and the
	// three reply meshes, each primed at the top load so that flit pools
	// and queues reach their working size before timing starts. Timed in
	// process CPU time, like the measured passes.
	type setupState struct {
		meshes []*replyMesh
		gen    *f2mSource
	}
	maxPending := p.WarmupCycles + p.MeasureCycles + 1
	var designS []float64
	setup, st, err := medianOf(p.SetupRepeats, cpuNow, func() (setupState, error) {
		t0 := cpuNow()
		d, err := equinox.Design(p.Design)
		if err != nil {
			return setupState{}, err
		}
		designS = append(designS, (cpuNow() - t0).Seconds())
		meshes, err := buildReplyMeshes(d)
		if err != nil {
			return setupState{}, err
		}
		gen := newF2MSource(d.CBs, d.Width, d.Height, maxPending)
		for _, m := range meshes {
			gen.runPoint(m, p.Loads[len(p.Loads)-1], newSplitmix(rc.Seed, 0xfeed), p, false)
		}
		return setupState{meshes, gen}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.E2E["setup_s"] = setup
	o.Layers["core.design_s"] = median(designS)

	// One pass runs every load point on every mesh. Each point's traffic is
	// generated from (seed, mesh, point), so every pass offers the same input.
	type sample struct {
		mesh int
		dur  time.Duration // process CPU time
		pt   nocPoint
	}
	pass := func(timed bool) []sample {
		var out []sample
		for mi, m := range st.meshes {
			for li, load := range p.Loads {
				rng := newSplitmix(rc.Seed, uint64(mi)<<32|uint64(li))
				t0 := cpuNow()
				pt := st.gen.runPoint(m, load, rng, p, timed)
				out = append(out, sample{mi, cpuNow() - t0, pt})
			}
		}
		return out
	}
	cyclesOf := func() int64 {
		var c int64
		for _, m := range st.meshes {
			c += m.net.Now()
		}
		return c
	}
	// measure repeats passes for the given (wall) time and reports each
	// pass's rates per second of process CPU time; the run's rate is their
	// median, so a short burst of host noise moves one pass, not the result.
	measure := func(seconds float64, timed bool) (samples []sample, cycleRates, pointRates []float64, cycles int64) {
		start := time.Now()
		for len(samples) == 0 || time.Since(start).Seconds() < seconds {
			o.Attempted += len(st.meshes) * len(p.Loads)
			c0, t0 := cyclesOf(), cpuNow()
			ss := pass(timed)
			d := (cpuNow() - t0).Seconds()
			cycleRates = append(cycleRates, float64(cyclesOf()-c0)/d)
			pointRates = append(pointRates, float64(len(ss))/d)
			cycles += cyclesOf() - c0
			samples = append(samples, ss...)
		}
		return samples, cycleRates, pointRates, cycles
	}

	var samples, traced []sample
	var cycleRates, pointRates, tCycleRates []float64
	var cycles int64
	var prof []profSample
	var mem memDelta
	stats0 := make([]noc.Stats, len(st.meshes))
	if rc.Trace {
		// Allocation counts come from the untraced half, because the
		// profiler allocates on its own.
		before := memNow()
		samples, cycleRates, pointRates, cycles = measure(rc.Seconds/2, false)
		mem = memSince(before)
		for i, m := range st.meshes {
			stats0[i] = m.net.Stats
		}
		cp, err := startProfile()
		if err != nil {
			return nil, err
		}
		traced, tCycleRates, _, _ = measure(rc.Seconds/2, true)
		if prof, err = cp.stop(); err != nil {
			return nil, err
		}
	} else {
		samples, cycleRates, pointRates, cycles = measure(rc.Seconds, false)
	}

	// Outputs: the first pass, which follows the deterministic set-up. The
	// meshes keep their arbiter state between passes, so later passes offer
	// the same traffic but are not bit-identical; each pass must pass the
	// EIR-path guard.
	per := len(st.meshes) * len(p.Loads)
	all := append(append([]sample(nil), samples...), traced...)
	for from := 0; from+per <= len(all); from += per {
		curves := make([]nocCurve, len(st.meshes))
		for mi, m := range st.meshes {
			curves[mi].NI = m.kind
		}
		for _, s := range all[from : from+per] {
			curves[s.mesh].Points = append(curves[s.mesh].Points, s.pt)
		}
		if from == 0 {
			o.Outputs = curves
			for _, c := range curves {
				top := c.Points[len(c.Points)-1]
				o.note("%s NI: accepted %.3f flits/CB/cycle at offered %.2f", c.NI, top.Accepted, top.Offered)
			}
		}
		checkNocCurves(o, curves)
	}

	// jobP50 is the median over load points of each point's median time:
	// point times differ by 20× between idle and saturated loads, so a
	// median over all runs would jump between points as pass counts vary.
	jobP50 := func(ss []sample) float64 {
		byPoint := map[[2]int][]float64{}
		for i, s := range ss {
			k := [2]int{s.mesh, i % len(p.Loads)}
			byPoint[k] = append(byPoint[k], 1000*s.dur.Seconds())
		}
		var meds []float64
		for _, xs := range byPoint {
			meds = append(meds, median(xs))
		}
		return median(meds)
	}
	o.E2E["sim_cycles_per_s"] = median(cycleRates)
	o.E2E["jobs_per_s"] = median(pointRates)
	o.E2E["job_p50_ms"] = jobP50(samples)
	o.E2E["max_rss_mb"] = maxRSSMB()
	o.note("noc-reply-f2m: %d load-point runs over %d passes, %.0f mesh cycles/s", len(samples), len(samples)/per, o.E2E["sim_cycles_per_s"])

	if rc.Trace {
		o.Layers["trace.overhead_sim_cycles_pct"] = 100 * (o.E2E["sim_cycles_per_s"]/median(tCycleRates) - 1)
		o.Layers["trace.overhead_job_p50_pct"] = 100 * (jobP50(traced)/o.E2E["job_p50_ms"] - 1)
		for k, v := range attribute(prof) {
			o.Layers[k] = v
		}
		var hops, pkts, intp, stepNS int64
		for i, m := range st.meshes {
			s := m.net.Stats
			hops += s.FlitHops - stats0[i].FlitHops
			pkts += s.TotalDelivered() - stats0[i].TotalDelivered()
			intp += s.InterposerFlits - stats0[i].InterposerFlits
			stepNS += m.stepNS
			o.Layers["noc.step_s."+m.kind] = float64(m.stepNS) / 1e9
			o.Layers["noc.inject_s."+m.kind] = float64(m.injectNS) / 1e9
			o.Layers["noc.eject_s."+m.kind] = float64(m.ejectNS) / 1e9
		}
		o.Layers["noc.flit_hops"] = float64(hops)
		o.Layers["noc.packets_delivered"] = float64(pkts)
		o.Layers["noc.interposer_flits"] = float64(intp)
		o.Layers["noc.ns_per_flit_hop"] = float64(stepNS) / float64(hops)
		o.Layers["host.allocs_per_kcycle"] = 1000 * float64(mem.Allocs) / float64(cycles)
		o.Layers["host.alloc_bytes_per_kcycle"] = 1000 * float64(mem.Bytes) / float64(cycles)
	}
	return o, nil
}

// buildReplyMeshes builds the reply network of the separate-network
// schemes three ways: standard NIs, MultiPort (4 injection ports per CB)
// and EquiNox EIRs. Config.CBs must be set: without it the MultiPort and
// EIR meshes silently build standard NIs.
func buildReplyMeshes(d *core.Design) ([]*replyMesh, error) {
	var meshes []*replyMesh
	for _, kind := range meshKinds {
		cfg := noc.DefaultConfig("reply-"+kind, d.Width, d.Height)
		cfg.CBs = d.CBs
		switch kind {
		case "multiport":
			cfg.InjectPortsPerCB = 4
		case "eir":
			cfg.EIRGroups = d.Groups
		}
		n, err := noc.New(cfg)
		if err != nil {
			return nil, err
		}
		meshes = append(meshes, &replyMesh{kind: kind, net: n})
	}
	return meshes, nil
}

// checkNocCurves guards the EIR path: at the top load point the EIR and
// MultiPort meshes must accept more than the standard NI, and the EIR mesh
// must carry flits over the interposer.
func checkNocCurves(o *outcome, curves []nocCurve) {
	top := map[string]nocPoint{}
	for _, c := range curves {
		if len(c.Points) == 0 {
			o.problem("%s: no load points ran", c.NI)
			return
		}
		top[c.NI] = c.Points[len(c.Points)-1]
		for _, pt := range c.Points {
			if pt.Accepted <= 0 || pt.Accepted > pt.Offered*1.5+0.05 {
				o.problem("%s at load %.2f: accepted %.3f is implausible", c.NI, pt.Offered, pt.Accepted)
			}
		}
	}
	std := top["standard"].Accepted
	for _, k := range []string{"multiport", "eir"} {
		if top[k].Accepted <= std {
			o.problem("%s accepts %.3f at the top load, not more than the standard NI's %.3f", k, top[k].Accepted, std)
		}
	}
	if top["eir"].Interposer <= 0 {
		o.problem("the EIR mesh carried no interposer flits")
	}
}
