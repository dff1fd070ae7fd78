package main

import (
	"strings"

	"equinox/internal/sim"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// meshKinds are the three reply-mesh NIs of the noc-reply-f2m workload.
var meshKinds = []string{"standard", "multiport", "eir"}

// spanMetrics maps the program's span names (GET /v1/jobs/{id}/spans) to
// the per-layer metric they feed; each is reported as p50 and p99.
var spanMetrics = []string{
	"fleet.lease_wait_ms", "fleet.run_ms", "harness.design_ms", "sim.run_ms",
	"fleet.complete_rtt_ms", "fleet.store_lookup_ms", "http.submit_ms",
}

// perLayer lists every per-layer metric the traced run reports, in a fixed
// order (BENCHMARK.json carries the same names). A workload that bypasses
// a layer reports 0 for it.
func perLayer() []layerMetric {
	var ms []layerMetric
	for _, l := range attributionLayers {
		ms = append(ms, layerMetric{l + ".self_s", "s"})
	}
	for _, s := range nocStages {
		ms = append(ms, layerMetric{"noc." + s + "_s", "s"})
	}
	ms = append(ms,
		layerMetric{"runtime.gc_s", "s"},
		layerMetric{"profile.total_s", "s"},
		layerMetric{"noc.flit_hops", "count"},
		layerMetric{"noc.packets_delivered", "count"},
		layerMetric{"noc.interposer_flits", "count"},
		layerMetric{"noc.ns_per_flit_hop", "ns"},
	)
	for _, call := range []string{"step", "inject", "eject"} {
		for _, k := range meshKinds {
			ms = append(ms, layerMetric{"noc." + call + "_s." + k, "s"})
		}
	}
	ms = append(ms,
		layerMetric{"gpu.l1_hit_rate", "ratio"},
		layerMetric{"gpu.l2_hit_rate", "ratio"},
		layerMetric{"host.allocs_per_kcycle", "count"},
		layerMetric{"host.alloc_bytes_per_kcycle", "B"},
		layerMetric{"core.design_s", "s"},
		layerMetric{"sim.build_s", "s"},
		layerMetric{"sim.run_s", "s"},
		layerMetric{"sim.instr_per_s", "1/s"},
	)
	for _, s := range sim.AllSchemes() {
		ms = append(ms, layerMetric{"sim.run_s." + s.String(), "s"})
	}
	for _, s := range sim.AllSchemes() {
		ms = append(ms, layerMetric{"noc.ns_per_flit_hop." + s.String(), "ns"})
	}
	for _, n := range spanMetrics {
		ms = append(ms, layerMetric{n + ".p50", "ms"}, layerMetric{n + ".p99", "ms"})
	}
	ms = append(ms,
		layerMetric{"service.cold_job_p99_ms", "ms"},
		layerMetric{"service.warm_job_p50_ms", "ms"},
		layerMetric{"service.warm_job_p99_ms", "ms"},
		layerMetric{"store.hit_ratio", "ratio"},
		layerMetric{"fleet.units_retried", "count"},
		layerMetric{"fleet.leases_expired", "count"},
		layerMetric{"service.rejected", "count"},
		layerMetric{"fail_ratio", "ratio"},
		layerMetric{"trace.overhead_sim_cycles_pct", "%"},
		layerMetric{"trace.overhead_job_p50_pct", "%"},
	)
	return ms
}

// better says which direction of a per-layer metric is an improvement:
// rates, hit ratios and work completed rise; times, allocations, failures
// and retries fall.
func (m layerMetric) better() string {
	switch {
	case strings.HasSuffix(m.name, "hit_rate"), m.name == "store.hit_ratio", m.name == "sim.instr_per_s",
		m.name == "noc.flit_hops", m.name == "noc.packets_delivered", m.name == "noc.interposer_flits":
		return "higher"
	}
	return "lower"
}
