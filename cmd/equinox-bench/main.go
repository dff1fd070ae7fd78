// Command equinox-bench measures simulator throughput per scheme and writes
// a machine-readable benchmark record (BENCH_<date>.json) for regression
// tracking: cycles/sec, ns/op, bytes/op, and allocs/op for each of the seven
// schemes on a fixed workload. `make bench` wraps it; CI uploads the file as
// an artifact so throughput changes are visible per commit.
//
// With -compare it instead pits two existing records against each other:
//
//	equinox-bench -compare old.json new.json [-threshold 0.95]
//
// exits nonzero when any scheme's cycles/sec in new.json fell below
// threshold × its old.json value, making it a CI regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"equinox/internal/mcts"
	"equinox/internal/placement"
	"equinox/internal/sim"
	"equinox/internal/telemetry"
	"equinox/internal/workloads"
)

type schemeResult struct {
	Scheme       string  `json:"scheme"`
	NsPerOp      int64   `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	SimCycles    int64   `json:"sim_cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

type report struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	// CPUs records the measuring machine's core count.
	CPUs              int    `json:"cpus,omitempty"`
	Workload          string `json:"workload"`
	InstructionsPerPE int    `json:"instructions_per_pe"`
	ProbeEvery        int64  `json:"probe_every,omitempty"`
	// Telemetry marks records that include "<scheme>+telemetry" sub-records
	// measured with the windowed time-series attached.
	Telemetry bool           `json:"telemetry,omitempty"`
	Schemes   []schemeResult `json:"schemes"`
	// Baseline optionally embeds a previous report's scheme results for
	// side-by-side before/after records (see -baseline).
	Baseline []schemeResult `json:"baseline,omitempty"`
}

func main() {
	out := flag.String("out", fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02")),
		"output JSON path")
	workload := flag.String("workload", "hotspot", "workload profile to simulate")
	instr := flag.Int("instructions", 300, "instructions per PE")
	baseline := flag.String("baseline", "", "previous BENCH_*.json to embed for comparison")
	probeEvery := flag.Int64("probe-every", 0,
		"attach occupancy probes sampling every N cycles (0 = no probes), to measure their overhead")
	withTelemetry := flag.Bool("telemetry", false,
		"also measure each scheme with windowed telemetry attached, recorded as \"<scheme>+telemetry\" sub-records, to measure its overhead")
	compare := flag.String("compare", "",
		"baseline BENCH_*.json: compare it against the new record given as the next argument and exit nonzero on regression")
	flag.Parse()

	if *compare != "" {
		runCompare(*compare, flag.Args())
		return
	}

	prof, err := workloads.ByName(*workload)
	if err != nil {
		fatal(err)
	}

	rep := report{
		Date:              time.Now().Format(time.RFC3339),
		GoVersion:         runtime.Version(),
		CPUs:              runtime.NumCPU(),
		Workload:          *workload,
		InstructionsPerPE: *instr,
		ProbeEvery:        *probeEvery,
		Telemetry:         *withTelemetry,
	}
	for _, scheme := range sim.AllSchemes() {
		cfg := sim.DefaultConfig(scheme)
		cfg.InstructionsPerPE = *instr
		if scheme == sim.EquiNox {
			pl, err := placement.New(placement.NQueen, cfg.Width, cfg.Height, cfg.NumCBs)
			if err != nil {
				fatal(err)
			}
			prob := mcts.NewProblem(cfg.Width, cfg.Height, pl.CBs)
			res, err := mcts.GreedyTwoHop(prob)
			if err != nil {
				fatal(err)
			}
			cfg.CBOverride = pl.CBs
			cfg.EIRGroups = prob.Groups(res.Assignment)
		}

		sr := measure(scheme.String(), cfg, prof, *probeEvery, false)
		rep.Schemes = append(rep.Schemes, sr)
		fmt.Printf("%-18s %12d ns/op %10.0f cycles/sec %8d allocs/op\n",
			sr.Scheme, sr.NsPerOp, sr.CyclesPerSec, sr.AllocsPerOp)

		if *withTelemetry {
			tr := measure(scheme.String()+"+telemetry", cfg, prof, *probeEvery, true)
			rep.Schemes = append(rep.Schemes, tr)
			ratio := 0.0
			if sr.CyclesPerSec > 0 {
				ratio = tr.CyclesPerSec / sr.CyclesPerSec
			}
			fmt.Printf("%-18s %12d ns/op %10.0f cycles/sec %8d allocs/op  %.2fx vs plain\n",
				tr.Scheme, tr.NsPerOp, tr.CyclesPerSec, tr.AllocsPerOp, ratio)
		}
	}

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var prev report
		if err := json.Unmarshal(raw, &prev); err != nil {
			fatal(fmt.Errorf("parse baseline %s: %w", *baseline, err))
		}
		rep.Baseline = prev.Schemes
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// measure benchmarks one configuration and returns its scheme record.
func measure(name string, cfg sim.Config, prof workloads.Profile, probeEvery int64, withTelemetry bool) schemeResult {
	var cycles int64
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var total int64
		for i := 0; i < b.N; i++ {
			sys, err := sim.NewSystem(cfg, prof)
			if err != nil {
				b.Fatal(err)
			}
			if probeEvery > 0 {
				sys.AttachProbes(probeEvery)
			}
			if withTelemetry {
				sys.AttachTelemetry(telemetry.Options{})
			}
			res, err := sys.RunToCompletion()
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.ExecCycles
			total += res.ExecCycles
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(total)/s, "cycles/sec")
		}
	})
	return schemeResult{
		Scheme:       name,
		NsPerOp:      br.NsPerOp(),
		BytesPerOp:   br.AllocedBytesPerOp(),
		AllocsPerOp:  br.AllocsPerOp(),
		SimCycles:    cycles,
		CyclesPerSec: br.Extra["cycles/sec"],
	}
}

// runCompare implements `-compare old.json new.json [-threshold 0.95]`. The
// standard flag package stops at the first positional argument, so the new
// report path and any trailing -threshold arrive via flag.Args() and get a
// second parse here.
func runCompare(oldPath string, rest []string) {
	if len(rest) < 1 {
		fatal(fmt.Errorf("usage: equinox-bench -compare old.json new.json [-threshold 0.95]"))
	}
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.95,
		"minimum new/old cycles-per-sec ratio per scheme before failing")
	if err := fs.Parse(rest[1:]); err != nil {
		fatal(err)
	}
	base, err := loadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	next, err := loadReport(rest[0])
	if err != nil {
		fatal(err)
	}
	summary, ok := compareReports(base, next, *threshold)
	fmt.Print(summary)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "equinox-bench:", err)
	os.Exit(1)
}
