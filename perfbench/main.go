// Command perfbench is the repository benchmark: it runs one workload for a
// fixed time, checks the simulated outputs, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line of
// standard output. See README.md for the workloads and the metric map.
//
//	go build -o perfbench . && ./perfbench --workload fullsys-paper --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultSeed is the seed whose model outputs are committed under expected/.
const defaultSeed = 1

//go:embed expected/*.json
var expectedFS embed.FS

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, with their units (BENCHMARK.json carries the same names).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
}

// outcome is a workload's result: operation counts, check failures, the
// metrics, and the model outputs that are compared against expected/.
type outcome struct {
	Attempted int
	Failed    int
	Problems  []string
	E2E       map[string]float64
	Layers    map[string]float64
	Outputs   any
	Notes     []string
}

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var benchWorkloads = []workload{
	{"fullsys-paper", func(rc runConfig) (*outcome, error) { return runFullsys(rc, paperFullsys()) }},
	{"noc-reply-f2m", func(rc runConfig) (*outcome, error) { return runNoc(rc, paperNoc()) }},
	{"service-fleet", func(rc runConfig) (*outcome, error) { return runService(rc, paperService()) }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fullsys-paper, noc-reply-f2m or service-fleet")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	updateExpected := fs.Bool("update-expected", false, "rewrite expected/<workload>.json from this run (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (fullsys-paper|noc-reply-f2m|service-fleet), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	rc := runConfig{Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1}

	prov := provenance(rc, w.name)
	fmt.Fprintf(stdout, "# provenance %s\n", mustJSON(prov))
	out, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	checkOutputs(w.name, rc.Seed, out, *updateExpected)
	for _, n := range out.Notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, p := range out.Problems {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", p)
	}
	line, err := resultLine(out, rc.Trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// resultLine renders the final JSON object. Check failures count as failed
// operations, so correct is false whenever anything failed.
func resultLine(out *outcome, trace bool) ([]byte, error) {
	metrics := map[string]metric{}
	if trace {
		for _, m := range perLayer() {
			v, ok := out.Layers[m.name]
			if !ok {
				v = 0 // the workload bypasses this layer
			}
			metrics[m.name] = metric{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := out.E2E[m.name]
			if !ok {
				return nil, fmt.Errorf("workload did not report %s", m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
	}
	failed := out.Failed + len(out.Problems)
	attempted := out.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
}

// checkOutputs compares the model outputs with the committed expectation
// for the default seed and prints a digest for any seed, so two commits can
// be compared exactly.
func checkOutputs(name string, seed int64, out *outcome, update bool) {
	got, err := json.MarshalIndent(out.Outputs, "", "  ")
	if err != nil {
		out.problem("encoding outputs: %v", err)
		return
	}
	got = append(got, '\n')
	sum := sha256.Sum256(got)
	out.note("outputs digest (seed %d): sha256:%s", seed, hex.EncodeToString(sum[:]))
	if seed != defaultSeed {
		return
	}
	path := "expected/" + name + ".json"
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			out.problem("writing %s: %v", path, err)
		}
		return
	}
	want, err := expectedFS.ReadFile(path)
	if err != nil {
		out.problem("no committed expectation %s", path)
		return
	}
	if !bytes.Equal(got, want) {
		out.problem("model outputs differ from %s: %s", path, firstDiff(want, got))
		return
	}
	out.note("model outputs match %s", path)
}

// firstDiff names the first line where two renderings differ.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, strings.TrimSpace(w), strings.TrimSpace(g))
		}
	}
	return "no line differs"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
