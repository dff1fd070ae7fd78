package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a reported high percentile: the highest percentile (at most
// p99) that leaves at least minBeyond samples above it, with the sample
// count it rests on.
type tail struct {
	Pct   float64 // percentile, e.g. 99
	Value float64
	N     int
	OK    bool // false when fewer than minBeyond+1 samples exist
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile applies the reporting rule: report p99 when at least ten
// samples lie beyond it, otherwise the highest percentile that still has
// ten beyond it. The value is the sample at that rank (nearest-rank), so
// exactly minBeyond or more samples are larger-ranked.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n <= minBeyond {
		return tail{N: n}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest rank for p99 is ceil(0.99 n); cap it so that n-rank ≥ minBeyond.
	rank := int(math.Ceil(0.99 * float64(n)))
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	pct := 100 * float64(rank) / float64(n)
	if pct > 99 {
		pct = 99
	}
	return tail{Pct: pct, Value: s[rank-1], N: n, OK: true}
}

// geomean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// cpuNow is the CPU time (user and system, every thread) the process has
// used. Unlike wall time it does not count time the host gave to other
// tenants, and it counts work the simulator spreads over several cores.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// processStart anchors wallNow.
var processStart = time.Now()

// wallNow is the wall-clock time since the process started.
func wallNow() time.Duration { return time.Since(processStart) }

// medianOf runs fn n times and returns the median duration in seconds, as
// read from clock (wallNow or cpuNow), and the last value fn produced.
func medianOf[T any](n int, clock func() time.Duration, fn func() (T, error)) (float64, T, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := clock()
		v, err := fn()
		if err != nil {
			return 0, last, err
		}
		secs = append(secs, (clock() - t0).Seconds())
		last = v
	}
	return median(secs), last, nil
}

// memDelta is the allocation done between two MemStats snapshots.
type memDelta struct{ Allocs, Bytes uint64 }

func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memNow()
	return memDelta{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

// splitmix is a small allocation-free PRNG (SplitMix64) for benchmark-side
// input generation.
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, salt uint64) splitmix {
	r := splitmix{uint64(seed)*0x9E3779B97F4A7C15 ^ salt}
	r.next()
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *splitmix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// provenance describes the host and code a record was measured on.
func provenance(rc runConfig, name string) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      name,
		"seed":          rc.Seed,
		"seconds":       rc.Seconds,
		"trace":         rc.Trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_revision":  rev,
		"source_sha256": sourceDigest(".."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (relative
// to the benchmark's directory, which is the working directory of a go
// test; the binary runs from the repository root, so it tries both). It
// identifies the code when the checkout carries no git metadata.
func sourceDigest(root string) string {
	for _, dir := range []string{".", root} {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "perfbench")); err != nil {
			continue
		}
		h := sha256.New()
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if n := d.Name(); p != dir && (strings.HasPrefix(n, ".") || n == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
				return nil
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			h.Write([]byte(filepath.ToSlash(p)))
			h.Write(b)
			return nil
		})
		if err != nil {
			return "unknown"
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	return "unknown"
}
