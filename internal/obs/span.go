package obs

import (
	"context"
	"sync"
	"time"
)

// Phase is the aggregated wall-time of one named pipeline phase. Spans of
// the same name accumulate: Count is the number of spans and NS their summed
// durations, so NS can exceed elapsed wall-clock when the evaluation pool
// runs several simulations at once.
type Phase struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	NS    int64   `json:"ns"`
	MS    float64 `json:"ms"` // NS in milliseconds, for human-readable JSON
	MinNS int64   `json:"minNs"`
	MaxNS int64   `json:"maxNs"`
}

// Recorder aggregates span durations by phase name. Safe for concurrent
// use: the evaluation harness records sim spans from its worker pool.
type Recorder struct {
	mu     sync.Mutex
	order  []string
	totals map[string]*Phase
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{totals: map[string]*Phase{}}
}

// Record adds one span's duration to a phase.
func (r *Recorder) Record(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.totals[name]
	if !ok {
		p = &Phase{Name: name}
		r.totals[name] = p
		r.order = append(r.order, name)
	}
	p.Count++
	ns := d.Nanoseconds()
	p.NS += ns
	p.MS = float64(p.NS) / 1e6
	if p.Count == 1 || ns < p.MinNS {
		p.MinNS = ns
	}
	if ns > p.MaxNS {
		p.MaxNS = ns
	}
}

// Phases snapshots the recorded phases in first-seen order.
func (r *Recorder) Phases() []Phase {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Phase, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, *r.totals[name])
	}
	return out
}

type recorderKey struct{}

// WithRecorder attaches a span recorder to the context; Span calls below it
// record into rec.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom returns the context's recorder, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}

// ActiveSpan is one in-flight phase timing, closed by End.
type ActiveSpan struct {
	name  string
	start time.Time
	rec   *Recorder
}

// Span starts timing a named pipeline phase. The span reports into the
// context's recorder; without one, End still returns the duration but
// records nowhere (cost: one time.Now each side).
func Span(ctx context.Context, name string) *ActiveSpan {
	return &ActiveSpan{name: name, start: time.Now(), rec: RecorderFrom(ctx)}
}

// End closes the span, records it, and returns its duration. Safe on a nil
// span.
func (s *ActiveSpan) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.rec.Record(s.name, d)
	return d
}
