// Package hbm models a High Bandwidth Memory stack behind each memory
// controller: multiple channels per stack, banks per channel, open-row bank
// timing, and FR-FCFS (first-ready, first-come-first-served) scheduling —
// the role Ramulator plays in the paper's simulation environment (§5).
//
// Timing runs in the core clock domain (the HBM bus clock and the paper's
// 1126 MHz core clock are within ~12%, folded into the timing constants).
// The per-stack peak bandwidth considerably exceeds what a single NoC
// injection port can drain — the imbalance that motivates EquiNox.
package hbm

import (
	"fmt"
	"math"
)

// Config describes one HBM stack and its controller.
type Config struct {
	Channels        int // 16 per chip in the paper's setup
	BanksPerChannel int
	QueueDepth      int // controller request queue capacity

	// Bank timing in core cycles.
	TRCD   int // activate → column access
	TCAS   int // column access → first data
	TRP    int // precharge
	TBurst int // data-bus occupancy per 128B access

	// Refresh: every TREFI cycles each channel performs an all-bank refresh
	// that occupies its banks for TRFC cycles. Zero TREFI disables refresh.
	TREFI int
	TRFC  int

	RowBytes  int // row buffer size
	LineBytes int // access granularity (cache line)
}

// DefaultConfig returns timing for one second-generation HBM stack
// (256 GB/s per stack, Table 1) at core clock.
func DefaultConfig() Config {
	return Config{
		Channels:        16,
		BanksPerChannel: 16,
		QueueDepth:      64,
		TRCD:            16,
		TCAS:            16,
		TRP:             16,
		TBurst:          9,    // 16 ch × 128 B / 9 cyc ≈ 227 B/cycle ≈ 256 GB/s @1.126 GHz
		TREFI:           4400, // ≈3.9 µs at 1.126 GHz
		TRFC:            200,  // ≈180 ns all-bank refresh
		RowBytes:        2048,
		LineBytes:       128,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Channels < 1 || c.BanksPerChannel < 1 {
		return fmt.Errorf("hbm: need ≥1 channel and bank")
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("hbm: queue depth must be ≥1")
	}
	if c.TRCD < 0 || c.TCAS < 0 || c.TRP < 0 || c.TBurst < 1 {
		return fmt.Errorf("hbm: invalid timing")
	}
	if c.TREFI < 0 || c.TRFC < 0 || (c.TREFI > 0 && c.TRFC >= c.TREFI) {
		return fmt.Errorf("hbm: invalid refresh timing")
	}
	if c.RowBytes < c.LineBytes || c.LineBytes < 1 {
		return fmt.Errorf("hbm: invalid row/line bytes")
	}
	return nil
}

// Request is one memory access.
type Request struct {
	Addr    uint64
	Write   bool
	Payload any // opaque caller context

	arrived   int64
	doneAt    int64
	scheduled bool

	// Bank and row, decoded once at Enqueue.
	bank int
	row  int64
}

// Arrived returns the cycle the request entered the controller.
func (r *Request) Arrived() int64 { return r.arrived }

// DoneAt returns the completion cycle (valid after completion).
func (r *Request) DoneAt() int64 { return r.doneAt }

type bank struct {
	openRow  int64 // -1 = closed
	busyTill int64
}

type channel struct {
	banks       []bank
	busTill     int64 // data bus occupancy
	nextRefresh int64
	pending     []*Request // this channel's unscheduled requests, arrival order
}

// Controller is one FR-FCFS memory controller fronting one HBM stack.
type Controller struct {
	cfg   Config
	queue []*Request // every incomplete request, arrival order
	chans []channel

	// nextDone is the earliest doneAt among scheduled requests still in the
	// queue (math.MaxInt64 when none), so Step skips the retire scan until
	// a completion is due.
	nextDone int64
	// done is the completion buffer Step returns, reused across calls.
	done []*Request

	// Stats.
	Served     int64
	RowHits    int64
	RowMisses  int64
	BusyCycles int64
	TotalWait  int64
	Refreshes  int64
}

// NewController builds a controller.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every queue is sized for a full controller up front, so the steady
	// state never grows one.
	c := &Controller{
		cfg:      cfg,
		queue:    make([]*Request, 0, cfg.QueueDepth),
		done:     make([]*Request, 0, cfg.QueueDepth),
		nextDone: math.MaxInt64,
	}
	c.chans = make([]channel, cfg.Channels)
	for i := range c.chans {
		c.chans[i].pending = make([]*Request, 0, cfg.QueueDepth)
		c.chans[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range c.chans[i].banks {
			c.chans[i].banks[b].openRow = -1
		}
		// Stagger refreshes across channels so they don't align.
		if cfg.TREFI > 0 {
			c.chans[i].nextRefresh = int64((i + 1) * cfg.TREFI / cfg.Channels)
		}
	}
	return c, nil
}

// QueueSpace returns remaining request slots.
func (c *Controller) QueueSpace() int { return c.cfg.QueueDepth - len(c.queue) }

// Enqueue adds a request; false when the queue is full.
func (c *Controller) Enqueue(r *Request, now int64) bool {
	if len(c.queue) >= c.cfg.QueueDepth {
		return false
	}
	r.arrived = now
	var ch int
	ch, r.bank, r.row = c.mapAddr(r.Addr)
	c.queue = append(c.queue, r)
	c.chans[ch].pending = append(c.chans[ch].pending, r)
	return true
}

// Pending returns the number of queued (incomplete) requests.
func (c *Controller) Pending() int { return len(c.queue) }

// mapAddr splits an address into channel, bank, and row.
func (c *Controller) mapAddr(addr uint64) (ch, bk int, row int64) {
	line := addr / uint64(c.cfg.LineBytes)
	ch = int(line % uint64(c.cfg.Channels))
	line /= uint64(c.cfg.Channels)
	bk = int(line % uint64(c.cfg.BanksPerChannel))
	line /= uint64(c.cfg.BanksPerChannel)
	rowLines := uint64(c.cfg.RowBytes / c.cfg.LineBytes)
	row = int64(line / rowLines)
	return
}

// Step advances one cycle and returns the requests completing this cycle.
// Scheduling is FR-FCFS: among schedulable requests, row hits first, then
// arrival order. The returned slice is reused by the controller and is valid
// only until the next Step.
func (c *Controller) Step(now int64) []*Request {
	// Issue: pick the best schedulable request per channel this cycle.
	for chIx := range c.chans {
		ch := &c.chans[chIx]
		// All-bank refresh: closes every row and blocks the channel's banks
		// for TRFC cycles.
		if c.cfg.TREFI > 0 && now >= ch.nextRefresh {
			ch.nextRefresh = now + int64(c.cfg.TREFI)
			c.Refreshes++
			till := now + int64(c.cfg.TRFC)
			for b := range ch.banks {
				if ch.banks[b].busyTill < till {
					ch.banks[b].busyTill = till
				}
				ch.banks[b].openRow = -1
			}
		}
		bestIdx := -1
		for i, r := range ch.pending {
			b := &ch.banks[r.bank]
			// Issue needs a free bank; the data burst may queue behind the
			// channel bus (bank-level parallelism hides access latency).
			if b.busyTill > now {
				continue
			}
			if b.openRow == r.row {
				bestIdx = i
				break // FR: first ready row hit in arrival order wins
			}
			if bestIdx == -1 {
				bestIdx = i // FCFS: oldest ready request if no row hit
			}
		}
		if bestIdx == -1 {
			continue
		}
		r := ch.pending[bestIdx]
		copy(ch.pending[bestIdx:], ch.pending[bestIdx+1:])
		ch.pending = ch.pending[:len(ch.pending)-1]
		b := &ch.banks[r.bank]
		lat := int64(c.cfg.TCAS)
		if b.openRow != r.row {
			if b.openRow >= 0 {
				lat += int64(c.cfg.TRP)
			}
			lat += int64(c.cfg.TRCD)
			b.openRow = r.row
			c.RowMisses++
		} else {
			c.RowHits++
		}
		burst := int64(c.cfg.TBurst)
		// Bank access latency overlaps with other banks' transfers; only the
		// data burst occupies the channel bus.
		dataStart := now + lat
		if ch.busTill > dataStart {
			dataStart = ch.busTill
		}
		r.doneAt = dataStart + burst
		ch.busTill = r.doneAt
		b.busyTill = r.doneAt
		r.scheduled = true
		c.BusyCycles += burst
		if r.doneAt < c.nextDone {
			c.nextDone = r.doneAt
		}
	}

	// Retire completed requests in queue order. The caller may skip cycles,
	// so several completions can be due at once.
	done := c.done[:0]
	if c.nextDone <= now {
		next := int64(math.MaxInt64)
		w := 0
		for _, r := range c.queue {
			if r.scheduled && r.doneAt <= now {
				done = append(done, r)
				c.Served++
				c.TotalWait += r.doneAt - r.arrived
				continue
			}
			if r.scheduled && r.doneAt < next {
				next = r.doneAt
			}
			c.queue[w] = r
			w++
		}
		c.queue = c.queue[:w]
		c.nextDone = next
	}
	c.done = done
	return done
}

// AvgLatency returns the mean enqueue-to-data latency in cycles.
func (c *Controller) AvgLatency() float64 {
	if c.Served == 0 {
		return 0
	}
	return float64(c.TotalWait) / float64(c.Served)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (c *Controller) RowHitRate() float64 {
	t := c.RowHits + c.RowMisses
	if t == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(t)
}

// PeakBytesPerCycle returns the stack's theoretical peak data rate, used by
// documentation and the bandwidth-pressure tests.
func (c Config) PeakBytesPerCycle() float64 {
	return float64(c.Channels) * float64(c.LineBytes) / float64(c.TBurst)
}
