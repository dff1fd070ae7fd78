package hbm

import (
	"math/rand"
	"testing"
)

// scanController is the whole-queue FR-FCFS scheduler the per-channel
// queues replaced, kept as a reference: every cycle each channel walks the
// entire queue in arrival order and decodes every request's address.
type scanController struct {
	dec   *Controller // address decode only
	cfg   Config
	queue []*Request
	chans []channel

	RowHits, RowMisses, BusyCycles, Refreshes int64
}

func newScanController(cfg Config) *scanController {
	dec, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	s := &scanController{dec: dec, cfg: cfg, chans: make([]channel, cfg.Channels)}
	for i := range s.chans {
		s.chans[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range s.chans[i].banks {
			s.chans[i].banks[b].openRow = -1
		}
		if cfg.TREFI > 0 {
			s.chans[i].nextRefresh = int64((i + 1) * cfg.TREFI / cfg.Channels)
		}
	}
	return s
}

func (s *scanController) QueueSpace() int { return s.cfg.QueueDepth - len(s.queue) }

func (s *scanController) Enqueue(r *Request, now int64) bool {
	if len(s.queue) >= s.cfg.QueueDepth {
		return false
	}
	r.arrived = now
	s.queue = append(s.queue, r)
	return true
}

func (s *scanController) Step(now int64) []*Request {
	for chIx := range s.chans {
		ch := &s.chans[chIx]
		if s.cfg.TREFI > 0 && now >= ch.nextRefresh {
			ch.nextRefresh = now + int64(s.cfg.TREFI)
			s.Refreshes++
			till := now + int64(s.cfg.TRFC)
			for b := range ch.banks {
				if ch.banks[b].busyTill < till {
					ch.banks[b].busyTill = till
				}
				ch.banks[b].openRow = -1
			}
		}
		bestIdx := -1
		bestHit := false
		for i, r := range s.queue {
			if r.scheduled {
				continue
			}
			rch, rbk, rrow := s.dec.mapAddr(r.Addr)
			if rch != chIx {
				continue
			}
			b := &ch.banks[rbk]
			if b.busyTill > now {
				continue
			}
			hit := b.openRow == rrow
			if bestIdx == -1 || (hit && !bestHit) {
				bestIdx = i
				bestHit = hit
				if hit {
					break
				}
			}
		}
		if bestIdx == -1 {
			continue
		}
		r := s.queue[bestIdx]
		_, rbk, rrow := s.dec.mapAddr(r.Addr)
		b := &ch.banks[rbk]
		lat := int64(s.cfg.TCAS)
		if b.openRow != rrow {
			if b.openRow >= 0 {
				lat += int64(s.cfg.TRP)
			}
			lat += int64(s.cfg.TRCD)
			b.openRow = rrow
			s.RowMisses++
		} else {
			s.RowHits++
		}
		burst := int64(s.cfg.TBurst)
		dataStart := now + lat
		if ch.busTill > dataStart {
			dataStart = ch.busTill
		}
		r.doneAt = dataStart + burst
		ch.busTill = r.doneAt
		b.busyTill = r.doneAt
		r.scheduled = true
		s.BusyCycles += burst
	}
	var done []*Request
	w := 0
	for _, r := range s.queue {
		if r.scheduled && r.doneAt <= now {
			done = append(done, r)
		} else {
			s.queue[w] = r
			w++
		}
	}
	s.queue = s.queue[:w]
	return done
}

// addrOf builds a line address from its (channel, bank, row, column)
// coordinates, inverting mapAddr.
func addrOf(cfg Config, ch, bk int, row int64, col int) uint64 {
	rowLines := int64(cfg.RowBytes / cfg.LineBytes)
	line := ((row*rowLines+int64(col))*int64(cfg.BanksPerChannel)+int64(bk))*int64(cfg.Channels) + int64(ch)
	return uint64(line) * uint64(cfg.LineBytes)
}

// TestChannelQueuesMatchScan drives the per-channel controller and the
// whole-queue reference with the same seeded traffic — reads and writes to
// every channel and bank, row hits and misses, bursts that fill the queue,
// refresh, and cycles the caller skips (as gpu.CB does while its reply
// buffer is full) — and requires identical completions every cycle.
func TestChannelQueuesMatchScan(t *testing.T) {
	small := DefaultConfig()
	small.Channels, small.BanksPerChannel, small.QueueDepth = 4, 4, 16
	small.TREFI, small.TRFC = 500, 50
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"Default", DefaultConfig()}, {"Small", small}} {
		for _, seed := range []int64{1, 2, 3} {
			cfg := tc.cfg
			rng := rand.New(rand.NewSource(seed))
			got, err := NewController(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := newScanController(cfg)
			rowLines := cfg.RowBytes / cfg.LineBytes
			var refused, served, skipped int
			id := 0
			for now := int64(0); now < 30000; now++ {
				// Alternate light phases with bursts that overrun the queue.
				rate := 1
				if now/2000%2 == 1 {
					rate = 4
				}
				for k := rng.Intn(rate + 1); k > 0; k-- {
					addr := addrOf(cfg, rng.Intn(cfg.Channels), rng.Intn(cfg.BanksPerChannel),
						int64(rng.Intn(3)), rng.Intn(rowLines))
					write := rng.Intn(4) == 0
					a := &Request{Addr: addr, Write: write, Payload: id}
					b := &Request{Addr: addr, Write: write, Payload: id}
					id++
					okA, okB := got.Enqueue(a, now), want.Enqueue(b, now)
					if okA != okB {
						t.Fatalf("%s seed %d cycle %d: Enqueue = %v, reference %v", tc.name, seed, now, okA, okB)
					}
					if !okA {
						refused++
					}
				}
				if got.QueueSpace() != want.QueueSpace() {
					t.Fatalf("%s seed %d cycle %d: QueueSpace %d, reference %d", tc.name, seed, now, got.QueueSpace(), want.QueueSpace())
				}
				if rng.Intn(8) == 0 {
					skipped++
					continue
				}
				gd, wd := got.Step(now), want.Step(now)
				if len(gd) != len(wd) {
					t.Fatalf("%s seed %d cycle %d: %d completions, reference %d", tc.name, seed, now, len(gd), len(wd))
				}
				for i := range gd {
					if gd[i].Payload != wd[i].Payload || gd[i].DoneAt() != wd[i].DoneAt() {
						t.Fatalf("%s seed %d cycle %d: completion %d = req %v done %d, reference req %v done %d",
							tc.name, seed, now, i, gd[i].Payload, gd[i].DoneAt(), wd[i].Payload, wd[i].DoneAt())
					}
				}
				served += len(gd)
			}
			if got.RowHits != want.RowHits || got.RowMisses != want.RowMisses ||
				got.Refreshes != want.Refreshes || got.BusyCycles != want.BusyCycles {
				t.Errorf("%s seed %d: hits/misses/refreshes/busy = %d/%d/%d/%d, reference %d/%d/%d/%d", tc.name, seed,
					got.RowHits, got.RowMisses, got.Refreshes, got.BusyCycles,
					want.RowHits, want.RowMisses, want.Refreshes, want.BusyCycles)
			}
			// The traffic must exercise every path the comparison guards.
			if refused == 0 || skipped == 0 || served == 0 || got.RowHits == 0 || got.RowMisses == 0 || got.Refreshes == 0 {
				t.Errorf("%s seed %d: weak coverage: refused=%d skipped=%d served=%d hits=%d misses=%d refreshes=%d",
					tc.name, seed, refused, skipped, served, got.RowHits, got.RowMisses, got.Refreshes)
			}
		}
	}
}

// TestControllerStepDoesNotAllocate pins the zero-allocation steady state of
// a warmed controller: per-channel queues and the completion buffer are
// reused, so enqueueing and retiring recycled requests produces no garbage.
func TestControllerStepDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	free := make([]*Request, 2*cfg.QueueDepth)
	for i := range free {
		free[i] = &Request{}
	}
	rowLines := cfg.RowBytes / cfg.LineBytes
	x := uint32(1)
	now := int64(0)
	tick := func() {
		// Two arrivals per cycle from a xorshift stream oversubscribe the
		// stack, keeping the queue near full depth.
		for k := 0; k < 2 && len(free) > 0; k++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			r := free[len(free)-1]
			*r = Request{Addr: addrOf(cfg, int(x%uint32(cfg.Channels)), int((x>>8)%uint32(cfg.BanksPerChannel)),
				int64((x>>16)%2), int((x>>20)%uint32(rowLines)))}
			if !c.Enqueue(r, now) {
				break
			}
			free = free[:len(free)-1]
		}
		free = append(free, c.Step(now)...)
		now++
	}
	for i := 0; i < 3000; i++ {
		tick()
	}
	const window = 200
	if total := testing.AllocsPerRun(1, func() {
		for i := 0; i < window; i++ {
			tick()
		}
	}); total != 0 {
		t.Errorf("steady-state Step allocates %.0f objects per %d cycles, want 0", total, window)
	}
	if c.Served == 0 {
		t.Fatal("no request completed")
	}
}
