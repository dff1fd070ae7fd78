package noc

import (
	"testing"

	"equinox/internal/flight"
	"equinox/internal/geom"
	"equinox/internal/telemetry"
)

// allocHarness keeps a warmed-up network saturated with recycled packets so
// the measured loop exercises injection, traversal, and ejection without any
// test-side allocation.
type allocHarness struct {
	n    *Network
	free []*Packet
}

// newAllocHarness pre-allocates packets for the given (src, dst) pairs.
// perPair controls offered load; packets are recycled on delivery.
func newAllocHarness(t *testing.T, n *Network, typ PacketType, pairs [][2]int, perPair int) *allocHarness {
	t.Helper()
	h := &allocHarness{n: n}
	id := int64(1)
	for _, pr := range pairs {
		for k := 0; k < perPair; k++ {
			h.free = append(h.free, &Packet{ID: id, Type: typ, Src: pr[0], Dst: pr[1]})
			id++
		}
	}
	// Reserve pop-side capacity so steady-state appends never grow the slice.
	h.free = append(make([]*Packet, 0, 2*len(h.free)), h.free...)
	return h
}

// tick is the measured unit: top up injection queues, advance one cycle,
// drain deliveries back onto the free list.
func (h *allocHarness) tick() {
	now := h.n.Now()
	for len(h.free) > 0 {
		p := h.free[len(h.free)-1]
		if !h.n.TryInject(p, now) {
			break
		}
		h.free = h.free[:len(h.free)-1]
	}
	h.n.Step()
	for node := 0; node < h.n.Cfg.Nodes(); node++ {
		for {
			p := h.n.PopDelivered(node)
			if p == nil {
				break
			}
			h.free = append(h.free, p)
		}
	}
}

// allocWindow is the number of cycles whose total allocations must be zero.
const allocWindow = 200

// checkSteadyStateAllocs warms the network up (filling the flit pool, scratch
// buffers, and worklists), then asserts the hot loop runs allocation-free.
// The count is the total over a whole window, not a per-cycle average:
// AllocsPerRun truncates its average to an integer, so timing single ticks
// would round anything under one allocation per cycle down to zero.
func checkSteadyStateAllocs(t *testing.T, h *allocHarness) {
	t.Helper()
	for i := 0; i < 3000; i++ {
		h.tick()
	}
	window := func() {
		for i := 0; i < allocWindow; i++ {
			h.tick()
		}
	}
	if total := testing.AllocsPerRun(1, window); total != 0 {
		t.Errorf("steady-state Step allocates %.0f objects per %d cycles, want 0", total, allocWindow)
	}
}

// TestStepDoesNotAllocate locks in the zero-allocation hot loop: a warmed-up
// network must step, route, and deliver recycled packets without producing
// any garbage, for both a SingleBase-style shared network and an EquiNox
// network with EIR injection. Both networks run with a Probe attached (at a
// sampling period that fires during the measured window), pinning that
// observability stays free in the steady state.
func TestStepDoesNotAllocate(t *testing.T) {
	t.Run("SingleBase", func(t *testing.T) {
		cfg := DefaultConfig("single", 8, 8)
		cfg.Routing = RoutingXY
		cfg.VCPolicy = VCByClass
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.AttachProbe(16)
		// Crossing request traffic between opposite corners plus a hotspot.
		pairs := [][2]int{{0, 63}, {63, 0}, {7, 56}, {56, 7}, {1, 27}, {62, 27}}
		h := newAllocHarness(t, n, ReadRequest, pairs, 6)
		checkSteadyStateAllocs(t, h)
	})

	t.Run("EquiNox", func(t *testing.T) {
		cfg := DefaultConfig("equinox", 8, 8)
		cb1, cb2 := geom.Pt(3, 3), geom.Pt(4, 4)
		cfg.CBs = []geom.Point{cb1, cb2}
		cfg.EIRGroups = map[geom.Point][]geom.Point{
			cb1: {geom.Pt(1, 3), geom.Pt(5, 3), geom.Pt(3, 1), geom.Pt(3, 5)},
			cb2: {geom.Pt(2, 4), geom.Pt(6, 4), geom.Pt(4, 2), geom.Pt(4, 6)},
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.AttachProbe(16)
		// Reply traffic fanning out from the CBs through their EIRs, the
		// pattern the EquiNox NI exists for.
		w := cfg.Width
		pairs := [][2]int{
			{cb1.ID(w), 0}, {cb1.ID(w), 7}, {cb1.ID(w), 56}, {cb1.ID(w), 63},
			{cb2.ID(w), 0}, {cb2.ID(w), 7}, {cb2.ID(w), 56}, {cb2.ID(w), 63},
		}
		h := newAllocHarness(t, n, ReadReply, pairs, 4)
		checkSteadyStateAllocs(t, h)
	})

	// MultiPort CB routers carry extra injection and ejection ports; their
	// NIs stream several packets at once through single-packet buffers.
	t.Run("MultiPort", func(t *testing.T) {
		n, h := newMultiPortHarness(t)
		n.AttachProbe(16)
		checkSteadyStateAllocs(t, h)
	})

	// The telemetry sampler's ring, sketch, and scratch are preallocated at
	// attach, so windowed time-series collection — occupancy samples every
	// 16 cycles and a window flush every 64, both inside the measured
	// window — must add zero steady-state allocations.
	t.Run("SingleBaseTelemetryAttached", func(t *testing.T) {
		cfg := DefaultConfig("single", 8, 8)
		cfg.Routing = RoutingXY
		cfg.VCPolicy = VCByClass
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.AttachProbe(16)
		n.AttachTelemetry(telemetry.Options{SampleEvery: 16, WindowCycles: 64, MaxWindows: 8})
		pairs := [][2]int{{0, 63}, {63, 0}, {7, 56}, {56, 7}, {1, 27}, {62, 27}}
		h := newAllocHarness(t, n, ReadRequest, pairs, 6)
		checkSteadyStateAllocs(t, h)
	})

	// The flight recorder's ring is preallocated, so attaching it must not
	// reintroduce steady-state garbage: lifecycle events are value copies
	// into the ring and the watchdog's common path is two compares.
	t.Run("SingleBaseFlightAttached", func(t *testing.T) {
		cfg := DefaultConfig("single", 8, 8)
		cfg.Routing = RoutingXY
		cfg.VCPolicy = VCByClass
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.AttachProbe(16)
		n.AttachFlight(flight.Options{BufferCap: 1 << 12})
		pairs := [][2]int{{0, 63}, {63, 0}, {7, 56}, {56, 7}, {1, 27}, {62, 27}}
		h := newAllocHarness(t, n, ReadRequest, pairs, 6)
		checkSteadyStateAllocs(t, h)
	})
}

// newMultiPortHarness builds an 8×8 MultiPort reply mesh (four injection and
// two ejection ports per CB) with reply traffic fanning out from its CBs.
func newMultiPortHarness(t *testing.T) (*Network, *allocHarness) {
	t.Helper()
	cfg := DefaultConfig("multiport", 8, 8)
	cb1, cb2 := geom.Pt(3, 3), geom.Pt(4, 4)
	cfg.CBs = []geom.Point{cb1, cb2}
	cfg.InjectPortsPerCB = 4
	cfg.EjectPortsPerCB = 2
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := cfg.Width
	pairs := [][2]int{
		{cb1.ID(w), 0}, {cb1.ID(w), 7}, {cb1.ID(w), 56}, {cb1.ID(w), 63},
		{cb2.ID(w), 0}, {cb2.ID(w), 7}, {cb2.ID(w), 56}, {cb2.ID(w), 63},
		{0, cb1.ID(w)}, {63, cb2.ID(w)},
	}
	return n, newAllocHarness(t, n, ReadReply, pairs, 4)
}

// TestQuiescentMatchesScan cross-checks the O(1) in-flight counter behind
// Quiescent against the full-network scan it replaced, at every cycle of a
// busy run including the drain to empty.
func TestQuiescentMatchesScan(t *testing.T) {
	n, err := New(DefaultConfig("t", 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 35}, {35, 0}, {5, 30}, {30, 5}, {14, 21}}
	h := newAllocHarness(t, n, ReadReply, pairs, 3)
	for i := 0; i < 400; i++ {
		h.tick()
		if got, want := n.Quiescent(), n.quiescentScan(); got != want {
			t.Fatalf("cycle %d: Quiescent()=%v but scan says %v", n.Now(), got, want)
		}
	}
	// Stop injecting and drain completely; the counter must reach zero
	// exactly when the scan does.
	for i := 0; i < 2000 && !n.Quiescent(); i++ {
		n.Step()
		for node := 0; node < n.Cfg.Nodes(); node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		if got, want := n.Quiescent(), n.quiescentScan(); got != want {
			t.Fatalf("drain cycle %d: Quiescent()=%v but scan says %v", n.Now(), got, want)
		}
	}
	if !n.Quiescent() {
		t.Fatal("network did not drain")
	}
}

// checkAllocMasks rebuilds every router's allocator masks from its buffers
// and compares them with the incrementally maintained ones, along with the
// mirrored head-flit ready cycle and the downstream owner tokens.
func checkAllocMasks(t *testing.T, n *Network) {
	t.Helper()
	for _, r := range n.Routers {
		var occ, allocd uint64
		for ix := range r.vcs {
			vb := &r.vcs[ix]
			if !vb.empty() {
				occ |= 1 << ix
				if vb.headAt != vb.q[0].enteredRouter {
					t.Fatalf("cycle %d router %v vc %d: headAt %d, head flit entered at %d",
						n.Now(), r.pos, ix, vb.headAt, vb.q[0].enteredRouter)
				}
			}
			if vb.outPort != noAlloc {
				allocd |= 1 << ix
				if op := r.out[vb.outPort]; !op.eject && op.owner[vb.outVC] != ix {
					t.Fatalf("cycle %d router %v vc %d: holds out %d/%d owned by %d",
						n.Now(), r.pos, ix, vb.outPort, vb.outVC, op.owner[vb.outVC])
				}
			}
		}
		if occ != r.occ || allocd != r.allocd {
			t.Fatalf("cycle %d router %v: masks occ=%b allocd=%b, buffers say occ=%b allocd=%b",
				n.Now(), r.pos, r.occ, r.allocd, occ, allocd)
		}
	}
}

// TestAllocMasksMatchScan cross-checks the occ/allocd request masks the
// allocators run on against a full scan of the VC buffers, after every cycle
// of a busy run and through the drain, on every port layout and VC policy
// the masks must cover.
func TestAllocMasksMatchScan(t *testing.T) {
	corners := [][2]int{{0, 63}, {63, 0}, {7, 56}, {56, 7}, {1, 27}, {62, 27}, {9, 54}, {54, 9}}
	eirNet := func() Config {
		cfg := DefaultConfig("equinox", 8, 8)
		cb1, cb2 := geom.Pt(3, 3), geom.Pt(4, 4)
		cfg.CBs = []geom.Point{cb1, cb2}
		cfg.EIRGroups = map[geom.Point][]geom.Point{
			cb1: {geom.Pt(1, 3), geom.Pt(5, 3), geom.Pt(3, 1), geom.Pt(3, 5)},
			cb2: {geom.Pt(2, 4), geom.Pt(6, 4), geom.Pt(4, 2), geom.Pt(4, 6)},
		}
		return cfg
	}
	fanOut := [][2]int{{27, 0}, {27, 7}, {27, 56}, {27, 63}, {36, 0}, {36, 7}, {36, 56}, {36, 63}}
	cases := []struct {
		name  string
		cfg   func() Config
		pairs [][2]int
		// typs are the packet types injected, each over every pair.
		typs []PacketType
	}{
		{"XYByClass", func() Config {
			cfg := DefaultConfig("t", 8, 8)
			cfg.Routing, cfg.VCPolicy = RoutingXY, VCByClass
			return cfg
		}, corners, []PacketType{ReadRequest, ReadReply}},
		{"Monopolize", func() Config {
			cfg := DefaultConfig("t", 8, 8)
			cfg.Routing, cfg.VCPolicy = RoutingXY, VCMonopolize
			return cfg
		}, corners, []PacketType{ReadRequest, ReadReply}},
		{"WestFirstPrivate", func() Config { return DefaultConfig("t", 8, 8) }, corners, []PacketType{ReadReply}},
		{"MultiPort", func() Config {
			cfg := DefaultConfig("multiport", 8, 8)
			cfg.CBs = []geom.Point{geom.Pt(3, 3), geom.Pt(4, 4)}
			cfg.InjectPortsPerCB, cfg.EjectPortsPerCB = 4, 2
			return cfg
		}, fanOut, []PacketType{ReadReply}},
		{"EIR", eirNet, fanOut, []PacketType{ReadReply}},
		{"Spokes", func() Config {
			cfg := DefaultConfig("t", 8, 8)
			cfg.SpokesPerNode = 3
			return cfg
		}, corners, []PacketType{ReadReply}},
		{"FourVCs", func() Config {
			cfg := DefaultConfig("t", 8, 8)
			cfg.VCsPerPort = 4
			return cfg
		}, corners, []PacketType{ReadReply}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			h := newAllocHarness(t, n, tc.typs[0], tc.pairs, 4)
			for _, typ := range tc.typs[1:] {
				h.free = append(h.free, newAllocHarness(t, n, typ, tc.pairs, 4).free...)
			}
			for i, p := range h.free {
				p.ID = int64(i + 1)
				p.Spoke = i // reduced modulo the spoke count at injection
			}
			for i := 0; i < 600; i++ {
				h.tick()
				checkAllocMasks(t, n)
			}
			if n.Stats.FlitHops < 2000 {
				t.Fatalf("only %d flit hops; the run is not busy", n.Stats.FlitHops)
			}
			for i := 0; i < 5000 && !n.Quiescent(); i++ {
				n.Step()
				for node := 0; node < n.Cfg.Nodes(); node++ {
					for n.PopDelivered(node) != nil {
					}
				}
				checkAllocMasks(t, n)
			}
			if !n.Quiescent() {
				t.Fatal("network did not drain")
			}
			for _, r := range n.Routers {
				if r.occ != 0 || r.allocd != 0 {
					t.Fatalf("router %v: masks occ=%b allocd=%b after drain", r.pos, r.occ, r.allocd)
				}
			}
		})
	}
}
