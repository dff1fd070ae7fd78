package noc

import (
	"math/bits"

	"equinox/internal/flight"
	"equinox/internal/geom"
)

// PortID indexes a router's input or output ports. On mesh routers ports
// 0..4 follow geom.Direction order (Local, East, West, South, North); extra
// injection/ejection ports (EIR, MultiPort) follow.
type PortID int

// Base port indices.
const (
	PortLocal PortID = PortID(geom.Local)
	PortEast  PortID = PortID(geom.East)
	PortWest  PortID = PortID(geom.West)
	PortSouth PortID = PortID(geom.South)
	PortNorth PortID = PortID(geom.North)
)

const noAlloc = -1

// maxMaskBits is the width of a router's allocation masks: every input VC
// of a router owns one bit, so a router may hold at most this many.
const maxMaskBits = 64

// vcBuf is one virtual-channel buffer of an input port.
type vcBuf struct {
	q []*Flit // preallocated to cap, which bounds it (credits and NI checks)
	// headAt is the cycle the head flit entered the router, mirrored from
	// q[0].enteredRouter so the one-cycle pipeline check stays in the buffer.
	headAt int64
	cap    int

	// Allocation state for the packet at the head of the buffer.
	outPort int // allocated output port, noAlloc if none
	outVC   int // allocated downstream VC, noAlloc if none
}

func (b *vcBuf) free() int   { return b.cap - len(b.q) }
func (b *vcBuf) empty() bool { return len(b.q) == 0 }

// inputPort is one input port with its VC buffers and the upstream entity
// that receives our credits.
type inputPort struct {
	// vcs views this port's stretch of the router's contiguous buffer array.
	vcs []vcBuf

	// Credit return path: either an upstream router output port or an NI.
	upRouter *Router
	upPort   int
	upNI     creditSink
	rrVC     int // round-robin pointer for switch allocation
}

// creditSink receives credits for NI-fed input ports.
type creditSink interface {
	credit(vc int)
}

// outputPort is one output port: a link to a downstream router input port,
// or an ejection port delivering to the local node. A link is a one-cycle
// register: a flit that traverses it in phase 4 lands in phase 1 of the
// next cycle (see Network.arrivals).
type outputPort struct {
	to     *Router // downstream router; nil for ejection ports
	toPort int     // downstream input port

	// Downstream VC bookkeeping (links only).
	credits []int // free downstream buffer slots per VC
	owner   []int // owning input VC (its mask index) per downstream VC, noAlloc if free

	eject bool
	rrIn  int // round-robin pointer for output arbitration
}

// Router is one input-buffered VC router.
type Router struct {
	id   int
	pos  geom.Point
	net  *Network
	in   []*inputPort
	out  []*outputPort
	node int // node (tile) ID this router serves; -1 for pure transit routers

	// vcs holds every input VC buffer, port-major: input port i's VC v is
	// vcs[i*stride+v], and the same index is its bit in the masks below.
	vcs    []vcBuf
	stride int // VCs per input port

	// Allocation request masks, one bit per input VC (see vcs). occ marks a
	// non-empty buffer; allocd marks a buffer whose packet holds an output.
	// The allocators visit only set bits instead of scanning every VC.
	// Invariants: occ bit ⇔ len(q) > 0, allocd bit ⇔ outPort != noAlloc.
	occ    uint64
	allocd uint64

	// dirOut maps geometric directions to output port IDs (noAlloc if the
	// router has no neighbour in that direction).
	dirOut [geom.NumDirections]int

	// Occupancy counter for the network's active-set scheduler: the router
	// only takes allocator work while it is non-zero.
	inFlits int  // flits buffered in this router's input VCs
	queued  bool // on the network's active worklist

	// Per-router scratch reused across cycles so the steady-state hot path
	// (routeCandidates, vcAllocate, switchAllocate) performs no heap
	// allocations. Each buffer is valid only within a single phase call.
	candBuf  []routeCand
	vcOrdBuf []int
	dirBuf   []geom.Direction
	saNom    []int32  // per input port: the VC index it nominated
	saOut    []uint64 // per output port: mask of requesting input ports

	// Stats: cumulative flit-cycles spent in this router and flits passed,
	// for the Figure 4 heat maps.
	occupancyCycles int64
	flitsThrough    int64
}

// markActive puts the router on its network's active worklist; cheap and
// idempotent, called whenever a flit lands in one of its input buffers.
func (r *Router) markActive() {
	if !r.queued {
		r.queued = true
		r.net.newly = append(r.net.newly, int32(r.id))
	}
}

// accept appends a flit to input VC (port, vc), maintaining the occupancy
// counter, the occ mask, and active-set membership. All flit arrivals
// (links and NIs) go through here.
func (r *Router) accept(port, vc int, f *Flit) {
	ix := port*r.stride + vc
	vb := &r.vcs[ix]
	if len(vb.q) == 0 {
		vb.headAt = f.enteredRouter
		r.occ |= 1 << ix
	}
	vb.q = append(vb.q, f)
	r.inFlits++
	r.markActive()
}

// pop removes and returns the head flit of input VC ix, clearing its occ
// bit when the buffer drains. The queue is compacted in place so its
// preallocated backing array is reused forever.
func (r *Router) pop(ix int) *Flit {
	vb := &r.vcs[ix]
	f := vb.q[0]
	copy(vb.q, vb.q[1:])
	vb.q = vb.q[:len(vb.q)-1]
	if len(vb.q) == 0 {
		r.occ &^= 1 << ix
	} else {
		vb.headAt = vb.q[0].enteredRouter
	}
	return f
}

// addInputPort appends an input port with the network's VC configuration
// and returns its index. The router's buffer array may move, so every
// port's view is re-sliced; ports are only added during construction.
func (n *Network) addInputPort(r *Router) int {
	vcs, depth := n.Cfg.VCsPerPort, n.Cfg.VCDepthFlits
	slab := make([]*Flit, vcs*depth)
	for v := 0; v < vcs; v++ {
		r.vcs = append(r.vcs, vcBuf{
			q:       slab[v*depth : v*depth : (v+1)*depth],
			cap:     depth,
			outPort: noAlloc,
			outVC:   noAlloc,
		})
	}
	r.stride = vcs
	r.in = append(r.in, &inputPort{upPort: noAlloc})
	for i, ip := range r.in {
		ip.vcs = r.vcs[i*vcs : (i+1)*vcs : (i+1)*vcs]
	}
	return len(r.in) - 1
}

// Pos returns the router's tile coordinate.
func (r *Router) Pos() geom.Point { return r.pos }

func (n *Network) newOutputPort() *outputPort {
	p := &outputPort{}
	for v := 0; v < n.Cfg.VCsPerPort; v++ {
		p.credits = append(p.credits, n.Cfg.VCDepthFlits)
		p.owner = append(p.owner, noAlloc)
	}
	return p
}

// vcOrderByCredit lists the output port's VCs most-free first, for adaptive
// VC selection on single-class networks. The returned slice is the router's
// scratch buffer, valid until the next call.
func (r *Router) vcOrderByCredit(op *outputPort) []int {
	vcs := r.vcOrdBuf[:0]
	for i := range op.credits {
		vcs = append(vcs, i)
	}
	for i := 1; i < len(vcs); i++ {
		for j := i; j > 0 && op.credits[vcs[j]] > op.credits[vcs[j-1]]; j-- {
			vcs[j], vcs[j-1] = vcs[j-1], vcs[j]
		}
	}
	r.vcOrdBuf = vcs
	return vcs
}

// classVCs returns, in preference order, the downstream VCs a packet of
// class c may claim under the network's VC policy, for a non-escape
// allocation on output port op. The lists are precomputed at construction
// (initClassVCs) and must not be mutated by callers.
func (n *Network) classVCs(c Class) []int { return n.classVCList[c] }

// initClassVCs precomputes the per-class VC preference lists.
func (n *Network) initClassVCs() {
	switch n.Cfg.VCPolicy {
	case VCByClass:
		for c := Class(0); c < NumClasses; c++ {
			n.classVCList[c] = []int{int(c)}
		}
	case VCMonopolize:
		// Monopolization: replies prefer their own VC but may borrow the
		// request VC when free. Requests never borrow reply VCs so reply
		// progress cannot depend on request progress.
		n.classVCList[Request] = []int{int(Request)}
		n.classVCList[Reply] = []int{int(Reply), int(Request)}
	default: // VCPrivate
		all := make([]int, n.Cfg.VCsPerPort)
		for i := range all {
			all[i] = i
		}
		for c := Class(0); c < NumClasses; c++ {
			n.classVCList[c] = all
		}
	}
}

// routeCandidates lists candidate (output port, downstream VC) pairs in
// preference order for the head packet of input VC (ip, vc).
type routeCand struct {
	port int
	vc   int
}

// routeCandidates fills the router's candidate scratch buffer; the returned
// slice is valid until the next call on the same router.
func (r *Router) routeCandidates(f *Flit) []routeCand {
	n := r.net
	cands := r.candBuf[:0]
	dst := geom.FromID(f.Pkt.Dst, n.Cfg.Width)
	if dst == r.pos {
		// Ejection. MultiPort CB routers may have several ejection ports.
		for pi, op := range r.out {
			if op.eject {
				cands = append(cands, routeCand{port: pi, vc: 0})
			}
		}
		r.candBuf = cands
		return cands
	}

	cls := ClassOf(f.Pkt.Type)
	dirs := geom.AppendDirTowards(r.dirBuf[:0], r.pos, dst)
	r.dirBuf = dirs
	xyDir := dirs[0] // X first: DirTowards emits the X direction first

	switch n.Cfg.Routing {
	case RoutingXY:
		op := r.dirOut[xyDir]
		for _, vc := range n.classVCs(cls) {
			cands = append(cands, routeCand{port: op, vc: vc})
		}
	case RoutingMinimalAdaptive:
		// West-first minimal adaptive (Glass & Ni's turn model): all
		// westward hops are taken first and deterministically; eastbound
		// packets choose adaptively among their productive directions by
		// downstream credit. The turn restriction makes the channel
		// dependence graph acyclic with ordinary wormhole flow control, so
		// every VC is usable at full throughput with no escape channel.
		allowed := dirs
		if dst.X < r.pos.X {
			allowed = westOnly
		}
		type scored struct {
			port, credits int
		}
		var adaptive [geom.NumDirections]scored
		na := 0
		for _, d := range allowed {
			op := r.dirOut[d]
			if op == noAlloc {
				continue
			}
			total := 0
			for v := 0; v < n.Cfg.VCsPerPort; v++ {
				total += r.out[op].credits[v]
			}
			adaptive[na] = scored{op, total}
			na++
		}
		// Stable selection: higher credit first, then port order.
		for i := 1; i < na; i++ {
			for j := i; j > 0 && adaptive[j].credits > adaptive[j-1].credits; j-- {
				adaptive[j], adaptive[j-1] = adaptive[j-1], adaptive[j]
			}
		}
		for _, s := range adaptive[:na] {
			for _, vc := range r.vcOrderByCredit(r.out[s.port]) {
				cands = append(cands, routeCand{port: s.port, vc: vc})
			}
		}
	}
	r.candBuf = cands
	return cands
}

// westOnly is the fixed direction list for the west-first turn restriction.
var westOnly = []geom.Direction{geom.West}

// vcAllocate performs VC allocation for head flits without an output.
//
// Requests are the bits of occ &^ allocd, visited port-major, VC-minor from
// input port now % ports with wraparound: rotating the mask right by that
// port's first bit puts exactly this order into ascending bit order. The
// round-robin offset is derived from the cycle counter instead of stored
// state, which keeps idle routers skippable by the active-set scheduler.
func (r *Router) vcAllocate(now int64) {
	n := r.net
	start := int(now%int64(len(r.in))) * r.stride
	for m := bits.RotateLeft64(r.occ&^r.allocd, -start); m != 0; m &= m - 1 {
		ix := (bits.TrailingZeros64(m) + start) & (maxMaskBits - 1)
		vb := &r.vcs[ix]
		head := vb.q[0]
		if !head.IsHead {
			continue // mid-packet without allocation cannot happen, but be safe
		}
		for _, c := range r.routeCandidates(head) {
			if c.port == noAlloc {
				continue
			}
			op := r.out[c.port]
			if op.eject {
				vb.outPort, vb.outVC = c.port, 0
				break
			}
			if op.owner[c.vc] != noAlloc {
				continue
			}
			// VC monopolization safety: borrowing the other class's VC
			// is only allowed when its downstream buffer is completely
			// empty. A borrowed reply must never queue behind a blocked
			// request (or vice versa), or the M2F2M protocol loop —
			// requests waiting on the CB, the CB waiting on reply
			// injection, replies waiting behind requests — deadlocks.
			if n.Cfg.VCPolicy == VCMonopolize &&
				c.vc != int(ClassOf(head.Pkt.Type)) &&
				op.credits[c.vc] < n.Cfg.VCDepthFlits {
				continue
			}
			// Deadlock freedom: both routing modes (XY and west-first
			// adaptive) have acyclic channel dependence graphs, so
			// owner-free acquisition with ordinary wormhole flow control
			// suffices. The owner token is the buffer's mask index.
			op.owner[c.vc] = ix
			vb.outPort, vb.outVC = c.port, c.vc
			break
		}
		if vb.outPort == noAlloc {
			continue
		}
		r.allocd |= 1 << ix
		if n.flight != nil {
			n.flightRecord(now, head.Pkt, flight.VCAlloc, r.id, int32(vb.outPort), int32(vb.outVC))
		}
	}
}

// switchAllocate runs separable input-first switch allocation and traverses
// the granted flits. Returns the number of flits moved. All working state
// lives in per-router scratch buffers; the steady state allocates nothing.
func (r *Router) switchAllocate(now int64) int {
	n := r.net
	stride := r.stride
	vcMask := uint64(1)<<stride - 1
	// Input stage: each input port with an allocated, non-empty VC nominates
	// one, scanning its VCs round-robin from rrVC; the nomination lands in
	// its output's mask of requesting input ports.
	var outs uint64 // outputs with at least one request
	for m := r.occ & r.allocd; m != 0; {
		i := bits.TrailingZeros64(m) / stride
		base := i * stride
		vcs := m >> base & vcMask
		m &^= vcMask << base
		ip := r.in[i]
		rr := ip.rrVC
		for rot := (vcs>>rr | vcs<<(stride-rr)) & vcMask; rot != 0; rot &= rot - 1 {
			vi := bits.TrailingZeros64(rot) + rr
			if vi >= stride {
				vi -= stride
			}
			vb := &r.vcs[base+vi]
			if vb.headAt >= now {
				continue // one-cycle router pipeline
			}
			op := r.out[vb.outPort]
			if op.eject {
				if !n.ejectReady(r.node, ClassOf(vb.q[0].Pkt.Type)) {
					continue
				}
			} else if op.credits[vb.outVC] <= 0 {
				continue
			}
			r.saNom[i] = int32(vi)
			r.saOut[vb.outPort] |= 1 << i
			outs |= 1 << vb.outPort
			if vi++; vi == stride {
				vi = 0
			}
			ip.rrVC = vi
			break
		}
	}
	// Output stage and switch traversal, in ascending output order for
	// determinism. Each output grants the first requesting input port at or
	// after rrIn, cyclically. Input-first allocation nominates at most one
	// VC per input port, so granting per output cannot double-grant an
	// input, and a traversal never changes another output's request.
	nin := len(r.in)
	moved := 0
	for ; outs != 0; outs &= outs - 1 {
		pi := bits.TrailingZeros64(outs)
		op := r.out[pi]
		reqs := r.saOut[pi]
		r.saOut[pi] = 0
		i := (bits.TrailingZeros64(bits.RotateLeft64(reqs, -op.rrIn)) + op.rrIn) & (maxMaskBits - 1)
		if op.rrIn = i + 1; op.rrIn == nin {
			op.rrIn = 0
		}
		ip := r.in[i]
		vcIx := int(r.saNom[i])
		ix := i*stride + vcIx
		vb := &r.vcs[ix]
		outVC := vb.outVC
		f := r.pop(ix)
		if n.flight != nil && f.IsHead {
			n.flightRecord(now, f.Pkt, flight.SAGrant, r.id, int32(pi), int32(outVC))
		}
		r.inFlits--
		moved++
		r.occupancyCycles += now - f.enteredRouter
		r.flitsThrough++
		// Return a credit upstream — deferred to the end of phase 4, so no
		// router can observe a credit freed earlier in the same phase (see
		// Network.credits). NI credit sinks are no-ops and stay inline.
		if ip.upRouter != nil {
			n.credits = append(n.credits, stagedCredit{op: ip.upRouter.out[ip.upPort], vc: int32(vcIx)})
		} else if ip.upNI != nil {
			ip.upNI.credit(vcIx)
		}
		n.Stats.FlitHops++
		tail := f.IsTail
		if op.eject {
			n.Stats.EjectFlits++
			n.ejectFlit(r.node, f, now) // recycles f; do not touch it after
		} else {
			n.Stats.LinkFlits++
			op.credits[outVC]--
			n.arrivals = append(n.arrivals, arrival{
				f: f, to: op.to, port: int32(op.toPort), vc: int32(outVC), from: int32(r.id), out: int32(pi),
			})
		}
		if tail {
			if !op.eject {
				op.owner[outVC] = noAlloc
			}
			vb.outPort, vb.outVC = noAlloc, noAlloc
			r.allocd &^= 1 << ix
		}
	}
	return moved
}

// FlitsThrough returns the number of flits that traversed this router.
func (r *Router) FlitsThrough() int64 { return r.flitsThrough }

// NumInPorts returns the router's input port count (including injection-only
// extra ports), which sizes its crossbar and allocators.
func (r *Router) NumInPorts() int { return len(r.in) }

// NumOutPorts returns the router's output port count.
func (r *Router) NumOutPorts() int { return len(r.out) }

// AvgTraversalCycles returns the mean number of cycles a flit spent inside
// this router (Figure 4's per-router metric). Zero if no flits passed.
func (r *Router) AvgTraversalCycles() float64 {
	if r.flitsThrough == 0 {
		return 0
	}
	return float64(r.occupancyCycles) / float64(r.flitsThrough)
}
