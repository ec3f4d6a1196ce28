package wormsim

// The event-driven engine (Config.Engine == EngineEvent). The scan engine
// walks every virtual-channel lane of every switch on every cycle; almost
// all of those visits find an empty buffer and do nothing. This engine
// tracks exactly the places where work can happen and visits only those:
//
//   - filled-wire worklists: a wire holds a flit for exactly one cycle
//     (credit-based flow control reserves the downstream buffer before the
//     flit enters the wire, and processors always consume), so the wires
//     filled during cycle t are precisely the wires the link stage and the
//     delivery stage must touch at t+1. Two append-only lists per cycle —
//     one for ejection wires (consumed in ascending-node order, which is
//     the order switchStage fills them in), one for everything else —
//     replace the O(channels) wire scans.
//
//   - active-lane bitmasks: a per-switch bitmask over its input lanes
//     (set on buffer push, cleared when a visit finds the buffer empty)
//     plus a bitmask over switches with any active lane replace the
//     O(channels x VCs) crossbar scan. Blocked lanes stay active — a head
//     flit waiting on credit must be retried every cycle — so the cost is
//     O(occupied lanes), the quantity the paper's own saturation story is
//     about.
//
//   - an active-source bitmask: nodes whose source queue holds a packet.
//
// Everything is flat slice-backed — no maps, no per-cycle allocation in
// steady state (enforced by TestSteadyStateAllocs).
//
// Determinism is the hard constraint (the differential tests compare both
// engines byte for byte). The invariants that make the engines identical:
//
//   - Visiting an idle resource in the scan engine has no side effects and
//     draws no randomness, so skipping it cannot change the schedule.
//   - Active resources are visited in the scan engine's order: lanes in
//     each switch's round-robin order (the round-robin pointer advances
//     once per cycle unconditionally in the scan engine, so it equals
//     (cycle-1) mod lanes and needs no per-switch state here), switches
//     and sources in ascending order, ejection wires in ascending node
//     order.
//   - Membership is conservative: a lane/wire/source may be listed with
//     nothing to do (the shared per-item bodies re-check and no-op, which
//     also absorbs fault injection and recovery aborts that drain
//     resources between cycles), but anything with work to do is always
//     listed.

import "math/bits"

// evState is the event-driven engine's scheduling state. It lives beside
// the Simulator's physics state and never influences it — only which
// resources get visited, never what happens at a visit.
type evState struct {
	// laneSwitch and lanePos map an input vclane to the switch owning it
	// and its bit position within that switch's lane mask (-1 / unused for
	// ejection lanes, which are not crossbar inputs).
	laneSwitch []int32
	lanePos    []int32
	// laneWords[v] is the active-lane bitmask of switch v, one bit per
	// entry of inVCLs[v]: set when the lane's buffer may be non-empty.
	laneWords [][]uint64
	// switchWords is the active-switch bitmask: set while any lane bit of
	// the switch is set.
	switchWords []uint64
	// srcWords is the active-source bitmask: set while the node's source
	// queue may hold a packet.
	srcWords []uint64
	// fillEject/fillOther collect the wires filled during the current cycle
	// (ejection wires separately: their consumption order is the delivery
	// order, which must be ascending by node); readyEject/readyOther are
	// last cycle's lists, consumed by the delivery and link stages.
	// stepEvent swaps the pairs. Ejection fills happen in ascending node
	// order (switchStage processes switches in order and only switch v
	// fills v's ejection wire), matching the scan engine's delivery order.
	fillEject, fillOther   []int32
	readyEject, readyOther []int32
	// ejBase is the first ejection wire index (nCh + n).
	ejBase int32
	// ord is the per-switch round-robin scratch of switchEvent.
	ord []int32
}

// newEvState builds the scheduling state for s; all sets start empty to
// match the empty network.
func newEvState(s *Simulator) *evState {
	ev := &evState{
		laneSwitch:  make([]int32, s.vcls),
		lanePos:     make([]int32, s.vcls),
		laneWords:   make([][]uint64, s.n),
		switchWords: make([]uint64, (s.n+63)/64),
		srcWords:    make([]uint64, (s.n+63)/64),
		ejBase:      int32(s.nCh + s.n),
	}
	for i := range ev.laneSwitch {
		ev.laneSwitch[i] = -1
		ev.lanePos[i] = -1
	}
	for v := 0; v < s.n; v++ {
		lanes := s.inVCLs[v]
		ev.laneWords[v] = make([]uint64, (len(lanes)+63)/64)
		for p, li := range lanes {
			ev.laneSwitch[li] = int32(v)
			ev.lanePos[li] = int32(p)
		}
	}
	return ev
}

// markLane wakes the input lane li (its buffer just received a flit) and
// the switch owning it.
func (ev *evState) markLane(li int32) {
	v := ev.laneSwitch[li]
	p := ev.lanePos[li]
	ev.laneWords[v][p>>6] |= 1 << (uint(p) & 63)
	ev.switchWords[v>>6] |= 1 << (uint(v) & 63)
}

// noteFill records that wire w was filled this cycle, scheduling its
// consumption (delivery for ejection wires, link traversal otherwise) for
// next cycle.
func (ev *evState) noteFill(w int32) {
	if w >= ev.ejBase {
		ev.fillEject = append(ev.fillEject, w)
	} else {
		ev.fillOther = append(ev.fillOther, w)
	}
}

// markSource wakes node v's injection feed (its queue just received a
// packet).
func (ev *evState) markSource(v int) {
	ev.srcWords[v>>6] |= 1 << (uint(v) & 63)
}

// stepEvent runs one cycle under the event-driven engine: the same stage
// order as the scan engine (deliver, link, switch, feed, generate), each
// stage iterating its worklist instead of the whole network.
func (s *Simulator) stepEvent() {
	ev := s.ev
	ev.readyEject, ev.fillEject = ev.fillEject, ev.readyEject[:0]
	ev.readyOther, ev.fillOther = ev.fillOther, ev.readyOther[:0]
	for _, w := range ev.readyEject {
		s.deliverEject(int(w - ev.ejBase))
	}
	for _, w := range ev.readyOther {
		s.linkWire(int(w))
	}
	s.switchStageEvent()
	s.feedInjectionEvent()
	s.generate()
}

// switchStageEvent visits every switch with at least one active input
// lane, in ascending order.
func (s *Simulator) switchStageEvent() {
	ev := s.ev
	for wi, word := range ev.switchWords {
		base := wi << 6
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			if s.switchEvent(v) {
				ev.switchWords[wi] &^= 1 << (uint(v) & 63)
			}
		}
	}
}

// switchEvent runs the crossbar stage of one switch over its active lanes
// in round-robin order, pruning lanes whose buffers turn out (or end up)
// empty. It reports whether the switch went fully idle.
func (s *Simulator) switchEvent(v int) bool {
	ev := s.ev
	lanes := s.inVCLs[v]
	words := ev.laneWords[v]
	start := (s.cycle - 1) % len(lanes) // == the scan engine's rr[v] this cycle
	ord := appendSetBits(ev.ord[:0], words, start, len(lanes))
	ord = appendSetBits(ord, words, 0, start)
	ev.ord = ord
	idle := true
	for _, p := range ord {
		li := lanes[p]
		s.tryForward(v, li)
		if s.bufs[li].empty() {
			words[p>>6] &^= 1 << (uint(p) & 63)
		} else {
			idle = false
		}
	}
	return idle
}

// feedInjectionEvent visits every node with a (possibly) non-empty source
// queue, in ascending order, retiring nodes that have nothing to inject.
func (s *Simulator) feedInjectionEvent() {
	ev := s.ev
	for wi, word := range ev.srcWords {
		base := wi << 6
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			if s.feedNode(v) {
				ev.srcWords[wi] &^= 1 << (uint(v) & 63)
			}
		}
	}
}

// appendSetBits appends to dst the positions of the set bits of words in
// the half-open range [lo, hi), in ascending order.
func appendSetBits(dst []int32, words []uint64, lo, hi int) []int32 {
	if lo >= hi {
		return dst
	}
	first, last := lo>>6, (hi-1)>>6
	for wi := first; wi <= last; wi++ {
		w := words[wi]
		if wi == first {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == last && hi&63 != 0 {
			w &= (1 << (uint(hi) & 63)) - 1
		}
		base := wi << 6
		for w != 0 {
			dst = append(dst, int32(base+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
