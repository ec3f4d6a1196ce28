package wormsim

// The event-driven engine (Config.Engine == EngineEvent). The scan engine
// walks every virtual-channel lane of every switch on every cycle; almost
// all of those visits find an empty buffer or a head flit that cannot
// move, and do nothing. This engine visits a lane only when its head flit
// may be able to move, so its cost is O(flits that move), not O(occupied
// lanes):
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
//   - active-lane bitmasks: a per-switch bitmask over its input lanes plus
//     a bitmask over switches with any active lane replace the O(channels x
//     VCs) crossbar scan. A lane becomes active when a flit lands in its
//     empty buffer, and leaves the set when a visit finds its buffer empty.
//
//   - per-output wait lists: a lane whose head flit cannot move, and whose
//     every wanted output (appendWantedLanes, the wait-for relation the
//     deadlock detector uses) is blocked for a persistent reason — owned by
//     another packet, or its downstream buffer full — leaves the active set
//     and sleeps on waiters[out] of each wanted output. Exactly two events
//     end those reasons, and each wakes its list: a pop from bufs[out] in
//     the switch stage (a credit returns) and a tail flit releasing
//     owner[out]. A wire filled earlier in the same cycle, a dead wire and
//     a flit that arrived this cycle are transient or rare: such lanes stay
//     active and are retried every cycle. Flits landing behind a sleeping
//     head do not wake it; the head's situation has not changed.
//
//   - an active-source bitmask: nodes whose source queue holds a packet. A
//     source whose injection buffer is full sleeps on srcWait instead, and
//     its switch popping the injection lane wakes it. The switch stage runs
//     before the feed stage, so the woken source feeds in the same cycle,
//     as under the scan engine.
//
// Everything is flat slice-backed — no maps, no per-cycle allocation in
// steady state (enforced by TestSteadyStateAllocs). Switches with more
// than 64 input lanes use multi-word lane and waiter masks.
//
// Determinism is the hard constraint (the differential tests compare both
// engines byte for byte). The invariants that make the engines identical:
//
//   - Visiting an idle or blocked resource in the scan engine has no side
//     effects and draws no randomness, so skipping it cannot change the
//     schedule.
//   - Active resources are visited in the scan engine's order: lanes in
//     each switch's round-robin order (the round-robin pointer advances
//     once per cycle unconditionally in the scan engine, so it equals
//     (cycle-1) mod lanes and needs no per-switch state here), switches
//     and sources in ascending order, ejection wires in ascending node
//     order.
//   - Membership is conservative: a lane/wire/source may be listed with
//     nothing to do (the shared per-item bodies re-check and no-op), but
//     anything that can move is always listed when the scan engine would
//     reach it. Three ordering rules keep wakeups in step with the scan:
//     (1) switchStageEvent re-reads the current switchWords word after each
//     switch, so a credit returned by switch u < v lets v move in the same
//     cycle; (2) switchEvent decides "idle" from the lane mask after its
//     loop, because a tail release can wake a lane it already visited; (3)
//     every out-of-band mutator — removePacketFlits (fault drops,
//     DropInFlight, recovery aborts) and Rewire, which changes adaptive
//     candidate sets — calls wakeAll.

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
	// entry of inVCLs[v]: set while the lane may be able to move a flit.
	laneWords [][]uint64
	// waiters[out] is the bitmask, laid out like laneWords[waitSwitch[out]],
	// of the lanes asleep until output lane out frees up; nil for injection
	// lanes, whose only waiter is their node's source (srcWait).
	waiters    [][]uint64
	waitSwitch []int32
	// switchWords is the active-switch bitmask: set while any lane bit of
	// the switch is set.
	switchWords []uint64
	// srcWords is the active-source bitmask: set while the node's source
	// queue may hold a packet it can feed. srcWait holds the sources asleep
	// on a full injection buffer.
	srcWords []uint64
	srcWait  []uint64
	// fillEject/fillOther collect the wires filled during the current cycle
	// (ejection wires separately: their consumption order is the delivery
	// order, which must be ascending by node); readyEject/readyOther are
	// last cycle's lists, consumed by the delivery and link stages.
	// stepEvent swaps the pairs. Ejection fills happen in ascending node
	// order (switchStage processes switches in order and only switch v
	// fills v's ejection wire), matching the scan engine's delivery order.
	fillEject, fillOther   []int32
	readyEject, readyOther []int32
	// ejBase is the first ejection wire index (nCh + n); injBase is the
	// first injection vclane (nCh * nVC).
	ejBase, injBase int32
	// ord is the per-switch round-robin scratch of switchEvent; want is the
	// wanted-output scratch of a sleeping lane.
	ord, want []int32
	// laneVisits and feedVisits count switchEvent lane visits and
	// feedInjectionEvent source visits; the work-count regression test pins
	// them against the flits moved and injected.
	laneVisits, feedVisits int64
}

// newEvState builds the scheduling state for s; all sets start empty to
// match the empty network.
func newEvState(s *Simulator) *evState {
	ev := &evState{
		laneSwitch:  make([]int32, s.vcls),
		lanePos:     make([]int32, s.vcls),
		laneWords:   make([][]uint64, s.n),
		waiters:     make([][]uint64, s.vcls),
		waitSwitch:  make([]int32, s.vcls),
		switchWords: make([]uint64, (s.n+63)/64),
		srcWords:    make([]uint64, (s.n+63)/64),
		srcWait:     make([]uint64, (s.n+63)/64),
		ejBase:      int32(s.nCh + s.n),
		injBase:     int32(s.nCh * s.nVC),
	}
	for i := range ev.laneSwitch {
		ev.laneSwitch[i] = -1
		ev.lanePos[i] = -1
		ev.waitSwitch[i] = -1
	}
	for v := 0; v < s.n; v++ {
		lanes := s.inVCLs[v]
		ev.laneWords[v] = make([]uint64, (len(lanes)+63)/64)
		for p, li := range lanes {
			ev.laneSwitch[li] = int32(v)
			ev.lanePos[li] = int32(p)
		}
	}
	// Only lanes of an output's own switch can wait on it: the channel's
	// source switch, or v itself for v's ejection lane.
	for c, ch := range s.cg.Channels {
		for vc := 0; vc < s.nVC; vc++ {
			ev.waitSwitch[c*s.nVC+vc] = int32(ch.From)
		}
	}
	for v := 0; v < s.n; v++ {
		ev.waitSwitch[s.ejectVCL(v)] = int32(v)
	}
	total := 0
	for _, u := range ev.waitSwitch {
		if u >= 0 {
			total += len(ev.laneWords[u])
		}
	}
	backing := make([]uint64, total)
	for out, u := range ev.waitSwitch {
		if u >= 0 {
			k := len(ev.laneWords[u])
			ev.waiters[out], backing = backing[:k:k], backing[k:]
		}
	}
	return ev
}

// markLane wakes the input lane li and the switch owning it.
func (ev *evState) markLane(li int32) {
	v := ev.laneSwitch[li]
	p := ev.lanePos[li]
	ev.laneWords[v][p>>6] |= 1 << (uint(p) & 63)
	ev.switchWords[v>>6] |= 1 << (uint(v) & 63)
}

// wake moves every lane asleep on output lane out back into the active
// set.
func (ev *evState) wake(out int32) {
	ws := ev.waiters[out]
	var woke uint64
	for _, w := range ws {
		woke |= w
	}
	if woke == 0 {
		return
	}
	u := ev.waitSwitch[out]
	lw := ev.laneWords[u]
	for i, w := range ws {
		lw[i] |= w
		ws[i] = 0
	}
	ev.switchWords[u>>6] |= 1 << (uint(u) & 63)
}

// credit reports a flit popped from input lane li's buffer: the space it
// frees wakes the upstream lanes asleep on li or, for an injection lane,
// the node's source.
func (ev *evState) credit(li int32) {
	if li < ev.injBase {
		ev.wake(li)
		return
	}
	v := li - ev.injBase
	bit := uint64(1) << (uint(v) & 63)
	if ev.srcWait[v>>6]&bit != 0 {
		ev.srcWait[v>>6] &^= bit
		ev.srcWords[v>>6] |= bit
	}
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
// packet). A source asleep on its full injection buffer stays asleep: the
// new packet queues behind the one that is already waiting.
func (ev *evState) markSource(v int) {
	bit := uint64(1) << (uint(v) & 63)
	if ev.srcWait[v>>6]&bit == 0 {
		ev.srcWords[v>>6] |= bit
	}
}

// wakeAll puts every lane holding flits and every source with a queued
// packet back into the active sets. Out-of-band mutators call it: they can
// free buffers and output lanes, or change what a head flit wants, without
// passing through the two wakeup sites of the switch stage.
func (s *Simulator) wakeAll() {
	ev := s.ev
	for _, lanes := range s.inVCLs {
		for _, li := range lanes {
			if !s.bufs[li].empty() {
				ev.markLane(li)
			}
		}
	}
	clear(ev.srcWait)
	for v := range s.queues {
		if s.qHead[v] < len(s.queues[v]) {
			ev.markSource(v)
		}
	}
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
// lane, in ascending order. It re-reads the current mask word after each
// switch: a credit returned by this switch can wake a higher-numbered one,
// which the scan engine would let move in this same cycle.
func (s *Simulator) switchStageEvent() {
	ev := s.ev
	for wi := range ev.switchWords {
		base := wi << 6
		for word := ev.switchWords[wi]; word != 0; {
			b := bits.TrailingZeros64(word)
			if s.switchEvent(base + b) {
				ev.switchWords[wi] &^= 1 << uint(b)
			}
			word = ev.switchWords[wi] & (^uint64(1) << uint(b))
		}
	}
}

// switchEvent runs the crossbar stage of one switch over its active lanes
// in round-robin order, dropping lanes whose buffers turn out empty and
// putting lanes to sleep whose head flit is persistently blocked. It
// reports whether the switch went fully idle, judged from the lane mask
// after the loop: a tail release can wake a lane already visited.
func (s *Simulator) switchEvent(v int) bool {
	ev := s.ev
	lanes := s.inVCLs[v]
	words := ev.laneWords[v]
	start := (s.cycle - 1) % len(lanes) // == the scan engine's rr[v] this cycle
	ord := appendSetBits(ev.ord[:0], words, start, len(lanes))
	ord = appendSetBits(ord, words, 0, start)
	ev.ord = ord
	ev.laneVisits += int64(len(ord))
	for _, p := range ord {
		li := lanes[p]
		moved := s.tryForward(v, li)
		if s.bufs[li].empty() || (!moved && s.sleepLane(v, li, p)) {
			words[p>>6] &^= 1 << (uint(p) & 63)
		}
	}
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

// sleepLane decides whether the blocked head flit on lane li (bit p of
// switch v's lane mask) can wait for a wakeup instead of being retried
// next cycle: it must have rested since an earlier cycle, and every output
// lane it wants must be owned by another packet or have a full downstream
// buffer. If so it registers the lane on each wanted output's wait list
// and reports true; the caller clears its active bit.
func (s *Simulator) sleepLane(v int, li, p int32) bool {
	ev := s.ev
	f := s.bufs[li].front()
	if f.arrived >= s.now {
		return false
	}
	ev.want = s.appendWantedLanes(ev.want[:0], v, li, f)
	if len(ev.want) == 0 {
		return false // nothing to wait on (possible after faults): keep retrying
	}
	for _, out := range ev.want {
		owned := s.owner[out] != noOwner && s.owner[out] != f.pkt
		ejection := out >= ev.injBase // wanted outputs are never injection lanes
		if !owned && (ejection || !s.bufs[out].full()) {
			return false // blocked only by a busy or dead wire
		}
	}
	bit := uint64(1) << (uint(p) & 63)
	for _, out := range ev.want {
		ev.waiters[out][p>>6] |= bit
	}
	return true
}

// feedInjectionEvent visits every node with a (possibly) non-empty source
// queue, in ascending order, retiring nodes that have nothing to inject
// and putting to sleep nodes whose injection buffer is full.
func (s *Simulator) feedInjectionEvent() {
	ev := s.ev
	for wi, word := range ev.srcWords {
		base := wi << 6
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			ev.feedVisits++
			bit := uint64(1) << (uint(v) & 63)
			if s.feedNode(v) {
				ev.srcWords[wi] &^= bit
			} else if s.bufs[s.injVCL(v)].full() {
				ev.srcWords[wi] &^= bit
				ev.srcWait[wi] |= bit
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
