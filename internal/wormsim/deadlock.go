package wormsim

// Structured deadlock diagnostics. When the watchdog fires, the simulator
// walks the wait-for graph over virtual-channel lanes — lane A waits for
// lane B when the head flit buffered on A cannot advance because B (the
// resource it needs next) is allocated to another packet or has no space —
// and extracts a cycle. A cycle of waiting channels is the definition of
// wormhole deadlock (paper Definition 7 works at the granularity of turns;
// this is the channel-level witness), so the report shows not just *that*
// the network froze but *which* channels hold which packets while waiting
// for each other.

import (
	"fmt"
	"strings"

	"repro/internal/routing"
)

// BlockedVC is one virtual channel in a deadlock report: the lane whose
// head flit cannot advance, the packet it belongs to, and the switch where
// it is waiting.
type BlockedVC struct {
	// Channel is the cgraph channel id of the lane, or -1 for an injection
	// lane.
	Channel int
	// VC is the virtual-channel index within the physical channel.
	VC int
	// Node is the switch holding the blocked head flit.
	Node int
	// Packet is the id of the packet whose flit is blocked.
	Packet int
	// From and To are the lane's physical endpoints (From == To == Node for
	// injection lanes).
	From, To int
}

// String renders the blocked lane as "ch(c)/vc(v) pkt p" (or "inj(n) pkt
// p" for an injection lane).
func (b BlockedVC) String() string {
	if b.Channel < 0 {
		return fmt.Sprintf("inj(%d) pkt %d", b.Node, b.Packet)
	}
	return fmt.Sprintf("ch%d<%d,%d>/vc%d pkt %d", b.Channel, b.From, b.To, b.VC, b.Packet)
}

// DeadlockInfo is the structured diagnostic of a detected deadlock.
type DeadlockInfo struct {
	// DetectedAt is the cycle the watchdog fired.
	DetectedAt int
	// FrozenFlits is the number of flits in the network at detection.
	FrozenFlits int
	// FrozenFor is the number of cycles without any flit movement.
	FrozenFor int
	// Algorithm names the routing function being simulated.
	Algorithm string
	// Cycle is a cycle of blocked virtual channels: each entry waits on the
	// next (and the last on the first). Empty only if no cycle could be
	// extracted from the wait-for graph — a starvation rather than a
	// circular wait, which a threshold watchdog cannot distinguish.
	Cycle []BlockedVC
	// Blocked lists every blocked lane (the cycle plus any lanes waiting
	// into it).
	Blocked []BlockedVC
}

// DescribeCycle renders the cycle as "a -> b -> ... -> a".
func (d *DeadlockInfo) DescribeCycle() string {
	if len(d.Cycle) == 0 {
		return "(no circular wait found)"
	}
	parts := make([]string, 0, len(d.Cycle)+1)
	for _, b := range d.Cycle {
		parts = append(parts, b.String())
	}
	parts = append(parts, d.Cycle[0].String())
	return strings.Join(parts, " -> ")
}

// DeadlockError is the error returned when the deadlock watchdog fires; it
// wraps the structured diagnostic.
type DeadlockError struct {
	Info *DeadlockInfo
}

// Error renders the deadlock diagnostic as a one-line summary; the
// structured detail stays in Info.
func (e *DeadlockError) Error() string {
	d := e.Info
	return fmt.Sprintf("wormsim: deadlock detected at cycle %d (%d flits frozen for %d cycles) under %s: %s",
		d.DetectedAt, d.FrozenFlits, d.FrozenFor, d.Algorithm, d.DescribeCycle())
}

// laneInfo converts a vclane index to its report form. pkt is the blocked
// packet on the lane.
func (s *Simulator) laneInfo(l int32, pkt int32) BlockedVC {
	if ch := s.vclChannel(l); ch >= 0 {
		c := s.cg.Channels[ch]
		return BlockedVC{Channel: ch, VC: int(l) % s.nVC, Node: c.To, Packet: int(pkt), From: c.From, To: c.To}
	}
	v := int(l) - s.nCh*s.nVC // injection lane index
	return BlockedVC{Channel: -1, Node: v, Packet: int(pkt), From: v, To: v}
}

// waitGraph builds the wait-for graph over virtual-channel lanes: for
// every lane whose buffered head flit has been resting for at least
// minStall cycles and cannot advance, the lanes it needs that are
// currently unavailable. minStall 0 is the post-mortem view (every
// blocked lane); the online detector passes its scan interval so that
// transient waits never enter the graph.
func (s *Simulator) waitGraph(minStall int32) (waits map[int32][]int32, blockedPkt map[int32]int32) {
	waits = make(map[int32][]int32)
	blockedPkt = make(map[int32]int32)
	var wants []int32
	for v := 0; v < s.n; v++ {
		for _, li := range s.inVCLs[v] {
			b := &s.bufs[li]
			if b.empty() {
				continue
			}
			f := b.front()
			if s.now-f.arrived < minStall {
				continue
			}
			wants = s.appendWantedLanes(wants[:0], v, li, f)
			var blockers []int32
			for _, out := range wants {
				if s.owner[out] != noOwner && s.owner[out] != f.pkt {
					blockers = append(blockers, out)
					continue
				}
				if !s.canAccept(out) {
					blockers = append(blockers, out)
				}
			}
			if len(blockers) > 0 {
				waits[li] = blockers
				blockedPkt[li] = f.pkt
			}
		}
	}
	return waits, blockedPkt
}

// deadlockInfo builds the diagnostic at watchdog time.
func (s *Simulator) deadlockInfo() *DeadlockInfo {
	info := &DeadlockInfo{
		DetectedAt:  int(s.now),
		FrozenFlits: s.inFlight,
		FrozenFor:   s.cfg.DeadlockThreshold,
		Algorithm:   s.fn.AlgorithmName,
	}
	waits, blockedPkt := s.waitGraph(0)
	for li, pkt := range blockedPkt {
		info.Blocked = append(info.Blocked, s.laneInfo(li, pkt))
	}
	sortBlocked(info.Blocked)
	info.Cycle = s.findWaitCycle(waits, blockedPkt)
	return info
}

// appendWantedLanes appends to dst the lanes the head flit f on li at
// switch v needs to advance — one of them for a header, its packet's held
// output for a body flit. It is the one definition of the wait-for relation:
// the deadlock detector builds its graph from it, and the event engine
// sleeps a blocked lane on exactly these outputs. It allocates nothing once
// dst and the routing scratch have grown.
func (s *Simulator) appendWantedLanes(dst []int32, v int, li int32, f *flit) []int32 {
	if f.idx != 0 {
		if out := s.nextOut[li]; out != noVCL {
			dst = append(dst, out)
		}
		return dst
	}
	p := &s.packets[f.pkt]
	if int32(v) == p.dst {
		return append(dst, s.ejectVCL(v))
	}
	switch s.cfg.Mode {
	case SourceRouted, Deterministic:
		if p.hop < int32(len(p.route)) {
			ch := int(p.route[p.hop])
			for vc := 0; vc < s.nVC; vc++ {
				dst = append(dst, int32(ch*s.nVC+vc))
			}
		}
	default: // Adaptive
		state := routingStateOf(v, s.vclChannel(li))
		s.candBuf = s.tb.NextChannels(int(p.dst), state, s.candBuf[:0])
		for _, ch := range s.candBuf {
			for vc := 0; vc < s.nVC; vc++ {
				dst = append(dst, int32(ch*s.nVC+vc))
			}
		}
	}
	return dst
}

// findWaitCycle extracts one cycle from the wait-for graph via iterative
// DFS with tricolor marking, preferring the lexicographically smallest
// start lane for determinism.
func (s *Simulator) findWaitCycle(waits map[int32][]int32, blockedPkt map[int32]int32) []BlockedVC {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int32]int, len(waits))
	starts := make([]int32, 0, len(waits))
	for li := range waits {
		starts = append(starts, li)
	}
	sortLanes(starts)
	type frame struct {
		lane int32
		next int
	}
	for _, start := range starts {
		if color[start] != white {
			continue
		}
		stack := []frame{{lane: start}}
		color[start] = gray
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			succ := waits[fr.lane]
			if fr.next >= len(succ) {
				color[fr.lane] = black
				stack = stack[:len(stack)-1]
				continue
			}
			nxt := succ[fr.next]
			fr.next++
			if _, isWaiter := waits[nxt]; !isWaiter {
				continue // waits on a lane that is not itself blocked
			}
			switch color[nxt] {
			case white:
				color[nxt] = gray
				stack = append(stack, frame{lane: nxt})
			case gray:
				// Found a cycle: the stack suffix from nxt onward.
				i := len(stack) - 1
				for i >= 0 && stack[i].lane != nxt {
					i--
				}
				cyc := make([]BlockedVC, 0, len(stack)-i)
				for ; i < len(stack); i++ {
					l := stack[i].lane
					cyc = append(cyc, s.laneInfo(l, blockedPkt[l]))
				}
				return cyc
			}
		}
	}
	return nil
}

func sortLanes(ls []int32) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

func sortBlocked(bs []BlockedVC) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && lessBlocked(bs[j], bs[j-1]); j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

func lessBlocked(a, b BlockedVC) bool {
	if a.Channel != b.Channel {
		return a.Channel < b.Channel
	}
	if a.VC != b.VC {
		return a.VC < b.VC
	}
	return a.Node < b.Node
}

// routingStateOf encodes the adaptive routing state for a packet at switch
// v that arrived on channel ch (-1 for injection).
func routingStateOf(v, ch int) int {
	if ch >= 0 {
		return ch
	}
	return routing.InjectionState(v)
}
