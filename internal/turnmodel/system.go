package turnmodel

import (
	"fmt"

	"repro/internal/cgraph"
)

// System binds a communication graph to a direction scheme and a per-node
// allowed-turn configuration. It answers the two questions every routing
// algorithm here needs answered exactly:
//
//  1. Is a specific channel-to-channel transition allowed?
//  2. Does the configuration admit a turn cycle (Definition 7) — i.e., can
//     the corresponding wormhole network deadlock?
//
// Per-node masks (rather than one global mask) are what make the paper's
// Phase 3 expressible: the DOWN/UP routing releases specific prohibited
// turns at specific nodes when no turn cycle can pass through them.
type System struct {
	CG      *cgraph.CG
	Scheme  Scheme
	Dirs    []Dir  // per channel, in the scheme's alphabet
	Allowed []Mask // per node
	// AllowUTurn permits a packet to leave on the reverse channel of the one
	// it arrived on. Real wormhole switches do not do this, and no algorithm
	// in this repository needs it, so it defaults to false.
	AllowUTurn bool
}

// NewSystem builds a System in which every node carries the same base mask.
func NewSystem(cg *cgraph.CG, scheme Scheme, base Mask) *System {
	allowed := make([]Mask, cg.N())
	for i := range allowed {
		allowed[i] = base
	}
	return &System{
		CG:      cg,
		Scheme:  scheme,
		Dirs:    AssignDirs(cg, scheme),
		Allowed: allowed,
	}
}

// TurnAllowed reports whether a packet that arrived on channel cIn may leave
// on channel cOut. cIn's sink must be cOut's start; this is the caller's
// responsibility (callers always iterate cg.Out[cIn.To]).
//
// Same-direction continuation is always allowed: Definition 8's turn set
// contains only pairs of distinct directions, so a prohibition can never
// name such a pair.
func (s *System) TurnAllowed(cIn, cOut int) bool {
	if !s.AllowUTurn && s.CG.Reverse(cIn) == cOut {
		return false
	}
	d1, d2 := s.Dirs[cIn], s.Dirs[cOut]
	if d1 == d2 {
		return true
	}
	return s.Allowed[s.CG.Channels[cIn].To].Allowed(d1, d2)
}

// successors appends to buf the channels that may follow channel c and
// returns the extended slice.
func (s *System) successors(c int, buf []int) []int {
	for _, nxt := range s.CG.Out[s.CG.Channels[c].To] {
		if s.TurnAllowed(c, nxt) {
			buf = append(buf, nxt)
		}
	}
	return buf
}

// FindTurnCycle searches the channel dependency graph — nodes are channels,
// edges are allowed transitions — for a cycle, returning the channel ids
// along one if found, or nil if the configuration is turn-cycle-free.
// A nil result certifies deadlock freedom for wormhole switching under this
// configuration (Dally–Seitz: an acyclic channel dependency graph suffices).
func (s *System) FindTurnCycle() []int {
	_, cyc := s.PostOrder()
	return cyc
}

// PostOrder runs FindTurnCycle's search and, when it finds no cycle, also
// returns the order in which the search finished the channels. Every
// channel comes after all of its allowed successors, so the order is a
// reverse topological order of the acyclic channel dependency graph: one
// pass over it can fold any per-channel quantity over all successors. On a
// cyclic configuration post is nil and cycle is what FindTurnCycle returns.
//
// The search is an iterative colored DFS. Each frame walks the
// out-channels of its channel's sink with a cursor, skipping disallowed
// turns, so successor lists are never materialized.
func (s *System) PostOrder() (post []int32, cycle []int) {
	n := len(s.Dirs)
	post = make([]int32, 0, n)
	// 0 = white, 1 = on stack, 2 = done.
	color := make([]uint8, n)
	type frame struct{ c, i int }
	var stack []frame
	for start := 0; start < n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		stack = append(stack[:0], frame{c: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succs := s.CG.Out[s.CG.Channels[f.c].To]
			if f.i == len(succs) {
				color[f.c] = 2
				post = append(post, int32(f.c))
				stack = stack[:len(stack)-1]
				continue
			}
			nxt := succs[f.i]
			f.i++
			if !s.TurnAllowed(f.c, nxt) {
				continue
			}
			switch color[nxt] {
			case 0:
				color[nxt] = 1
				stack = append(stack, frame{c: nxt})
			case 1:
				// Back edge f.c -> nxt: the stack from nxt's frame up to
				// f.c's is the cycle, in traversal order.
				k := len(stack) - 1
				for stack[k].c != nxt {
					k--
				}
				cycle = make([]int, 0, len(stack)-k)
				for _, fr := range stack[k:] {
					cycle = append(cycle, fr.c)
				}
				return nil, cycle
			}
		}
	}
	return post, nil
}

// Acyclic reports whether the configuration is turn-cycle-free.
func (s *System) Acyclic() bool { return s.FindTurnCycle() == nil }

// ReachableChannels returns, as a bitset indexed by channel id, every
// channel reachable from start (inclusive) by following allowed transitions.
// The DOWN/UP Phase 3 release check is built on this: a prohibited turn
// (e1 -> e2) at a node can be released iff e1 is not reachable from e2.
func (s *System) ReachableChannels(start int) []bool {
	seen := make([]bool, len(s.Dirs))
	seen[start] = true
	stack := []int{start}
	var succBuf []int
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succBuf = s.successors(c, succBuf[:0])
		for _, nxt := range succBuf {
			if !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return seen
}

// DescribeCycle renders a turn cycle found by FindTurnCycle for error
// messages and test diagnostics.
func (s *System) DescribeCycle(cycle []int) string {
	if len(cycle) == 0 {
		return "(no cycle)"
	}
	out := ""
	for i, c := range cycle {
		ch := &s.CG.Channels[c]
		if i > 0 {
			out += " -> "
		}
		out += fmt.Sprintf("<%d,%d>%s", ch.From, ch.To, s.Scheme.DirName(s.Dirs[c]))
	}
	return out
}

// Clone returns a deep copy of the system (shared CG and Dirs, copied
// masks), for tentative modifications.
func (s *System) Clone() *System {
	c := *s
	c.Allowed = append([]Mask(nil), s.Allowed...)
	return &c
}
