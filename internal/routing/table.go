package routing

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Table holds all-pairs shortest legal path information for a routing
// function. "Legal" means every consecutive channel pair obeys the
// function's per-node allowed turns (and never U-turns); "shortest" is
// measured in channels traversed. Because turn prohibitions can force
// detours, a legal shortest path may be longer than the topological
// shortest path.
//
// The state space is the standard product construction for turn-restricted
// routing: a packet's routing state is the channel it arrived on (its next
// move depends on that channel's direction), plus one injection state per
// node for packets that have not yet left their source (a fresh packet may
// take any output channel).
type Table struct {
	f     *Function
	numCh int
	n     int
	// dist[dst*stride + state] = remaining channels to traverse from state
	// to dst, or unreachable. States 0..numCh-1 are channels; numCh+v is
	// the injection state of node v. stride = numCh + n.
	dist   []int32
	stride int
}

const unreachable = int32(math.MaxInt32)

// NewTable computes the table with one backward BFS per destination,
// fanning destinations across GOMAXPROCS goroutines. Each destination's
// row of dist is computed in isolation, so the result is identical for
// any goroutine count (pinned by TestNewTableParallelIdentical). The turn
// checks are hoisted out of the BFS: every channel's allowed predecessors
// are listed once per table, and each destination's search only walks
// those lists.
func NewTable(f *Function) *Table {
	return newTableN(f, runtime.GOMAXPROCS(0))
}

// newTableN is NewTable with an explicit worker count, kept internal so
// tests can compare the single-goroutine and many-goroutine results.
func newTableN(f *Function, workers int) *Table {
	cg := f.Sys.CG
	t := &Table{
		f:      f,
		numCh:  cg.NumChannels(),
		n:      cg.N(),
		stride: cg.NumChannels() + cg.N(),
	}
	t.dist = make([]int32, t.n*t.stride)
	preds := newPredLists(f)
	if workers > t.n {
		workers = t.n
	}
	if workers <= 1 {
		queue := make([]int32, 0, t.stride)
		for dst := 0; dst < t.n; dst++ {
			queue = t.bfsTo(dst, preds, queue)
		}
		return t
	}
	// Destinations are handed out through an atomic counter rather than
	// fixed ranges: BFS cost varies with how central a destination is, and
	// work stealing keeps the goroutines evenly loaded.
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queue := make([]int32, 0, t.stride)
			for {
				dst := int(next.Add(1)) - 1
				if dst >= t.n {
					return
				}
				queue = t.bfsTo(dst, preds, queue)
			}
		}()
	}
	wg.Wait()
	return t
}

// predLists lists, for every channel c, the in-channels of c's start node
// whose turn onto c is allowed: list[start[c]:start[c+1]], in cg.In order.
// These are exactly the channel predecessors of c in the backward BFS.
type predLists struct {
	start []int32
	list  []int32
}

func newPredLists(f *Function) predLists {
	cg := f.Sys.CG
	p := predLists{start: make([]int32, cg.NumChannels()+1)}
	for c := range cg.Channels {
		for _, q := range cg.In[cg.Channels[c].From] {
			if f.Sys.TurnAllowed(q, c) {
				p.list = append(p.list, int32(q))
			}
		}
		p.start[c+1] = int32(len(p.list))
	}
	return p
}

// bfsTo fills destination dst's row of dist with a backward BFS, reusing
// queue as scratch (returned for the next call). It touches only that row,
// which is what makes per-destination parallelism safe.
func (t *Table) bfsTo(dst int, preds predLists, queue []int32) []int32 {
	cg := t.f.Sys.CG
	d := t.dist[dst*t.stride : (dst+1)*t.stride]
	for i := range d {
		d[i] = unreachable
	}
	queue = queue[:0]
	// Base cases: arriving at dst via any of its in-channels takes zero
	// further hops; a packet born at dst is already there.
	d[t.numCh+dst] = 0
	for _, c := range cg.In[dst] {
		d[c] = 0
		queue = append(queue, int32(c))
	}
	// Backward BFS over reversed state-graph edges. Predecessors of a
	// channel state c are (a) the injection state of c.From and (b) the
	// allowed predecessor channels of c. Injection states have no
	// predecessors.
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		nd := d[c] + 1
		if inj := t.numCh + cg.Channels[c].From; d[inj] > nd {
			d[inj] = nd
		}
		for _, p := range preds.list[preds.start[c]:preds.start[c+1]] {
			if d[p] > nd {
				d[p] = nd
				queue = append(queue, p)
			}
		}
	}
	return queue
}

// PathSource is what a packet-level consumer (the simulator) needs from a
// routing implementation: a random shortest legal path for source routing,
// and the candidate continuations for adaptive routing. Table implements it
// directly; package fib implements it on top of compiled forwarding tables,
// so simulations can run against the deployable artifact.
type PathSource interface {
	// SamplePath returns a random shortest legal path from src to dst as
	// channel ids (empty for src == dst).
	SamplePath(src, dst int, r *rng.Rng) ([]int, error)
	// NextChannels appends the shortest-continuing channels from the given
	// routing state toward dst (see Table.NextChannels for the state
	// encoding).
	NextChannels(dst, state int, buf []int) []int
	// FixedPath returns the deterministic shortest legal path (first
	// continuation at every hop).
	FixedPath(src, dst int) ([]int, error)
}

var _ PathSource = (*Table)(nil)

// Function returns the routing function this table was computed for.
func (t *Table) Function() *Function { return t.f }

// Distance returns the legal shortest path length (in channels) from src to
// dst, or -1 if dst is unreachable from src. Distance(v, v) is 0.
func (t *Table) Distance(src, dst int) int {
	return t.StateDistance(dst, InjectionState(src))
}

// distFrom returns the remaining distance to dst from a routing state:
// state < 0 encodes the injection state of node ^state (bitwise complement),
// otherwise state is the channel arrived on.
func (t *Table) distFrom(dst, state int) int32 {
	if state < 0 {
		return t.dist[dst*t.stride+t.numCh+(^state)]
	}
	return t.dist[dst*t.stride+state]
}

// StateDistance returns the legal shortest path length from a routing
// state (a channel id or InjectionState(v), as for NextChannels) to dst,
// or -1 if dst is unreachable from it.
func (t *Table) StateDistance(dst, state int) int {
	if d := t.distFrom(dst, state); d != unreachable {
		return int(d)
	}
	return -1
}

// InjectionState encodes node v's "not yet departed" routing state for use
// with NextChannels.
func InjectionState(v int) int { return ^v }

// NextChannels appends to buf every output channel that continues a
// shortest legal path from the given state toward dst, returning the
// extended slice. state is either a channel id (the channel the packet
// arrived on) or InjectionState(src). An empty result for state != dst's
// own states means dst is unreachable, which Verify precludes.
func (t *Table) NextChannels(dst, state int, buf []int) []int {
	cg := t.f.Sys.CG
	here := 0
	if state < 0 {
		here = ^state
	} else {
		here = cg.Channels[state].To
	}
	if here == dst {
		return buf
	}
	d := t.distFrom(dst, state)
	if d == unreachable {
		return buf
	}
	for _, c := range cg.Out[here] {
		if state >= 0 && !t.f.Sys.TurnAllowed(state, c) {
			continue
		}
		if t.dist[dst*t.stride+c] == d-1 {
			buf = append(buf, c)
		}
	}
	return buf
}

// SamplePath returns a random shortest legal path from src to dst as a
// sequence of channel ids (empty for src == dst), choosing uniformly among
// the shortest-continuing channels at every hop — the paper's "one of them
// is selected randomly". It returns an error if dst is unreachable.
func (t *Table) SamplePath(src, dst int, r *rng.Rng) ([]int, error) {
	if src == dst {
		return nil, nil
	}
	if t.Distance(src, dst) < 0 {
		return nil, fmt.Errorf("routing: %d unreachable from %d under %s",
			dst, src, t.f.AlgorithmName)
	}
	path := make([]int, 0, t.Distance(src, dst))
	state := InjectionState(src)
	var buf []int
	for {
		buf = t.NextChannels(dst, state, buf[:0])
		if len(buf) == 0 {
			// Cannot happen on a verified function: distance bookkeeping
			// guarantees a continuing channel until arrival.
			return nil, fmt.Errorf("routing: dead end sampling path %d->%d", src, dst)
		}
		c := buf[r.Intn(len(buf))]
		path = append(path, c)
		if t.f.Sys.CG.Channels[c].To == dst {
			return path, nil
		}
		state = c
	}
}

// FixedPath returns the deterministic shortest legal path from src to dst:
// at every hop the lowest-id continuing channel is taken. All callers see
// the same path for a pair, which is what deterministic source routing
// uses; compare SamplePath for the paper's randomized selection.
func (t *Table) FixedPath(src, dst int) ([]int, error) {
	if src == dst {
		return nil, nil
	}
	if t.Distance(src, dst) < 0 {
		return nil, fmt.Errorf("routing: %d unreachable from %d under %s",
			dst, src, t.f.AlgorithmName)
	}
	path := make([]int, 0, t.Distance(src, dst))
	state := InjectionState(src)
	var buf []int
	for {
		buf = t.NextChannels(dst, state, buf[:0])
		if len(buf) == 0 {
			return nil, fmt.Errorf("routing: dead end on fixed path %d->%d", src, dst)
		}
		c := buf[0] // NextChannels scans cg.Out in ascending channel order
		path = append(path, c)
		if t.f.Sys.CG.Channels[c].To == dst {
			return path, nil
		}
		state = c
	}
}

// FullyConnected returns nil if every ordered pair of nodes is connected
// under the routing function, or an error naming a broken pair.
func (t *Table) FullyConnected() error {
	for dst := 0; dst < t.n; dst++ {
		for src := 0; src < t.n; src++ {
			if src != dst && t.Distance(src, dst) < 0 {
				return fmt.Errorf("routing: %s cannot route %d -> %d",
					t.f.AlgorithmName, src, dst)
			}
		}
	}
	return nil
}

// AvgPathLength returns the mean legal shortest path length over all
// ordered pairs of distinct nodes (a key quality metric: turn restrictions
// stretch paths, and the paper credits tree/cross separation with shorter
// routes).
func (t *Table) AvgPathLength() float64 {
	sum, cnt := 0.0, 0
	for dst := 0; dst < t.n; dst++ {
		for src := 0; src < t.n; src++ {
			if src == dst {
				continue
			}
			if d := t.Distance(src, dst); d >= 0 {
				sum += float64(d)
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// PathCountBound reports, for diagnostics, how many states can reach each
// destination; it equals numCh+n when the function is fully connected and
// every channel is useful for every destination (not required).
func (t *Table) PathCountBound(dst int) int {
	c := 0
	for s := 0; s < t.stride; s++ {
		if t.dist[dst*t.stride+s] != unreachable {
			c++
		}
	}
	return c
}
