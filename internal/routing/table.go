package routing

import (
	"fmt"
	"math"
	"runtime"
	"sort"
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
//
// Distances are stored one byte per (destination, state), since the table
// is the n²·p structure of the build path and legal shortest paths on
// irregular networks are a few dozen channels at most. Bytes 0–254 are
// exact distances. DistFar (255) means "far": the state either cannot
// reach the destination, or its exact distance (255 or more) is kept in a
// per-destination list of (state, distance) pairs. Far lists exist only
// for the destinations that need them, so on every network where all
// distances fit a byte the table is exactly one byte per entry. Because
// every distance stays exact at any size, NewTable has no overflow error
// path and the table no width option.
type Table struct {
	f     *Function
	numCh int
	n     int
	// dist[dst*stride + state] = remaining channels to traverse from state
	// to dst, or DistFar. States 0..numCh-1 are channels; numCh+v is the
	// injection state of node v. stride = numCh + n.
	dist   []uint8
	stride int
	// far[dst] lists the reachable states of dst's row whose byte is
	// DistFar, ascending by state. far is nil unless some row has one.
	far [][]farEntry
}

// DistFar is the byte DistRow holds for a state that cannot reach the
// destination or whose distance does not fit below it; StateDistance
// tells the two apart.
const DistFar = 255

// farEntry is one exact distance that does not fit a byte.
type farEntry struct{ state, dist int32 }

// unreachable marks a state the int32 BFS row has not reached.
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
	t.dist = make([]uint8, t.n*t.stride)
	preds := newPredLists(f)
	workers = max(1, min(workers, t.n))
	// Destinations are handed out through an atomic counter rather than
	// fixed ranges: BFS cost varies with how central a destination is, and
	// work stealing keeps the goroutines evenly loaded.
	var next atomic.Int64
	scratch := make([]bfsScratch, workers)
	var wg sync.WaitGroup
	for k := range scratch {
		wg.Add(1)
		go func(s *bfsScratch) {
			defer wg.Done()
			s.queue = make([]int32, 0, t.stride)
			for {
				dst := int(next.Add(1)) - 1
				if dst >= t.n {
					return
				}
				t.fillRow(dst, preds, s)
			}
		}(&scratch[k])
	}
	wg.Wait()
	for _, s := range scratch {
		for _, r := range s.far {
			if t.far == nil {
				t.far = make([][]farEntry, t.n)
			}
			t.far[r.dst] = r.entries
		}
	}
	return t
}

// bfsScratch is one NewTable worker's reusable state.
type bfsScratch struct {
	queue []int32
	// wide is the int32 row a destination is redone in when one of its
	// distances does not fit a byte; allocated on first use.
	wide []int32
	// far collects this worker's far lists until NewTable installs them.
	far []farRow
}

type farRow struct {
	dst     int
	entries []farEntry
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

// fillRow fills destination dst's row of dist. The BFS runs on the byte
// row directly; if a distance would reach DistFar, the destination is
// redone in the worker's int32 row and packed into bytes plus a far list.
// It touches only dst's row, which is what makes per-destination
// parallelism safe.
func (t *Table) fillRow(dst int, preds predLists, s *bfsScratch) {
	row := t.DistRow(dst)
	var ok bool
	if s.queue, ok = bfs(t, row, DistFar, dst, preds, s.queue); ok {
		return
	}
	if s.wide == nil {
		s.wide = make([]int32, t.stride)
	}
	s.queue, _ = bfs(t, s.wide, unreachable, dst, preds, s.queue)
	var far []farEntry
	for st, d := range s.wide {
		if d < DistFar {
			row[st] = uint8(d)
			continue
		}
		row[st] = DistFar
		if d != unreachable {
			far = append(far, farEntry{int32(st), d})
		}
	}
	s.far = append(s.far, farRow{dst, far})
}

// bfs fills row with a backward BFS toward dst, reusing queue as scratch
// (returned for the next call). none marks unreachable states and is the
// largest value the row type may hold: bfs stops and reports false as soon
// as a distance would reach it.
func bfs[D uint8 | int32](t *Table, row []D, none D, dst int, preds predLists, queue []int32) ([]int32, bool) {
	cg := t.f.Sys.CG
	for i := range row {
		row[i] = none
	}
	queue = queue[:0]
	// Base cases: arriving at dst via any of its in-channels takes zero
	// further hops; a packet born at dst is already there.
	row[t.numCh+dst] = 0
	for _, c := range cg.In[dst] {
		row[c] = 0
		queue = append(queue, int32(c))
	}
	// Backward BFS over reversed state-graph edges. Predecessors of a
	// channel state c are (a) the injection state of c.From and (b) the
	// allowed predecessor channels of c. Injection states have no
	// predecessors. States leave the queue in nondecreasing distance, so
	// the first distance to reach none is the first that does not fit.
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		nd := row[c] + 1
		if nd == none {
			return queue, false
		}
		if inj := t.numCh + cg.Channels[c].From; row[inj] > nd {
			row[inj] = nd
		}
		for _, p := range preds.list[preds.start[c]:preds.start[c+1]] {
			if row[p] > nd {
				row[p] = nd
				queue = append(queue, p)
			}
		}
	}
	return queue, true
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
	return t.at(dst, t.numCh+src)
}

// StateDistance returns the legal shortest path length from a routing
// state (a channel id or InjectionState(v), as for NextChannels) to dst,
// or -1 if dst is unreachable from it.
func (t *Table) StateDistance(dst, state int) int {
	if state < 0 {
		state = t.numCh + ^state
	}
	return t.at(dst, state)
}

// at returns the distance from state index s of dst's row, or -1. The
// fast path is one byte compare and inlines into the table's loops; the
// far lookup stays a call.
func (t *Table) at(dst, s int) (d int) {
	if d = int(t.dist[dst*t.stride+s]); d == DistFar {
		d = t.farDist(dst, s)
	}
	return
}

// farDist looks state index s up in dst's far list: its exact distance
// if it has one, else -1 (unreachable).
func (t *Table) farDist(dst, s int) int {
	if t.far == nil {
		return -1
	}
	far := t.far[dst]
	i := sort.Search(len(far), func(i int) bool { return int(far[i].state) >= s })
	if i < len(far) && int(far[i].state) == s {
		return int(far[i].dist)
	}
	return -1
}

// DistRow returns destination dst's row of distance bytes, indexed by
// channel id for channel states and by NumChannels()+v for the injection
// state of node v. An entry below DistFar is the exact distance; for
// DistFar, StateDistance gives the exact answer. The row aliases the
// table and must not be modified.
func (t *Table) DistRow(dst int) []uint8 {
	return t.dist[dst*t.stride : (dst+1)*t.stride]
}

// SizeBytes returns the memory the table's distance state occupies: one
// byte per (destination, state) plus eight per far entry.
func (t *Table) SizeBytes() int {
	size := len(t.dist)
	for _, far := range t.far {
		size += 8 * len(far)
	}
	return size
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
	here, s := 0, state
	if state < 0 {
		here = ^state
		s = t.numCh + here
	} else {
		here = cg.Channels[state].To
	}
	if here == dst {
		return buf
	}
	row := t.DistRow(dst)
	d := row[s]
	if d == DistFar {
		return t.nextFar(dst, state, s, here, buf)
	}
	// d >= 1 here, and row[c]+1 wraps DistFar to 0, so only channels at
	// exactly d-1 match.
	for _, c := range cg.Out[here] {
		if row[c]+1 == d && (state < 0 || t.f.Sys.TurnAllowed(state, c)) {
			buf = append(buf, c)
		}
	}
	return buf
}

// nextFar is NextChannels for a state whose byte is DistFar, reading
// exact distances through the far lists.
func (t *Table) nextFar(dst, state, s, here int, buf []int) []int {
	d := t.at(dst, s)
	if d < 0 {
		return buf
	}
	for _, c := range t.f.Sys.CG.Out[here] {
		if t.at(dst, c) == d-1 && (state < 0 || t.f.Sys.TurnAllowed(state, c)) {
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
			if src != dst && t.at(dst, t.numCh+src) < 0 {
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
			if d := t.at(dst, t.numCh+src); d >= 0 {
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
		if t.at(dst, s) >= 0 {
			c++
		}
	}
	return c
}
