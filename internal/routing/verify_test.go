package routing_test

// External test package: DOWN/UP lives in package core, which imports
// routing, and the oracles here must cover it alongside the baselines.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

var fiveAlgorithms = []routing.Algorithm{
	core.DownUp{}, routing.LTurn{}, routing.UpDown{}, routing.RightLeft{}, routing.DFSUpDown{},
}

// oracleCG builds the communication graph of a seeded random network,
// on a DFS spanning tree for dfs-up*/down* and a coordinated BFS tree
// under policy otherwise.
func oracleCG(t testing.TB, seed uint64, switches, ports int, policy ctree.Policy, alg routing.Algorithm) *cgraph.CG {
	t.Helper()
	r := rng.New(seed)
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	build := ctree.Build
	if _, ok := alg.(routing.DFSUpDown); ok {
		build = ctree.BuildDFS
	}
	tr, err := build(g, policy, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	return cgraph.Build(tr)
}

// oracleCase is one routing function the oracles compare on.
type oracleCase struct {
	name string
	f    *routing.Function
}

// oracleCases covers the five algorithms on seeded random networks under
// M1-M3, the turn-cycle-bearing Unrestricted, random uniform masks (most
// of which are cyclic or disconnect the network), and a 40-switch full
// mesh whose degree 39 is far above the FIB's 16-port limit.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	add := func(name string, f *routing.Function, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, oracleCase{name, f})
	}
	sizes := []struct{ switches, ports int }{{12, 4}, {33, 4}, {48, 6}}
	for _, alg := range fiveAlgorithms {
		for _, policy := range []ctree.Policy{ctree.M1, ctree.M2, ctree.M3} {
			for _, sz := range sizes {
				for seed := uint64(1); seed <= 3; seed++ {
					cg := oracleCG(t, seed, sz.switches, sz.ports, policy, alg)
					f, err := alg.Build(cg)
					add(fmt.Sprintf("%s/M%d/%dx%d/seed%d", alg.Name(), policy+1, sz.switches, sz.ports, seed), f, err)
				}
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		cg := oracleCG(t, seed, 24, 4, ctree.M1, routing.UpDown{})
		f, err := routing.Unrestricted{}.Build(cg)
		add(fmt.Sprintf("unrestricted/seed%d", seed), f, err)
	}
	schemes := []turnmodel.Scheme{turnmodel.EightDir{}, turnmodel.SixDir{}, turnmodel.FourDir{}, turnmodel.UpDownDir{}}
	r := rng.New(11)
	for seed := uint64(1); seed <= 4; seed++ {
		cg := oracleCG(t, seed, 30, 4, ctree.M1, routing.UpDown{})
		for _, scheme := range schemes {
			nd := scheme.NumDirs()
			for k := 0; k < 6; k++ {
				var prohibited []turnmodel.Turn
				for a := 0; a < nd; a++ {
					for b := 0; b < nd; b++ {
						if a != b && r.Intn(3) > 0 {
							prohibited = append(prohibited, turnmodel.Turn{From: turnmodel.Dir(a), To: turnmodel.Dir(b)})
						}
					}
				}
				name := fmt.Sprintf("%s-mask%d", scheme.Name(), k)
				f := routing.FromMask(cg, scheme, turnmodel.NewMask(nd, prohibited), name)
				add(fmt.Sprintf("seed%d/%s", seed, name), f, nil)
			}
		}
	}
	g, err := topology.FullMesh(40)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh := cgraph.Build(tr)
	for _, alg := range fiveAlgorithms {
		f, err := alg.Build(mesh)
		add("fullmesh40/"+alg.Name(), f, err)
	}
	return cases
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestVerifyMatchesFullyConnected pins Verify's one-pass reachability
// against the all-pairs table: on every case it must return exactly what
// the cycle check followed by NewTable(f).FullyConnected() returns,
// including which broken pair a disconnected function reports first.
func TestVerifyMatchesFullyConnected(t *testing.T) {
	var cyclic, disconnected, ok int
	for _, c := range oracleCases(t) {
		var want string
		if cyc := c.f.Sys.FindTurnCycle(); cyc != nil {
			want = fmt.Sprintf("routing: %s is not deadlock-free: turn cycle %s",
				c.f.AlgorithmName, c.f.Sys.DescribeCycle(cyc))
			cyclic++
		} else if want = errText(routing.NewTable(c.f).FullyConnected()); want != "" {
			disconnected++
		} else {
			ok++
		}
		if got := errText(c.f.Verify()); got != want {
			t.Errorf("%s: Verify = %q, want %q", c.name, got, want)
		}
	}
	t.Logf("%d cyclic, %d disconnected, %d verified", cyclic, disconnected, ok)
	if cyclic == 0 || disconnected < 5 || ok == 0 {
		t.Fatalf("cases do not exercise every verdict: %d cyclic, %d disconnected, %d verified",
			cyclic, disconnected, ok)
	}
}

// refDistances is the backward BFS NewTable used before it precomputed
// predecessor lists: it asks TurnAllowed for every predecessor it relaxes.
// It returns dst's distances indexed by state (channels, then one
// injection state per node), -1 for unreachable.
func refDistances(f *routing.Function, dst int) []int {
	cg := f.Sys.CG
	numCh := cg.NumChannels()
	d := make([]int, numCh+cg.N())
	for i := range d {
		d[i] = -1
	}
	d[numCh+dst] = 0
	var queue []int
	for _, c := range cg.In[dst] {
		d[c] = 0
		queue = append(queue, c)
	}
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		from := cg.Channels[c].From
		if d[numCh+from] < 0 {
			d[numCh+from] = d[c] + 1
		}
		for _, p := range cg.In[from] {
			if d[p] < 0 && f.Sys.TurnAllowed(p, c) {
				d[p] = d[c] + 1
				queue = append(queue, p)
			}
		}
	}
	return d
}

// farCases are networks whose legal distances do not fit the table's
// distance byte: on Ring(600) a packet may not U-turn, so a channel state
// heading away from its destination goes 599 hops around, and Line(300)
// has 299-hop pairs. Both run under up*/down* and DOWN/UP.
func farCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	for _, g := range []*topology.Graph{topology.Ring(600), topology.Line(300)} {
		tr, err := ctree.Build(g, ctree.M1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cg := cgraph.Build(tr)
		for _, alg := range []routing.Algorithm{routing.UpDown{}, core.DownUp{}} {
			f, err := alg.Build(cg)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, oracleCase{fmt.Sprintf("far/%dsw/%s", g.N(), alg.Name()), f})
		}
	}
	return cases
}

// states lists every routing state of cg with its row index: channels,
// then one injection state per node.
func states(cg *cgraph.CG) []int {
	s := make([]int, 0, cg.NumChannels()+cg.N())
	for c := 0; c < cg.NumChannels(); c++ {
		s = append(s, c)
	}
	for v := 0; v < cg.N(); v++ {
		s = append(s, routing.InjectionState(v))
	}
	return s
}

// TestNewTableMatchesReference pins every state distance of NewTable to
// the TurnAllowed reference BFS on every oracle case, connected or not,
// and on the far cases, whose distances above 254 take the table's far
// escape.
func TestNewTableMatchesReference(t *testing.T) {
	for _, c := range append(oracleCases(t), farCases(t)...) {
		tb := routing.NewTable(c.f)
		cg := c.f.Sys.CG
		all := states(cg)
		maxD := 0
		for dst := 0; dst < cg.N(); dst++ {
			for s, want := range refDistances(c.f, dst) {
				if got := tb.StateDistance(dst, all[s]); got != want {
					t.Fatalf("%s: dst %d state %d: distance %d, reference %d", c.name, dst, s, got, want)
				}
				maxD = max(maxD, want)
			}
		}
		if strings.HasPrefix(c.name, "far/") && maxD < routing.DistFar {
			t.Fatalf("%s: longest distance %d fits a byte; the far escape is not exercised", c.name, maxD)
		}
	}
}

// TestNextChannelsMatchesReference pins NextChannels on the far cases,
// for every state and destination, to the out-channels whose reference
// distance is one less and whose turn is allowed, in cg.Out order.
func TestNextChannelsMatchesReference(t *testing.T) {
	for _, c := range farCases(t) {
		tb := routing.NewTable(c.f)
		cg := c.f.Sys.CG
		all := states(cg)
		var got, want []int
		for dst := 0; dst < cg.N(); dst++ {
			ref := refDistances(c.f, dst)
			for s, state := range all {
				here := ^state
				if state >= 0 {
					here = cg.Channels[state].To
				}
				// ref[s] <= 0: already arrived, or unreachable.
				want = want[:0]
				for _, out := range cg.Out[here] {
					if ref[s] > 0 && ref[out] == ref[s]-1 && (state < 0 || c.f.Sys.TurnAllowed(state, out)) {
						want = append(want, out)
					}
				}
				if got = tb.NextChannels(dst, state, got[:0]); !slices.Equal(got, want) {
					t.Fatalf("%s: dst %d state %d (distance %d): NextChannels %v, reference %v",
						c.name, dst, state, ref[s], got, want)
				}
			}
		}
	}
}

// TestTableSizeBytes pins SizeBytes to one byte per (destination, state)
// at 512x8, where every distance fits a byte, and to that plus eight
// bytes per distance above 254 on a far case.
func TestTableSizeBytes(t *testing.T) {
	cg := oracleCG(t, 1, 512, 8, ctree.M1, core.DownUp{})
	f, err := core.DownUp{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	n := cg.N()
	if got, want := routing.NewTable(f).SizeBytes(), n*(cg.NumChannels()+n); got != want {
		t.Fatalf("512x8: SizeBytes %d, want n*(numCh+n) = %d", got, want)
	}
	far := farCases(t)[0]
	tb := routing.NewTable(far.f)
	cg = far.f.Sys.CG
	n = cg.N()
	want := n * (cg.NumChannels() + n)
	for dst := 0; dst < n; dst++ {
		for _, state := range states(cg) {
			if tb.StateDistance(dst, state) >= routing.DistFar {
				want += 8
			}
		}
	}
	if got := tb.SizeBytes(); got != want {
		t.Fatalf("%s: SizeBytes %d, want %d", far.name, got, want)
	}
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestVerifyAllocatesUnderQuarterOfTable checks that Verify does not
// build the all-pairs table: at 512x8 it must allocate under a quarter of
// n*(numCh+n) bytes, less than any table of one byte per entry.
func TestVerifyAllocatesUnderQuarterOfTable(t *testing.T) {
	cg := oracleCG(t, 1, 512, 8, ctree.M1, core.DownUp{})
	f, err := core.DownUp{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	entries := uint64(cg.N() * (cg.NumChannels() + cg.N()))
	verifyBytes := allocated(func() { err = f.Verify() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Verify %d B, table entries %d", verifyBytes, entries)
	if verifyBytes*4 >= entries {
		t.Fatalf("Verify allocated %d B, not under a quarter of the table's %d entries", verifyBytes, entries)
	}
}

func BenchmarkVerify128x8(b *testing.B) {
	cg := oracleCG(b, 1, 128, 8, ctree.M1, core.DownUp{})
	f, err := core.DownUp{}.Build(cg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
