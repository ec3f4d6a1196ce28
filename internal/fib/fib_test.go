package fib

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

func buildTable(t testing.TB, seed uint64, switches, ports int, alg routing.Algorithm) *routing.Table {
	t.Helper()
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return graphTable(t, g, alg)
}

// graphTable builds the verified table of alg on g's M1 tree.
func graphTable(t testing.TB, g *topology.Graph, alg routing.Algorithm) *routing.Table {
	t.Helper()
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cg := cgraph.Build(tr)
	f, err := alg.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	return routing.NewTable(f)
}

func TestCompileMatchesTable(t *testing.T) {
	tb := buildTable(t, 3, 24, 4, core.DownUp{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	cg := tb.Function().CG()
	var chanBuf, portBuf []int
	for v := 0; v < cg.N(); v++ {
		for dst := 0; dst < cg.N(); dst++ {
			if dst == v {
				continue
			}
			// Injection row.
			chanBuf = tb.NextChannels(dst, routing.InjectionState(v), chanBuf[:0])
			portBuf = f.LookupPorts(v, InjectionPort, dst, portBuf[:0])
			if len(chanBuf) != len(portBuf) {
				t.Fatalf("switch %d dst %d injection: %d channels vs %d ports",
					v, dst, len(chanBuf), len(portBuf))
			}
			for i, c := range chanBuf {
				if f.Neighbor(v, portBuf[i]) != cg.Channels[c].To {
					t.Fatalf("switch %d dst %d: port %d points at %d, want %d",
						v, dst, portBuf[i], f.Neighbor(v, portBuf[i]), cg.Channels[c].To)
				}
			}
			// Per-input rows.
			for inIdx, cIn := range cg.In[v] {
				chanBuf = tb.NextChannels(dst, cIn, chanBuf[:0])
				portBuf = f.LookupPorts(v, inIdx, dst, portBuf[:0])
				if len(chanBuf) != len(portBuf) {
					t.Fatalf("switch %d dst %d in %d: %d channels vs %d ports",
						v, dst, inIdx, len(chanBuf), len(portBuf))
				}
			}
		}
	}
}

func TestLookupSelfAndBounds(t *testing.T) {
	tb := buildTable(t, 5, 12, 4, routing.UpDown{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	if f.Lookup(3, InjectionPort, 3) != 0 {
		t.Fatal("self-destination lookup non-zero")
	}
	if f.Lookup(3, 99, 1) != 0 {
		t.Fatal("out-of-range input port did not return empty mask")
	}
	if f.Lookup(3, -5, 1) != 0 {
		t.Fatal("negative input port did not return empty mask")
	}
	if f.N() != 12 {
		t.Fatalf("N = %d", f.N())
	}
	if f.Algorithm() != "up*/down*" {
		t.Fatalf("algorithm = %q", f.Algorithm())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tb := buildTable(t, 7, 20, 4, core.DownUp{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != f.N() || g.Algorithm() != f.Algorithm() {
		t.Fatal("metadata differs after round trip")
	}
	for v := 0; v < f.N(); v++ {
		if g.Ports(v) != f.Ports(v) {
			t.Fatalf("switch %d port count differs", v)
		}
		for k := 0; k < f.Ports(v); k++ {
			if g.Neighbor(v, k) != f.Neighbor(v, k) {
				t.Fatalf("switch %d port %d neighbor differs", v, k)
			}
		}
		for dst := 0; dst < f.N(); dst++ {
			for in := InjectionPort; in < f.Ports(v); in++ {
				if g.Lookup(v, in, dst) != f.Lookup(v, in, dst) {
					t.Fatalf("lookup (%d,%d,%d) differs", v, in, dst)
				}
			}
		}
	}
}

func TestSerializationDeterministic(t *testing.T) {
	tb := buildTable(t, 9, 16, 4, routing.LTurn{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := f.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	tb := buildTable(t, 11, 12, 4, routing.UpDown{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad version", func(b []byte) []byte { b[8] = 0xff; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"zero switches", func(b []byte) []byte {
			copy(b[10:14], []byte{0, 0, 0, 0})
			return b
		}},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := c.mutate(append([]byte(nil), good...))
			if _, err := Read(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupted FIB accepted")
			}
		})
	}
}

func TestSizeBytes(t *testing.T) {
	tb := buildTable(t, 13, 16, 4, routing.UpDown{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	if f.SizeBytes() <= 0 {
		t.Fatal("non-positive size")
	}
	// Table state: sum over switches of (ports+1)*n entries, 2 bytes each.
	want := 0
	for v := 0; v < f.N(); v++ {
		want += 2 * (f.Ports(v) + 1) * f.N()
	}
	if f.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", f.SizeBytes(), want)
	}
}

func TestFIBWalkReachesDestination(t *testing.T) {
	// Simulate a header walking the network using only FIB lookups: it must
	// reach every destination within the table's distance.
	tb := buildTable(t, 15, 24, 4, core.DownUp{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	var ports []int
	for trial := 0; trial < 200; trial++ {
		src, dst := r.Intn(f.N()), r.Intn(f.N())
		if src == dst {
			continue
		}
		v, in := src, InjectionPort
		steps := 0
		for v != dst {
			ports = f.LookupPorts(v, in, dst, ports[:0])
			if len(ports) == 0 {
				t.Fatalf("FIB dead end at %d (from %d toward %d)", v, src, dst)
			}
			p := ports[r.Intn(len(ports))]
			next := f.Neighbor(v, p)
			// The input port at next facing v: find it via neighbor scan
			// (symmetric port numbering).
			in = -2
			for k := 0; k < f.Ports(next); k++ {
				if f.Neighbor(next, k) == v {
					in = k
					break
				}
			}
			if in == -2 {
				t.Fatalf("asymmetric port map between %d and %d", v, next)
			}
			v = next
			steps++
			if steps > tb.Distance(src, dst) {
				t.Fatalf("FIB walk %d->%d exceeded table distance %d", src, dst, tb.Distance(src, dst))
			}
		}
	}
}

func BenchmarkCompile128x8(b *testing.B) {
	tb := buildTable(b, 1, 128, 8, core.DownUp{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(tb); err != nil {
			b.Fatal(err)
		}
	}
}

// compileRef is the switch-major compile loop Compile replaced: one
// NextChannels call per (switch, destination, input row). It stays as the
// reference Compile's tiled, parallel kernel must match byte for byte.
func compileRef(tb *routing.Table) *FIB {
	fn := tb.Function()
	cg := fn.CG()
	n := cg.N()
	f := &FIB{
		n:         n,
		neighbors: make([][]int32, n),
		table:     make([][]uint16, n),
		algorithm: fn.AlgorithmName,
	}
	outPort := make([]int, cg.NumChannels())
	inPort := make([]int, cg.NumChannels())
	for v := 0; v < n; v++ {
		f.neighbors[v] = make([]int32, len(cg.Out[v]))
		for k, c := range cg.Out[v] {
			outPort[c] = k
			f.neighbors[v][k] = int32(cg.Channels[c].To)
		}
		for k, c := range cg.In[v] {
			inPort[c] = k
		}
	}
	var buf []int
	for v := 0; v < n; v++ {
		f.table[v] = make([]uint16, (len(cg.In[v])+1)*n)
		for dst := 0; dst < n; dst++ {
			if dst == v {
				continue
			}
			buf = tb.NextChannels(dst, routing.InjectionState(v), buf[:0])
			var mask uint16
			for _, c := range buf {
				mask |= 1 << uint(outPort[c])
			}
			f.table[v][dst] = mask
			for _, cIn := range cg.In[v] {
				buf = tb.NextChannels(dst, cIn, buf[:0])
				mask = 0
				for _, c := range buf {
					mask |= 1 << uint(outPort[c])
				}
				f.table[v][(inPort[cIn]+1)*n+dst] = mask
			}
		}
	}
	return f
}

func fibBytes(t *testing.T, f *FIB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompileMatchesReference pins Compile to compileRef byte for byte
// across the five algorithms, sizes that do and do not fill the last
// destination tile, a mask that disconnects the network (unreachable
// entries), Ring(600) and Line(300), whose distances above 254 take the
// table's far escape, and one and four goroutines.
func TestCompileMatchesReference(t *testing.T) {
	var tables []*routing.Table
	for _, alg := range []routing.Algorithm{core.DownUp{}, routing.LTurn{}, routing.UpDown{},
		routing.RightLeft{}, routing.DFSUpDown{}} {
		for _, sz := range []struct{ switches, ports int }{{12, 4}, {32, 6}, {75, 8}} {
			tables = append(tables, buildTable(t, 2, sz.switches, sz.ports, alg))
		}
	}
	// Only same-direction moves stay legal: acyclic, mostly disconnected.
	cg := buildTable(t, 4, 40, 4, routing.UpDown{}).Function().CG()
	frozen := routing.FromMask(cg, turnmodel.UpDownDir{}, turnmodel.NewMask(2, []turnmodel.Turn{
		{From: turnmodel.UDUp, To: turnmodel.UDDown}, {From: turnmodel.UDDown, To: turnmodel.UDUp}}), "")
	if frozen.Verify() == nil {
		t.Fatal("frozen mask unexpectedly connected")
	}
	tables = append(tables, routing.NewTable(frozen))
	for _, g := range []*topology.Graph{topology.Ring(600), topology.Line(300)} {
		for _, alg := range []routing.Algorithm{routing.UpDown{}, core.DownUp{}} {
			tables = append(tables, graphTable(t, g, alg))
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tb := range tables {
		want := fibBytes(t, compileRef(tb))
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			f, err := Compile(tb)
			if err != nil {
				t.Fatal(err)
			}
			if got := fibBytes(t, f); !bytes.Equal(got, want) {
				t.Fatalf("%s at %d switches, GOMAXPROCS %d: Compile differs from compileRef",
					tb.Function().AlgorithmName, f.N(), procs)
			}
		}
	}
}
