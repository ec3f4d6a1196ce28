// Package fib compiles routing tables into per-switch forwarding
// information bases — the artifact an actual deployment (in the spirit of
// Autonet, the system that introduced up*/down* routing) downloads into its
// switches. A FIB answers, entirely locally, the only question a switch
// ever asks: "a header for destination d arrived on input port p; which
// output ports may it take?" — with the answer restricted to the shortest
// legal continuations the routing function allows, so a switch using the
// FIB is deadlock-free and minimal by construction.
//
// The package also defines a compact, versioned binary serialization so
// FIBs can be distributed and loaded without recomputing the routing.
package fib

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/routing"
)

// InjectionPort is the input-port value for packets entering from the
// switch's local processor.
const InjectionPort = -1

// FIB holds the forwarding tables of every switch in one network.
//
// Port numbering at switch v: port k connects to the k-th entry of the
// switch's neighbor list in ascending neighbor order — the same order the
// communication graph stores output channels — so port numbers are stable
// and reproducible from the topology alone.
type FIB struct {
	n int
	// neighbors[v][k] = switch on v's port k.
	neighbors [][]int32
	// table[v] is indexed [ (inPort+1) * n + dst ] and holds a bitmask of
	// allowed output ports (bit k = port k). inPort InjectionPort maps to
	// row 0.
	table [][]uint16
	// algorithm records the routing function's name for provenance.
	algorithm string
}

// maxPorts is the largest port count a FIB can encode (bitmask width).
const maxPorts = 16

// maxSwitches bounds the switch count Read will accept. The cap keeps a
// hostile header from provoking large allocations before any table bytes
// have been seen; every network this repository builds is orders of
// magnitude below it.
const maxSwitches = 1 << 16

// tile is how many destinations one unit of Compile's work covers: 32
// uint16 entries fill one 64-byte cache line of every table row.
const tile = 32

// Compile builds the FIB for a routing function from its table. Every
// (destination, input port) pair at every switch gets the exact set of
// shortest legal output ports the table would offer.
//
// The work is cut into tiles of 32 consecutive destinations, handed to
// GOMAXPROCS goroutines through an atomic counter. A tile sweeps every
// switch and input row, so the table rows of its destinations stay in
// cache, and it writes one 64-byte line per (switch, row). The allowed
// turns are looked up once per input channel, not per destination. Every
// entry depends only on the table, so the bytes are the same for any
// goroutine count.
func Compile(tb *routing.Table) (*FIB, error) {
	fn := tb.Function()
	cg := fn.CG()
	n := cg.N()
	f := &FIB{
		n:         n,
		neighbors: make([][]int32, n),
		table:     make([][]uint16, n),
		algorithm: fn.AlgorithmName,
	}
	// cg.Out[v] and cg.In[v] are both ascending by peer id, so output port
	// k and input port k face the same neighbor, and the row of input
	// channel cg.In[v][k] is k+1.
	for v := 0; v < n; v++ {
		if len(cg.Out[v]) > maxPorts {
			return nil, fmt.Errorf("fib: switch %d has %d ports; the format supports %d",
				v, len(cg.Out[v]), maxPorts)
		}
		f.neighbors[v] = make([]int32, len(cg.Out[v]))
		for k, c := range cg.Out[v] {
			f.neighbors[v][k] = int32(cg.Channels[c].To)
		}
		f.table[v] = make([]uint16, (len(cg.In[v])+1)*n)
	}
	// turns[c] is the mask of output ports at c's sink that a packet
	// arriving on c may take.
	turns := make([]uint16, cg.NumChannels())
	for c := range turns {
		for k, out := range cg.Out[cg.Channels[c].To] {
			if fn.Sys.TurnAllowed(c, out) {
				turns[c] |= 1 << uint(k)
			}
		}
	}

	tiles := (n + tile - 1) / tile
	workers := min(runtime.GOMAXPROCS(0), tiles)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := (int(next.Add(1)) - 1) * tile
				if lo >= n {
					return
				}
				f.compileTile(tb, turns, lo, min(lo+tile, n))
			}
		}()
	}
	wg.Wait()
	return f, nil
}

// compileTile fills the entries for destinations lo..hi-1 in every row of
// every switch.
func (f *FIB) compileTile(tb *routing.Table, turns []uint16, lo, hi int) {
	cg := tb.Function().CG()
	var buf [tile][]uint8
	rows := buf[:hi-lo]
	for j := range rows {
		rows[j] = tb.DistRow(lo + j)
	}
	inj := cg.NumChannels() // row index of the injection state of switch 0
	for v := 0; v < f.n; v++ {
		outs := cg.Out[v]
		fillTile(tb, rows, f.table[v][lo:hi], routing.InjectionState(v), inj+v, outs, 1<<uint(len(outs))-1, v, lo)
		for k, cIn := range cg.In[v] {
			row := f.table[v][(k+1)*f.n:]
			fillTile(tb, rows, row[lo:hi], cIn, cIn, outs, turns[cIn], v, lo)
		}
	}
}

// fillTile sets entries[j] to the shortest legal output ports toward
// destination lo+j, whose distance row is rows[j], for a header at switch
// v in the given routing state (row index s), which may leave on the
// ports in allowed.
func fillTile(tb *routing.Table, rows [][]uint8, entries []uint16, state, s int, outs []int, allowed uint16, v, lo int) {
	for j := range entries {
		dst := lo + j
		if dst == v {
			continue // headers for the local processor never consult the FIB
		}
		row := rows[j]
		d := row[s]
		if d == routing.DistFar {
			entries[j] = farMask(tb, dst, state, outs, allowed)
			continue
		}
		// d >= 1 since dst != v, and row[c]+1 wraps DistFar to 0, so only
		// ports at exactly d-1 match.
		var mask uint16
		for m := allowed; m != 0; m &= m - 1 {
			k := bits.TrailingZeros16(m)
			if row[outs[k]]+1 == d {
				mask |= 1 << uint(k)
			}
		}
		entries[j] = mask
	}
}

// farMask is fillTile's entry for a state whose distance byte is DistFar:
// unreachable, or too far for a byte, so every distance is read exactly.
func farMask(tb *routing.Table, dst, state int, outs []int, allowed uint16) uint16 {
	d := tb.StateDistance(dst, state)
	if d < 0 {
		return 0
	}
	var mask uint16
	for m := allowed; m != 0; m &= m - 1 {
		k := bits.TrailingZeros16(m)
		if tb.StateDistance(dst, outs[k]) == d-1 {
			mask |= 1 << uint(k)
		}
	}
	return mask
}

// N returns the switch count.
func (f *FIB) N() int { return f.n }

// Algorithm returns the routing function name the FIB was compiled from.
func (f *FIB) Algorithm() string { return f.algorithm }

// Ports returns the number of connected ports at switch v.
func (f *FIB) Ports(v int) int { return len(f.neighbors[v]) }

// Neighbor returns the switch on v's port k.
func (f *FIB) Neighbor(v, k int) int { return int(f.neighbors[v][k]) }

// Lookup returns the allowed output ports, as a bitmask, for a header at
// switch v that arrived on input port in (InjectionPort for local packets)
// and is headed for dst. A zero mask means "eject here" when v == dst and
// is otherwise unreachable on a verified function.
func (f *FIB) Lookup(v, in, dst int) uint16 {
	row := in + 1
	if row < 0 || row > len(f.neighbors[v]) {
		return 0
	}
	return f.table[v][row*f.n+dst]
}

// LookupPorts appends the allowed output ports to buf.
func (f *FIB) LookupPorts(v, in, dst int, buf []int) []int {
	mask := f.Lookup(v, in, dst)
	for k := 0; mask != 0; k++ {
		if mask&1 != 0 {
			buf = append(buf, k)
		}
		mask >>= 1
	}
	return buf
}

// SizeBytes returns the serialized size of the forwarding state (table
// entries only), the figure that matters for switch memory budgeting.
func (f *FIB) SizeBytes() int {
	total := 0
	for v := range f.table {
		total += 2 * len(f.table[v])
	}
	return total
}

// Binary format:
//
//	magic "IRNETFIB" | version u16 | n u32 | algorithm (u16 len + bytes)
//	per switch: ports u16, neighbors [ports]u32, table [(ports+1)*n]u16
//
// All integers little-endian.
var magic = [8]byte{'I', 'R', 'N', 'E', 'T', 'F', 'I', 'B'}

const formatVersion = 1

// WriteTo serializes the FIB. It implements io.WriterTo.
func (f *FIB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	count := int64(0)
	write := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		count += int64(binary.Size(data))
		return nil
	}
	if err := write(magic); err != nil {
		return count, err
	}
	if err := write(uint16(formatVersion)); err != nil {
		return count, err
	}
	if err := write(uint32(f.n)); err != nil {
		return count, err
	}
	if err := write(uint16(len(f.algorithm))); err != nil {
		return count, err
	}
	if err := write([]byte(f.algorithm)); err != nil {
		return count, err
	}
	for v := 0; v < f.n; v++ {
		if err := write(uint16(len(f.neighbors[v]))); err != nil {
			return count, err
		}
		for _, nb := range f.neighbors[v] {
			if err := write(uint32(nb)); err != nil {
				return count, err
			}
		}
		if err := write(f.table[v]); err != nil {
			return count, err
		}
	}
	return count, bw.Flush()
}

// readTable decodes want uint16 table entries in bounded chunks, so a
// header that promises a huge table backed by a truncated body fails with
// an error after allocating at most one chunk beyond the bytes actually
// present — the memory a decoder commits must be proportional to its
// input, not to what the input claims.
func readTable(r io.Reader, want int) ([]uint16, error) {
	const chunk = 1 << 13 // 8192 entries = 16 KiB per read
	tbl := make([]uint16, 0, min(want, chunk))
	var raw [2 * chunk]byte
	for len(tbl) < want {
		k := min(want-len(tbl), chunk)
		if _, err := io.ReadFull(r, raw[:2*k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			tbl = append(tbl, binary.LittleEndian.Uint16(raw[2*i:]))
		}
	}
	return tbl, nil
}

// Read deserializes a FIB written by WriteTo, validating structure.
func Read(r io.Reader) (*FIB, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("fib: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("fib: bad magic %q", m)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != formatVersion {
		return nil, fmt.Errorf("fib: unsupported version %d", version)
	}
	var n32 uint32
	if err := binary.Read(br, binary.LittleEndian, &n32); err != nil {
		return nil, err
	}
	if n32 == 0 || n32 > maxSwitches {
		return nil, fmt.Errorf("fib: implausible switch count %d", n32)
	}
	n := int(n32)
	var algLen uint16
	if err := binary.Read(br, binary.LittleEndian, &algLen); err != nil {
		return nil, err
	}
	algBytes := make([]byte, algLen)
	if _, err := io.ReadFull(br, algBytes); err != nil {
		return nil, err
	}
	f := &FIB{
		n:         n,
		neighbors: make([][]int32, n),
		table:     make([][]uint16, n),
		algorithm: string(algBytes),
	}
	for v := 0; v < n; v++ {
		var ports uint16
		if err := binary.Read(br, binary.LittleEndian, &ports); err != nil {
			return nil, fmt.Errorf("fib: switch %d: %w", v, err)
		}
		if int(ports) > maxPorts {
			return nil, fmt.Errorf("fib: switch %d claims %d ports", v, ports)
		}
		f.neighbors[v] = make([]int32, ports)
		for k := range f.neighbors[v] {
			var nb uint32
			if err := binary.Read(br, binary.LittleEndian, &nb); err != nil {
				return nil, err
			}
			if int(nb) >= n {
				return nil, fmt.Errorf("fib: switch %d port %d neighbor %d out of range", v, k, nb)
			}
			f.neighbors[v][k] = int32(nb)
		}
		tbl, err := readTable(br, (int(ports)+1)*n)
		if err != nil {
			return nil, fmt.Errorf("fib: switch %d table: %w", v, err)
		}
		f.table[v] = tbl
		// Masks must fit the port count.
		full := uint16(1)<<uint(ports) - 1
		for i, mask := range f.table[v] {
			if mask&^full != 0 {
				return nil, fmt.Errorf("fib: switch %d entry %d references a missing port", v, i)
			}
		}
	}
	return f, nil
}
