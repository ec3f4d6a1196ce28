package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/fib"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// buildConfig sizes the build-2048x8 workload's network.
type buildConfig struct{ Switches, Ports int }

// built is what one pass of the build path produces.
type built struct {
	fn  *routing.Function
	tb  *routing.Table
	fib *fib.FIB
}

// buildPath runs the sequence irnetd's install and every CLI run: M1
// coordinated tree, communication graph, DOWN/UP, Verify, table, FIB.
func buildPath(g *topology.Graph, tr *tracer, parent uint64) (built, error) {
	sp := tr.start("ctree.build", parent)
	t, err := ctree.Build(g, ctree.M1, nil)
	sp.end()
	if err != nil {
		return built{}, err
	}
	sp = tr.start("cgraph.build", parent)
	cg := cgraph.Build(t)
	sp.end()
	sp = tr.start("core.downup_build", parent)
	fn, err := core.DownUp{}.Build(cg)
	sp.end()
	if err != nil {
		return built{}, err
	}
	sp = tr.start("routing.verify", parent)
	err = fn.Verify()
	sp.end()
	if err != nil {
		return built{}, err
	}
	sp = tr.start("routing.newtable", parent)
	tb := routing.NewTable(fn)
	sp.end()
	sp = tr.start("fib.compile", parent)
	f, err := fib.Compile(tb)
	sp.end()
	if err != nil {
		return built{}, err
	}
	return built{fn, tb, f}, nil
}

func runBuild(e *env, c buildConfig) (*result, error) {
	res := newResult()
	var g *topology.Graph
	setup, err := setupReps(3, func() (err error) {
		sp := e.tr.start("topology.generate", 0)
		g, err = topology.RandomIrregular(topology.IrregularConfig{Switches: c.Switches, Ports: c.Ports, Fill: 1},
			rng.New(e.seed))
		sp.end()
		return err
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	var last built
	var builds int
	buildOnce := func() (err error) {
		last = built{} // free the previous build before the next one
		root := e.tr.startRoot(1)
		last, err = buildPath(g, e.tr, root.id)
		root.end()
		return err
	}
	check := func() {
		res.attempted++
		builds++
		checkBuild(e, res, c, last)
	}
	res.e2e["op_p50_ms"], res.e2e["op_cpu_ms"], err = repeatOps(e.seconds, buildOnce, check)
	if err != nil {
		return nil, err
	}
	res.e2e["heap_live_mb"] = liveHeapMB()

	if e.tr != nil {
		l := res.layers
		units := float64(builds)
		ms := msTotals(e.tr)
		for _, name := range []string{"ctree.build", "cgraph.build", "core.downup_build", "routing.verify",
			"routing.newtable", "fib.compile"} {
			l[name+"_ms"] = ms[name] / units
		}
		l["topology.generate_ms"] = ms["topology.generate"] / float64(e.tr.layerCounts()["topology.generate"])
		l["core.released_turns"] = float64(last.fn.Released)
		l["fib.size_mb"] = float64(last.fib.SizeBytes()) / 1e6
		// The table's live size: the heap grows by it when a second one
		// is built and kept.
		before := liveHeapMB()
		tb := routing.NewTable(last.fn)
		l["routing.table_mb"] = liveHeapMB() - before
		runtime.KeepAlive(tb)
		finishTrace(e.tr, l, e.tr.overheadPct())
	}
	runtime.KeepAlive(last)
	return res, nil
}

// checkBuild checks one build's outputs: the digest of the FIB bytes,
// average path length and released-turn count against the recorded one,
// and for any seed that the FIB covers every switch and every pair is
// reachable over a finite average path.
func checkBuild(e *env, res *result, c buildConfig, b built) {
	h := sha256.New()
	if _, err := b.fib.WriteTo(h); err != nil {
		res.fail("build: FIB WriteTo: %v", err)
		return
	}
	apl := b.tb.AvgPathLength()
	e.checkDigest(res, "build-2048x8", fmt.Sprintf("%x apl=%.9f released=%d", h.Sum(nil), apl, b.fn.Released))
	if b.fib.N() != c.Switches || math.IsNaN(apl) || apl < 1 || b.fn.Released < 0 {
		res.fail("build: FIB covers %d of %d switches, avg path %v, released %d",
			b.fib.N(), c.Switches, apl, b.fn.Released)
	}
}
