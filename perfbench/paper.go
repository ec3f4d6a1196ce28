package main

import (
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wormsim"
)

// paperSampleConfig is one tenth of `make paper`'s main study: the paper
// grid with one sample per cell, one simulation per core at a time.
func paperSampleConfig() harness.Options {
	o := harness.PaperOptions()
	o.Samples = 1
	o.Parallelism = runtime.GOMAXPROCS(0)
	return o
}

// deriveSeed mirrors the harness's position-based seeding, so the traced
// replay simulates exactly the networks and traffic harness.Run does.
func deriveSeed(base, a, b, c, d, e uint64) uint64 {
	x := base
	for _, v := range [...]uint64{a, b, c, d, e} {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
	}
	return x
}

// gridCell is one prepared (ports, policy, algorithm) cell of sample 0.
type gridCell struct {
	pi, poli, ai int
	fn           *routing.Function
	tb           *routing.Table
}

// layerSpan names the span of an algorithm's Build call.
func layerSpan(alg routing.Algorithm) string {
	switch alg.(type) {
	case core.DownUp:
		return "core.downup_build"
	case routing.LTurn:
		return "routing.lturn_build"
	}
	return "routing.build"
}

// prepareGrid builds every cell's routing function and table the way
// harness.Run prepares sample 0, recording a span around each layer call.
func prepareGrid(o harness.Options, tr *tracer, parent uint64) ([]gridCell, error) {
	var cells []gridCell
	for pi, ports := range o.Ports {
		sp := tr.start("topology.generate", parent)
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: o.Switches, Ports: ports, Fill: 1},
			rng.New(deriveSeed(o.Seed, uint64(pi), 0, 0, 0, 0)))
		sp.end()
		if err != nil {
			return nil, err
		}
		for poli, pol := range o.Policies {
			for ai, alg := range o.Algorithms {
				var treeRng *rng.Rng
				if pol == ctree.M2 {
					treeRng = rng.New(deriveSeed(o.Seed, uint64(pi), 0, uint64(poli), 1, 0))
				}
				sp := tr.start("ctree.build", parent)
				t, err := ctree.Build(g, pol, treeRng)
				sp.end()
				if err != nil {
					return nil, err
				}
				sp = tr.start("cgraph.build", parent)
				cg := cgraph.Build(t)
				sp.end()
				sp = tr.start(layerSpan(alg), parent)
				fn, err := alg.Build(cg)
				sp.end()
				if err != nil {
					return nil, err
				}
				sp = tr.start("routing.verify", parent)
				err = fn.Verify()
				sp.end()
				if err != nil {
					return nil, err
				}
				sp = tr.start("routing.newtable", parent)
				tb := routing.NewTable(fn)
				sp.end()
				cells = append(cells, gridCell{pi, poli, ai, fn, tb})
			}
		}
	}
	return cells, nil
}

func runPaperSample(e *env, o harness.Options) (*result, error) {
	o.Seed = e.seed
	res := newResult()

	// Set-up: prepare the grid's reference routing (avg path length and
	// released turns per cell), which the output check compares against.
	var cells []gridCell
	setup, err := setupReps(3, func() (err error) {
		cells, err = prepareGrid(o, nil, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	var out *harness.Results
	runGrid := func() (err error) {
		out, err = harness.Run(o)
		return err
	}
	check := func() {
		res.attempted++
		checkPaperCSV(e, res, o, cells, harness.CSV(out))
		out = nil
	}

	if e.tr == nil {
		res.e2e["op_p50_ms"], res.e2e["op_cpu_ms"], err = repeatOps(e.seconds, runGrid, check)
		if err != nil {
			return nil, err
		}
		res.e2e["heap_live_mb"] = liveHeapMB()
		runtime.KeepAlive(cells)
		return res, nil
	}

	// Traced: harness.Run hides its layers, so after one untraced run (the
	// denominator of core utilization) the grid is replayed sequentially
	// through the layer calls.
	start := time.Now()
	err = runGrid()
	sampleD := time.Since(start)
	if err != nil {
		return nil, err
	}
	check()
	tr := e.tr
	root := tr.startRoot(1)
	replayed, err := prepareGrid(o, tr, root.id)
	if err != nil {
		return nil, err
	}
	var cycles, flitHops, allocs int64
	var runTime time.Duration
	for _, c := range replayed {
		for ri, rate := range o.Rates {
			cfg := wormsim.Config{
				PacketLength:    o.PacketLength,
				VirtualChannels: o.VirtualChannels,
				InjectionRate:   rate,
				Mode:            o.Mode,
				Engine:          o.Engine,
				Workers:         o.Workers,
				WarmupCycles:    o.WarmupCycles,
				MeasureCycles:   o.MeasureCycles,
				Seed:            deriveSeed(o.Seed, uint64(c.pi), 0, uint64(c.poli), uint64(c.ai)+2, uint64(ri)+1),
			}
			sp := tr.start("wormsim.new", root.id)
			sim, err := wormsim.New(c.fn, c.tb, cfg)
			sp.end()
			if err != nil {
				return nil, err
			}
			// The allocation count is read inside the span; the reads
			// cost microseconds against a run of a quarter second.
			sp = tr.start("wormsim.run", root.id)
			m0 := mallocs()
			err = sim.RunCycles(cfg.TotalCycles())
			allocs += int64(mallocs() - m0)
			runTime += sp.end()
			if err != nil {
				return nil, err
			}
			sp = tr.start("wormsim.finish", root.id)
			r := sim.Finish()
			err = r.CheckConservation()
			sp.end()
			if err != nil {
				return nil, err
			}
			sp = tr.start("metrics.nodestats", root.id)
			_, err = metrics.ComputeNodeStats(c.fn.CG(), r.ChannelFlits, r.MeasuredCycles)
			sp.end()
			if err != nil {
				return nil, err
			}
			cycles += int64(r.Cycles)
			for _, f := range r.ChannelFlits {
				flitHops += f
			}
		}
	}
	replayWall := root.end()

	ms := msTotals(tr)
	l := res.layers
	for _, name := range []string{"topology.generate", "ctree.build", "cgraph.build", "core.downup_build",
		"routing.lturn_build", "routing.verify", "routing.newtable", "wormsim.new", "wormsim.finish", "metrics.nodestats"} {
		l[name+"_ms"] = ms[name]
	}
	for _, c := range replayed {
		if _, ok := o.Algorithms[c.ai].(core.DownUp); ok {
			l["core.released_turns"] += float64(c.fn.Released)
		}
	}
	l["wormsim.run_s"] = runTime.Seconds()
	l["wormsim.cycles"] = float64(cycles)
	l["wormsim.flit_hops"] = float64(flitHops)
	l["wormsim.ns_per_cycle"] = float64(runTime.Nanoseconds()) / float64(cycles)
	l["wormsim.ns_per_flit_hop"] = float64(runTime.Nanoseconds()) / float64(flitHops)
	l["wormsim.allocs_per_cycle"] = float64(allocs) / float64(cycles)
	l["harness.core_utilization"] = replayWall.Seconds() / (sampleD.Seconds() * float64(o.Parallelism))
	finishTrace(tr, l, tr.overheadPct())
	return res, nil
}

// checkPaperCSV checks one harness.Run's CSV: its digest against the
// recorded one for this seed, and, for any seed, its shape and that every
// cell's avg path length and released-turn count match the independently
// prepared grid.
func checkPaperCSV(e *env, res *result, o harness.Options, cells []gridCell, out string) {
	digest := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
	e.checkDigest(res, "paper-sample", digest)
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		res.fail("paper-sample: CSV does not parse: %v", err)
		return
	}
	if want := len(cells)*len(o.Rates) + 1; len(rows) != want {
		res.fail("paper-sample: CSV has %d rows, want %d", len(rows), want)
		return
	}
	type cellKey struct{ ports, policy, alg string }
	want := map[cellKey][2]float64{}
	for _, c := range cells {
		k := cellKey{strconv.Itoa(o.Ports[c.pi]), o.Policies[c.poli].String(), o.Algorithms[c.ai].Name()}
		want[k] = [2]float64{c.tb.AvgPathLength(), float64(c.fn.Released)}
	}
	for _, row := range rows[1:] {
		w, ok := want[cellKey{row[0], row[1], row[2]}]
		apl, err1 := strconv.ParseFloat(row[11], 64)
		rel, err2 := strconv.ParseFloat(row[12], 64)
		acc, err3 := strconv.ParseFloat(row[4], 64)
		if !ok || err1 != nil || err2 != nil || err3 != nil || apl != w[0] || rel != w[1] || !(acc > 0) {
			res.fail("paper-sample: CSV row %v disagrees with the prepared grid (avg_path %v released %v)", row, w[0], w[1])
			return
		}
	}
}
