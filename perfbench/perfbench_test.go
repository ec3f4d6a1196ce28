package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// tinyRuns runs every workload at a size that finishes in about a second.
var tinyRuns = map[string]func(e *env) (*result, error){
	"paper-sample": func(e *env) (*result, error) {
		o := harness.QuickOptions()
		o.Switches, o.Ports, o.Samples = 16, []int{4}, 1
		o.Policies = []ctree.Policy{ctree.M1}
		o.Algorithms = []routing.Algorithm{routing.LTurn{}, core.DownUp{}}
		o.PacketLength, o.Rates, o.WarmupCycles, o.MeasureCycles = 8, []float64{0.05}, 100, 400
		o.Parallelism = 2
		return runPaperSample(e, o)
	},
	"build-2048x8": func(e *env) (*result, error) { return runBuild(e, buildConfig{Switches: 32, Ports: 4}) },
	"netd-read":    func(e *env) (*result, error) { return runNetd(e, tinyNetd(false)) },
	"netd-storm":   func(e *env) (*result, error) { return runNetd(e, tinyNetd(true)) },
}

func tinyNetd(storm bool) netdConfig {
	c := netdConfig{name: "netd-read", Switches: 16, Ports: 4, readers: 2}
	if storm {
		c.name, c.readers, c.think, c.storm = "netd-storm", 1, time.Millisecond, true
	}
	return c
}

func tinyEnv(t *testing.T, traced bool) *env {
	e := &env{seed: 3, seconds: 300 * time.Millisecond, procs: 2, expect: expectations{},
		log: io.Discard, workdir: t.TempDir()}
	if traced {
		e.tr = newTracer()
	}
	return e
}

func TestMetricsEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := tinyRuns[w.name](tinyEnv(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			rep, err := buildReport(w.name, traced, res)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d: %v", w.name, traced, rep.Correct, rep.Failed, res.problems)
			}
			want := map[string]string{}
			if traced {
				for _, m := range perLayer {
					want[m.name] = m.unit
				}
			} else {
				for _, m := range endToEnd {
					want[m.name] = m.unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case m.Unit != unit || unit == "":
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.name, traced, name, m.Unit, unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if traced && !(rep.Metrics["trace.coverage"].Value >= 0.9) {
				t.Errorf("%s: spans cover %.3f of the traced wall time, want >= 0.9", w.name, rep.Metrics["trace.coverage"].Value)
			}
		}
	}
}

func TestCorruptDigestCounted(t *testing.T) {
	e := tinyEnv(t, false)
	e.expect = expectations{"build-2048x8": {e.seed: "corrupted"}}
	res, err := tinyRuns["build-2048x8"](e)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport("build-2048x8", false, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != rep.Attempted || rep.Failed < 1 {
		t.Fatalf("corrupted digest: correct=%v attempted=%d failed=%d, want every build failed",
			rep.Correct, rep.Attempted, rep.Failed)
	}
}

func TestRefusedReconfigCounted(t *testing.T) {
	e := tinyEnv(t, false)
	c := tinyNetd(true)
	// Kill only links that do not exist: every kill is refused.
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: c.Switches, Ports: c.Ports, Fill: 1},
		rng.New(e.seed))
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < c.Switches; v++ {
		if !g.HasEdge(0, v) {
			c.links = append(c.links, topology.Edge{From: 0, To: v})
		}
	}
	res, err := runNetd(e, c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := buildReport("netd-storm", false, res)
	if err != nil {
		t.Fatal(err)
	}
	// The timed writer and the output check each kill at least once.
	if rep.Correct || rep.Failed < 2 {
		t.Fatalf("refused reconfigurations: correct=%v failed=%d, want them counted", rep.Correct, rep.Failed)
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "root", start: 0, end: 10 * ms},
		{id: 2, parent: 1, name: "a", start: 1 * ms, end: 4 * ms},
		{id: 3, parent: 1, name: "a", start: 3 * ms, end: 6 * ms},
		{id: 4, parent: 2, name: "b", start: 1 * ms, end: 2 * ms},
	}
	got := map[string]layerRow{}
	for _, r := range layerRows(spans) {
		got[r.name] = r
	}
	if got["root"].self != 5*ms || got["a"].total != 6*ms || got["a"].self != 5*ms || got["a"].count != 2 {
		t.Fatalf("layer rows %+v", got)
	}
}

func TestHistQuantile(t *testing.T) {
	var h rttHist
	for us := 1; us <= 1000; us++ {
		h.add(time.Duration(us) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}} {
		if got := h.quantile(c.q); got < c.want*0.98 || got > c.want*1.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", c.q, got, c.want)
		}
	}
}
