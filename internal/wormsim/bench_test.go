package wormsim

// Engine microbenchmarks and the steady-state allocation regression test.
// BenchmarkRunCycles times single cycles of a warmed paper-scale network
// under both engines (the speedup ratio is what results/BENCH_wormsim.json
// records); BenchmarkSweep times a whole small run end to end, New included.

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// benchConfigs are the network shapes the perf pipeline tracks: the paper's
// 128-switch networks at both port counts, under paper-scale load, plus the
// 8-port network at the top of the paper's rate grid, far past saturation,
// where almost every occupied lane sleeps on a wait list.
var benchConfigs = []struct {
	name  string
	ports int
	rate  float64
}{
	{"128sw-4port", 4, 0.1},
	{"128sw-8port", 8, 0.1},
	{"128sw-8port-sat", 8, 0.65},
}

func BenchmarkRunCycles(b *testing.B) {
	for _, bc := range benchConfigs {
		for _, engine := range Engines() {
			b.Run(bc.name+"/"+engine.String(), func(b *testing.B) {
				f, tb := randomFn(b, 1, 128, bc.ports, core.DownUp{})
				sim, err := New(f, tb, Config{
					InjectionRate: bc.rate,
					WarmupCycles:  NoWarmup,
					MeasureCycles: 1 << 30,
					Seed:          1,
					Engine:        engine,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.RunCycles(2000); err != nil {
					b.Fatal(err) // warm the network to steady state
				}
				b.ReportAllocs()
				b.ResetTimer()
				if err := sim.RunCycles(b.N); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkRunCyclesScale times warmed event-engine cycles at large fabric
// scales (1024 and 4096 switches), under enough load that a cycle carries
// real work. The scan baseline is omitted — its full rescan is exactly
// what these scales rule out.
func BenchmarkRunCyclesScale(b *testing.B) {
	for _, switches := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("%dsw/%s", switches, EngineEvent), func(b *testing.B) {
			f, tb := randomFn(b, 1, switches, 4, core.DownUp{})
			sim, err := New(f, tb, Config{
				PacketLength:  32,
				InjectionRate: 0.3,
				WarmupCycles:  NoWarmup,
				MeasureCycles: 1 << 30,
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.RunCycles(500); err != nil {
				b.Fatal(err) // warm the network to steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := sim.RunCycles(b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			sim.Finish()
		})
	}
}

func BenchmarkSweep(b *testing.B) {
	for _, engine := range Engines() {
		b.Run(engine.String(), func(b *testing.B) {
			f, tb := randomFn(b, 2, 32, 4, core.DownUp{})
			cfg := Config{
				PacketLength:  32,
				InjectionRate: 0.1,
				WarmupCycles:  500,
				MeasureCycles: 4000,
				Seed:          3,
				Engine:        engine,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := New(f, tb, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSteadyStateAllocs pins the event engine's no-allocation guarantee:
// once the network is warm and the unbounded ledgers (the packet table, the
// latency sample, the source queues) have been given room, a simulation
// cycle allocates nothing. Adaptive mode is used because source-routed
// packets intrinsically allocate their route slice at creation. The
// closed-loop subtest runs the same check over the Workload injection path
// (poll + delivery notification), with a fixed-capacity token-circulation
// source.
func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{name: "open-loop", cfg: Config{
			Mode:          Adaptive,
			PacketLength:  8,
			InjectionRate: 0.2,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
		}},
		{name: "closed-loop", cfg: Config{
			Mode:          Adaptive,
			PacketLength:  8,
			Workload:      newTokenRing(32, 16),
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, tb := randomFn(t, 21, 32, 4, core.DownUp{})
			sim, err := New(f, tb, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunCycles(5000); err != nil {
				t.Fatal(err)
			}
			// Pre-reserve the growth inherent to an ever-running simulation
			// so the measurement isolates the cycle loop's own behavior.
			sim.packets = append(make([]packet, 0, len(sim.packets)+1<<16), sim.packets...)
			sim.latencies = append(make([]int32, 0, len(sim.latencies)+1<<16), sim.latencies...)
			for v := range sim.queues {
				q := make([]int32, len(sim.queues[v]), 4096)
				copy(q, sim.queues[v])
				sim.queues[v] = q
			}
			avg := testing.AllocsPerRun(500, func() {
				if err := sim.RunCycles(1); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0 {
				t.Fatalf("steady-state cycle allocates: %v allocs/cycle, want 0", avg)
			}
		})
	}
}

// TestEventWorkBounded pins the event engine's work to the flits that
// move, on one saturated paper-scale cell (128 switches, 8 ports, 128-flit
// worms at 0.65 flits/clock/node, where almost every occupied lane holds a
// blocked worm): blocked lanes and sources must sleep on their wait lists
// instead of being retried every cycle. A lane visit is one switchEvent
// visit of an active lane; a flit moved is one switch traversal (a
// TraceMove onto a non-injection lane). The counts are deterministic, so
// the bounds are exact. An engine that retries blocked lanes and sources
// every cycle makes 1.90 lane visits per flit moved and 2.37 source visits
// per flit injected on this cell; this one makes 1.15 and 1.01.
func TestEventWorkBounded(t *testing.T) {
	f, tb := randomFn(t, 1, 128, 8, core.DownUp{})
	sim, err := New(f, tb, Config{
		InjectionRate: 0.65,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var moved int64
	injBase := sim.injVCL(0)
	sim.TraceMove = func(vcl, _, _ int32) {
		if vcl < injBase || vcl >= injBase+int32(sim.n) {
			moved++
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	lanes, feeds := sim.ev.laneVisits, sim.ev.feedVisits
	t.Logf("lane visits %d / flits moved %d = %.3f; feed visits %d / flits injected %d = %.3f",
		lanes, moved, float64(lanes)/float64(moved), feeds, res.FlitsInjected, float64(feeds)/float64(res.FlitsInjected))
	if moved == 0 || res.FlitsInjected == 0 {
		t.Fatal("saturated cell moved no flits")
	}
	if float64(lanes) > 1.35*float64(moved) {
		t.Errorf("lane visits %d > 1.35 x flits moved %d: blocked lanes are being polled", lanes, moved)
	}
	if float64(feeds) > 1.1*float64(res.FlitsInjected) {
		t.Errorf("feed visits %d > 1.1 x flits injected %d: blocked sources are being polled", feeds, res.FlitsInjected)
	}
}
