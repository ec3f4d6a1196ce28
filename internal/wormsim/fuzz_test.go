package wormsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// FuzzConfig drives the simulator with arbitrary configurations on a small
// verified network under every engine: each config must be rejected by
// all of them or complete on all of them without panicking, never deliver
// more flits than were created, and produce byte-identical marshaled
// Results across engines — so the fuzzer hunts lost wakeups in the event
// engine over random depth, VC, mode and selection settings.
func FuzzConfig(f *testing.F) {
	f.Add(8, 2, 1, 0.1, 100, 500, 0, 0)
	f.Add(1, 1, 1, 0.9, -1, 1000, 1, 1)
	f.Add(128, 4, 8, 0.5, 50, 200, 2, 2)
	f.Add(0, 0, 0, 0.0, 0, 0, 0, 0)
	f.Add(16, -3, 9, 1.5, -5, -2, 99, 99)
	f.Add(32, 1, 3, 0.8, -1, 3000, 1, 2)

	g := topology.Petersen()
	fn, tb := buildFn(f, g, routing.UpDown{})

	f.Fuzz(func(t *testing.T, plen, depth, vcs int, rate float64, warmup, measure, mode, sel int) {
		if measure > 20000 || measure < -10 || plen > 1<<16 || warmup > 20000 {
			return // keep runtime bounded
		}
		cfg := Config{
			PacketLength:    plen,
			BufferDepth:     depth,
			VirtualChannels: vcs,
			InjectionRate:   rate,
			Mode:            Mode(mode % 3),
			Select:          Selection(sel % 3),
			WarmupCycles:    warmup,
			MeasureCycles:   measure,
			Seed:            1,
		}
		var want []byte
		for i, engine := range Engines() {
			cfg.Engine = engine
			sim, err := New(fn, tb, cfg)
			if err != nil {
				if i > 0 {
					t.Fatalf("%s engine rejected a config the %s engine accepted: %v", engine, Engines()[0], err)
				}
				return // rejected: fine
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatalf("verified function reported %v under %+v", err, cfg)
			}
			created := int64(res.PacketsCreated) * int64(sim.cfg.PacketLength)
			if res.FlitsDelivered < 0 || (res.FlitsDelivered > created && sim.cfg.WarmupCycles == 0) {
				t.Fatalf("conservation violated: delivered %d, created %d", res.FlitsDelivered, created)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s engine diverges from %s under %+v:\n%s: %s\n%s: %s",
					engine, Engines()[0], cfg, Engines()[0], want, engine, got)
			}
		}
	})
}
