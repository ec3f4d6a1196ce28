// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in this process, checks the program's outputs, and prints
// one JSON line of metrics as the last line of standard output:
//
//	go run . -workload build-2048x8 -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end numbers; with
// -trace 1 the run records spans around every layer call, writes them to a
// span file, prints a per-layer summary on standard error, and reports the
// per-layer metrics instead. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what a workload run receives: the generated-input seed, the
// measuring budget, and the tracer (nil on untraced runs).
type env struct {
	seed    uint64
	seconds time.Duration
	procs   int
	tr      *tracer
	expect  expectations
	log     io.Writer
	// workdir holds span files and the storm's snapshot store.
	workdir string
}

// result is what a workload run reports back.
type result struct {
	attempted, failed int
	// problems lists every failed output check, one line each.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records one failed operation and why it failed.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed operations that failed for one reason.
func (r *result) failN(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(e *env) (*result, error)
}

var workloads = []workload{
	{"paper-sample", func(e *env) (*result, error) { return runPaperSample(e, paperSampleConfig()) }},
	{"build-2048x8", func(e *env) (*result, error) { return runBuild(e, buildConfig{Switches: 2048, Ports: 8}) }},
	{"netd-read", func(e *env) (*result, error) { return runNetd(e, netdReadConfig(e.procs)) }},
	{"netd-storm", func(e *env) (*result, error) { return runNetd(e, netdStormConfig()) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport selects the metrics a run prints: every end-to-end metric
// untraced, every per-layer metric traced (layers the workload does not
// exercise read 0).
func buildReport(name string, traced bool, res *result) (report, error) {
	rep := report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		for _, m := range perLayer {
			rep.Metrics[m.name] = metricValue{res.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := res.e2e[m.name]
			if !ok {
				return rep, fmt.Errorf("%s: metric %s was not measured", name, m.name)
			}
			rep.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return rep, fmt.Errorf("%s: metric %s is %v", name, n, m.Value)
		}
	}
	if rep.Attempted < 1 {
		return rep, fmt.Errorf("%s: no operation was attempted", name)
	}
	return rep, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "how long the timed part measures")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for span files and the snapshot store")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %s, -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func run(w workload, seed uint64, seconds time.Duration, traced bool, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	e := &env{
		seed:    seed,
		seconds: seconds,
		procs:   runtime.GOMAXPROCS(0),
		expect:  recorded,
		log:     os.Stderr,
		workdir: workdir,
	}
	if traced {
		e.tr = newTracer()
	}
	res, err := w.run(e)
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join(workdir, "spans-"+w.name+".csv")
		if err := e.tr.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", e.tr.len(), path)
		e.tr.summary(os.Stderr, res.layers["trace.overhead_pct"])
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", p)
	}
	rep, err := buildReport(w.name, traced, res)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// repeatOps calls op until its calls and checks have taken budget, at
// least once, and returns the median wall time and the median process CPU
// time of one call, in ms. check runs untimed after each call.
func repeatOps(budget time.Duration, op func() error, check func()) (wallMS, cpuMS float64, err error) {
	var walls, cpus []float64
	begin := time.Now()
	for {
		c0, t0 := cpuTime(), time.Now()
		if err := op(); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		cpus = append(cpus, (cpuTime()-c0)*1e3)
		walls = append(walls, float64(d.Nanoseconds())/1e6)
		check()
		if time.Since(begin) >= budget {
			return median(walls), median(cpus), nil
		}
	}
}

// setupReps runs the set-up f at least n times and until the runs have
// taken setupBudget, and returns the median process CPU time of one run in
// seconds. CPU time, not wall time: on a 2-vCPU host a set-up's wall time
// halves or doubles with whether the collector ran beside it on the other
// vCPU, while its CPU time stays within a few percent.
func setupReps(n int, f func() error) (float64, error) {
	var ts []float64
	begin := time.Now()
	for i := 0; i < n || time.Since(begin) < setupBudget; i++ {
		c0 := cpuTime()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, cpuTime()-c0)
	}
	return median(ts), nil
}

// setupBudget is how long repeated set-up runs at least.
const setupBudget = 500 * time.Millisecond

// liveHeapMB forces collections and returns the live heap in MB. The
// second collection also frees what sync.Pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// cpuTime returns the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
