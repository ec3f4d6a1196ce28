package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/fault"
	"repro/internal/netd"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// netdConfig describes one irnetd workload: an in-process netd.Service on
// loopback, closed-loop readers and, for the storm, a paced writer.
type netdConfig struct {
	name            string
	Switches, Ports int
	// readers is the number of closed-loop keep-alive clients, and think
	// how long each waits after an answer before its next request.
	readers int
	think   time.Duration
	// storm adds snapshot persistence and a closed-loop writer
	// alternating kill-link and reset.
	storm bool
	// links overrides the seeded kill-link sequence (tests).
	links []topology.Edge
}

// Query and check sizes. Readers cycle through queryPairCount seeded pairs;
// the untimed check verifies checkPairs answers in every state it visits,
// and for the storm it visits checkKills killed links.
const (
	queryPairCount = 4096
	checkPairs     = 512
	checkKills     = 2
	// replayEvents bounds how many of the storm's events a traced run
	// replays outside the service.
	replayEvents = 100
)

func netdReadConfig(procs int) netdConfig {
	return netdConfig{name: "netd-read", Switches: 128, Ports: 4, readers: procs}
}

func netdStormConfig() netdConfig {
	return netdConfig{name: "netd-storm", Switches: 128, Ports: 4, readers: 1, think: time.Millisecond,
		storm: true}
}

// irnetdProtect is irnetd's default overload protection: the defaults of
// its -max-inflight, -retry-after, -request-timeout and -write-timeout
// flags.
var irnetdProtect = netd.ProtectConfig{
	MaxInFlight:    512,
	RetryAfter:     time.Second,
	RequestTimeout: 2 * time.Second,
	WriteTimeout:   5 * time.Second,
}

// spanHeader carries the client's span id to the server-side span.
const spanHeader = "X-Perfbench-Span"

// server is one running service on a loopback listener.
type server struct {
	svc    *netd.Service
	srv    *http.Server
	base   string
	dir    string
	served chan struct{}
}

// startServer builds the service the way irnetd does and serves it with
// irnetd's handler chain, wrapped in a span for every request when traced.
func startServer(e *env, c netdConfig, g *topology.Graph) (*server, error) {
	s := &server{served: make(chan struct{})}
	cfg := netd.Config{Graph: g, Algorithm: core.DownUp{}, Policy: ctree.M1, Seed: e.seed}
	if c.storm {
		dir, err := os.MkdirTemp(e.workdir, "netd-storm-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		cfg.SnapshotPath = filepath.Join(dir, "snapshot.bin")
	}
	svc, err := netd.New(cfg)
	if err != nil {
		s.removeDir()
		return nil, err
	}
	s.svc = svc
	h := svc.Protect(svc.Handler(), irnetdProtect)
	if tr := e.tr; tr != nil {
		// Only requests of the timed part carry a span id; set-up and
		// output checks are not traced.
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
			if parent == 0 {
				inner.ServeHTTP(w, r)
				return
			}
			name := "netd.handler"
			if r.Method == http.MethodPost {
				name = "netd.reconfig_handler"
			}
			sp := tr.start(name, parent)
			inner.ServeHTTP(w, r)
			sp.end()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.removeDir()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := http.Get(s.base + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the server, waits for it, and removes its snapshot files.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.served
	s.removeDir()
}

func (s *server) removeDir() {
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// newClient returns a keep-alive client holding one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

// do sends one request, reads the whole answer and returns status and body.
func do(cl *http.Client, method, url string, span uint64) (int, []byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// reconfigEvent is one writer request: kill a link, or reset when link is
// nil.
type reconfigEvent struct{ link *topology.Edge }

func (ev reconfigEvent) path() string {
	if ev.link == nil {
		return "/topology/reset"
	}
	return fmt.Sprintf("/topology/kill-link?u=%d&v=%d", ev.link.From, ev.link.To)
}

// graph returns the topology the event leaves: g without the killed link.
func (ev reconfigEvent) graph(g *topology.Graph) *topology.Graph {
	if ev.link == nil {
		return g
	}
	h := g.Clone()
	_ = h.RemoveEdge(ev.link.From, ev.link.To) // absent links are refused before this is used
	return h
}

// safeLinks returns g's links whose loss keeps the fabric connected, in a
// seeded order.
func safeLinks(g *topology.Graph, seed uint64) []topology.Edge {
	var out []topology.Edge
	for _, e := range g.Edges() {
		h := g.Clone()
		if h.RemoveEdge(e.From, e.To) == nil && h.Connected() {
			out = append(out, e)
		}
	}
	r := rng.New(seed ^ 0x5f0a)
	perm := r.Perm(len(out))
	shuffled := make([]topology.Edge, len(out))
	for i, p := range perm {
		shuffled[i] = out[p]
	}
	return shuffled
}

// loadStats is what the timed part measured.
type loadStats struct {
	windows  windows
	ok, bad  int
	reconfig []time.Duration
	events   []reconfigEvent // applied writer events, in order
	wall     time.Duration
	allocs   uint64
	cpu      float64
}

func runNetd(e *env, c netdConfig) (*result, error) {
	res := newResult()
	var (
		g   *topology.Graph
		srv *server
	)
	setup, err := setupReps(3, func() (err error) {
		if srv != nil {
			srv.close()
			srv = nil
		}
		sp := e.tr.start("topology.generate", 0)
		g, err = topology.RandomIrregular(topology.IrregularConfig{Switches: c.Switches, Ports: c.Ports, Fill: 1},
			rng.New(e.seed))
		sp.end()
		if err != nil {
			return err
		}
		srv, err = startServer(e, c, g)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer srv.close()
	res.e2e["setup_s"] = setup

	pairs := queryPairs(c.Switches, queryPairCount, e.seed)
	links := c.links
	if links == nil {
		links = safeLinks(g, e.seed)
	}
	if c.storm && len(links) == 0 {
		return nil, fmt.Errorf("%s: no link can fail without disconnecting the network", c.name)
	}

	// A traced run first measures a quarter-length untraced phase; the
	// tracing overhead is the traced phase's time per operation against it.
	// The storm's operation is a reconfiguration, netd-read's a request.
	opRate := func(st loadStats) float64 {
		if c.storm {
			return float64(len(st.reconfig)) / st.wall.Seconds()
		}
		return float64(st.ok) / st.wall.Seconds()
	}
	var untracedRate float64
	if e.tr != nil {
		un := runLoad(c, srv, pairs, links, res, nil, e.seconds/4)
		res.attempted += un.ok + un.bad + len(un.reconfig)
		untracedRate = opRate(un)
	}
	st := runLoad(c, srv, pairs, links, res, e.tr, e.seconds)
	res.attempted += st.ok + st.bad + len(st.reconfig)
	overheadPct := 100 * (untracedRate/opRate(st) - 1)
	if c.storm {
		rc := make([]float64, len(st.reconfig))
		for i, d := range st.reconfig {
			rc[i] = float64(d.Nanoseconds()) / 1e6
		}
		res.e2e["op_p50_ms"] = median(rc)
		res.e2e["op_cpu_ms"] = st.cpu * 1e3 / float64(len(rc))
	} else {
		res.e2e["op_p50_ms"] = st.windows.p50() / 1e3
		res.e2e["op_cpu_ms"] = st.cpu * 1e3 / float64(st.ok)
	}
	allocsPerReq := float64(st.allocs) / float64(st.ok+st.bad+len(st.reconfig))
	cpuBusy := st.cpu / (st.wall.Seconds() * float64(e.procs))
	events := st.events
	st = loadStats{} // the live heap is the service's, not the latency record'
	res.e2e["heap_live_mb"] = liveHeapMB()

	if e.tr != nil {
		l := res.layers
		if err := traceNetdLayers(e.tr, c, g, srv.svc.Snapshot(), pairs, events, l); err != nil {
			return nil, err
		}
		l["proc.allocs_per_req"] = allocsPerReq
		l["proc.cpu_busy"] = cpuBusy
		finishTrace(e.tr, l, overheadPct)
	}

	if err := checkNetd(e, c, srv, g, pairs, links, res); err != nil {
		return nil, err
	}
	return res, nil
}

// queryPairs returns n seeded (from, to) pairs of distinct switches.
func queryPairs(switches, n int, seed uint64) [][2]int {
	r := rng.New(seed ^ 0x9a1e)
	out := make([][2]int, n)
	for i := range out {
		from := r.Intn(switches)
		to := r.Intn(switches - 1)
		if to >= from {
			to++
		}
		out[i] = [2]int{from, to}
	}
	return out
}

// runLoad runs the timed part: readers in closed loops and, for the
// storm, the writer, all until seconds have passed; tr, when not nil,
// records its spans.
func runLoad(c netdConfig, srv *server, pairs [][2]int, links []topology.Edge, res *result, tr *tracer,
	seconds time.Duration) loadStats {
	urls := make([]string, len(pairs))
	for i, p := range pairs {
		urls[i] = fmt.Sprintf("%s/route?from=%d&to=%d", srv.base, p[0], p[1])
	}
	// The traced wall time is the readers' lanes, or for the storm the
	// writer's, whose reader runs under a span of its own.
	var root, readRoot openSpan
	if c.storm {
		root = tr.startRoot(1)
		readRoot = tr.start("netd.reader", 0)
	} else {
		root = tr.startRoot(c.readers)
		readRoot = root
	}
	st := loadStats{windows: newWindows(seconds)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	m0, cpu0 := mallocs(), cpuTime()
	begin := time.Now()
	deadline := begin.Add(seconds)
	for i := 0; i < c.readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			wins := newWindows(seconds)
			ok, bad := 0, 0
			for k := i * len(urls) / c.readers; time.Now().Before(deadline); k++ {
				sp := tr.start("http.request", readRoot.id)
				t0 := time.Now()
				code, _, err := do(cl, http.MethodGet, urls[k%len(urls)], sp.id)
				done := time.Now()
				sp.end()
				if err != nil || code != http.StatusOK {
					bad++
					continue
				}
				ok++
				wins.add(done.Sub(begin), done.Sub(t0))
				if c.think > 0 {
					time.Sleep(c.think)
				}
			}
			mu.Lock()
			st.windows.merge(wins)
			st.ok += ok
			st.bad += bad
			mu.Unlock()
		}(i)
	}
	if c.storm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeLoad(c, srv, links, deadline, tr, root.id, res, &mu, &st)
		}()
	}
	wg.Wait()
	st.wall = time.Since(begin)
	if c.storm {
		readRoot.end()
	}
	root.end()
	st.allocs, st.cpu = mallocs()-m0, cpuTime()-cpu0
	if st.bad > 0 {
		res.failN(st.bad, "%s: %d of %d route requests were not answered 200", c.name, st.bad, st.ok+st.bad)
	}
	return st
}

// writeLoad alternates kill-link and reset, each sent when the previous
// one is answered, until deadline; every reconfiguration must be accepted
// and bump the snapshot version. Its spans go under parent.
func writeLoad(c netdConfig, srv *server, links []topology.Edge, deadline time.Time, tr *tracer,
	parent uint64, res *result, mu *sync.Mutex, st *loadStats) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	kills, n := 0, 0
	for ; time.Now().Before(deadline); n++ {
		var ev reconfigEvent
		if n%2 == 0 {
			ev.link = &links[kills%len(links)]
			kills++
		}
		sp := tr.start("http.reconfig", parent)
		t0 := time.Now()
		err := reconfigure(cl, srv, ev, sp.id)
		d := time.Since(t0)
		sp.end()
		mu.Lock()
		st.reconfig = append(st.reconfig, d)
		if err != nil {
			res.fail("%s: %v", c.name, err)
		} else {
			st.events = append(st.events, ev)
		}
		mu.Unlock()
	}
	if n%2 == 1 {
		// The last event killed a link: restore the fabric, untimed, so
		// the next phase never kills a second link beside it.
		err := reconfigure(cl, srv, reconfigEvent{}, 0)
		mu.Lock()
		res.attempted++
		if err != nil {
			res.fail("%s: closing %v", c.name, err)
		}
		mu.Unlock()
	}
}

// reconfigure sends one writer request and checks that the service
// accepted it and published the next snapshot version. The writer is the
// service's only reconfiguring client.
func reconfigure(cl *http.Client, srv *server, ev reconfigEvent, span uint64) error {
	before := srv.svc.Snapshot().Version
	code, body, err := do(cl, http.MethodPost, srv.base+ev.path(), span)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("reconfiguration %s refused: %d %v %s", ev.path(), code, err, body)
	}
	var v struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.Version != before+1 {
		return fmt.Errorf("reconfiguration %s published version %d after %d", ev.path(), v.Version, before)
	}
	return nil
}

// traceNetdLayers fills the netd per-layer metrics: request-path means
// from the spans, the route lookup replayed outside the service on the
// final snapshot, and, for the storm, the writer's events replayed
// outside the service through fault.Rebuild and layer by layer.
func traceNetdLayers(tr *tracer, c netdConfig, g *topology.Graph, sn *netd.Snapshot, pairs [][2]int,
	events []reconfigEvent, l map[string]float64) error {
	replay := tr.start("replay", 0)
	for _, p := range pairs {
		sp := tr.start("netd.route_lookup", replay.id)
		_, _ = sn.Route(p[0], p[1], nil) // answers are checked in the untimed pass
		sp.end()
	}
	for _, ev := range events[:min(len(events), replayEvents)] {
		h := ev.graph(g)
		sp := tr.start("fault.rebuild", replay.id)
		_, _, _, _, err := fault.Rebuild(h, nil, core.DownUp{}, ctree.M1, nil)
		sp.end()
		if err == nil {
			_, err = buildPath(h, tr, replay.id)
		}
		if err != nil {
			return fmt.Errorf("%s: replaying %s outside the service: %w", c.name, ev.path(), err)
		}
	}
	replay.end()

	tot, n := tr.layerTotals(), tr.layerCounts()
	mean := func(name string, unit time.Duration) float64 {
		if n[name] == 0 {
			return 0
		}
		return float64(tot[name]) / float64(n[name]) / float64(unit)
	}
	l["topology.generate_ms"] = mean("topology.generate", time.Millisecond)
	l["netd.handler_us"] = mean("netd.handler", time.Microsecond)
	l["netd.route_lookup_us"] = mean("netd.route_lookup", time.Microsecond)
	l["netd.handler_self_us"] = l["netd.handler_us"] - l["netd.route_lookup_us"]
	l["http.transport_us"] = mean("http.request", time.Microsecond) - l["netd.handler_us"]
	l["core.released_turns"] = float64(sn.ReleasedTurns)
	l["fib.size_mb"] = float64(sn.FIBSize()) / 1e6
	if c.storm {
		for _, name := range []string{"ctree.build", "cgraph.build", "core.downup_build", "routing.verify",
			"routing.newtable", "fib.compile", "fault.rebuild", "netd.reconfig_handler"} {
			l[name+"_ms"] = mean(name, time.Millisecond)
		}
		l["netd.install_self_ms"] = l["netd.reconfig_handler_ms"] - l["fault.rebuild_ms"] - l["fib.compile_ms"]
	}
	return nil
}

// refTable is an independent routing table for one topology state, built
// outside the service.
type refTable struct {
	cg *cgraph.CG
	tb *routing.Table
}

func newRefTable(h *topology.Graph) (refTable, error) {
	t, err := ctree.Build(h, ctree.M1, nil)
	if err != nil {
		return refTable{}, err
	}
	cg := cgraph.Build(t)
	fn, err := core.DownUp{}.Build(cg)
	if err != nil {
		return refTable{}, err
	}
	return refTable{cg, routing.NewTable(fn)}, nil
}

type routeAnswer struct {
	From int        `json:"from"`
	To   int        `json:"to"`
	Hops int        `json:"hops"`
	Path []netd.Hop `json:"path"`
}

// checkRoute checks one /route answer: a connected from->to walk of legal
// turns whose every hop continues a shortest legal path, so its length is
// the table's shortest legal distance.
func (ref refTable) checkRoute(from, to int, ans routeAnswer) error {
	if ans.From != from || ans.To != to || ans.Hops != len(ans.Path) {
		return fmt.Errorf("answer %d->%d with %d hops for query %d->%d", ans.From, ans.To, ans.Hops, from, to)
	}
	if d := ref.tb.Distance(from, to); len(ans.Path) != d {
		return fmt.Errorf("route %d->%d has %d hops, shortest legal distance is %d", from, to, len(ans.Path), d)
	}
	state, at := routing.InjectionState(from), from
	for i, hop := range ans.Path {
		c, ok := ref.cg.ChannelID(hop.From, hop.To)
		if hop.From != at || !ok {
			return fmt.Errorf("route %d->%d hop %d (%d->%d) does not continue a walk over live links", from, to, i, hop.From, hop.To)
		}
		legal := false
		for _, next := range ref.tb.NextChannels(to, state, nil) {
			legal = legal || next == c
		}
		if !legal {
			return fmt.Errorf("route %d->%d hop %d (%d->%d) is not a legal shortest-path turn", from, to, i, hop.From, hop.To)
		}
		state, at = c, hop.To
	}
	if at != to {
		return fmt.Errorf("route %d->%d ends at %d", from, to, at)
	}
	return nil
}

// checkNetd is the untimed output check. For the storm it first resets,
// then kills checkKills links one at a time, resetting after each; every
// reconfiguration must bump the version by one. In every state it checks
// checkPairs route answers against a table built outside the service and
// hashes them into the workload's digest.
func checkNetd(e *env, c netdConfig, srv *server, g *topology.Graph, pairs [][2]int, links []topology.Edge,
	res *result) error {
	cl := newClient()
	defer cl.CloseIdleConnections()
	digest := sha256.New()
	states := []reconfigEvent{{}}
	if c.storm {
		for i := 0; i < checkKills; i++ {
			states = append(states, reconfigEvent{&links[i%len(links)]}, reconfigEvent{})
		}
	}
	for si, ev := range states {
		if c.storm {
			res.attempted++
			if err := reconfigure(cl, srv, ev, 0); err != nil {
				res.fail("%s: check %v", c.name, err)
				continue
			}
			fmt.Fprintf(digest, "state %d %s\n", si, ev.path())
		}
		ref, err := newRefTable(ev.graph(g))
		if err != nil {
			return err
		}
		checkAnswers(c, srv, cl, ref, pairs[:checkPairs], digest, res)
	}
	e.checkDigest(res, c.name, fmt.Sprintf("%x", digest.Sum(nil)))
	return nil
}

// checkAnswers queries every pair once, checks each answer and adds it to
// the digest.
func checkAnswers(c netdConfig, srv *server, cl *http.Client, ref refTable, pairs [][2]int, digest hash.Hash,
	res *result) {
	for _, p := range pairs {
		res.attempted++
		code, body, err := do(cl, http.MethodGet, fmt.Sprintf("%s/route?from=%d&to=%d", srv.base, p[0], p[1]), 0)
		if err != nil || code != http.StatusOK {
			res.fail("%s: check route %d->%d: %d %v %s", c.name, p[0], p[1], code, err, body)
			continue
		}
		var ans routeAnswer
		if err := json.Unmarshal(body, &ans); err != nil {
			res.fail("%s: check route %d->%d: %v", c.name, p[0], p[1], err)
			continue
		}
		if err := ref.checkRoute(p[0], p[1], ans); err != nil {
			res.fail("%s: illegal route: %v", c.name, err)
		}
		fmt.Fprintf(digest, "%d %d", p[0], p[1])
		for _, h := range ans.Path {
			fmt.Fprintf(digest, " %d-%d", h.From, h.To)
		}
		fmt.Fprintln(digest)
	}
}
