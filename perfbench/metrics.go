package main

// metricSpec names one reported metric and its unit. BENCHMARK.json at the
// repository root registers the same names and units (pinned by
// TestBenchmarkJSONMatches).
type metricSpec struct{ name, unit string }

// endToEnd lists the numbers a user of the system sees, printed by every
// untraced run. Each workload repeats one operation: a grid of
// simulations (paper-sample), a build (build-2048x8), a route request
// (netd-read) or a reconfiguration (netd-storm).
var endToEnd = []metricSpec{
	// setup_s is the median CPU time of repeated set-ups.
	{"setup_s", "s"},
	// op_p50_ms is the median wall time of one operation.
	{"op_p50_ms", "ms"},
	// op_cpu_ms is the process's user plus system CPU time per
	// operation over the timed part.
	{"op_cpu_ms", "ms"},
	// heap_live_mb is the live heap after a forced collection, taken
	// after the timed part while the workload still holds its grid,
	// build or service.
	{"heap_live_mb", "MB"},
}

// perLayer lists the traced run's metrics. Every traced run prints all of
// them; a layer the workload never calls reads 0. Times are per unit of
// the workload's work: per grid for paper-sample, per build for
// build-2048x8, per request (us) or per reconfiguration (ms) for netd-*.
var perLayer = []metricSpec{
	{"topology.generate_ms", "ms"},
	{"ctree.build_ms", "ms"},
	{"cgraph.build_ms", "ms"},
	{"core.downup_build_ms", "ms"},
	{"core.released_turns", "count"},
	{"routing.lturn_build_ms", "ms"},
	{"routing.verify_ms", "ms"},
	{"routing.newtable_ms", "ms"},
	{"routing.table_mb", "MB"},
	{"fib.compile_ms", "ms"},
	{"fib.size_mb", "MB"},
	{"wormsim.new_ms", "ms"},
	{"wormsim.run_s", "s"},
	{"wormsim.finish_ms", "ms"},
	{"wormsim.cycles", "count"},
	{"wormsim.flit_hops", "count"},
	{"wormsim.ns_per_cycle", "ns"},
	{"wormsim.ns_per_flit_hop", "ns"},
	{"wormsim.allocs_per_cycle", "allocs/cycle"},
	{"metrics.nodestats_ms", "ms"},
	{"harness.core_utilization", "ratio"},
	{"netd.handler_us", "us"},
	{"netd.route_lookup_us", "us"},
	{"netd.handler_self_us", "us"},
	{"http.transport_us", "us"},
	{"proc.allocs_per_req", "allocs/req"},
	{"proc.cpu_busy", "ratio"},
	{"netd.reconfig_handler_ms", "ms"},
	{"fault.rebuild_ms", "ms"},
	{"netd.install_self_ms", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}
