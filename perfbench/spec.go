package main

// metricSpec declares one printed metric. The same table is checked
// against BENCHMARK.json by the smoke test, so the two cannot drift.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

// endToEnd is printed with --trace 0 by every workload. Where a metric's
// meaning differs per workload, README.md gives the per-workload reading.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"ok_pct", "%", "higher", 0.02},
	{"accept_pct", "%", "higher", 0.1},
	{"intra_rack_pct", "%", "higher", 0.1},
	{"cpu_ram_rtt_ns", "ns", "lower", 0.1},
	{"optical_w_per_vm", "W", "lower", 0.05},
	{"heap_mb", "MB", "lower", 0.25},
}

// ungated are the service's latency, read and restart figures. Every
// workload measures them and prints them above the JSON line with
// --trace 0, but they are not in BENCHMARK.json: on the simulator
// workloads they are in-process stand-ins that follow the host's speed
// more than the code (README.md, "Measured spread").
var ungated = []metricSpec{
	{"lat_p50_us.low", "us", "lower", 0},
	{"lat_p95_us.low", "us", "lower", 0},
	{"lat_p50_us.high", "us", "lower", 0},
	{"lat_p95_us.high", "us", "lower", 0},
	{"read_p50_us", "us", "lower", 0},
	{"restart_s", "s", "lower", 0},
}

// perLayer is printed with --trace 1 by every workload: only layers every
// workload crosses. The traced run also prints a workload-specific
// breakdown (svc spans, per-algorithm scheduler spans) above the JSON
// line and writes every span to .bench_build/trace/.
var perLayer = []metricSpec{
	{"outer.span_us.p50", "us", "lower", 0},
	{"outer.span_us.p99", "us", "lower", 0},
	{"outer.self_us.p50", "us", "lower", 0},
	{"sched.ok_ns", "ns", "lower", 0},
	{"sched.ok", "count", "higher", 0},
	{"sched.release_ns", "ns", "lower", 0},
	{"sched.ok_ns.RISA", "ns", "lower", 0},
	{"sched.attempt_ratio", "ratio", "lower", 0},
	{"sim.self_ns", "ns", "lower", 0},
	{"topology.next_rack_fits_ns", "ns", "lower", 0},
	{"sched.allocate_vm_ns", "ns", "lower", 0},
	{"network.allocate_flow_ns", "ns", "lower", 0},
	{"sched.scan_ns.RISA", "ns", "lower", 0},
	{"go.allocs_per_decision", "count", "lower", 0},
	{"go.gc_cpu_pct", "%", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}
