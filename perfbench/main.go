// Command perfbench is the repository's benchmark: one run of one
// workload, measured for a fixed time, with its outputs checked. Run it
// through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload svc --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying every
// end-to-end metric; with --trace 1 a traced run prints the per-layer
// metrics instead, a workload-specific breakdown above it, and writes its
// spans under .bench_build/trace/. README.md explains the workloads and
// what each metric means on each of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// config is one invocation's parameters. Workloads derive all their
// inputs from seed.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // shrink every workload; set by the smoke test
	root     string // checkout root; scratch files go to root/.bench_build
}

func (c config) scratch(parts ...string) string {
	return filepath.Join(append([]string{c.root, ".bench_build"}, parts...)...)
}

// result is what a workload reports.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	problems          []string // failed correctness checks
	lines             []string // breakdown printed above the JSON line
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// check records a failed correctness check unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note adds one line to the printed breakdown.
func (r *result) note(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("  %-40s %14.4f %s", name, v, unit))
}

var workloads = map[string]func(config, *result) error{
	"svc":         runSvc,
	"churn":       func(c config, r *result) error { return runChurn(c, r, churnPlain) },
	"churn-gated": func(c config, r *result) error { return runChurn(c, r, churnGated) },
	"scale-16k":   runScale,
}

func main() {
	c := config{root: "."} // run.sh runs the binary from the checkout root
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload: svc, churn, churn-gated or scale-16k")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	c.trace = traceFlag == 1
	// One P: the collector's work then runs between the workload's own
	// steps instead of on a second vCPU that a shared host may not give
	// promptly, so the figures do not follow the host's spare capacity.
	runtime.GOMAXPROCS(1)
	if err := run(c, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and writes its report to w, the JSON result
// on the last line.
func run(c config, w io.Writer) error {
	wl, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	envLine, err := environment(c)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "env:", envLine)
	r := newResult()
	if err := wl(c, r); err != nil {
		return fmt.Errorf("%s: %w", c.workload, err)
	}
	specs := endToEnd
	if c.trace {
		specs = perLayer
	}
	out := map[string]any{}
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v\n", c.workload, c.seed, c.seconds, c.trace)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	if !c.trace {
		for _, s := range ungated {
			if v, ok := r.metrics[s.Name]; ok {
				fmt.Fprintf(w, "  %-28s %16.4f %-6s not gated\n", s.Name, v, s.Unit)
			}
		}
	}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok {
			return fmt.Errorf("workload did not report %s", s.Name)
		}
		fmt.Fprintf(w, "  %-28s %16.4f %-6s (%s is better)\n", s.Name, v, s.Unit, s.Better)
		out[s.Name] = map[string]any{"value": v, "unit": s.Unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// runtimeCounters samples the Go runtime's allocation and CPU counters.
type runtimeCounters struct {
	mallocs      uint64
	gcCPU, total float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeCounters{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// since returns allocations per decision and the GC's share of CPU time
// between two samples.
func (a runtimeCounters) since(b runtimeCounters, decisions int64) (allocs, gcPct float64) {
	if decisions > 0 {
		allocs = float64(a.mallocs-b.mallocs) / float64(decisions)
	}
	if a.total > b.total {
		gcPct = 100 * (a.gcCPU - b.gcCPU) / (a.total - b.total)
	}
	return allocs, gcPct
}

// heapMB returns the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// phase returns the wall time of a phase holding share of the run's
// measured seconds.
func (c config) phase(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// joinKV renders key=value pairs for the env line.
func joinKV(kv [][2]string) string {
	parts := make([]string, len(kv))
	for i, p := range kv {
		parts[i] = p[0] + "=" + p[1]
	}
	return strings.Join(parts, " ")
}
