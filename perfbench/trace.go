package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"risa/internal/experiments"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/workload"
)

// Decorator modes. The registered factories read the active session's
// mode when a scheduler is built: modeRaw returns the bare scheduler. A
// decorator reads its session's mode on every call, so a workload can
// switch a live decorator between modeQuality and modeTimed.
const (
	modeRaw     = iota // return the real scheduler, only remember its State
	modeQuality        // count placement quality, read no clocks
	modeTimed          // quality plus a span per Schedule and Release call
)

// benchName is the registry name the decorator for algo is registered
// under, so experiments.Setup.RunChurnCell and svc.Config.Algo pick it
// up like any other scheduler.
func benchName(algo string) string { return "bench/" + algo }

func init() {
	for _, algo := range experiments.Algorithms {
		sched.Register(benchName(algo), func(st *sched.State, opts sched.Options) sched.Scheduler {
			return active.wrap(algo, st, opts)
		})
	}
}

// active is the session the registered factories report into. Only the
// workload goroutine that builds schedulers sets it, before building.
var active = &session{}

// session holds what one workload phase collects through the decorators.
type session struct {
	mode  int
	model *power.Model
	tr    *tracer
	st    *sched.State // the State the last bench scheduler was built on
	q     map[string]*quality

	// blocks, when set, receives the stream time per decision of each
	// block of blockCalls untimed Schedule calls of VMs arriving from
	// blockFrom on. Decorators take both when they are built.
	blocks    *[]float64
	blockFrom int64
}

// blockCalls is the number of Schedule calls timed together as one
// throughput sample of a churn stream: about 2 ms, one clock read per
// block.
const blockCalls = 1024

func newSession(mode int, tr *tracer) *session {
	m, err := power.NewModel(experiments.DefaultSetup().Optics)
	if err != nil {
		panic(err) // the default optics are valid; a failure is a bug
	}
	return &session{mode: mode, model: m, tr: tr, q: map[string]*quality{}}
}

func (s *session) quality(algo string) *quality {
	q := s.q[algo]
	if q == nil {
		q = &quality{}
		s.q[algo] = q
	}
	return q
}

func (s *session) wrap(algo string, st *sched.State, opts sched.Options) sched.Scheduler {
	inner, err := sched.New(algo, st, opts)
	if err != nil {
		panic(err) // algo comes from experiments.Algorithms; a failure is a bug
	}
	s.st = st
	if s.mode == modeRaw {
		return inner
	}
	d := &decorator{inner: inner, s: s, model: s.model, q: s.quality(algo), blocks: s.blocks, blockFrom: s.blockFrom}
	if s.tr != nil {
		d.tr = s.tr
		d.t = s.tr.algo(algo)
	}
	if ss, ok := inner.(sched.StatefulScheduler); ok {
		return &statefulDecorator{decorator: d, ss: ss}
	}
	return d
}

// quality accumulates the paper's placement-quality measures over every
// placed VM: inter-rack share (Fig. 5), CPU–RAM round trip and optical
// power per VM.
type quality struct {
	placed, inter int64
	rttNS, watts  float64
}

func (q *quality) add(a *sched.Assignment, m *power.Model) {
	q.placed++
	if a.InterRack() {
		q.inter++
	}
	q.rttNS += float64(a.CPURAMLatency())
	if a.CPURAMFlow != nil {
		q.watts += m.FlowPower(a.CPURAMFlow)
	}
	if a.RAMSTOFlow != nil {
		q.watts += m.FlowPower(a.RAMSTOFlow)
	}
}

func (q *quality) merge(o quality) {
	q.placed += o.placed
	q.inter += o.inter
	q.rttNS += o.rttNS
	q.watts += o.watts
}

func (q quality) interPct() float64 { return pct(q.inter, q.placed) }

func (q quality) rtt() float64 {
	if q.placed == 0 {
		return 0
	}
	return q.rttNS / float64(q.placed)
}

func (q quality) wattsPerVM() float64 {
	if q.placed == 0 {
		return 0
	}
	return q.watts / float64(q.placed)
}

// decorator times (modeTimed) or only observes (modeQuality) the
// scheduler it wraps. It is called from one goroutine, like the
// scheduler itself.
type decorator struct {
	inner sched.Scheduler
	s     *session
	model *power.Model
	q     *quality
	tr    *tracer
	t     *algoTimes

	// Decision cycle: the time from one Schedule start to the next, and
	// the Schedule and Release time spent inside it.
	lastStart  int64
	cycleChild int64

	// The block being timed: calls so far and when the first began.
	blocks    *[]float64
	blockFrom int64
	inBlock   int
	blockT0   time.Time
}

func (d *decorator) Name() string { return d.inner.Name() }

func (d *decorator) Schedule(vm workload.VM) (*sched.Assignment, error) {
	if d.s.mode != modeTimed {
		if d.blocks != nil && vm.Arrival >= d.blockFrom {
			if d.inBlock == 0 {
				d.blockT0 = time.Now()
			}
			d.inBlock++
		}
		a, err := d.inner.Schedule(vm)
		if err == nil {
			d.q.add(a, d.model)
		}
		if d.inBlock == blockCalls {
			*d.blocks = append(*d.blocks, time.Since(d.blockT0).Seconds()/blockCalls)
			d.inBlock = 0
		}
		return a, err
	}
	t0 := d.tr.now()
	a, err := d.inner.Schedule(vm)
	t1 := d.tr.now()
	if d.lastStart != 0 {
		cycle := t0 - d.lastStart
		d.tr.cycle.add(cycle)
		d.tr.cycleSelf.add(cycle - d.cycleChild)
	}
	d.lastStart, d.cycleChild = t0, t1-t0
	d.tr.child += t1 - t0
	if err != nil {
		d.t.drop.add(t1 - t0)
		d.tr.record(spanDrop, d.t.id, int64(vm.ID), t0, t1)
		return a, err
	}
	d.t.ok.add(t1 - t0)
	d.tr.record(spanOK, d.t.id, int64(vm.ID), t0, t1)
	d.q.add(a, d.model)
	return a, err
}

func (d *decorator) Release(a *sched.Assignment) {
	if d.s.mode != modeTimed {
		d.inner.Release(a)
		return
	}
	id := int64(a.VM.ID) // read before Release recycles the record
	t0 := d.tr.now()
	d.inner.Release(a)
	t1 := d.tr.now()
	d.t.rel.add(t1 - t0)
	d.tr.child += t1 - t0
	d.cycleChild += t1 - t0
	d.tr.record(spanRelease, d.t.id, id, t0, t1)
}

// statefulDecorator forwards the scheduler's carried state, so snapshots
// taken through the decorator (svc's engine, sim.Driver) restore the same
// decisions as snapshots of the bare scheduler.
type statefulDecorator struct {
	*decorator
	ss sched.StatefulScheduler
}

func (d *statefulDecorator) SchedulerState() sched.SchedulerState { return d.ss.SchedulerState() }

func (d *statefulDecorator) RestoreSchedulerState(st sched.SchedulerState) {
	d.ss.RestoreSchedulerState(st)
}

// Span kinds.
const (
	spanOK = iota
	spanDrop
	spanRelease
	spanHandler // svc: ServeHTTP of one POST /place
	spanRead    // svc: ServeHTTP of one GET /stats
	spanEngine  // svc: Engine.Place on the replay engine
	spanPlace   // sim.Driver.Place
	spanCell    // experiments.Setup.RunChurnCell
)

var spanNames = []string{"sched.ok", "sched.drop", "sched.release", "svc.handler", "svc.read", "svc.engine_place", "sim.driver_place", "experiments.churn_cell"}

// span is one timed call. Parent indexes the tracer's span slice (-1 for
// none); Req is the request ID, the VM ID for per-VM spans.
type span struct {
	kind, algo uint8
	parent     int32
	req        int64
	start, end int64
}

// algoTimes aggregates one algorithm's scheduler spans.
type algoTimes struct {
	id            uint8
	name          string
	ok, drop, rel *sampler
}

// tracer keeps spans in memory (up to maxSpans; aggregates cover every
// call) and writes them out when the run ends.
type tracer struct {
	epoch    time.Time
	spans    []span
	maxSpans int
	lost     int64
	parent   int32 // parent for scheduler spans recorded now
	child    int64 // Schedule+Release ns since the caller last reset it
	algos    []*algoTimes

	cycle, cycleSelf *sampler
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(), maxSpans: 200000, parent: -1,
		cycle: newSampler(1 << 16), cycleSelf: newSampler(1 << 16),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) algo(name string) *algoTimes {
	for _, a := range t.algos {
		if a.name == name {
			return a
		}
	}
	a := &algoTimes{id: uint8(len(t.algos)), name: name, ok: newSampler(1 << 16), drop: newSampler(1 << 16), rel: newSampler(1 << 16)}
	t.algos = append(t.algos, a)
	return a
}

// record stores one span under the current parent and returns its index
// (-1 once the in-memory budget is spent).
func (t *tracer) record(kind int, algo uint8, req, start, end int64) int32 {
	if len(t.spans) >= t.maxSpans {
		t.lost++
		return -1
	}
	t.spans = append(t.spans, span{kind: uint8(kind), algo: algo, parent: t.parent, req: req, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// totals sums every algorithm's scheduler spans.
func (t *tracer) totals() (ok, drop, rel sampler) {
	for _, a := range t.algos {
		ok.n += a.ok.n
		ok.sum += a.ok.sum
		drop.n += a.drop.n
		drop.sum += a.drop.sum
		rel.n += a.rel.n
		rel.sum += a.rel.sum
	}
	return ok, drop, rel
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its children.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			self[s.parent] -= hi - lo
		}
	}
	return self
}

// write stores the spans as CSV under dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,kind,algo,parent,req,start_ns,end_ns")
	for i, s := range t.spans {
		algo := ""
		if s.kind <= spanRelease && int(s.algo) < len(t.algos) {
			algo = t.algos[s.algo].name
		}
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,%d\n", i, spanNames[s.kind], algo, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
