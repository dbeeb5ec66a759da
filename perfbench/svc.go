package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"risa/internal/experiments"
	"risa/internal/faults"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/svc"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// svcLevel is one occupancy level of a pass: its request stream arrives,
// in virtual time, at the rate that holds the cluster near occupancy.
type svcLevel struct {
	name      string
	occupancy float64
}

var svcLevels = []svcLevel{{"low", 0.50}, {"high", 0.95}}

const (
	svcRacks     = 18
	svcSpares    = 2
	svcPassReqs  = 1500 // POST /place per level per pass
	svcReadEvery = 25   // a GET /stats after every svcReadEvery POST /place
	svcMinPasses = 5    // passes every run completes; quality pools exactly these
)

func svcConfig(algo string) svc.Config {
	s := experiments.DefaultSetup()
	s.Topology.Racks = svcRacks
	return svc.Config{Topology: s.Topology, Network: s.Network, Spares: svcSpares, Algo: algo}
}

// svcRequest is one generated request: the VM and its JSON body.
type svcRequest struct {
	vm   workload.VM
	body []byte
}

// svcRequests draws n requests of the §5.1 mix with fixed lifetimes from
// seed, arriving in virtual time at the rate that holds the in-service
// racks near occupancy of their binding resource.
func svcRequests(seed int64, occupancy float64, n int) ([]svcRequest, error) {
	st, err := sched.NewState(svcConfig("RISA").Topology, svcConfig("RISA").Network)
	if err != nil {
		return nil, err
	}
	wcfg := workload.DefaultSyntheticConfig()
	wcfg.Seed = seed
	wcfg.LifetimeStep = 0
	mean := [units.NumResources]float64{
		units.CPU:     float64(wcfg.CPUMin+wcfg.CPUMax) / 2,
		units.RAM:     float64(wcfg.RAMMin+wcfg.RAMMax) / 2,
		units.Storage: float64(wcfg.StorageGB),
	}
	binding := 0.0
	for _, k := range units.Resources() {
		r := float64(st.Cluster.TotalCapacity(k)) / (float64(wcfg.LifetimeBase) * mean[k])
		if binding == 0 || r < binding {
			binding = r
		}
	}
	wcfg.MeanInterarrival = 1 / (occupancy * binding)
	stream, err := wcfg.NewStream()
	if err != nil {
		return nil, err
	}
	reqs := make([]svcRequest, n)
	for i := range reqs {
		vm, _ := stream.Next()
		vm.ID = i + 1
		body, err := json.Marshal(svc.PlaceRequest{
			ID: vm.ID, Arrival: vm.Arrival, Lifetime: vm.Lifetime,
			CPU: int64(vm.Req[units.CPU]), RAM: int64(vm.Req[units.RAM]), Storage: int64(vm.Req[units.Storage]),
		})
		if err != nil {
			return nil, err
		}
		reqs[i] = svcRequest{vm: vm, body: body}
	}
	return reqs, nil
}

// svcAnswer is what the client saw for one request.
type svcAnswer struct {
	status     int
	values     int // JSON values in the body: exactly one per answer
	accepted   bool
	vmid       int
	start, end time.Duration // ServeHTTP, from the run's start
}

// svcRun is one level of one pass: a fresh daemon driven by a serial
// client, one request in flight at a time.
type svcRun struct {
	reqs   []svcRequest
	ans    []svcAnswer
	reads  []int64 // GET /stats, ns
	busy   time.Duration
	dir    string
	cfg    svc.Config
	srv    *svc.Server
	open   float64 // seconds to open and start the daemon
	log    []byte  // GET /placements at the end
	heapMB float64
	start  time.Time
}

// driveSvc opens a daemon in dir with the given algorithm and sends reqs
// through its handler one at a time, with a GET /stats after every
// svcReadEvery of them. The daemon is left running, idle.
func driveSvc(dir, algo string, reqs []svcRequest) (*svcRun, error) {
	p := &svcRun{reqs: reqs, ans: make([]svcAnswer, len(reqs)), dir: dir, cfg: svcConfig(algo)}
	t0 := time.Now()
	e, err := svc.Open(dir, p.cfg, 0)
	if err != nil {
		return nil, err
	}
	p.srv = svc.NewServer(e, 0)
	p.srv.Start()
	p.open = time.Since(t0).Seconds()
	h := p.srv.Handler()

	p.start = time.Now()
	for i, rq := range reqs {
		a := &p.ans[i]
		req := httptest.NewRequest(http.MethodPost, "/place", bytes.NewReader(rq.body))
		rr := httptest.NewRecorder()
		a.start = time.Since(p.start)
		h.ServeHTTP(rr, req)
		a.end = time.Since(p.start)
		p.busy += a.end - a.start
		a.status = rr.Code
		dec := json.NewDecoder(rr.Body)
		for {
			var o svc.Outcome
			if err := dec.Decode(&o); err != nil {
				break
			}
			a.values++
			if a.status == http.StatusOK {
				a.accepted, a.vmid = o.Accepted, o.VMID
			}
		}
		if (i+1)%svcReadEvery != 0 {
			continue
		}
		req = httptest.NewRequest(http.MethodGet, "/stats", nil)
		rr = httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		p.reads = append(p.reads, int64(time.Since(t0)))
		var st svc.Stats
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil || rr.Code != http.StatusOK {
			_ = p.shutdown() // already failing; the first error is the one to report
			return nil, fmt.Errorf("GET /stats: status %d, %v", rr.Code, err)
		}
	}
	p.heapMB = heapMB()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/placements", nil))
	if rr.Code != http.StatusOK {
		_ = p.shutdown() // already failing; the first error is the one to report
		return nil, fmt.Errorf("GET /placements: status %d", rr.Code)
	}
	p.log = rr.Body.Bytes()
	return p, nil
}

func (p *svcRun) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return p.srv.Shutdown(ctx)
}

// placeLatency returns the ServeHTTP time of every request answered 200.
func (p *svcRun) placeLatency() []int64 {
	var lat []int64
	for _, a := range p.ans {
		if a.status == http.StatusOK {
			lat = append(lat, int64(a.end-a.start))
		}
	}
	return lat
}

// crashCopy copies the live data directory (the daemon idle, not closed)
// and times svc.Open on the copy: the recovery a crash at this point
// would run. The reopened engine's placement log must equal the live one.
func (p *svcRun) crashCopy(r *result) (*svc.Engine, float64, error) {
	dst := p.dir + "-crash"
	if err := copyDir(p.dir, dst); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	e, err := svc.Open(dst, p.cfg, 0)
	if err != nil {
		return nil, 0, err
	}
	d := time.Since(t0).Seconds()
	var buf bytes.Buffer
	if err := e.WritePlacements(&buf); err != nil {
		return nil, 0, err
	}
	r.check(bytes.Equal(buf.Bytes(), p.log), "%s: reopened placement log differs from the live one (%d vs %d bytes)", dst, buf.Len(), len(p.log))
	return e, d, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkAnswers verifies the client side: every request answered exactly
// once, no VM decided twice, and the 200 answers agree with the
// recovered history one for one.
func (p *svcRun) checkAnswers(r *result, history []svc.Outcome) {
	answered := map[int]bool{}
	for i, a := range p.ans {
		id := p.reqs[i].vm.ID
		r.check(a.status != 0 && a.values == 1, "request %d: status %d with %d JSON values", id, a.status, a.values)
		if a.status != http.StatusOK {
			continue
		}
		r.check(a.vmid == id, "request %d answered for VM %d", id, a.vmid)
		answered[id] = a.accepted
	}
	seen := map[int]bool{}
	for _, o := range history {
		r.check(!seen[o.VMID], "VM %d decided twice", o.VMID)
		seen[o.VMID] = true
		acc, ok := answered[o.VMID]
		r.check(ok, "VM %d decided but not answered 200", o.VMID)
		r.check(!ok || acc == o.Accepted, "VM %d: answer accepted=%v, history %v", o.VMID, acc, o.Accepted)
	}
	r.check(len(history) == len(answered), "%d answered 200, %d decided", len(answered), len(history))
}

// replay re-decides the history on a bare sim.Driver built the way the
// daemon's genesis builds it. Decisions are a pure function of the
// operation sequence, so every outcome must repeat; the replay's
// assignments give the placement quality, and its final state the
// invariant checks and layer probes. With tr set, it also returns the
// Driver.Place time outside Schedule and Release, per decision.
func (p *svcRun) replay(r *result, history []svc.Outcome, algo string, tr *tracer) (*sched.State, quality, float64, error) {
	var q quality
	tcfg := p.cfg.Topology
	tcfg.Racks += p.cfg.Spares
	st, err := sched.NewState(tcfg, p.cfg.Network)
	if err != nil {
		return nil, q, 0, err
	}
	sch, err := sched.New(algo, st, sched.Options{})
	if err != nil {
		return nil, q, 0, err
	}
	d := sim.NewDriver(st, sch)
	for rack := p.cfg.Topology.Racks; rack < tcfg.Racks; rack++ {
		if err := d.Apply(faults.Event{Tier: faults.RackTier, Rack: rack}); err != nil {
			return nil, q, 0, err
		}
	}
	byID := make(map[int]workload.VM, len(p.reqs))
	for _, rq := range p.reqs {
		byID[rq.vm.ID] = rq.vm
	}
	bpr := st.Cluster.Config().BoxesPerRack()
	global := func(pl topology.Placement) int {
		if pl.IsZero() {
			return -1
		}
		return pl.Box.Rack()*bpr + pl.Box.Index()
	}
	var self int64
	model := newSession(modeRaw, nil).model
	for _, o := range history {
		if tr != nil {
			tr.child = 0
		}
		t0 := time.Now()
		a, t, err := d.Place(byID[o.VMID])
		dur := int64(time.Since(t0))
		if tr != nil {
			self += dur - tr.child
		}
		same := (err == nil) == o.Accepted && t == o.T
		if err == nil {
			same = same && global(a.CPU) == o.CPUBox && global(a.RAM) == o.RAMBox && global(a.STO) == o.STOBox
			q.add(a, model)
		}
		r.check(same, "replay of VM %d differs from the daemon's decision", o.VMID)
	}
	checkState(r, "svc replay", st)
	selfNS := 0.0
	if len(history) > 0 {
		selfNS = float64(self) / float64(len(history))
	}
	return st, q, selfNS, nil
}

// svcPasses aggregates a series of passes.
type svcPasses struct {
	passes            int
	opens, restarts   []float64
	rates, heaps      []float64 // per pass
	p50, p95          [][]float64
	readP50           []float64 // per pass
	reads             []int64   // every GET /stats
	sent, ok          int64
	decided, accepted int64   // first svcMinPasses passes
	q                 quality // first svcMinPasses passes
	status            map[int]int
	allDecided        int64
	busy              time.Duration
	last              *svcRun // the last run, and its recovered history
	lastHistory       []svc.Outcome
}

// runSvcPasses runs whole passes, every level on a fresh daemon, until
// budget is spent and at least svcMinPasses have run. With tr set the
// daemons run the timing decorator, and each run's scheduler spans are
// parented to their handler spans.
func runSvcPasses(c config, r *result, dir, algo string, n int, tr *tracer, budget time.Duration) (*svcPasses, error) {
	agg := &svcPasses{p50: make([][]float64, len(svcLevels)), p95: make([][]float64, len(svcLevels)), status: map[int]int{}}
	traced := active
	start := time.Now()
	for pass := 0; pass < svcMinPasses || time.Since(start) < budget; pass++ {
		var busy time.Duration
		var decided int64
		var reads []int64
		for li, lvl := range svcLevels {
			reqs, err := svcRequests(roundSeed(c.seed, pass*len(svcLevels)+li), lvl.occupancy, n)
			if err != nil {
				return nil, err
			}
			from := 0
			if tr != nil {
				from = len(tr.spans)
			}
			run, err := driveSvc(filepath.Join(dir, fmt.Sprintf("pass%d-%s", pass, lvl.name)), algo, reqs)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				attachHandlers(tr, from, run)
			}
			// The crash copy replays through the registry too; keep its
			// calls out of the trace.
			active = newSession(modeQuality, nil)
			e, d, err := run.crashCopy(r)
			active = traced
			if err != nil {
				return nil, err
			}
			history := append([]svc.Outcome(nil), e.History()...)
			if err := e.Close(); err != nil {
				return nil, err
			}
			if err := run.shutdown(); err != nil {
				return nil, err
			}
			run.checkAnswers(r, history)
			_, q, _, err := run.replay(r, history, "RISA", nil)
			if err != nil {
				return nil, err
			}
			for _, a := range run.ans {
				agg.status[a.status]++
				agg.sent++
				if a.status == http.StatusOK {
					agg.ok++
				}
			}
			if pass < svcMinPasses {
				agg.q.merge(q)
				agg.decided += int64(len(history))
				for _, o := range history {
					if o.Accepted {
						agg.accepted++
					}
				}
			}
			lat := run.placeLatency()
			agg.p50[li] = append(agg.p50[li], quantile(lat, 0.5))
			agg.p95[li] = append(agg.p95[li], quantile(lat, 0.95))
			agg.opens = append(agg.opens, run.open)
			if lvl.name == "high" {
				// Recovery at 95 % restores about twice the residents of
				// the 50 % level; pooling the two would put the median
				// between two modes.
				agg.restarts = append(agg.restarts, d)
				agg.heaps = append(agg.heaps, run.heapMB)
			}
			reads = append(reads, run.reads...)
			busy += run.busy
			decided += int64(len(history))
			agg.last, agg.lastHistory = run, history
			if err := os.RemoveAll(run.dir); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(run.dir + "-crash"); err != nil {
				return nil, err
			}
		}
		agg.rates = append(agg.rates, float64(decided)/busy.Seconds())
		agg.readP50 = append(agg.readP50, quantile(reads, 0.5))
		agg.reads = append(agg.reads, reads...)
		agg.allDecided += decided
		agg.busy += busy
		agg.passes = pass + 1
	}
	r.attempted += agg.sent
	r.failed += agg.sent - agg.ok
	return agg, nil
}

// attachHandlers records a handler span for every request of run, on the
// tracer's clock, and makes it the parent of the scheduler spans the
// worker recorded for the same VM from span index from on. Release spans
// precede the Schedule of the Engine.Place whose clock advance ran them.
func attachHandlers(tr *tracer, from int, run *svcRun) {
	n0 := len(tr.spans)
	offset := int64(run.start.Sub(tr.epoch))
	handler := map[int]int32{}
	for i, a := range run.ans {
		idx := tr.record(spanHandler, 0, int64(run.reqs[i].vm.ID), offset+int64(a.start), offset+int64(a.end))
		if idx >= 0 {
			handler[run.reqs[i].vm.ID] = idx
		}
	}
	var pending []int
	for i := from; i < n0; i++ {
		s := &tr.spans[i]
		if s.kind == spanRelease {
			pending = append(pending, i)
			continue
		}
		parent, ok := handler[int(s.req)]
		if !ok {
			parent = -1
		}
		s.parent = parent
		for _, j := range pending {
			tr.spans[j].parent = parent
		}
		pending = pending[:0]
	}
}

func runSvc(c config, r *result) error {
	dir := c.scratch("svc", fmt.Sprintf("seed%d-pid%d", c.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	n := svcPassReqs
	if c.tiny {
		n = 150
	}
	budget := c.phase(1)
	if c.trace {
		budget = c.phase(0.5)
	}
	active = newSession(modeRaw, nil)
	rt0 := readRuntime()
	plain, err := runSvcPasses(c, r, filepath.Join(dir, "plain"), "RISA", n, nil, budget)
	if err != nil {
		return err
	}
	allocs, gcPct := readRuntime().since(rt0, plain.allDecided)
	if c.trace {
		return svcTraced(c, r, dir, n, plain, allocs, gcPct, budget)
	}

	r.set("setup_s", median(plain.opens))
	r.set("decisions_per_s", median(plain.rates))
	for li, lvl := range svcLevels {
		r.set("lat_p50_us."+lvl.name, us(median(plain.p50[li])))
		r.set("lat_p95_us."+lvl.name, us(median(plain.p95[li])))
	}
	r.set("read_p50_us", us(median(plain.readP50)))
	r.note("read_p99_us", us(quantile(plain.reads, 0.99)), "us")
	r.set("ok_pct", pct(plain.ok, plain.sent))
	r.set("accept_pct", pct(plain.accepted, plain.decided))
	q := plain.q
	r.set("intra_rack_pct", 100-q.interPct())
	r.note("inter_rack_pct", q.interPct(), "%")
	r.set("cpu_ram_rtt_ns", q.rtt())
	r.set("optical_w_per_vm", q.wattsPerVM())
	r.set("heap_mb", median(plain.heaps))
	r.set("restart_s", median(plain.restarts))
	r.note("passes", float64(plain.passes), "count")
	r.note("go.allocs_per_decision", allocs, "count")
	return nil
}

// svcTraced runs the traced half of a --trace 1 run: passes with the
// timing decorator under the daemons, then the layer measurements that
// need a recovered history, and reports the per-layer metrics.
func svcTraced(c config, r *result, dir string, n int, plain *svcPasses, allocs, gcPct float64, budget time.Duration) error {
	tr := newTracer()
	active = newSession(modeTimed, tr)
	p, err := runSvcPasses(c, r, filepath.Join(dir, "traced"), benchName("RISA"), n, tr, budget)
	if err != nil {
		return err
	}

	// Handler self time: the handler span minus the scheduler spans
	// parented to it.
	self := tr.selfTimes()
	var spanNS, selfNS []int64
	var sumSpan, sumSelf, sumChild int64
	for i, s := range tr.spans {
		if s.kind == spanHandler {
			sumSpan += s.end - s.start
			sumSelf += self[i]
			spanNS = append(spanNS, s.end-s.start)
			selfNS = append(selfNS, self[i])
			continue
		}
		if s.parent < 0 {
			continue
		}
		ps := tr.spans[s.parent]
		r.check(s.start >= ps.start && s.end <= ps.end, "span %d (%s, VM %d) lies outside its handler span", i, spanNames[s.kind], s.req)
		sumChild += s.end - s.start
	}
	r.check(sumSelf+sumChild == sumSpan, "handler self %d + children %d != handler spans %d ns", sumSelf, sumChild, sumSpan)

	// Engine.Place alone, on a fresh engine replaying the last run's
	// history without HTTP; then WriteSnapshot on that engine, which now
	// holds the same history.
	active = newSession(modeRaw, nil)
	eng, err := svc.Open(filepath.Join(dir, "engine"), svcConfig("RISA"), 0)
	if err != nil {
		return err
	}
	byID := map[int]workload.VM{}
	for _, rq := range p.last.reqs {
		byID[rq.vm.ID] = rq.vm
	}
	var engNS []int64
	for _, o := range p.lastHistory {
		t0 := time.Now()
		out, err := eng.Place(byID[o.VMID])
		engNS = append(engNS, int64(time.Since(t0)))
		if err != nil {
			return err
		}
		r.check(out.Accepted == o.Accepted && out.CPUBox == o.CPUBox, "engine replay of VM %d differs", o.VMID)
	}
	var snaps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := eng.WriteSnapshot(); err != nil {
			return err
		}
		snaps = append(snaps, float64(time.Since(t0))/1e6)
	}
	if err := eng.Close(); err != nil {
		return err
	}

	// sim.Driver self time and the layer probes, on a timed replay.
	tr2 := newTracer()
	active = newSession(modeTimed, tr2)
	st, _, simSelf, err := p.last.replay(r, p.lastHistory, benchName("RISA"), tr2)
	if err != nil {
		return err
	}
	probe, err := probeLayers(st, mixVMs(c.seed, 2000, 1<<30))
	if err != nil {
		return err
	}
	checkState(r, "after probes", st)

	ok, drop, rel := tr.totals()
	handlerP50 := us(quantile(spanNS, 0.5))
	engineP50 := us(quantile(engNS, 0.5))
	tracedRate := float64(p.allDecided) / p.busy.Seconds()
	plainRate := float64(plain.allDecided) / plain.busy.Seconds()
	r.set("outer.span_us.p50", handlerP50)
	r.set("outer.span_us.p99", us(quantile(spanNS, 0.99)))
	r.set("outer.self_us.p50", us(quantile(selfNS, 0.5)))
	r.set("sched.ok_ns", ok.mean())
	r.set("sched.ok", float64(ok.n))
	r.set("sched.release_ns", rel.mean())
	r.set("sched.ok_ns.RISA", ok.mean())
	r.set("sched.attempt_ratio", float64(ok.n+drop.n)/float64(ok.n))
	r.set("sim.self_ns", simSelf)
	probe.report(r)
	r.set("go.allocs_per_decision", allocs)
	r.set("go.gc_cpu_pct", gcPct)
	r.set("trace.overhead_ratio", plainRate/tracedRate)

	r.note("svc.handler_us.p50", handlerP50, "us")
	r.note("svc.handler_us.p99", us(quantile(spanNS, 0.99)), "us")
	r.note("svc.self_us.p50", us(quantile(selfNS, 0.5)), "us")
	r.note("svc.read_us.p99", us(quantile(p.reads, 0.99)), "us")
	r.note("svc.engine_place_us.p50", engineP50, "us")
	r.note("svc.engine_place_us.p99", us(quantile(engNS, 0.99)), "us")
	r.note("svc.http_us", handlerP50-engineP50, "us")
	r.note("svc.snapshot_ms", median(snaps), "ms")
	r.note("svc.snapshots", float64(len(p.lastHistory)/256), "count")
	r.note("svc.open_ms", median(p.restarts)*1e3, "ms")
	r.note("svc.setup_open_ms", median(p.opens)*1e3, "ms")
	dec, enc := jsonProbe(p.last.reqs)
	r.note("svc.json_decode_ns", dec, "ns")
	r.note("svc.json_encode_ns", enc, "ns")
	for _, code := range []int{200, 429, 503, 504, 500} {
		r.note(fmt.Sprintf("svc.status.%d", code), float64(p.status[code]), "count")
	}
	r.note("sched.drop_ns.RISA", drop.mean(), "ns")
	r.note("sched.drop.RISA", float64(drop.n), "count")
	r.note("untraced.decisions_per_s", plainRate, "1/s")
	r.note("traced.decisions_per_s", tracedRate, "1/s")
	r.note("trace.spans_not_kept", float64(tr.lost), "count")
	path, err := tr.write(c.scratch("trace"), fmt.Sprintf("%s-seed%d.csv", c.workload, c.seed))
	if err != nil {
		return err
	}
	r.lines = append(r.lines, "  spans written to "+path)
	return nil
}

// jsonProbe times decoding one request body and encoding one outcome, the
// handler's JSON work per placement, in ns.
func jsonProbe(reqs []svcRequest) (decode, encode float64) {
	n := len(reqs)
	if n == 0 {
		return 0, 0
	}
	t0 := time.Now()
	for _, rq := range reqs {
		var pr svc.PlaceRequest
		if err := json.NewDecoder(bytes.NewReader(rq.body)).Decode(&pr); err != nil {
			panic(err) // the benchmark encoded these bodies itself
		}
	}
	decode = float64(time.Since(t0)) / float64(n)
	var buf bytes.Buffer
	o := svc.Outcome{Seq: 1, VMID: 1, Accepted: true, CPUBox: 1, RAMBox: 2, STOBox: 3}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(o); err != nil {
			panic(err)
		}
	}
	encode = float64(time.Since(t0)) / float64(n)
	return decode, encode
}
