package main

import (
	"fmt"
	"runtime"
	"time"

	"risa/internal/experiments"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/workload"
)

// scaleRacks is the hyperscale cluster: 16384 racks, ~98k boxes.
const scaleRacks = 16384

// scaleAlgos are the schedulers scale-16k runs. NALB scans every box per
// decision, so it is left out at this size.
var scaleAlgos = []string{"RISA", "NULB"}

// scaleLevel is one occupancy level: the cluster is preloaded to
// residents VMs, then a stream keeps it there with one departure per
// arrival (every VM lives exactly residents arrivals).
type scaleLevel struct {
	name      string
	residents int
}

func scaleLevels(c config) (racks int, levels []scaleLevel) {
	racks = scaleRacks
	if c.tiny {
		racks = 288
	}
	full := racks * 500 / 18 // the paper's operating point: 500 VMs per 18 racks
	return racks, []scaleLevel{{"low", full / 2}, {"high", full}}
}

// scaleCell is one (algorithm, level) run: its set-up and its measured
// stream.
type scaleCell struct {
	algo            string
	level           scaleLevel
	build, preload  time.Duration
	decided, placed int64
	wall            time.Duration
	chunks          *sampler // ns per chunk of placeChunk Driver.Place calls
	p50s, p95s      *sampler // each chunk's Driver.Place percentiles, ns
	lat             *sampler // Driver.Place, ns
	chunk           [placeChunk]int64
	reads           []float64 // median of each block of readBlock reads, ns
	readBuf         []int64
	heapMB, boxes   float64
	selfNS          int64
	self            *sampler
	untracedRate    float64
	streamed        int64 // decisions of the (traced) measured stream
	allocs, gcPct   float64
	probe           *probeResult
	q               quality // of the preload: a fixed set of placements per seed
	snap            *sim.DriverSnapshot
	resident        int
}

// placeChunk is the number of Driver.Place calls timed together as one
// throughput sample; an occupancy read follows each chunk on the
// operating-point level, outside the chunk's time. Reads are summarized
// in blocks of readBlock.
const (
	placeChunk = 256
	readBlock  = 16
)

func newScaleCell(algo string, lvl scaleLevel) *scaleCell {
	return &scaleCell{algo: algo, level: lvl,
		chunks: newSampler(1 << 14), p50s: newSampler(1 << 14), p95s: newSampler(1 << 14),
		lat: newSampler(1 << 16), reads: make([]float64, 0, 1<<11), readBuf: make([]int64, 0, readBlock),
		self: newSampler(1 << 16)}
}

// chunkNS is the fast tenth of the chunk times: a collection or a host
// stall lengthens a few chunks, not the figure.
func (cl *scaleCell) chunkNS() float64 { return fastOf(cl.chunks) }

// fastOf is the fast tenth of a sampler's observations.
func fastOf(s *sampler) float64 {
	return quantile(append([]int64(nil), s.res...), 0.1)
}

// rate is the throughput of a fast chunk, in decisions per second.
func (cl *scaleCell) rate() float64 { return placeChunk / (cl.chunkNS() / 1e9) }

// scaleVM returns request i of the scale stream: the §5.1 mix, arriving
// one per time unit and living residents time units, so from the end of
// the preload on every arrival meets exactly one departure.
type scaleGen struct {
	s         *workload.SyntheticStream
	residents int64
	next      int64
}

func newScaleGen(seed int64, residents int) *scaleGen {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed = seed
	cfg.LifetimeStep = 0
	s, err := cfg.NewStream()
	if err != nil {
		panic(err) // the default config is valid; a failure is a bug
	}
	return &scaleGen{s: s, residents: int64(residents)}
}

func (g *scaleGen) vm() workload.VM {
	vm, _ := g.s.Next()
	vm.ID = int(g.next)
	vm.Arrival = g.next
	vm.Lifetime = g.residents
	g.next++
	return vm
}

// runScaleCell sets up one cell, measures its stream for budget and runs
// the checks. With tr set, schedulers are timed and each Driver.Place is
// a span.
func runScaleCell(c config, r *result, racks int, algo string, lvl scaleLevel, tr *tracer, budget time.Duration, withRestart bool) (*scaleCell, error) {
	cell := newScaleCell(algo, lvl)
	mode := modeRaw
	if tr != nil {
		mode = modeTimed
	}
	sess := newSession(mode, tr)
	active = sess
	if tr != nil {
		sess.mode = modeQuality // set-up and the untraced half read no clocks
	}
	t0 := time.Now()
	s := experiments.DefaultSetup()
	s.Topology.Racks = racks
	st, err := s.NewState()
	if err != nil {
		return nil, err
	}
	sch, err := sched.New(benchName(algo), st, sched.Options{})
	if err != nil {
		return nil, err
	}
	d := sim.NewDriver(st, sch)
	cell.build = time.Since(t0)
	gen := newScaleGen(c.seed, lvl.residents)
	for i := 0; i < lvl.residents; i++ {
		vm := gen.vm()
		a, _, err := d.Place(vm)
		if err != nil {
			return nil, fmt.Errorf("%s preload: VM %d not placed: %v", algo, vm.ID, err)
		}
		cell.q.add(a, sess.model)
	}
	cell.preload = time.Since(t0) - cell.build
	if lvl.name == "high" {
		cell.heapMB = heapMB()
		cell.boxes = float64(len(st.Cluster.Boxes()))
	}

	if tr != nil {
		// Half the budget untraced, for the overhead ratio, then traced.
		plain := newScaleCell(algo, lvl)
		streamScale(plain, d, st, gen, nil, budget/2, lvl.name == "high")
		cell.untracedRate = plain.rate()
		cell.decided += plain.decided
		cell.placed += plain.placed
		sess.mode = modeTimed
		budget /= 2
	}
	rt0 := readRuntime()
	measured := cell.decided
	streamScale(cell, d, st, gen, tr, budget, lvl.name == "high")
	cell.allocs, cell.gcPct = readRuntime().since(rt0, cell.decided-measured)
	cell.streamed = cell.decided - measured
	r.attempted += cell.decided
	r.check(d.Resident() <= lvl.residents, "%s %s: %d resident, more than %d", algo, lvl.name, d.Resident(), lvl.residents)
	checkState(r, algo+" "+lvl.name, st)

	if tr != nil && algo == "RISA" && lvl.name == "high" {
		p, err := probeLayers(st, mixVMs(c.seed, 2000, 1<<30))
		if err != nil {
			return nil, err
		}
		cell.probe = &p
		checkState(r, "after probes", st)
	}
	if withRestart {
		snap, err := d.Snapshot()
		if err != nil {
			return nil, err
		}
		cell.snap, cell.resident = snap, d.Resident()
	}
	active = newSession(modeRaw, nil) // drop the session's hold on st
	return cell, nil
}

// streamScale places VMs from gen through d until budget is spent,
// timing every Driver.Place and every chunk of placeChunk of them, and
// with reads a stats read after each chunk. Each chunk's percentiles are
// kept, so the run's figures are the fast tenth of local percentiles
// over time, like churn's cell percentiles. With tr set, each
// Driver.Place is a span and its self time (the span minus the Schedule
// and Release calls inside it) is kept. Nothing here allocates, so the
// stream sets off no collection of the DRAM-sized heap.
func streamScale(cell *scaleCell, d *sim.Driver, st *sched.State, gen *scaleGen, tr *tracer, budget time.Duration, reads bool) {
	start := time.Now()
	n := int64(0)
	for time.Since(start) < budget || n == 0 {
		c0 := time.Now()
		for i := 0; i < placeChunk; i++ {
			vm := gen.vm()
			var outer int32 = -1
			if tr != nil {
				tr.child = 0
				tr.parent = -1
				outer = tr.record(spanPlace, 0, int64(vm.ID), tr.now(), 0)
				tr.parent = outer
			}
			p0 := time.Now()
			_, _, err := d.Place(vm)
			lat := int64(time.Since(p0))
			if tr != nil {
				if outer >= 0 {
					tr.spans[outer].end = tr.spans[outer].start + lat
				}
				cell.self.add(lat - tr.child)
				cell.selfNS += lat - tr.child
			}
			cell.lat.add(lat)
			cell.chunk[i] = lat
			n++
			if err == nil {
				cell.placed++
			}
		}
		cell.chunks.add(int64(time.Since(c0)))
		cell.p50s.add(int64(quantile(cell.chunk[:], 0.5)))
		cell.p95s.add(int64(quantile(cell.chunk[:], 0.95)))
		if reads {
			t := time.Now()
			statsRead(st, meanReq)
			cell.readBuf = append(cell.readBuf, int64(time.Since(t)))
			if len(cell.readBuf) == readBlock {
				cell.reads = append(cell.reads, quantile(cell.readBuf, 0.5))
				cell.readBuf = cell.readBuf[:0]
			}
		}
	}
	cell.wall += time.Since(start)
	cell.decided += n
	if tr != nil {
		tr.parent = -1
	}
}

// restartSamples is the number of restores restart_s is the fast tenth of.
const restartSamples = 3

// timeRestart times the in-process restart of a cell from its snapshot:
// rebuild the datacenter and restore the driver into it. The live cell is
// dropped first, so like a restarted process the heap starts from the
// snapshot alone; a collection before each restore frees the previous
// one.
func timeRestart(r *result, racks int, cell *scaleCell) (float64, error) {
	s := experiments.DefaultSetup()
	s.Topology.Racks = racks
	r.note("restart.snapshot_heap_mb", heapMB(), "MB")
	var ts []float64
	for i := 0; i < restartSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := s.NewState()
		if err != nil {
			return 0, err
		}
		sch, err := sched.New(cell.algo, st, sched.Options{})
		if err != nil {
			return 0, err
		}
		d, err := sim.RestoreDriver(st, sch, cell.snap)
		if err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
		r.check(d.Resident() == cell.resident, "restart: %d resident after restore, %d before", d.Resident(), cell.resident)
		if i == 0 {
			checkState(r, "restored "+cell.algo, st)
		}
	}
	cell.snap = nil
	return fast(ts), nil
}

func runScale(c config, r *result) error {
	racks, levels := scaleLevels(c)
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var cells []*scaleCell
	var restart float64
	per := c.phase(1 / float64(len(scaleAlgos)*len(levels)))
	for _, algo := range scaleAlgos {
		for _, lvl := range levels {
			cell, err := runScaleCell(c, r, racks, algo, lvl, tr, per, !c.trace && algo == "RISA" && lvl.name == "high")
			if err != nil {
				return err
			}
			cells = append(cells, cell)
			if cell.snap != nil {
				if restart, err = timeRestart(r, racks, cell); err != nil {
					return err
				}
			}
			runtime.GC() // the next cell's set-up reuses these pages
		}
	}
	for _, cl := range cells {
		r.note(fmt.Sprintf("%s.%s.setup_s", cl.algo, cl.level.name), (cl.build + cl.preload).Seconds(), "s")
		r.note(fmt.Sprintf("%s.%s.decisions_per_s", cl.algo, cl.level.name), cl.rate(), "1/s")
	}
	if c.trace {
		return scaleTraced(c, r, cells, tr)
	}
	// Each latency is the mean over the schedulers of the fast tenth of
	// the scheduler's chunk percentiles, and the throughput adds the
	// four cells' fast chunk times, so that it samples the whole run:
	// pooling the samples would put the figure between the cells' modes,
	// where it moves with their shares of the samples. Reads are the
	// same operation on both schedulers' states, so their blocks are
	// pooled.
	var setups []float64
	var decided, placed int64
	var chunkNS float64
	var q quality
	lat := map[string][]float64{}
	var reads []float64
	for _, cl := range cells {
		lvl := cl.level.name
		lat["p50."+lvl] = append(lat["p50."+lvl], fastOf(cl.p50s))
		lat["p95."+lvl] = append(lat["p95."+lvl], fastOf(cl.p95s))
		chunkNS += cl.chunkNS()
		if lvl == "low" {
			continue
		}
		q.merge(cl.q)
		setups = append(setups, (cl.build + cl.preload).Seconds())
		decided += cl.decided
		placed += cl.placed
		reads = append(reads, cl.reads...)
	}
	risaHigh := cells[1]
	r.set("setup_s", median(setups))
	r.set("decisions_per_s", float64(len(cells)*placeChunk)/(chunkNS/1e9))
	r.set("lat_p50_us.low", us(mean(lat["p50.low"])))
	r.set("lat_p95_us.low", us(mean(lat["p95.low"])))
	r.set("lat_p50_us.high", us(mean(lat["p50.high"])))
	r.set("lat_p95_us.high", us(mean(lat["p95.high"])))
	r.set("read_p50_us", us(fast(reads)))
	r.set("ok_pct", 100) // every generated VM is valid, so each Driver.Place places or drops it
	r.set("accept_pct", pct(placed, decided))
	r.set("intra_rack_pct", 100-q.interPct())
	r.note("inter_rack_pct", q.interPct(), "%")
	r.set("cpu_ram_rtt_ns", q.rtt())
	r.set("optical_w_per_vm", q.wattsPerVM())
	r.set("heap_mb", risaHigh.heapMB)
	r.set("restart_s", restart)
	return nil
}

// scaleTraced reports the per-layer metrics of a traced scale-16k run from
// its high-occupancy cells: each streamed half its budget untraced and
// half traced, which gives the overhead ratio.
func scaleTraced(c config, r *result, cells []*scaleCell, tr *tracer) error {
	var outer, self []float64
	var decided, selfSum int64
	var untraced, traced float64
	var allocs, gc float64
	var risa *scaleCell
	for _, cl := range cells {
		if cl.level.name != "high" {
			continue
		}
		decided += cl.streamed
		selfSum += cl.selfNS
		outer = append(outer, cl.lat.quantile(0.5), cl.lat.quantile(0.99))
		self = append(self, cl.self.quantile(0.5))
		allocs += cl.allocs / 2
		gc += cl.gcPct / 2
		untraced += cl.untracedRate / 2
		traced += cl.rate() / 2
		if cl.algo == "RISA" {
			risa = cl
		}
		r.note("setup.build_s."+cl.algo, cl.build.Seconds(), "s")
		r.note("setup.preload_s."+cl.algo, cl.preload.Seconds(), "s")
		r.note("go.heap_bytes_per_box."+cl.algo, cl.heapMB*(1<<20)/cl.boxes, "B")
	}
	ok, drop, rel := tr.totals()
	r.set("outer.span_us.p50", us((outer[0]+outer[2])/2))
	r.set("outer.span_us.p99", us((outer[1]+outer[3])/2))
	r.set("outer.self_us.p50", us(mean(self)))
	r.set("sched.ok_ns", ok.mean())
	r.set("sched.ok", float64(ok.n))
	r.set("sched.release_ns", rel.mean())
	r.set("sched.ok_ns.RISA", tr.algo("RISA").ok.mean())
	r.set("sched.attempt_ratio", float64(ok.n+drop.n)/float64(ok.n))
	r.set("sim.self_ns", float64(selfSum)/float64(decided))
	risa.probe.report(r)
	r.set("go.allocs_per_decision", allocs)
	r.set("go.gc_cpu_pct", gc)
	r.set("trace.overhead_ratio", untraced/traced)
	for _, a := range tr.algos {
		r.note("sched.ok_ns."+a.name, a.ok.mean(), "ns")
		r.note("sched.drop_ns."+a.name, a.drop.mean(), "ns")
		r.note("sched.drop."+a.name, float64(a.drop.n), "count")
		r.note("sched.release_ns."+a.name, a.rel.mean(), "ns")
	}
	path, err := tr.write(c.scratch("trace"), fmt.Sprintf("%s-seed%d.csv", c.workload, c.seed))
	if err != nil {
		return err
	}
	r.lines = append(r.lines, "  spans written to "+path)
	return nil
}
