package main

import (
	"fmt"
	"time"

	"risa/internal/experiments"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/units"
	"risa/internal/workload"
)

// churnKind is one steady-state churn workload: RunChurnCell on a fixed
// cluster, once per registered scheduler per round, at a low and a high
// occupancy rung.
type churnKind struct {
	racks, uplinks int
	low, high      experiments.ChurnRung
	arrivals       int // per high-rung cell
}

var (
	// churnPlain is the paper's 18-rack cluster: the scheduler's success
	// path, cache-resident, almost every arrival placed.
	churnPlain = churnKind{racks: 18, uplinks: 16,
		low: experiments.ChurnRung{Label: "60%", Target: 0.60}, high: experiments.ChurnRung{Label: "90%", Target: 0.90},
		arrivals: 20000}
	// churnGated is BenchmarkChurnAgents' cell: thin uplinks make the
	// drop path dominate. Its 96 racks take arrivals 5.3× as fast, so a
	// cell at 80 % needs 60000 of them for the warm-up to end inside it,
	// and at 200 % 150000. The rungs are at and past capacity: below it,
	// NULB and NALB on this fabric either settle or collapse to a few
	// percent accepted, so a cell's drop share and speed depend on which
	// way its seed tipped; at 100 % and 200 % every scheduler holds a
	// steady drop share.
	churnGated = churnKind{racks: 96, uplinks: 4,
		low: experiments.ChurnRung{Label: "100%", Target: 1.0}, high: experiments.ChurnRung{Label: "200%", Target: 2.0},
		arrivals: 150000}
)

// Set-ups timed together in one sample of churn's setup_s, and restarts
// timed one by one after each round.
const (
	setupBatch   = 24
	restartBatch = 6
)

// meanReq is the §5.1 mix's mean request, the reference VM of the
// stranded-capacity read.
var meanReq = units.Vec(16, 16, 128)

func (k churnKind) setup(seed int64) experiments.Setup {
	s := experiments.DefaultSetup()
	s.Topology.Racks = k.racks
	s.Network.BoxUplinks = k.uplinks
	s.Seed = seed
	return s
}

// roundSeed derives round r's input seed from the run's seed.
func roundSeed(seed int64, r int) int64 { return seed*1000003 + int64(r) }

// config is the stream configuration of a cell at rung. Arrivals scale
// with the rung's target, so both rungs cover the same simulated time.
func (k churnKind) config(c config, rung experiments.ChurnRung) sim.StreamConfig {
	n := int(float64(k.arrivals) * rung.Target / k.high.Target)
	if c.tiny {
		return sim.StreamConfig{Workload: sim.StreamWorkload{MaxArrivals: n / 10}, Windows: sim.StreamWindows{Warmup: 500, Window: 250}}
	}
	return sim.StreamConfig{Workload: sim.StreamWorkload{MaxArrivals: n}, Windows: sim.StreamWindows{Warmup: 12600, Window: 6300}}
}

// churnRounds aggregates the cells of a series of rounds.
type churnRounds struct {
	rounds        int
	qDecided      int64 // high-rung cells of the first minRounds rounds
	qAccepted     int64
	cellSecs      map[string][]float64 // algo → seconds per decision of each high-rung cell
	blockSecs     map[string][]float64 // algo → seconds per decision of each measured block, high rung
	allWall       time.Duration        // every cell, both rungs
	allDecided    int64
	p50, p95      map[string]map[string][]float64 // rung label → algo → per-cell ns
	placedByRound map[[2]int]int                  // (round, algo index) → accepted, high rung
	reads         []float64                       // median of each high-rung cell's reads, ns
	algoWall      map[string]time.Duration
	algoDecided   map[string]int64
	st            *sched.State // RISA's high-rung state of the last round
	quality       quality      // high-rung cells of the first minRounds rounds
}

// minRounds is the number of rounds a run always completes. Acceptance
// and placement quality pool exactly these rounds, so for a seed they do
// not depend on how many rounds fit in the run.
func minRounds(c config) int {
	if c.tiny {
		return 1
	}
	return 12
}

// runRounds runs whole rounds (every algorithm at both rungs) until the
// budget is spent, at least minRounds. Schedulers are built through the
// bench decorators in the given mode. perRound, if set, runs after each
// round.
func runRounds(c config, r *result, k churnKind, mode int, tr *tracer, budget time.Duration, perRound func() error) (*churnRounds, error) {
	agg := &churnRounds{
		p50: map[string]map[string][]float64{}, p95: map[string]map[string][]float64{},
		placedByRound: map[[2]int]int{}, cellSecs: map[string][]float64{}, blockSecs: map[string][]float64{}, algoWall: map[string]time.Duration{}, algoDecided: map[string]int64{},
	}
	for _, rung := range []experiments.ChurnRung{k.low, k.high} {
		agg.p50[rung.Label] = map[string][]float64{}
		agg.p95[rung.Label] = map[string][]float64{}
	}
	sess := newSession(mode, tr)
	active = sess
	start := time.Now()
	for round := 1; round <= minRounds(c) || time.Since(start) < budget; round++ {
		s := k.setup(roundSeed(c.seed, round))
		for ai, algo := range experiments.Algorithms {
			for _, rung := range []experiments.ChurnRung{k.high, k.low} {
				var cell int32 = -1
				if tr != nil {
					tr.parent = -1
					cell = tr.record(spanCell, 0, int64(round), tr.now(), 0)
					tr.parent = cell
				}
				cfg := k.config(c, rung)
				var blocks []float64
				if rung == k.high {
					sess.blocks, sess.blockFrom = &blocks, cfg.Windows.Warmup
				}
				t0 := time.Now()
				res, err := s.RunChurnCell(benchName(algo), rung, cfg)
				d := time.Since(t0)
				sess.blocks = nil
				if tr != nil && cell >= 0 {
					tr.spans[cell].end = tr.now()
					tr.parent = -1
				}
				if err != nil {
					return nil, fmt.Errorf("%s %s round %d: %w", algo, rung.Label, round, err)
				}
				checkCell(r, algo, rung, res, cfg)
				agg.allWall += d
				agg.allDecided += int64(res.TotalArrivals)
				agg.algoWall[algo] += d
				agg.algoDecided[algo] += int64(res.TotalArrivals)
				agg.p50[rung.Label][algo] = append(agg.p50[rung.Label][algo], float64(res.LatencyP50))
				agg.p95[rung.Label][algo] = append(agg.p95[rung.Label][algo], float64(res.LatencyP95))
				if rung != k.high {
					delete(sess.q, algo)
					continue
				}
				agg.cellSecs[algo] = append(agg.cellSecs[algo], d.Seconds()/float64(res.TotalArrivals))
				agg.blockSecs[algo] = append(agg.blockSecs[algo], blocks...)
				agg.placedByRound[[2]int{round, ai}] = res.TotalAccepted
				if q := sess.q[algo]; q != nil {
					r.check(q.placed == int64(res.TotalAccepted), "%s round %d: decorator saw %d placements, cell reports %d",
						algo, round, q.placed, res.TotalAccepted)
				}
				if round <= minRounds(c) {
					agg.qDecided += int64(res.TotalArrivals)
					agg.qAccepted += int64(res.TotalAccepted)
				}
				if q := sess.q[algo]; q != nil && round <= minRounds(c) {
					agg.quality.merge(*q)
				}
				delete(sess.q, algo)
				reads := make([]int64, 20)
				for i := range reads {
					t := time.Now()
					statsRead(sess.st, meanReq)
					reads[i] = int64(time.Since(t))
				}
				agg.reads = append(agg.reads, quantile(reads, 0.5))
				checkState(r, fmt.Sprintf("%s %s round %d", algo, rung.Label, round), sess.st)
				if algo == "RISA" {
					agg.st = sess.st
				}
			}
		}
		agg.rounds = round
		if perRound != nil {
			if err := perRound(); err != nil {
				return nil, err
			}
		}
	}
	return agg, nil
}

// checkCell fails the run when a cell lost arrivals: every arrival must be
// decided, placed or dropped, and the arrival budget consumed.
func checkCell(r *result, algo string, rung experiments.ChurnRung, res *sim.SteadyState, cfg sim.StreamConfig) {
	r.attempted += int64(res.TotalArrivals)
	r.check(res.TotalAccepted+res.TotalDropped == res.TotalArrivals,
		"%s %s: decided %d+%d != arrivals %d", algo, rung.Label, res.TotalAccepted, res.TotalDropped, res.TotalArrivals)
	r.check(res.TotalArrivals == cfg.Workload.MaxArrivals,
		"%s %s: %d arrivals, budget %d", algo, rung.Label, res.TotalArrivals, cfg.Workload.MaxArrivals)
}

// latency averages, over algorithms, the fast tenth of each algorithm's
// cell percentiles at one rung, in µs.
func (a *churnRounds) latency(rung string, p95 bool) float64 {
	src := a.p50[rung]
	if p95 {
		src = a.p95[rung]
	}
	sum := 0.0
	for _, algo := range experiments.Algorithms {
		sum += fast(src[algo])
	}
	return us(sum / float64(len(experiments.Algorithms)))
}

// dps is the throughput of a fast round: every scheduler's high-rung
// cell at the fast tenth of its cells' time per decision.
func (a *churnRounds) dps() float64 {
	secs := 0.0
	for _, algo := range experiments.Algorithms {
		secs += fast(a.cellSecs[algo])
	}
	return float64(len(experiments.Algorithms)) / secs
}

// streamDPS is the throughput of the measured streams in a fast block:
// every scheduler at the fast tenth of its high-rung blocks' time per
// decision. Blocks cover only the measured phase (after the warm-up),
// where the drop share is steady.
func (a *churnRounds) streamDPS() float64 {
	secs := 0.0
	for _, algo := range experiments.Algorithms {
		secs += fast(a.blockSecs[algo])
	}
	return float64(len(experiments.Algorithms)) / secs
}

func runChurn(c config, r *result, k churnKind) error {
	// Set-up (one cell's datacenter and scheduler) and restart are timed
	// after every round, so that like the throughput they sample the whole
	// run rather than one moment of it. A set-up sample times a batch and
	// reports the mean per build: one 18-rack build takes about 0.2 ms,
	// too short to time alone. A restart (several ms) is timed alone.
	// Each figure is the fast tenth of the run's samples.
	snap, resume, err := churnSnapshot(c, k)
	if err != nil {
		return err
	}
	var setups, restarts []float64
	perRound := func() error {
		t0 := time.Now()
		for i := 0; i < setupBatch; i++ {
			st, err := k.setup(c.seed).NewState()
			if err != nil {
				return err
			}
			if _, err := sched.New("RISA", st, sched.Options{}); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/setupBatch)
		for i := 0; i < restartBatch; i++ {
			t0 = time.Now()
			if _, err := k.setup(roundSeed(c.seed, 0)).ResumeChurnCell("RISA", k.high, snap, resume); err != nil {
				return err
			}
			restarts = append(restarts, time.Since(t0).Seconds())
		}
		return nil
	}

	budget := c.phase(1)
	if c.trace {
		budget = c.phase(0.5)
	}
	rt0 := readRuntime()
	plain, err := runRounds(c, r, k, modeQuality, nil, budget, perRound)
	if err != nil {
		return err
	}
	allocs, gcPct := readRuntime().since(rt0, plain.allDecided)

	if c.trace {
		return churnTraced(c, r, k, plain, allocs, gcPct, budget)
	}

	r.set("decisions_per_s", plain.streamDPS())
	r.note("cell.decisions_per_s", plain.dps(), "1/s")
	r.set("lat_p50_us.low", plain.latency(k.low.Label, false))
	r.set("lat_p95_us.low", plain.latency(k.low.Label, true))
	r.set("lat_p50_us.high", plain.latency(k.high.Label, false))
	r.set("lat_p95_us.high", plain.latency(k.high.Label, true))
	r.set("read_p50_us", us(fast(plain.reads)))
	r.set("ok_pct", 100) // a cell error aborts the run, so every decision here succeeded
	r.set("accept_pct", pct(plain.qAccepted, plain.qDecided))
	q := plain.quality
	r.set("intra_rack_pct", 100-q.interPct())
	r.note("inter_rack_pct", q.interPct(), "%")
	r.set("cpu_ram_rtt_ns", q.rtt())
	r.set("optical_w_per_vm", q.wattsPerVM())
	r.set("heap_mb", heapMB())
	r.set("setup_s", median(setups))
	r.set("restart_s", fast(restarts))
	r.note("rounds", float64(plain.rounds), "count")
	r.note("go.allocs_per_decision", allocs, "count")
	return nil
}

// churnSnapshot warms RISA's high-rung cell to the end of its warm-up and
// returns the snapshot with a resume configuration that stops one time
// unit later: resuming it is the in-process restart path.
func churnSnapshot(c config, k churnKind) (*sim.Snapshot, sim.StreamConfig, error) {
	cfg := k.config(c, k.high)
	warm := cfg
	warm.Snapshot.At = cfg.Windows.Warmup
	snap, err := k.setup(roundSeed(c.seed, 0)).WarmChurnCell("RISA", k.high, warm)
	if err != nil {
		return nil, sim.StreamConfig{}, err
	}
	return snap, sim.StreamConfig{Workload: sim.StreamWorkload{Duration: snap.T + 1}, Windows: cfg.Windows}, nil
}

// churnTraced runs the traced half of a --trace 1 run and reports the
// per-layer metrics.
func churnTraced(c config, r *result, k churnKind, plain *churnRounds, allocs, gcPct float64, budget time.Duration) error {
	tr := newTracer()
	traced, err := runRounds(c, r, k, modeTimed, tr, budget, nil)
	if err != nil {
		return err
	}
	for key, n := range traced.placedByRound {
		if m, ok := plain.placedByRound[key]; ok {
			r.check(m == n, "round %d %s: traced run placed %d, untraced %d", key[0], experiments.Algorithms[key[1]], n, m)
		}
	}

	ok, drop, rel := tr.totals()
	r.set("outer.span_us.p50", us(tr.cycle.quantile(0.5)))
	r.set("outer.span_us.p99", us(tr.cycle.quantile(0.99)))
	r.set("outer.self_us.p50", us(tr.cycleSelf.quantile(0.5)))
	r.set("sched.ok_ns", ok.mean())
	r.set("sched.ok", float64(ok.n))
	r.set("sched.release_ns", rel.mean())
	r.set("sched.ok_ns.RISA", tr.algo("RISA").ok.mean())
	r.set("sched.attempt_ratio", float64(ok.n+drop.n)/float64(ok.n))
	r.set("sim.self_ns", float64(int64(traced.allWall)-ok.sum-drop.sum-rel.sum)/float64(traced.allDecided))
	r.set("go.allocs_per_decision", allocs)
	r.set("go.gc_cpu_pct", gcPct)
	r.set("trace.overhead_ratio", plain.dps()/traced.dps())
	r.note("untraced.decisions_per_s", plain.dps(), "1/s")
	r.note("traced.decisions_per_s", traced.dps(), "1/s")
	for _, a := range tr.algos {
		n := float64(a.ok.n + a.drop.n)
		self := float64(int64(traced.algoWall[a.name])-a.ok.sum-a.drop.sum-a.rel.sum) / float64(traced.algoDecided[a.name])
		r.note("sched.ok_ns."+a.name, a.ok.mean(), "ns")
		r.note("sched.ok."+a.name, float64(a.ok.n), "count")
		r.note("sched.drop_ns."+a.name, a.drop.mean(), "ns")
		r.note("sched.drop."+a.name, float64(a.drop.n), "count")
		r.note("sched.drop_ratio."+a.name, float64(a.drop.n)/n, "ratio")
		r.note("sched.release_ns."+a.name, a.rel.mean(), "ns")
		r.note("sim.self_ns."+a.name, self, "ns")
	}
	p, err := probeLayers(traced.st, mixVMs(c.seed, 2000, 1))
	if err != nil {
		return err
	}
	checkState(r, "after probes", traced.st)
	p.report(r)
	path, err := tr.write(c.scratch("trace"), fmt.Sprintf("%s-seed%d.csv", c.workload, c.seed))
	if err != nil {
		return err
	}
	r.note("trace.spans_kept", float64(len(tr.spans)), "count")
	r.note("trace.spans_not_kept", float64(tr.lost), "count")
	r.lines = append(r.lines, "  spans written to "+path)
	return nil
}

// mixVMs draws n requests of the §5.1 mix (fixed lifetimes) from seed,
// with IDs from firstID on.
func mixVMs(seed int64, n, firstID int) []workload.VM {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed = seed
	cfg.LifetimeStep = 0
	s, err := cfg.NewStream()
	if err != nil {
		panic(err) // the default config is valid; a failure is a bug
	}
	vms := make([]workload.VM, n)
	for i := range vms {
		vm, _ := s.Next()
		vm.ID = firstID + i
		vms[i] = vm
	}
	return vms
}
