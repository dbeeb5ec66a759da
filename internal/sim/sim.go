// Package sim is the discrete-event simulator that drives one scheduling
// algorithm over one workload trace against one datacenter state.
//
// Events are VM arrivals (from the trace), departures (scheduled when a
// VM is placed), ad-hoc injections and fault-plan events (hardware
// failing and recovering, see Config.Faults and DESIGN.md §10). Between
// events the simulator integrates the time-weighted signals the paper
// reports: compute utilization per resource (§5.1's 64.66/65.11/31.72 %),
// intra- and inter-rack network utilization (Figure 8), and optical power
// (Figure 9). Injections and faults at a timestamp are processed before
// its departures, and departures before arrivals, so releasing VMs make
// room for arriving ones.
//
// One simulated time unit is modeled as one second for energy accounting;
// the paper leaves the unit unspecified and only relative comparisons
// matter.
package sim

import (
	"fmt"
	"time"

	"risa/internal/faults"
	"risa/internal/metrics"
	"risa/internal/optics"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

// SecondsPerTimeUnit converts trace time units into seconds for energy
// integration.
const SecondsPerTimeUnit = 1.0

// eventKind orders simultaneous events: ad-hoc injections fire first,
// then fault-plan events, then departures free resources, then arrivals
// claim them. Plan events outrank departures so a VM departing at the
// exact instant its box fails still releases into a failed box (the
// deferred-capacity path), matching the order the injection-based
// resilience experiment always used.
type eventKind int

const (
	inject eventKind = iota
	fault
	departure
	arrival
)

// event is one heap entry.
type event struct {
	t    int64
	kind eventKind
	seq  int // tie-break: FIFO among equal (t, kind)
	fx   int // fault only: index into the runner's fault plan
	vm   workload.VM
	a    *sched.Assignment     // departure only
	do   func(st *sched.State) // inject only
}

// before orders events by (time, kind, sequence): earlier times first,
// then kind order (inject < fault < departure < arrival), then FIFO. It is
// the ordering the event queue (an eventQueue, see heap4.go) pops by.
func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.seq < o.seq
}

// queuedVM is one retry-queue entry. displaced marks a VM that was
// already accepted at its arrival and then evicted off failed hardware:
// placing it again is a recovery, not a second acceptance, and losing
// it for good counts as DisplacedLost rather than a drop.
type queuedVM struct {
	vm        workload.VM
	displaced bool
	// preempted marks a VM evicted by a higher-priority arrival
	// (core.Preempt): like displaced, it was already accepted once, so
	// re-placing it is a PreemptRecovered, losing it a PreemptLost.
	preempted bool
	// seq is the admission sequence (stream runs only): a monotone
	// counter stamped once per arrival processed and once per eviction,
	// so a conflict loser from the agent pool re-queues under its
	// ORIGINAL arrival order, not its commit-attempt order (see
	// streamRun.admit). Run's whole-trace queue leaves it zero.
	seq int
}

// Result aggregates everything one run produces. All percentages are in
// [0, 100].
type Result struct {
	Algorithm string
	Workload  string

	Scheduled int
	Dropped   int

	// InterRack counts assignments spanning racks (Figures 5 and 7);
	// InterPod counts assignments spanning pods (three-tier extension
	// only, always 0 on the paper's fabric).
	InterRack    int
	InterRackPct float64
	InterPod     int

	// Time-averaged and peak compute utilization per resource, percent.
	AvgUtil  [units.NumResources]float64
	PeakUtil [units.NumResources]float64

	// Network utilization, percent (Figure 8).
	AvgIntraUtil, PeakIntraUtil float64
	AvgInterUtil, PeakInterUtil float64

	// Mean CPU-RAM round-trip latency over scheduled VMs (Figure 10).
	MeanCPURAMLatency time.Duration

	// Optical power (Figure 9) and integrated energy.
	PeakPowerW float64
	AvgPowerW  float64
	EnergyJ    float64
	// Eq1EnergyJ is the per-VM Equation 1 energy summed over completed
	// VMs (switch setup + trimming over the actual lifetime), an
	// alternative view of the same physics.
	Eq1EnergyJ float64

	// SchedulingTime is the wall-clock time spent inside Schedule calls
	// (Figures 11 and 12).
	SchedulingTime time.Duration

	// Makespan is the simulated time of the last event.
	Makespan int64

	// Samples is the optional time series (see Config.SampleEvery).
	Samples []Sample

	// Retry-queue statistics (see Config.RetryDropped). Enqueued counts
	// arrivals that found no capacity and waited; RetrySucceeded counts
	// those eventually placed; MeanWait is their average queue time in
	// time units. VMs still waiting at the end of the run count as
	// Dropped.
	Enqueued       int
	RetrySucceeded int
	MeanWait       float64

	// Fault statistics (see Config.Faults/Evict). Displaced counts VMs
	// evicted off failed hardware; Recovered those re-placed elsewhere
	// (immediately, or later from the retry queue — never a second
	// acceptance in Scheduled); DisplacedLost those gone for good. All
	// zero when eviction is off — VMs then ride out the outage in place.
	Displaced     int
	Recovered     int
	DisplacedLost int
}

// Sample is one point of the optional utilization/power time series.
type Sample struct {
	T         int64                       // simulation time
	Util      [units.NumResources]float64 // compute utilization, percent
	IntraUtil float64                     // intra-rack network utilization, percent
	InterUtil float64                     // inter-rack network utilization, percent
	PowerW    float64                     // aggregate optical power
	Resident  int                         // VMs currently placed
}

// Injection is a timed state mutation — a fault (or repair) fired during
// the run, e.g. failing a box or link at time T. Injections at the same
// timestamp run before departures and arrivals.
type Injection struct {
	T  int64
	Do func(st *sched.State)
}

// Config parameterizes a run.
type Config struct {
	// Power model; nil uses optics defaults.
	PowerModel *power.Model
	// SampleEvery, when positive, records one Sample whenever simulated
	// time crosses a multiple of this interval (plus one final sample at
	// makespan). Zero disables the time series.
	SampleEvery int64
	// Injections are applied at their timestamps, in slice order among
	// equal times.
	Injections []Injection
	// RetryDropped, when set, turns the paper's drop-on-failure semantics
	// into a FIFO wait queue (an extension beyond the paper): arrivals
	// that cannot be placed wait, and every departure retries the queue
	// head-first. A waiting VM's lifetime starts when it is placed.
	RetryDropped bool
	// Faults is an optional fault plan merged into the event loop: each
	// event toggles box failure over its scope (box, rack or pod) at its
	// timestamp, between any ad-hoc Injections and the departures of the
	// same instant. Both Run and RunStream consume it.
	Faults *faults.Plan
	// Evict, with Faults, activates displaced-VM recovery: when hardware
	// fails, VMs resident on it are evicted and re-placed through the
	// scheduler's own policy (core.Displace); a VM that cannot be
	// re-placed is lost — or parks on the retry queue when RetryDropped
	// is also set. Without Evict, resident VMs ride out the outage in
	// place (their circuits are established) and only new arrivals route
	// around the hole.
	Evict bool
}

// Runner binds a scheduler and a state and runs traces.
type Runner struct {
	st          *sched.State
	sch         sched.Scheduler
	model       *power.Model
	sampleEvery int64
	injections  []Injection
	retry       bool
	plan        *faults.Plan
	evict       bool
	preempt     bool          // stream runs only (StreamFaults.Preempt)
	scratch     sched.Scratch // victim-selection workspace (preempt.go)
	downCount   []int         // per-box overlapping-outage refcounts (faults.go)
}

// NewRunner builds a Runner. The scheduler must be bound to st.
func NewRunner(st *sched.State, sch sched.Scheduler, cfg Config) (*Runner, error) {
	m := cfg.PowerModel
	if m == nil {
		var err error
		m, err = power.NewModel(optics.DefaultConfig())
		if err != nil {
			return nil, err
		}
	}
	if cfg.SampleEvery < 0 {
		return nil, fmt.Errorf("sim: negative sample interval %d", cfg.SampleEvery)
	}
	for i, inj := range cfg.Injections {
		if inj.T < 0 || inj.Do == nil {
			return nil, fmt.Errorf("sim: injection %d invalid (t=%d, do=%v)", i, inj.T, inj.Do != nil)
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(st.Cluster.NumRacks(), st.Cluster.Config().BoxesPerRack()); err != nil {
			return nil, err
		}
	}
	if cfg.Evict && cfg.Faults == nil {
		return nil, fmt.Errorf("sim: Evict requires a fault plan")
	}
	return &Runner{
		st: st, sch: sch, model: m,
		sampleEvery: cfg.SampleEvery,
		injections:  cfg.Injections,
		retry:       cfg.RetryDropped,
		plan:        cfg.Faults,
		evict:       cfg.Evict,
	}, nil
}

// Run plays the whole trace and returns the aggregated result. The state
// is left as the trace leaves it (all VMs depart by trace makespan, so a
// full run restores the initial state).
//
// Internally the trace is consumed through the workload.Stream adapter:
// arrivals are pulled lazily one at a time, so the event heap only ever
// holds the pending departures (plus injections) — the same bounded
// event loop RunStream uses for open-ended workloads.
func (r *Runner) Run(tr *workload.Trace) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	src := workload.NewTraceStream(tr)
	res := &Result{Algorithm: r.sch.Name(), Workload: tr.Name}
	acct := power.NewAccountant(r.model)

	var h eventQueue
	seq := 0
	for _, inj := range r.injections {
		h.Push(event{t: inj.T, kind: inject, seq: seq, do: inj.Do})
		seq++
	}
	if r.plan != nil {
		for i := range r.plan.Events {
			h.Push(event{t: r.plan.Events[i].T, kind: fault, seq: seq, fx: i})
			seq++
		}
	}

	var utilW [units.NumResources]metrics.TimeWeighted
	var intraW, interW, powerW metrics.TimeWeighted
	var latencySum time.Duration
	var lastT int64
	resident := 0
	nextSample := int64(0)
	var waiting []queuedVM // retry queue (FIFO), arrival-stamped
	var waitSum float64
	// Same-instant fault events form one atomic burst: all of them apply
	// before any eviction or queue drain, so a correlated outage cannot
	// leak VMs onto hardware that fails in the same tick.
	var burstFail, burstRepair bool
	r.resetFaultCounts()

	place := func(vm workload.VM, now int64) bool {
		start := time.Now()
		a, err := r.sch.Schedule(vm)
		res.SchedulingTime += time.Since(start)
		if err != nil {
			return false
		}
		res.Scheduled++
		resident++
		if a.InterRack() {
			res.InterRack++
		}
		if a.InterPod() {
			res.InterPod++
		}
		latencySum += a.CPURAMLatency()
		if a.CPURAMFlow != nil {
			acct.Add(a.CPURAMFlow)
		}
		if a.RAMSTOFlow != nil {
			acct.Add(a.RAMSTOFlow)
		}
		h.Push(event{t: now + vm.Lifetime, kind: departure, seq: seq, vm: vm, a: a})
		seq++
		return true
	}
	drainQueue := func(now int64) {
		for len(waiting) > 0 {
			q := waiting[0]
			if !place(q.vm, now) {
				return // FIFO: the head blocks the rest
			}
			waiting = waiting[1:]
			res.RetrySucceeded++
			waitSum += float64(now - q.vm.Arrival)
			if q.displaced {
				// place counted a second acceptance for a VM already
				// scheduled at its arrival; reclassify it as a recovery.
				res.Scheduled--
				res.Recovered++
			}
		}
	}

	snapshot := func(t int64) Sample {
		s := Sample{
			T:         t,
			IntraUtil: r.st.Fabric.IntraRackUtilization() * 100,
			InterUtil: r.st.Fabric.InterRackUtilization() * 100,
			PowerW:    acct.Power(),
			Resident:  resident,
		}
		for _, k := range units.Resources() {
			s.Util[k] = r.st.Cluster.Utilization(k) * 100
		}
		return s
	}
	record := func(t int64) {
		for _, k := range units.Resources() {
			utilW[k].Set(float64(t), r.st.Cluster.Utilization(k)*100)
		}
		intraW.Set(float64(t), r.st.Fabric.IntraRackUtilization()*100)
		interW.Set(float64(t), r.st.Fabric.InterRackUtilization()*100)
		powerW.Set(float64(t), acct.Power())
		if r.sampleEvery > 0 && t >= nextSample {
			res.Samples = append(res.Samples, snapshot(t))
			nextSample = (t/r.sampleEvery + 1) * r.sampleEvery
		}
	}
	record(0)

	pending, more := src.Next()
	for h.Len() > 0 || more {
		// Next event: the heap's minimum, unless the pending arrival
		// comes first (see heapFirst for the simultaneous-event order).
		var e event
		if heapFirst(&h, pending, more) {
			e = h.Pop()
		} else {
			e = event{t: pending.Arrival, kind: arrival, vm: pending}
			pending, more = src.Next()
		}
		if e.t < lastT {
			return nil, fmt.Errorf("sim: event time went backwards: %d < %d", e.t, lastT)
		}
		acct.AdvanceSeconds(float64(e.t-lastT) * SecondsPerTimeUnit)
		lastT = e.t

		switch e.kind {
		case inject:
			e.do(r.st)
			if r.retry {
				drainQueue(e.t) // repairs may free capacity
			}
		case fault:
			ev := r.plan.Events[e.fx]
			r.applyFault(ev)
			if ev.Repair {
				burstRepair = true
			} else {
				burstFail = true
			}
			if sameInstantFaultPending(&h, e.t) {
				break // finish the whole same-instant burst first
			}
			if r.evict && burstFail {
				r.evictDisplaced(&h, e.t, evictHooks{
					// The accountant holds the evicted VM's circuits;
					// swap them for the re-placement's (Eq1EnergyJ skips
					// evicted circuits — their lifetime is cut short).
					before: func(a *sched.Assignment) {
						for _, fl := range a.Flows() {
							acct.Remove(fl)
						}
					},
					after: func(a *sched.Assignment, recovered bool, _ time.Duration) {
						res.Displaced++
						if recovered {
							res.Recovered++
							for _, fl := range a.Flows() {
								acct.Add(fl)
							}
						}
					},
					lost: func(vm workload.VM) {
						resident--
						if r.retry {
							// The displaced VM re-enters the queue now:
							// its wait is measured from the eviction and
							// its lifetime restarts when re-placed.
							vm.Arrival = e.t
							waiting = append(waiting, queuedVM{vm: vm, displaced: true})
							res.Enqueued++
						} else {
							res.DisplacedLost++
						}
					},
				})
			}
			if r.retry && burstRepair {
				drainQueue(e.t) // repairs free capacity
			}
			burstFail, burstRepair = false, false
		case departure:
			if e.a == nil {
				break // ghost: the VM was displaced and lost or re-queued
			}
			life := time.Duration(float64(e.vm.Lifetime) * SecondsPerTimeUnit * float64(time.Second))
			if fl := e.a.CPURAMFlow; fl != nil {
				acct.Remove(fl)
				res.Eq1EnergyJ += r.model.FlowEnergy(fl, life)
			}
			if fl := e.a.RAMSTOFlow; fl != nil {
				acct.Remove(fl)
				res.Eq1EnergyJ += r.model.FlowEnergy(fl, life)
			}
			r.sch.Release(e.a)
			resident--
			if r.retry {
				drainQueue(e.t)
			}
		case arrival:
			if r.retry && len(waiting) > 0 {
				// FIFO fairness: queued VMs go first.
				waiting = append(waiting, queuedVM{vm: e.vm})
				res.Enqueued++
				drainQueue(e.t)
				break
			}
			if !place(e.vm, e.t) {
				if r.retry {
					waiting = append(waiting, queuedVM{vm: e.vm})
					res.Enqueued++
				} else {
					res.Dropped++
				}
			}
		}
		record(e.t)
	}

	if r.sampleEvery > 0 && (len(res.Samples) == 0 || res.Samples[len(res.Samples)-1].T != lastT) {
		res.Samples = append(res.Samples, snapshot(lastT))
	}
	for _, q := range waiting { // still queued at the end: never placed
		if q.displaced {
			res.DisplacedLost++ // was accepted once; its re-admission failed
		} else {
			res.Dropped++
		}
	}
	if res.RetrySucceeded > 0 {
		res.MeanWait = waitSum / float64(res.RetrySucceeded)
	}
	res.Makespan = lastT
	end := float64(lastT)
	for _, k := range units.Resources() {
		res.AvgUtil[k] = utilW[k].Average(end)
		res.PeakUtil[k] = utilW[k].Peak()
	}
	res.AvgIntraUtil = intraW.Average(end)
	res.PeakIntraUtil = intraW.Peak()
	res.AvgInterUtil = interW.Average(end)
	res.PeakInterUtil = interW.Peak()
	res.AvgPowerW = powerW.Average(end)
	res.PeakPowerW = acct.PeakPower()
	res.EnergyJ = acct.EnergyJoules()
	if res.Scheduled > 0 {
		res.MeanCPURAMLatency = latencySum / time.Duration(res.Scheduled)
	}
	if total := res.Scheduled + res.Dropped; total > 0 {
		res.InterRackPct = float64(res.InterRack) / float64(total) * 100
	}
	return res, nil
}
