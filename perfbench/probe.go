package main

import (
	"time"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

// probeResult holds mean times, in ns, of single layers measured on a
// live State: the candidate-index probe, the placement transaction on the
// boxes RISA chose, one optical flow, and RISA's whole decision on the
// same requests, from which the box-scan remainder is derived.
type probeResult struct {
	nextRackFits, allocate, allocateRelease, flow, schedule float64
	n                                                       int
}

// scan is RISA's decision time not spent in the probed layers.
func (p probeResult) scan() float64 { return p.schedule - p.nextRackFits - p.allocate }

func (p probeResult) report(r *result) {
	r.set("topology.next_rack_fits_ns", p.nextRackFits)
	r.set("sched.allocate_vm_ns", p.allocateRelease)
	r.set("network.allocate_flow_ns", p.flow)
	r.set("sched.scan_ns.RISA", p.scan())
	r.note("probe.samples", float64(p.n), "count")
	r.note("probe.risa_schedule_ns", p.schedule, "ns")
	r.note("probe.allocate_vm_only_ns", p.allocate, "ns")
}

// probeLayers times the layers on st with a fresh RISA scheduler bound to
// it. Every probe undoes itself, so st ends as it started; it is meant
// for the end of a workload, after its decisions are counted.
func probeLayers(st *sched.State, vms []workload.VM) (probeResult, error) {
	sch, err := sched.New("RISA", st, sched.Options{})
	if err != nil {
		return probeResult{}, err
	}
	var p probeResult
	var nrf, alloc, pair, flow, schedNS int64
	var nFlow int64
	for _, vm := range vms {
		t0 := time.Now()
		st.Cluster.NextRackFits(vm.Req, 0)
		nrf += int64(time.Since(t0))

		t0 = time.Now()
		a, err := sch.Schedule(vm)
		d := int64(time.Since(t0))
		if err != nil {
			continue
		}
		schedNS += d
		boxes := sched.BoxTriple{a.CPU.Box, a.RAM.Box, a.STO.Box}
		sch.Release(a)

		t0 = time.Now()
		a2, err := st.AllocateVM(vm, boxes, network.FirstFit)
		d = int64(time.Since(t0))
		if err != nil {
			return p, err
		}
		st.ReleaseVM(a2)
		alloc += d
		pair += int64(time.Since(t0))
		p.n++

		if boxes[units.CPU] != nil && boxes[units.RAM] != nil {
			bw := st.Units().CPURAMDemand(vm.Req)
			t0 = time.Now()
			fl, err := st.Fabric.AllocateFlow(boxes[units.CPU], boxes[units.RAM], bw, network.FirstFit)
			if err == nil {
				st.Fabric.ReleaseFlow(fl)
				flow += int64(time.Since(t0))
				nFlow++
			}
		}
	}
	if p.n > 0 {
		n := float64(p.n)
		p.nextRackFits = float64(nrf) / float64(len(vms))
		p.allocate = float64(alloc) / n
		p.allocateRelease = float64(pair) / n
		p.schedule = float64(schedNS) / n
	}
	if nFlow > 0 {
		p.flow = float64(flow) / float64(nFlow)
	}
	return p, nil
}

// statsRead is the in-process counterpart of GET /stats: the cluster-wide
// occupancy a monitoring client reads (utilization, stranded capacity and
// fabric load) taken on the live state.
func statsRead(st *sched.State, ref units.Vector) float64 {
	s := 0.0
	for _, k := range units.Resources() {
		s += st.Cluster.Utilization(k)
	}
	fr := st.Cluster.StrandedFraction(ref)
	for _, f := range fr {
		s += f
	}
	return s + st.Fabric.IntraRackUtilization() + st.Fabric.InterRackUtilization()
}

// checkState runs both invariant checkers on st.
func checkState(r *result, what string, st *sched.State) {
	if err := st.Cluster.CheckInvariants(); err != nil {
		r.check(false, "%s: cluster invariants: %v", what, err)
	}
	if err := st.Fabric.CheckInvariants(); err != nil {
		r.check(false, "%s: fabric invariants: %v", what, err)
	}
}
