// Package baseline implements the two state-of-the-art schedulers the RISA
// paper compares against, from Zervas et al. (JOCN 2018):
//
//   - NULB, the network-unaware locality-based heuristic (the paper's
//     Algorithm 2): pick the most contended resource by contention ratio,
//     take the first box that can hold it, find the remaining resources by
//     breadth-first search (same rack first, then the other racks), and
//     reserve bandwidth on the first links that fit.
//   - NALB, the network-aware variant: the BFS visits candidate boxes in
//     descending order of their available uplink bandwidth, and the network
//     phase picks the links with the most available bandwidth.
//
// Both schedulers also serve as RISA's SUPER_RACK fallback, which is why
// Schedule is split into a maskable ScheduleMasked.
package baseline

import (
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// Masks restricts the candidate racks per resource; a nil entry allows all
// racks for that resource. RISA's SUPER_RACK is expressed as one mask per
// resource kind.
type Masks [units.NumResources]sched.RackMask

// zervas is the shared implementation of NULB and NALB.
type zervas struct {
	st   *sched.State
	nalb bool // true → NALB: bandwidth-ordered BFS + max-avail links
}

// NewNULB returns the network-unaware locality-based scheduler bound to st.
func NewNULB(st *sched.State) sched.Scheduler { return &zervas{st: st} }

// NewNALB returns the network-aware locality-based scheduler bound to st.
func NewNALB(st *sched.State) sched.Scheduler { return &zervas{st: st, nalb: true} }

// MaskedScheduler is a Scheduler that can additionally be restricted to a
// subset of racks per resource; RISA's SUPER_RACK fallback needs this.
type MaskedScheduler interface {
	sched.Scheduler
	ScheduleMasked(vm workload.VM, masks Masks) (*sched.Assignment, error)
	// ChooseMasked computes ScheduleMasked's placement choice alone —
	// the scarce box and the BFS for the remaining resources — without
	// touching the network phase or allocating anything. Pure reads
	// against a settled cluster; the propose path builds fallback-tier
	// claims from it.
	ChooseMasked(vm workload.VM, masks Masks) (sched.BoxTriple, network.Policy, error)
}

// NewNULBMasked returns NULB exposed with its maskable entry point for use
// as RISA's fallback.
func NewNULBMasked(st *sched.State) MaskedScheduler { return &zervas{st: st} }

// Name implements sched.Scheduler.
func (z *zervas) Name() string {
	if z.nalb {
		return "NALB"
	}
	return "NULB"
}

// Schedule implements sched.Scheduler over the whole cluster.
func (z *zervas) Schedule(vm workload.VM) (*sched.Assignment, error) {
	return z.ScheduleMasked(vm, Masks{})
}

// Release implements sched.Scheduler.
func (z *zervas) Release(a *sched.Assignment) { z.st.ReleaseVM(a) }

// ScheduleMasked runs Algorithm 2 restricted to the masked racks.
func (z *zervas) ScheduleMasked(vm workload.VM, masks Masks) (*sched.Assignment, error) {
	boxes, policy, err := z.ChooseMasked(vm, masks)
	if err != nil {
		return nil, err
	}
	// Phase 2: network allocation. NULB takes the first links that fit,
	// NALB the links with the most available bandwidth.
	return z.st.AllocateVM(vm, boxes, policy)
}

// ChooseMasked implements MaskedScheduler: phases 1a and 1b of
// Algorithm 2 — the box choice — with no allocation and no writes.
func (z *zervas) ChooseMasked(vm workload.VM, masks Masks) (sched.BoxTriple, network.Policy, error) {
	var boxes sched.BoxTriple
	policy := network.FirstFit
	if z.nalb {
		policy = network.MaxAvail
	}
	cl := z.st.Cluster
	resMax, ok := sched.ScarcestResource(cl, vm.Req)
	if !ok {
		return boxes, policy, sched.ErrNothingRequested
	}

	// Phase 1a: the first box anywhere that can hold the scarcest
	// resource (global rack-major, box-index order).
	first := z.firstBox(resMax, vm.Req[resMax], masks[resMax])
	if first == nil {
		return boxes, policy, sched.ErrNoBox[resMax]
	}

	// Phase 1b: BFS outwards from the scarce box for the other resources.
	boxes[resMax] = first
	for _, r := range units.Resources() {
		if r == resMax || vm.Req[r] == 0 {
			continue
		}
		b := z.bfsFind(first.Rack(), r, vm.Req[r], masks[r])
		if b == nil {
			return boxes, policy, sched.ErrNoBoxReachable[r]
		}
		boxes[r] = b
	}
	return boxes, policy, nil
}

// firstBox returns the first box in global order holding kind r with
// enough free, honoring the rack mask. Candidate racks come from the
// cluster-level index (ascending rack order, racks without a large-enough
// box never surface) and the box-level test reads the rack's contiguous
// visible-free vector, which leaves the scan order (and thus the chosen
// box) identical to a full rack-major sweep over the box pointers while
// skipping the non-qualifying racks entirely.
func (z *zervas) firstBox(r units.Resource, need units.Amount, mask sched.RackMask) *topology.Box {
	cl := z.st.Cluster
	for ri := cl.NextRackWith(r, need, 0); ri >= 0; ri = cl.NextRackWith(r, need, ri+1) {
		if !mask.Allows(ri) {
			continue
		}
		rack := cl.Rack(ri)
		for i, f := range rack.FreeVecOf(r) {
			if f >= need {
				return rack.BoxesOf(r)[i]
			}
		}
	}
	return nil
}

// bfsFind searches for a box of kind r with enough free space, visiting
// the home rack's boxes first and then every other rack (ascending index —
// all racks are equidistant through the inter-rack switch). NALB takes
// each BFS level in descending order of available uplink bandwidth.
func (z *zervas) bfsFind(homeRack int, r units.Resource, need units.Amount, mask sched.RackMask) *topology.Box {
	cl := z.st.Cluster
	if mask.Allows(homeRack) {
		if b := z.pickFromLevel(cl.Rack(homeRack), r, need); b != nil {
			return b
		}
	}
	// Second BFS level: all remaining racks, pruned through the
	// cluster-level candidate index so only racks with a large-enough box
	// contribute their boxes. Dropping boxes that could never be picked
	// does not change the choice (both policies only ever select a
	// fitting box).
	if !z.nalb {
		// NULB scans the level in construction order, so it never needs
		// the level materialized at all: the first fitting box in
		// ascending (rack, box) order wins.
		for ri := cl.NextRackWith(r, need, 0); ri >= 0; ri = cl.NextRackWith(r, need, ri+1) {
			if ri == homeRack || !mask.Allows(ri) {
				continue
			}
			rack := cl.Rack(ri)
			for i, f := range rack.FreeVecOf(r) {
				if f >= need {
					return rack.BoxesOf(r)[i]
				}
			}
		}
		return nil
	}
	// NALB's level order is descending uplink bandwidth with construction
	// order breaking ties (the historical stable sort), and the pick is
	// the first FITTING box in that order — equivalently, the fitting box
	// with the maximum uplink bandwidth, earliest first among equals. The
	// single max-scan below computes exactly that without materializing or
	// sorting the level (the pre-SoA code built and stable-sorted every
	// qualifying rack's boxes per decision, the dominant superlinear term
	// in NALB's hyperscale decision time), and probes the fabric only for
	// boxes that fit instead of for the whole level.
	fab := z.st.Fabric
	var chosen *topology.Box
	var bestKey units.Bandwidth
	for ri := cl.NextRackWith(r, need, 0); ri >= 0; ri = cl.NextRackWith(r, need, ri+1) {
		if ri == homeRack || !mask.Allows(ri) {
			continue
		}
		rack := cl.Rack(ri)
		boxes := rack.BoxesOf(r)
		for i, f := range rack.FreeVecOf(r) {
			if f < need {
				continue
			}
			if k := fab.BoxUplinkFree(boxes[i]); chosen == nil || k > bestKey {
				chosen, bestKey = boxes[i], k
			}
		}
	}
	return chosen
}

// pickFromLevel returns the box one BFS level yields for kind res in one
// rack: the first fitting box in index order for NULB, the fitting box
// with the most available uplink bandwidth (ties to the earliest, the
// stable-sort order) for NALB.
func (z *zervas) pickFromLevel(rack *topology.Rack, res units.Resource, need units.Amount) *topology.Box {
	free := rack.FreeVecOf(res)
	if z.nalb {
		fab := z.st.Fabric
		boxes := rack.BoxesOf(res)
		var chosen *topology.Box
		var bestKey units.Bandwidth
		for i, f := range free {
			if f < need {
				continue
			}
			if k := fab.BoxUplinkFree(boxes[i]); chosen == nil || k > bestKey {
				chosen, bestKey = boxes[i], k
			}
		}
		return chosen
	}
	for i, f := range free {
		if f >= need {
			return rack.BoxesOf(res)[i]
		}
	}
	return nil
}
