// Package core implements the RISA paper's contribution: the Round-robin
// Intra-rack friendly Scheduling Algorithm (Algorithm 1) and its best-fit
// variant RISA-BF (Algorithm 3).
//
// RISA's idea: a VM whose whole request fits inside a single rack should
// be placed inside a single rack, because every inter-rack placement burns
// inter-rack optical bandwidth, switch power and latency. RISA therefore
//
//  1. builds the INTRA_RACK_POOL — every rack whose per-resource maximum
//     single-box availability covers the request;
//  2. walks that pool round-robin (a rotating cursor balances load across
//     racks) and places the VM in the first pool rack whose intra-rack
//     network can still carry the VM's flows;
//  3. only when the pool is empty (or no pool rack has network headroom)
//     builds the SUPER_RACK — per resource, the racks that could hold that
//     single component — and delegates to NULB restricted to those racks,
//     accepting an inter-rack placement.
//
// RISA-BF differs in step 2 only: boxes inside the chosen rack are taken
// best-fit (ascending free space) instead of first-fit, packing tighter
// and stranding less.
package core

import (
	"risa/internal/baseline"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// RISA is the scheduler of Algorithm 1 (and, with best-fit box selection,
// Algorithm 3). Not safe for concurrent use.
type RISA struct {
	st       *sched.State
	fallback baseline.MaskedScheduler
	opts     Options
	cursor   int // round-robin rack cursor: next rack index to prefer
	stats    Stats

	// scratch owns RISA's reusable decision buffers: the SUPER_RACK masks
	// (one preallocated RackMask per resource, cleared per decision) and
	// the per-rack, per-resource next-fit box cursors, stored densely by
	// rack index instead of the map[int]*[...]int the pre-scratch code
	// hashed through on every placement.
	//
	// On the cursors themselves: the paper calls its intra-rack packing
	// "first-fit, box 0 first, then box 1", but Table 4 shows the
	// selection never returns to an earlier box while the current one
	// still fits (VM 4 with 5 cores goes to box 1 although box 0 has 9
	// free) — i.e. next-fit. We reproduce Table 4 exactly; see
	// DESIGN.md §4.
	scratch sched.Scratch
}

// New returns RISA bound to the given datacenter state.
func New(st *sched.State) *RISA { return NewWithOptions(st, Options{}) }

// NewBF returns RISA-BF (Algorithm 3) bound to the given state.
func NewBF(st *sched.State) *RISA {
	return NewWithOptions(st, Options{Packing: BestFit})
}

// NewWithOptions returns an ablated RISA variant; see Options.
func NewWithOptions(st *sched.State, opts Options) *RISA {
	return &RISA{
		st:       st,
		fallback: baseline.NewNULBMasked(st),
		opts:     opts,
	}
}

// Name implements sched.Scheduler.
func (r *RISA) Name() string {
	if r.opts.Name != "" {
		return r.opts.Name
	}
	if r.opts.Packing == BestFit {
		return "RISA-BF"
	}
	return "RISA"
}

// Release implements sched.Scheduler.
func (r *RISA) Release(a *sched.Assignment) { r.st.ReleaseVM(a) }

// Schedule implements sched.Scheduler: Algorithm 1 / Algorithm 3 for one
// VM.
func (r *RISA) Schedule(vm workload.VM) (*sched.Assignment, error) {
	if !vm.Req.NonNegative() || vm.Req.IsZero() {
		return nil, sched.ErrUnusable
	}
	a, poolSeen := r.scheduleIntra(vm)
	if a != nil {
		r.stats.IntraRack++
		return a, nil
	}
	if poolSeen {
		// Pool racks exist but none has the network headroom (or a
		// placement raced against bandwidth fragmentation): fall back.
		r.stats.NetGated++
	} else {
		r.stats.PoolEmpty++
	}
	a, err := r.scheduleSuperRack(vm)
	if err != nil {
		r.stats.Dropped++
		return nil, err
	}
	r.stats.SuperRack++
	return a, nil
}

// scheduleIntra walks the INTRA_RACK_POOL round-robin starting at the
// cursor and attempts an intra-rack placement in each candidate until one
// sticks. The pool is never materialized: qualifying racks are enumerated
// lazily through the cluster-level candidate index (NextRackFits), in
// ascending index order rotated at the cursor — exactly the order the
// materialized pool walk used — so in the common case where an early
// candidate accepts the VM, the remaining racks are never even visited and
// the decision cost is independent of the cluster size. poolSeen reports
// whether any qualifying rack existed (a nil assignment with poolSeen set
// means every pool rack was network-gated).
//
// Probing a candidate cannot disturb the enumeration: a failed probe rolls
// back completely, so the candidate set seen by later NextRackFits calls
// is the one a snapshot at entry would have produced.
func (r *RISA) scheduleIntra(vm workload.VM) (a *sched.Assignment, poolSeen bool) {
	cfg := r.st.Units()
	cl := r.st.Cluster
	demand := cfg.CPURAMDemand(vm.Req) + cfg.RAMSTODemand(vm.Req)
	try := func(rackIdx int) *sched.Assignment {
		r.stats.RacksProbed++
		// AVAIL_INTRA_RACK_NET: skip racks whose intra-rack links cannot
		// carry both of the VM's flows at all.
		if r.st.Fabric.RackIntraFree(rackIdx) < demand {
			return nil
		}
		boxes, ok := r.chooseBoxes(cl.Rack(rackIdx), vm.Req)
		if !ok {
			return nil
		}
		a, err := r.st.AllocateVM(vm, boxes, network.FirstFit)
		if err != nil {
			return nil // e.g. per-link bandwidth fragmentation; try next rack
		}
		// Advance the round-robin cursor past the rack we just used and
		// remember the next-fit box positions inside it.
		if !r.opts.DisableRoundRobin {
			r.cursor = (rackIdx + 1) % cl.NumRacks()
		}
		if r.opts.Packing == NextFit {
			cur := r.scratch.Cursors(rackIdx)
			for _, res := range units.Resources() {
				if boxes[res] != nil {
					cur[res] = boxes[res].KindIndex()
				}
			}
		}
		return a
	}
	start := r.cursor
	for i := cl.NextRackFits(vm.Req, start); i >= 0; i = cl.NextRackFits(vm.Req, i+1) {
		poolSeen = true
		if a := try(i); a != nil {
			return a, true
		}
	}
	for i := cl.NextRackFits(vm.Req, 0); i >= 0 && i < start; i = cl.NextRackFits(vm.Req, i+1) {
		poolSeen = true
		if a := try(i); a != nil {
			return a, true
		}
	}
	return nil, poolSeen
}

// chooseBoxes picks one box per requested resource inside the rack
// according to the packing policy. RISA packs next-fit: scanning starts at
// the rack's cursor box and wraps, staying on the current box while it
// fits (this is what the paper's Table 4 traces — see the boxCursor
// comment). RISA-BF takes the fitting box with the least free space
// (best-fit). First-fit and worst-fit exist for the packing ablation.
//
// All four policies scan the rack's visible-free vector (FreeVecOf) —
// one contiguous amount slice in box-index order, equal element for
// element to Free() over BoxesOf — and only dereference the single box
// they choose, so the per-candidate cost is a handful of cache lines
// regardless of cluster size.
func (r *RISA) chooseBoxes(rack *topology.Rack, req units.Vector) (sched.BoxTriple, bool) {
	var boxes sched.BoxTriple
	cur := r.scratch.Cursors(rack.Index())
	for _, res := range units.Resources() {
		if req[res] == 0 {
			continue
		}
		free := rack.FreeVecOf(res)
		chosen := -1
		switch r.opts.Packing {
		case BestFit:
			for i, f := range free {
				if f < req[res] {
					continue
				}
				if chosen < 0 || f < free[chosen] {
					chosen = i
				}
			}
		case WorstFit:
			for i, f := range free {
				if f < req[res] {
					continue
				}
				if chosen < 0 || f > free[chosen] {
					chosen = i
				}
			}
		case FirstFit:
			for i, f := range free {
				if f >= req[res] {
					chosen = i
					break
				}
			}
		default: // NextFit — the paper's RISA
			start := cur[res]
			for k := 0; k < len(free); k++ {
				if i := (start + k) % len(free); free[i] >= req[res] {
					chosen = i
					break
				}
			}
		}
		if chosen < 0 {
			return boxes, false
		}
		boxes[res] = rack.BoxesOf(res)[chosen]
	}
	return boxes, true
}

// scheduleSuperRack checks the SUPER_RACK (per resource, the racks whose
// best box could hold that component) is non-empty and delegates to NULB,
// accepting an inter-rack placement. The SUPER_RACK is never
// materialized: NULB's own scans enumerate candidate racks through
// NextRackWith with exactly the per-resource needs the masks were built
// from, so a rack outside the SUPER_RACK can never surface in them — the
// explicit masks the pre-SoA code built (O(racks) tree queries plus an
// O(racks) mask clear per fallback decision) were bit-for-bit redundant.
// The one observable the masks still carried is the per-resource
// emptiness reason (sched.ErrSuperRackEmpty), reproduced here by one
// O(log racks) candidate probe per resource.
func (r *RISA) scheduleSuperRack(vm workload.VM) (*sched.Assignment, error) {
	cl := r.st.Cluster
	for _, res := range units.Resources() {
		if vm.Req[res] == 0 {
			continue
		}
		if cl.NextRackWith(res, vm.Req[res], 0) < 0 {
			return nil, sched.ErrSuperRackEmpty[res]
		}
	}
	return r.fallback.ScheduleMasked(vm, baseline.Masks{})
}

// Cursor exposes the round-robin position for tests and ablations.
func (r *RISA) Cursor() int { return r.cursor }

// SchedulerState implements sched.StatefulScheduler: RISA's carried
// decision state is the round-robin rack cursor plus the per-rack
// next-fit box cursors. Diagnostic counters are excluded (they never
// influence a placement).
func (r *RISA) SchedulerState() sched.SchedulerState {
	return sched.SchedulerState{Cursor: r.cursor, BoxCursors: r.scratch.CursorState()}
}

// RestoreSchedulerState implements sched.StatefulScheduler.
func (r *RISA) RestoreSchedulerState(st sched.SchedulerState) {
	r.cursor = st.Cursor
	r.scratch.RestoreCursorState(st.BoxCursors)
}
